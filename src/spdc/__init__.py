"""Absolute brightness of spontaneous parametric down-conversion with
focused Gaussian pump and collection modes: closed-form rates, overlap
integrals, and the brute-force quadrature oracles that validate them.

The package exports its entry points only; everything else is imported
from the module that defines it (``spdc.beams``, ``spdc.materials``,
``spdc.overlap``, ``spdc.quadrature``, ``spdc.rates``, ``spdc.config``,
``spdc.errors``).

numpy is imported on first array use: importing the package, ``load_config``
and the closed form (``pairs_closed_form``, the CLI's ``rate``, ``optimize``
and ``table``) never load it; scans, overlap integrals and the oracles do.
"""

from .config import load_config
from .errors import SpdcError
from .rates import RateResult, pairs_closed_form, pairs_degenerate_numeric, pairs_via_bruteforce

__all__ = [
    "RateResult",
    "SpdcError",
    "load_config",
    "pairs_closed_form",
    "pairs_degenerate_numeric",
    "pairs_via_bruteforce",
]

__version__ = "0.1.0"
