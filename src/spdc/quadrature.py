"""Numerical integration helpers shared by the overlap and rate modules.

Everything here is a fixed-order Gauss-Legendre rule on a panel layout the
caller chooses, evaluated on whole arrays of nodes at once: ``complex_quad``
for the one-off overlap integrals, which compares the order-8 and order-16
sums over the same panels for its error estimate, ``ell_integral`` for the
batches of axial integrals inside the brute-force rate integrals (one rule
per call, sized by the call's largest |phi|), and
``panel_edges``/``panel_nodes`` for the layouts. No layout may hold more
than ``MAX_PANELS`` panels; one that would raises before its nodes are
built. Summation order is fixed everywhere, so results are deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Cached nodes/weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


# panels one layout may hold; at the cap an order-16 pass has 800,000 nodes
MAX_PANELS = 50_000
# the lower of the two Gauss-Legendre orders complex_quad compares
_PANEL_ORDER = 8


def _check_panel_count(count: float):
    if not (count <= MAX_PANELS):
        raise QuadratureError(
            f"quadrature layout needs {count:.4g} panels, more than the cap of "
            f"{MAX_PANELS}"
        )


def complex_quad(f, edges, tol: float):
    """Integrate a vectorised complex integrand over the panels between ``edges``.

    ``f`` takes an array of abscissae and returns the integrand there. It is
    called twice: on the order-8 and on the order-16 Gauss-Legendre nodes of
    every panel. The order-16 sum is the value and its distance from the
    order-8 sum the error estimate. ``tol`` is relative to the larger of
    |value| and the order-16 sum of |f|, which stays away from zero where an
    oscillating integrand cancels. Returns (value, error_estimate). Raises
    QuadratureError, carrying the estimate, when the estimate is over that
    budget or not finite, and before evaluating anything when ``edges`` has
    more than ``MAX_PANELS`` panels.
    """
    if not (tol > 0.0):
        raise QuadratureError(f"quadrature tolerance must be positive, got {tol}")
    _check_panel_count(len(edges) - 1)
    nodes, weights = panel_nodes(edges, _PANEL_ORDER)
    coarse = complex(weights @ f(nodes))
    nodes, weights = panel_nodes(edges, 2 * _PANEL_ORDER)
    values = f(nodes)
    value = complex(weights @ values)
    err = abs(value - coarse)
    budget = tol * max(abs(value), float(weights @ np.abs(values)))
    if not (math.isfinite(err) and err <= budget):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds budget {budget:.3e}",
            estimate=err,
        )
    return value, err


def _ell_rule_size(phi_abs: float, xi_abs: float) -> int:
    """Gauss-Legendre order resolving exp(-i phi l / 2) / (1 + i l xi ...) on [-1, 1].

    Checked against adaptive references to <1e-8 relative for |phi| <= 2000,
    |xi| <= 12. Past 4000 nodes (|phi| ~5,100 at small xi) it raises, since
    a capped rule would alias.
    """
    n = 0.78 * phi_abs + 10.0 * xi_abs + 24
    if n > 4000:
        raise DomainError(f"axial integral at |phi| = {phi_abs:.4g}, xi = "
                          f"{xi_abs:.4g} needs more than 4000 Gauss-Legendre nodes")
    return int(max(64, n))


def ell_integral(phi, xi: float, C: float = 0.0, *, offsets=None):
    """Vectorized integral over l in [-1, 1] of exp(-i phi l / 2) / (1 + i l xi - C xi^2 l^2).

    This is the reduced axial factor of the Gaussian overlap integral,
    evaluated with one fixed-order Gauss-Legendre rule per call, sized by
    the call's largest finite |phi|, so that large batches of
    phase-mismatch values are cheap. Accepts scalar or array ``phi``;
    returns complex of the same shape. NaN or infinite phases give NaN; a
    phase or xi needing over 4000 nodes raises DomainError.

    With ``offsets`` (a 1-D sequence a_j), returns I(offsets[j] + phi[k])
    with shape ``(len(offsets),) + phi.shape``. The exponential factors,
    exp(-i (a + b) l / 2) = exp(-i a l / 2) exp(-i b l / 2), so the rule
    of n nodes costs (J + M) n exponentials and one (J x n) @ (n x M)
    product instead of J M n exponentials. The plain call is the
    ``offsets = [0]`` case.
    """
    phi_arr = np.asarray(phi, dtype=float)
    a = np.zeros(1) if offsets is None else np.asarray(offsets, dtype=float).ravel()
    b = phi_arr.ravel()
    out = np.full((a.size, b.size), complex(math.nan, math.nan))
    finite_a, finite_b = a[np.isfinite(a)], b[np.isfinite(b)]
    if finite_a.size and finite_b.size:
        # a_j + b_k spans [min a + min b, max a + max b]
        peak = max(abs(finite_a.max() + finite_b.max()),
                   abs(finite_a.min() + finite_b.min()))
        n = _ell_rule_size(float(peak), abs(xi))
        x, w = gauss_legendre(n)
        g = w / (1.0 + 1j * x * xi - C * (xi * xi) * (x * x))
        # a NaN or infinite phase turns its row or column of the product NaN
        with np.errstate(invalid="ignore"):
            rows = np.exp(-0.5j * np.outer(a, x)) * g
            # chunk the (nodes x columns) factor and the result block to bound memory
            block = max(1, int(2.0e6 / (n + a.size)))
            for start in range(0, b.size, block):
                cols = slice(start, start + block)
                out[:, cols] = rows @ np.exp(-0.5j * np.outer(x, b[cols]))
    out = out.reshape(phi_arr.shape if offsets is None else a.shape + phi_arr.shape)
    return complex(out) if out.ndim == 0 else out


def panel_count(length: float, max_width: float) -> int:
    """Number of equal panels of width <= max_width covering ``length``.

    Raises QuadratureError when that is more than ``MAX_PANELS`` or not a
    finite number (a zero width included), before anything is allocated.
    """
    count = length / max_width if max_width > 0.0 else math.inf
    _check_panel_count(count)
    return max(1, math.ceil(count))


def panel_edges(lo: float, hi: float, max_width: float) -> np.ndarray:
    """Uniform panel edges covering [lo, hi] with width <= max_width."""
    return np.linspace(lo, hi, panel_count(hi - lo, max_width) + 1)


def panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights for a set of panels.

    Returns (nodes, weights) flattened over panels in ascending order; the
    weights already include the panel half-width factor.
    """
    x, w = gauss_legendre(order)
    mids = 0.5 * (edges[:-1] + edges[1:])
    hws = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + hws[:, None] * x[None, :]).ravel()
    weights = (hws[:, None] * w[None, :]).ravel()
    return nodes, weights
