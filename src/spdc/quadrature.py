"""Numerical integration helpers shared by the overlap and rate modules.

Everything here is a fixed-order Gauss-Legendre rule on a panel layout the
caller chooses, evaluated on whole arrays of nodes at once: ``complex_quad``
for the one-off overlap integrals, which compares the order-8 and order-16
sums over the same panels for its error estimate, ``ell_integral`` for the
batches of axial integrals inside the brute-force rate integrals, and
``panel_count``/``panel_nodes`` for the layouts. ``ell_integral`` uses one
rule per call, sized by the call's largest |phi|, with its folded nodes
and weights cached by rule, xi and C. Its integrand is conjugate at l and
-l, so the axial integral is real and is returned as a float: the rule is
folded onto its nodes x >= 0, and J offsets by M phases on an n-node rule
cost (J + M) ceil(n / 2) complex exponentials and one real matrix product.
No layout may hold more than ``MAX_PANELS`` panels; one that would raises
before its nodes are built. ``complex_quad`` walks a long layout in blocks
of ``_BLOCK_PANELS`` panels, so its arrays stay small whatever the layout.
Summation order is fixed everywhere, so results are deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._numpy import np
from .errors import DomainError, QuadratureError


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Cached nodes/weights of the n-point Gauss-Legendre rule on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=64)
def _ell_weights(n: int, xi: float, C: float):
    """Read-only nodes and weights row of ``ell_integral``'s n-node rule, folded onto x >= 0.

    Returns the nodes x >= 0 of the rule and, over them, the row
    g = 2 w / (1 + i x xi - C xi^2 x^2) as floats (Re g_1, Im g_1, ...),
    with g = w at the middle node x = 0 of an odd rule, which pairs with
    itself. Cached, so that a scan calling ``ell_integral`` once per phase
    at one (xi, C) builds them once; a hit returns the very arrays a miss
    built.
    """
    x, w = gauss_legendre(n)
    x, w = x[n // 2:], w[n // 2:]
    g = np.where(x > 0.0, 2.0 * w, w) / (1.0 + 1j * x * xi - C * (xi * xi) * (x * x))
    g = g.view(float)
    g.flags.writeable = False
    return x, g


# panels one layout may hold
MAX_PANELS = 50_000
# the lower of the two Gauss-Legendre orders complex_quad compares
_PANEL_ORDER = 8
# panels complex_quad evaluates at once: an order-16 block is 4096 nodes, 64 KiB
# of complex values, which stays in cache and in malloc's reused heap instead
# of mapping and faulting in fresh pages for each array of a long layout
_BLOCK_PANELS = 256


def _check_panel_count(count: float):
    if not (count <= MAX_PANELS):
        raise QuadratureError(
            f"quadrature layout needs {count:.4g} panels, more than the cap of "
            f"{MAX_PANELS}"
        )


def _times_sign(values, sign):
    """Panel-major ``values`` times a column of per-panel factors; unchanged for None."""
    return values if sign is None else (values.reshape(sign.size, -1) * sign).ravel()


def complex_quad(f, edges, tol: float, signs=None):
    """Integrate a vectorised complex integrand over the panels between ``edges``.

    ``f`` takes an array of abscissae and returns the integrand there. It is
    called on the order-8 and on the order-16 Gauss-Legendre nodes of every
    block of at most ``_BLOCK_PANELS`` panels. ``signs``, if given, holds
    one real factor per panel that multiplies f on that panel (a poling
    sign). The order-16 sum is the value and its distance from the order-8
    sum the error estimate. ``tol`` is relative to the larger of |value|
    and the order-16 sum of |f|, which stays away from zero where an
    oscillating integrand cancels. Returns (value, error_estimate). Raises
    QuadratureError, carrying the estimate, when the estimate is over that
    budget or not finite, and before evaluating anything when ``edges`` has
    more than ``MAX_PANELS`` panels.
    """
    if not (tol > 0.0):
        raise QuadratureError(f"quadrature tolerance must be positive, got {tol}")
    n_panels = len(edges) - 1
    _check_panel_count(n_panels)
    coarse = value = 0j
    scale = 0.0
    for lo in range(0, n_panels, _BLOCK_PANELS):
        block = edges[lo:lo + _BLOCK_PANELS + 1]
        sign = None if signs is None else signs[lo:lo + _BLOCK_PANELS, None]
        nodes, weights = panel_nodes(block, _PANEL_ORDER)
        coarse += weights @ _times_sign(f(nodes), sign)
        nodes, weights = panel_nodes(block, 2 * _PANEL_ORDER)
        values = _times_sign(f(nodes), sign)
        value += weights @ values
        scale += weights @ np.abs(values)
    value, coarse = complex(value), complex(coarse)
    err = abs(value - coarse)
    budget = tol * max(abs(value), float(scale))
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
    a capped rule would alias; so does a NaN or infinite |phi| or |xi|.
    """
    n = 0.78 * phi_abs + 10.0 * xi_abs + 24
    if not (n <= 4000):
        raise DomainError(f"axial integral at |phi| = {phi_abs:.4g}, xi = {xi_abs:.4g}: the "
                          "phase must be finite and need at most 4000 Gauss-Legendre nodes")
    return int(max(64, n))


def ell_integral(phi, xi: float, C: float = 0.0, *, offsets=None):
    """Vectorized integral over l in [-1, 1] of exp(-i phi l / 2) / (1 + i l xi - C xi^2 l^2).

    This is the reduced axial factor of the Gaussian overlap integral,
    evaluated with one fixed-order Gauss-Legendre rule per call, sized by
    the call's largest |phi|, so that large batches of phase-mismatch
    values are cheap. Accepts scalar or array ``phi``; returns a float, or
    a float64 array of the same shape. A NaN or infinite phase, offset or
    xi, or a phase needing over 4000 nodes, raises DomainError.

    For real phi, xi and C the integrand f obeys f(-l) = conj f(l), so I is
    real: the nodes +x and -x share their weight, and their two terms sum
    to twice the weight times Re f(x). The rule is therefore summed over
    its h = ceil(n / 2) nodes x >= 0 (the middle node of an odd rule counts
    once), and only that real sum is formed.

    With ``offsets`` (a 1-D sequence a_j), returns I(offsets[j] + phi[k])
    with shape ``(len(offsets),) + phi.shape``. The exponential factors,
    exp(-i (a + b) x / 2) = exp(-i a x / 2) exp(-i b x / 2): with the
    folded weights g (``_ell_weights``) and r_j = exp(-i a_j x / 2) g, the
    node x adds Re(r_j exp(-i b_k x / 2)) = Re r_j cos(b_k x / 2) +
    Im r_j sin(b_k x / 2). So the call costs (J + M) h complex
    exponentials, exp(+i b_k x / 2) read as (cos, sin) pairs, and one real
    (J x 2h) @ (2h x M) product, instead of J M n exponentials. The plain
    call is the ``offsets = [0]`` case. The nodes and weights row of each
    (rule, xi, C) are cached, and one float phase skips the array
    bookkeeping; neither changes a bit of the result.
    """
    if offsets is None and isinstance(phi, (int, float)):
        # one phase: the general path's arithmetic without its array bookkeeping
        phi = float(phi)
        x, g = _ell_weights(_ell_rule_size(abs(phi), abs(xi)), xi, C)
        return float(g @ np.exp(0.5j * (x * phi)).view(float))
    phi_arr = np.asarray(phi, dtype=float)
    a = np.asarray([0.0] if offsets is None else offsets, dtype=float).ravel()
    b = phi_arr.ravel()
    shape = (() if offsets is None else a.shape) + phi_arr.shape
    # a_j + b_k spans [min a + min b, max a + max b]; in Python floats inf + -inf is a
    # quiet NaN, so a NaN or infinite a_j or b_k gives a peak the rule size refuses
    peak = (max(abs(float(a.max()) + float(b.max())), abs(float(a.min()) + float(b.min())))
            if a.size and b.size else 0.0)
    n = _ell_rule_size(peak, abs(xi))
    x, g = _ell_weights(n, xi, C)
    # (Re r_j, Im r_j) interleaved per node, against (cos, sin) of b_k x / 2
    rows = (np.exp(-0.5j * np.outer(a, x)) * g.view(complex)).view(float)
    out = np.empty((len(rows), b.size))
    # chunk the (nodes x columns) factor and the result block to bound memory
    block = max(1, int(2.0e6 / (n + len(rows))))
    for start in range(0, b.size, block):
        cols = slice(start, start + block)
        out[:, cols] = rows @ np.exp(0.5j * np.outer(b[cols], x)).view(float).T
    return out.reshape(shape) if shape else float(out[0, 0])


def panel_count(length: float, max_width: float) -> int:
    """Number of equal panels of width <= max_width covering ``length``.

    Raises QuadratureError when that is more than ``MAX_PANELS`` or not a
    finite number (a zero width included), before anything is allocated.
    """
    count = length / max_width if max_width > 0.0 else math.inf
    _check_panel_count(count)
    return max(1, math.ceil(count))


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
