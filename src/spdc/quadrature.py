"""Numerical integration helpers shared by the overlap and rate modules.

Two kinds of machinery live here: an adaptive complex-valued wrapper around
scipy's Gauss-Kronrod integrator for one-off integrals, and fixed-order
Gauss-Legendre panel rules for the vectorized inner loops of the brute-force
rate integrals (where millions of oscillatory integrand evaluations make
per-point adaptivity too slow). Summation order is fixed everywhere so that
results are deterministic for a given tolerance.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Cached nodes/weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def complex_quad(f, a: float, b: float, tol: float, scale_hint: float = 0.0):
    """Adaptively integrate a complex integrand over [a, b].

    ``tol`` is interpreted relative to the larger of |result| and
    ``scale_hint``; without a hint, an estimate of the integral of |f| takes
    its place. Returns (value, error_estimate). Raises QuadratureError
    if the integrator cannot certify the requested tolerance.
    """
    if tol <= 0.0:
        raise QuadratureError(f"quadrature tolerance must be positive, got {tol}")
    # deferred: scipy.integrate dominates the package import time and only
    # the overlap cross-checks reach this function
    from scipy.integrate import IntegrationWarning, quad

    def run(epsabs):
        # the real and imaginary error estimates add up, so each part gets
        # half of the absolute and relative tolerance
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                re, re_err = quad(
                    lambda t: f(t).real, a, b,
                    epsabs=0.5 * epsabs, epsrel=0.5 * tol, limit=400,
                )
                im, im_err = quad(
                    lambda t: f(t).imag, a, b,
                    epsabs=0.5 * epsabs, epsrel=0.5 * tol, limit=400,
                )
            except IntegrationWarning as exc:
                raise QuadratureError(
                    f"adaptive quadrature did not converge: {exc}"
                ) from exc
        return re + 1j * im, re_err + im_err

    # First pass: crude absolute floor from the scale hint (or pure relative).
    scale = abs(scale_hint)
    if scale == 0.0:
        # fixed-order estimate of the integral of |f|: unlike |integral of f|
        # it stays away from zero where an oscillating integrand cancels
        x, w = gauss_legendre(32)
        mid, hw = 0.5 * (a + b), 0.5 * (b - a)
        scale = hw * float(np.sum(w * np.abs([f(t) for t in mid + hw * x])))
    epsabs = tol * max(scale, 1e-300)
    value, err = run(epsabs)
    budget = tol * max(abs(value), scale)
    if err > budget and err > epsabs:
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


# geometric-ish |phi| buckets share one rule each; a phase in no bucket
# (NaN or infinite) gets NaN
_ELL_BUCKET_EDGES = np.array(
    (0.0, 20.0, 50.0, 100.0, 200.0, 400.0, 700.0, 1100.0, 1600.0, math.inf)
)


def ell_integral(phi, xi: float, C: float = 0.0, *, offsets=None):
    """Vectorized integral over l in [-1, 1] of exp(-i phi l / 2) / (1 + i l xi - C xi^2 l^2).

    This is the reduced axial factor of the Gaussian overlap integral,
    evaluated with phi-bucketed fixed-order Gauss-Legendre rules so that
    large batches of phase-mismatch values are cheap. Accepts scalar or
    array ``phi``; returns complex of the same shape. NaN or infinite
    phases give NaN; a phase or xi needing over 4000 nodes raises DomainError.

    With ``offsets`` (a 1-D sequence a_j), returns I(offsets[j] + phi[k])
    with shape ``(len(offsets),) + phi.shape``. The exponential factors,
    exp(-i (a + b) l / 2) = exp(-i a l / 2) exp(-i b l / 2), so each rule
    of n nodes costs (J + M) n exponentials and one (J x n) @ (n x M)
    product instead of J M n exponentials. Every element a_j + b_k takes
    the rule of its own |phi| bucket, sized by that bucket's largest
    |phi|; a column whose elements fall in two buckets is computed with
    both rules. The plain call is the ``offsets = [0]`` case.
    """
    phi_arr = np.asarray(phi, dtype=float)
    a = np.zeros(1) if offsets is None else np.asarray(offsets, dtype=float).ravel()
    b = phi_arr.ravel()
    mag = np.abs(np.add.outer(a, b))
    bucket = np.searchsorted(_ELL_BUCKET_EDGES, mag, side="right") - 1
    out = np.full(mag.shape, complex(math.nan, math.nan))
    counts = np.bincount(bucket.ravel(), minlength=len(_ELL_BUCKET_EDGES))
    # the last count is of the NaN and infinite phases
    for i in np.flatnonzero(counts[:-1]):
        in_bucket = bucket == i
        n = _ell_rule_size(float(mag[in_bucket].max()), abs(xi))
        x, w = gauss_legendre(n)
        g = w / (1.0 + 1j * x * xi - C * (xi * xi) * (x * x))
        rows = np.exp(-0.5j * np.outer(a, x)) * g
        cols = np.flatnonzero(in_bucket.any(axis=0))
        # chunk the (nodes x columns) factor and the result block to bound memory
        block = max(1, int(2.0e6 / (n + a.size)))
        for start in range(0, cols.size, block):
            idx = cols[start:start + block]
            value = rows @ np.exp(-0.5j * np.outer(x, b[idx]))
            out[:, idx] = np.where(in_bucket[:, idx], value, out[:, idx])
    out = out.reshape(phi_arr.shape if offsets is None else a.shape + phi_arr.shape)
    return complex(out) if out.ndim == 0 else out


def panel_edges(lo: float, hi: float, max_width: float) -> np.ndarray:
    """Uniform panel edges covering [lo, hi] with width <= max_width."""
    n = max(1, int(math.ceil((hi - lo) / max_width)))
    return np.linspace(lo, hi, n + 1)


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
