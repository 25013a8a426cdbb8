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

from .errors import QuadratureError


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
    |xi| <= 12.
    """
    return int(min(4000, max(64, 0.78 * phi_abs + 10.0 * xi_abs + 24)))


def ell_integral(phi, xi: float, C: float = 0.0):
    """Vectorized integral over l in [-1, 1] of exp(-i phi l / 2) / (1 + i l xi - C xi^2 l^2).

    This is the reduced axial factor of the Gaussian overlap integral,
    evaluated with phi-bucketed fixed-order Gauss-Legendre rules so that
    large batches of phase-mismatch values are cheap. Accepts scalar or
    array ``phi``; returns complex of the same shape.
    """
    phi_arr = np.asarray(phi, dtype=float)
    scalar_input = phi_arr.ndim == 0
    phis = np.atleast_1d(phi_arr)
    flat = phis.ravel()
    out = np.empty(flat.shape, dtype=complex)
    amax = np.abs(flat)
    # geometric-ish magnitude buckets share one rule each
    edges = (0.0, 20.0, 50.0, 100.0, 200.0, 400.0, 700.0, 1100.0, 1600.0, math.inf)
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = np.flatnonzero((amax >= lo) & (amax < hi))
        if sel.size == 0:
            continue
        n = _ell_rule_size(float(amax[sel].max()), abs(xi))
        x, w = gauss_legendre(n)
        g = w / (1.0 + 1j * x * xi - C * (xi * xi) * (x * x))
        # chunk the (values x nodes) matrix to bound memory
        block = max(1, int(2.0e6 / n))
        for start in range(0, sel.size, block):
            idx = sel[start:start + block]
            out[idx] = np.exp(-0.5j * np.outer(flat[idx], x)) @ g
    if scalar_input:
        return complex(out[0])
    return out.reshape(phis.shape)


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
