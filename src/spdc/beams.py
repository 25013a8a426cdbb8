"""Gaussian beam bookkeeping: waists, Rayleigh ranges, focal parameters.

Conventions: the beam axis is z, the crystal center sits at z = 0, and each
mode may have its focus displaced to ``z0``. The wavevector magnitude uses
the in-medium index, k = 2 pi n / lambda_vac, so the Rayleigh range is
z_R = pi w0^2 n / lambda_vac = k w0^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .errors import DomainError


@dataclass(frozen=True)
class GaussianMode:
    """A fundamental (TEM00) Gaussian mode at one vacuum wavelength.

    Attributes:
        lambda_vac: vacuum wavelength (m).
        n: refractive index of the medium the mode propagates in.
        w0: 1/e^2 intensity waist radius (m).
        z0: waist position relative to crystal center (m).
    """

    lambda_vac: float
    n: float
    w0: float
    z0: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0.0 < self.lambda_vac < math.inf):
            raise DomainError(
                f"lambda_vac must be positive and finite, got {self.lambda_vac}"
            )
        if not (1.0 <= self.n < math.inf):
            raise DomainError(f"refractive index must be >= 1 and finite, got {self.n}")
        if not (0.0 < self.w0 < math.inf):
            raise DomainError(f"waist must be positive and finite, got {self.w0}")
        if not math.isfinite(self.z0):
            raise DomainError(f"waist position z0 must be finite, got {self.z0}")
        z_R = self.z_R
        if not (0.0 < z_R < math.inf):
            raise DomainError(
                f"Rayleigh range k w0^2 / 2 = {z_R!r} m is not a positive finite "
                f"number (waist {self.w0!r} m)"
            )

    @property
    def k(self) -> float:
        """Wavevector magnitude in the medium (1/m)."""
        return 2.0 * math.pi * self.n / self.lambda_vac

    @property
    def z_R(self) -> float:
        """Rayleigh range (m)."""
        return 0.5 * self.k * self.w0 * self.w0

    def q(self, z):
        """Complex beam parameter q(z) = (z - z0) + i z_R (m)."""
        return (np.asarray(z) - self.z0) + 1j * self.z_R

    def waist_at(self, z) -> float:
        """1/e^2 radius w(z) = w0 sqrt(1 + ((z - z0)/z_R)^2)."""
        u = (np.asarray(z) - self.z0) / self.z_R
        return self.w0 * np.sqrt(1.0 + u * u)


def scaled_beam_parameter(mode: GaussianMode, z):
    """Scaled beam parameter q_bar(z) = (2i/k) q(z) = -w0^2 + (2i/k)(z - z0).

    Units m^2. At the focus (z = z0) this is exactly -w0^2.
    """
    return 2j / mode.k * mode.q(z)


def mode_function(mode: GaussianMode, x, y, z):
    """Transverse mode amplitude g(x, y) at axial position z (units 1/m).

    g = sqrt(k z_R / pi) (1/q) exp(-i k (x^2+y^2) / (2 q)); |g|^2 integrates
    to one over any transverse plane. Accepts scalar or array x, y.
    """
    q = mode.q(z)
    r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
    amp = math.sqrt(mode.k * mode.z_R / math.pi)
    return amp / q * np.exp(-1j * mode.k * r2 / (2.0 * q))


def focal_parameter(mode: GaussianMode, Lz: float) -> float:
    """Dimensionless focusing strength xi = Lz / (k w0^2) = Lz / (2 z_R)."""
    if Lz <= 0.0:
        raise DomainError(f"crystal length must be positive, got {Lz}")
    return Lz / (mode.k * mode.w0 * mode.w0)


@dataclass(frozen=True)
class BeamTriple:
    """Pump, signal and idler modes tied to one crystal length.

    The focal parameters xi_j are derived against ``crystal_length``.
    """

    pump: GaussianMode
    signal: GaussianMode
    idler: GaussianMode
    crystal_length: float

    def __post_init__(self):
        if not (0.0 < self.crystal_length < math.inf):
            raise DomainError(
                f"crystal length must be positive and finite, got {self.crystal_length}"
            )

    @property
    def xi_p(self) -> float:
        return focal_parameter(self.pump, self.crystal_length)

    @property
    def xi_1(self) -> float:
        return focal_parameter(self.signal, self.crystal_length)

    @property
    def xi_2(self) -> float:
        return focal_parameter(self.idler, self.crystal_length)

    def wavevectors(self) -> tuple:
        """(k_p, k_1, k_2) in 1/m."""
        return (self.pump.k, self.signal.k, self.idler.k)

    def waists(self) -> tuple:
        """(w_p, w_1, w_2) in m."""
        return (self.pump.w0, self.signal.w0, self.idler.w0)
