"""Linear and second-order optical properties of nonlinear crystals.

Refractive and group indices come from Sellmeier-type dispersion models
loaded from JSON files (see ``load_dispersion_model``). Three functional
forms are supported, with wavelength in microns inside the formulas:

``constant``
    n = c0. Dispersionless; useful for vacuum and for analytic checks.

``sellmeier``
    n^2 = c0 + sum_i B_i * L / (L - C_i), with L = lambda_um^2.
    Coefficients are laid out [c0, B1, C1, B2, C2, ...]. This is the
    classic multi-oscillator form used for most glasses.

``pole``
    n^2 = c0 + B1/(L - C1) + B2/(L - C2) - F * L.
    Coefficients [c0, B1, C1, B2, C2, F]. This is the form used by the
    Kato-Takaoka KTP fits and by Gayer-style MgO:LiNbO3 fits reduced to a
    fixed operating temperature.

All public interfaces take vacuum wavelength in meters. Group indices are
computed from the analytic derivative of the chosen form (no finite
differences in production paths).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Optional

from ._numpy import np
from .errors import ConfigError, DomainError, WavelengthRangeError

_M_PER_UM = 1e-6

SUPPORTED_FORMS = ("constant", "sellmeier", "pole")


@dataclass(frozen=True)
class PhysicalConstants:
    """SI values of the fundamental constants used throughout (CODATA 2018)."""

    epsilon0: float = 8.8541878128e-12  # vacuum permittivity, F/m
    hbar: float = 1.054571817e-34       # reduced Planck constant, J s
    c: float = 299792458.0              # vacuum speed of light, m/s


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class DispersionModel:
    """One crystal axis worth of dispersion data.

    Attributes:
        material_name: free-form identifier, e.g. "KTP".
        polarization_axis: axis label, e.g. "y", "z", "e".
        form: one of ``SUPPORTED_FORMS``.
        coefficients: coefficients in the micron convention of the form.
        valid_range: (lambda_min, lambda_max) in meters; evaluation outside
            this interval raises instead of extrapolating.
    """

    material_name: str
    polarization_axis: str
    form: str
    coefficients: tuple
    valid_range: tuple

    def __post_init__(self):
        if self.form not in SUPPORTED_FORMS:
            raise ConfigError(
                f"dispersion form {self.form!r} not supported; "
                f"expected one of {SUPPORTED_FORMS}"
            )
        lo, hi = self.valid_range
        if not (0.0 < lo < hi):
            raise ConfigError(
                f"valid_range ({lo}, {hi}) must satisfy 0 < min < max"
            )
        if self.form == "sellmeier" and len(self.coefficients) % 2 != 1:
            raise ConfigError(
                "sellmeier form needs an odd coefficient count "
                "[c0, B1, C1, B2, C2, ...]"
            )
        if self.form == "pole" and len(self.coefficients) != 6:
            raise ConfigError(
                "pole form needs exactly 6 coefficients [c0, B1, C1, B2, C2, F]"
            )
        if self.form == "constant" and len(self.coefficients) != 1:
            raise ConfigError("constant form takes a single coefficient [n]")


def _check_range(model: DispersionModel, lam: float, interior: bool = False):
    lo, hi = model.valid_range
    if interior:
        # leave room for the analytic derivative's neighborhood
        if not (lo < lam < hi):
            raise WavelengthRangeError(
                f"{model.material_name}/{model.polarization_axis}: wavelength "
                f"{lam:.4e} m must lie strictly inside ({lo:.4e}, {hi:.4e}) m"
            )
    elif not (lo <= lam <= hi):
        bound = "below lambda_min" if lam < lo else "above lambda_max"
        raise WavelengthRangeError(
            f"{model.material_name}/{model.polarization_axis}: wavelength "
            f"{lam:.4e} m is {bound} of valid range ({lo:.4e}, {hi:.4e}) m"
        )


def _n_squared_and_dl(model: DispersionModel, lam_um: float):
    """Return (n^2, d(n^2)/d(lambda_um)) for the model at lambda (microns)."""
    L = lam_um * lam_um
    co = model.coefficients
    if model.form == "constant":
        return co[0] * co[0], 0.0
    if model.form == "sellmeier":
        n2 = co[0]
        dn2_dL = 0.0
        for i in range(1, len(co), 2):
            B, C = co[i], co[i + 1]
            d = L - C
            n2 += B * L / d
            dn2_dL += -B * C / (d * d)
        return n2, dn2_dL * 2.0 * lam_um
    # pole form
    c0, B1, C1, B2, C2, F = co
    d1 = L - C1
    d2 = L - C2
    n2 = c0 + B1 / d1 + B2 / d2 - F * L
    dn2_dL = -B1 / (d1 * d1) - B2 / (d2 * d2) - F
    return n2, dn2_dL * 2.0 * lam_um


def _physical_n_squared(model: DispersionModel, lam: float):
    """``_n_squared_and_dl`` at ``lam`` (meters), raising DomainError when
    ``lam`` lies on a pole of the model or where n^2 < 1."""
    where = f"{model.material_name}/{model.polarization_axis}"
    try:
        n2, dn2_dlam = _n_squared_and_dl(model, lam / _M_PER_UM)
    except ZeroDivisionError:
        raise DomainError(
            f"{where}: wavelength {lam:.4e} m lies on a pole of the {model.form} "
            "model; check coefficients/range"
        ) from None
    if n2 < 1.0:
        raise DomainError(
            f"{where}: model gives n^2 = {n2:.6g} < 1 at {lam:.4e} m; "
            "check coefficients/range"
        )
    return n2, dn2_dlam


def refractive_index(model: DispersionModel, lam: float) -> float:
    """Phase refractive index at vacuum wavelength ``lam`` (meters)."""
    _check_range(model, lam)
    return math.sqrt(_physical_n_squared(model, lam)[0])


def group_index(model: DispersionModel, lam: float) -> float:
    """Group index n_g = n - lambda * dn/dlambda at ``lam`` (meters).

    The derivative is the analytic one of the Sellmeier form. Wavelengths at
    the exact range boundary are rejected since the derivative characterizes
    a neighborhood.
    """
    _check_range(model, lam, interior=True)
    n2, dn2_dlam = _physical_n_squared(model, lam)
    n = math.sqrt(n2)
    # n_g = n - lam * (dn^2/dlam) / (2 n); unit of length cancels
    return n - lam / _M_PER_UM * dn2_dlam / (2.0 * n)


def poling_profile(z, poling_period: Optional[float], Lz: float):
    """Sign of the nonlinearity at axial position ``z`` (crystal center at 0).

    Returns 0 outside |z| > Lz/2. Inside, +1 for an unpoled crystal, or the
    periodically-poled square wave whose first domain starts with +1 at
    z = -Lz/2 and flips every half period. Accepts scalars or arrays.
    """
    if poling_period is not None and not (poling_period > 0.0):
        raise DomainError(f"poling period must be positive, got {poling_period}")
    if not (Lz > 0.0):
        raise DomainError(f"crystal length must be positive, got {Lz}")
    z_arr = np.asarray(z, dtype=float)
    inside = np.abs(z_arr) <= Lz / 2.0
    if poling_period is None:
        out = np.where(inside, 1.0, 0.0)
    else:
        half = poling_period / 2.0
        domain = np.floor((z_arr + Lz / 2.0) / half).astype(np.int64)
        sign = np.where(domain % 2 == 0, 1.0, -1.0)
        out = np.where(inside, sign, 0.0)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out)
    return out


def domain_walls(poling_period: Optional[float], Lz: float) -> np.ndarray:
    """Axial positions where the poling sign flips, strictly inside the crystal."""
    if poling_period is None:
        return np.empty(0)
    half = poling_period / 2.0
    n_walls = int(math.ceil(Lz / half)) - 1
    if n_walls <= 0:
        return np.empty(0)
    walls = -Lz / 2.0 + half * np.arange(1, n_walls + 1)
    return walls[walls < Lz / 2.0]


@dataclass(frozen=True)
class MaterialOptics:
    """What the rate formulas need from the crystal beyond the beams.

    Phase indices and the crystal length belong to the beams
    (``GaussianMode.n``, ``BeamTriple.crystal_length``); this holds the
    group indices at the three band centers, d_eff (m/V) and the optional
    poling period (m). ``chi2_eff`` is tied to ``d_eff`` by definition
    (chi2 = 2 d_eff).
    """

    ng_p: float
    ng_1: float
    ng_2: float
    d_eff: float
    poling_period: Optional[float] = None

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("ng_p", "ng_1", "ng_2"):
            v = getattr(self, name)
            if not (1.0 <= v < math.inf):
                raise DomainError(f"{name} must be >= 1 and finite, got {v}")
        if not (0.0 <= self.d_eff < math.inf):
            # zero is allowed: a switched-off nonlinearity must give rate 0
            raise DomainError(
                f"d_eff must be nonnegative and finite, got {self.d_eff}"
            )
        if self.poling_period is not None and not (0.0 < self.poling_period < math.inf):
            raise DomainError(
                f"poling period must be positive and finite, got {self.poling_period}"
            )

    @property
    def chi2_eff(self) -> float:
        """Effective susceptibility chi^(2) = 2 d_eff (m/V)."""
        return 2.0 * self.d_eff


def _range_grid(lo: float, hi: float) -> list:
    """The 64 wavelengths of ``np.linspace(lo, hi, 64)``, bit for bit, in plain
    Python: lo + i * step with step = (hi - lo) / 63, and the last one exactly hi."""
    step = (hi - lo) / 63
    return [lo + i * step for i in range(63)] + [hi]


def _model_from_dict(raw: dict, source: str) -> DispersionModel:
    try:
        name = raw["name"]
        form = raw["form"]
        coefficients = tuple(float(x) for x in raw["coefficients"])
        lo, hi = raw["valid_range_m"]
        axis = raw.get("axis", "")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: malformed material file ({exc})") from exc
    model = DispersionModel(
        material_name=name,
        polarization_axis=axis,
        form=form,
        coefficients=coefficients,
        valid_range=(float(lo), float(hi)),
    )
    # model must stay physical (n >= 1) over its whole declared range
    for lam in _range_grid(*model.valid_range):
        try:
            n2, _ = _n_squared_and_dl(model, lam / _M_PER_UM)
        except ZeroDivisionError:  # a pole of the model sits on a grid point
            n2 = math.nan
        if not (n2 >= 1.0):
            raise ConfigError(
                f"{source}: model gives n^2 = {n2:.6g} < 1 at {lam:.4e} m "
                "inside its declared valid range"
            )
    return model


def _read_json_object(path: Path, what: str) -> dict:
    """Parse a JSON file whose top level must be an object."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} {path} not found") from None
    except OSError as exc:  # a directory, no permission
        raise ConfigError(f"{what} {path} cannot be read ({exc.strerror})") from None
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return raw


def load_dispersion_model(path) -> DispersionModel:
    """Load a dispersion model from a JSON material file.

    Schema: {"name", "form", "coefficients": [...], "valid_range_m": [lo, hi],
    "axis"}. Lengths in meters; coefficients in the micron convention of the
    form. Unknown form tags are rejected.
    """
    return _model_from_dict(_read_json_object(Path(path), "material file"), str(path))


def builtin_material_names() -> list:
    """Names accepted by ``load_builtin_material``."""
    pkg = resources.files("spdc").joinpath("data")
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json"))


@lru_cache(maxsize=None)
def load_builtin_material(name: str) -> DispersionModel:
    """Load one of the dispersion models shipped with the package.

    Each model is read and checked once per process; later calls return the
    same frozen object. An unknown name raises on every call.
    """
    names = builtin_material_names()
    if name not in names:
        raise ConfigError(
            f"unknown builtin material {name!r}; available: {', '.join(names)}"
        )
    ref = resources.files("spdc").joinpath("data", f"{name}.json")
    raw = json.loads(ref.read_text(encoding="utf-8"))
    return _model_from_dict(raw, f"builtin:{name}")
