"""Experiment configuration files: schema, validation, object construction.

Configs are JSON with four blocks (``material``, ``beams``, ``pump``,
``run``) and SI base units only; no unit suffixes are accepted, so a
wavelength is always meters and a power always watts. The material block
carries either literal indices or references to dispersion files
("builtin:<name>" or a path resolved relative to the config file).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .beams import BeamTriple, GaussianMode
from .errors import ConfigError
from .materials import (
    DispersionModel,
    MaterialOptics,
    _read_json_object,
    group_index,
    load_builtin_material,
    load_dispersion_model,
    refractive_index,
)
from .rates import PumpSpec

_ENERGY_CONSERVATION_RTOL = 1e-6


def _number(value, where: str) -> float:
    """A finite JSON number as float; json also accepts NaN and Infinity."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def _get(block: dict, key: str, where: str) -> float:
    if key not in block:
        raise ConfigError(f"{where}.{key}: missing required field")
    return _number(block[key], f"{where}.{key}")


def _positive(value: float, where: str) -> float:
    if not (value > 0.0) or not math.isfinite(value):
        raise ConfigError(f"{where}: must be positive and finite, got {value!r}")
    return value


def _nonnegative(value: float, where: str) -> float:
    if value < 0.0 or not math.isfinite(value):
        raise ConfigError(f"{where}: must be nonnegative and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ``indices`` holds (n_p, n_1, n_2, ng_p, ng_1, ng_2) either given
    literally or evaluated from dispersion files at the band centers. The
    phase indices and the crystal length go to ``beam_triple``, the group
    indices to ``material_optics``.
    """

    lambda_p: float
    lambda_1: float
    lambda_2: float
    waist_p: float
    waist_1: float
    waist_2: float
    d_eff: float
    crystal_length: float
    indices: tuple
    pump_bandwidth: float
    poling_period: Optional[float] = None
    run: dict = field(default_factory=dict)

    def material_optics(self) -> MaterialOptics:
        ng_p, ng_1, ng_2 = self.indices[3:]
        return MaterialOptics(
            ng_p=ng_p, ng_1=ng_1, ng_2=ng_2,
            d_eff=self.d_eff,
            poling_period=self.poling_period,
        )

    def beam_triple(self) -> BeamTriple:
        n_p, n_1, n_2 = self.indices[:3]
        return BeamTriple(
            pump=GaussianMode(self.lambda_p, n_p, self.waist_p),
            signal=GaussianMode(self.lambda_1, n_1, self.waist_1),
            idler=GaussianMode(self.lambda_2, n_2, self.waist_2),
            crystal_length=self.crystal_length,
        )

    def pump_spec(self) -> PumpSpec:
        return PumpSpec(bandwidth=self.pump_bandwidth)


def _resolve_dispersion(ref, base_dir: Path, where: str) -> DispersionModel:
    if not isinstance(ref, str):
        raise ConfigError(f"{where}: expected a material reference string")
    if ref.startswith("builtin:"):
        return load_builtin_material(ref[len("builtin:"):])
    path = Path(ref)
    return load_dispersion_model(path if path.is_absolute() else base_dir / path)


def _indices_from_block(material: dict, lambdas: tuple, base_dir: Path) -> tuple:
    has_literal = "indices" in material
    has_disp = "dispersion" in material
    if has_literal == has_disp:
        raise ConfigError(
            "material: provide exactly one of 'indices' or 'dispersion'"
        )
    source = "indices" if has_literal else "dispersion"
    blk = material[source]
    if not isinstance(blk, dict):
        raise ConfigError(f"material.{source}: must be an object")
    lam_p, lam_1, lam_2 = lambdas
    if has_literal:
        vals = tuple(
            _get(blk, key, "material.indices")
            for key in ("n_p", "n_1", "n_2", "ng_p", "ng_1", "ng_2")
        )
        for key, v in zip(("n_p", "n_1", "n_2", "ng_p", "ng_1", "ng_2"), vals):
            if v < 1.0:
                raise ConfigError(f"material.indices.{key}: must be >= 1, got {v}")
        return vals
    models = {}
    for role in ("pump", "signal", "idler"):
        if role not in blk:
            raise ConfigError(f"material.dispersion.{role}: missing reference")
        models[role] = _resolve_dispersion(
            blk[role], base_dir, f"material.dispersion.{role}"
        )
    return (
        refractive_index(models["pump"], lam_p),
        refractive_index(models["signal"], lam_1),
        refractive_index(models["idler"], lam_2),
        group_index(models["pump"], lam_p),
        group_index(models["signal"], lam_1),
        group_index(models["idler"], lam_2),
    )


def parse_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    """Validate a parsed JSON document and build an ExperimentConfig."""
    for block in ("material", "beams", "pump"):
        if block not in raw or not isinstance(raw[block], dict):
            raise ConfigError(f"{block}: missing required block")
    material = raw["material"]
    beams = raw["beams"]
    pump = raw["pump"]
    run = raw.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("run: must be an object")

    lam_p = _positive(_get(beams, "lambda_p_m", "beams"), "beams.lambda_p_m")
    lam_1 = _positive(_get(beams, "lambda_1_m", "beams"), "beams.lambda_1_m")
    lam_2 = _positive(_get(beams, "lambda_2_m", "beams"), "beams.lambda_2_m")
    # energy conservation at band centers: 1/lp = 1/l1 + 1/l2
    lhs = 1.0 / lam_p
    rhs = 1.0 / lam_1 + 1.0 / lam_2
    if abs(lhs - rhs) > _ENERGY_CONSERVATION_RTOL * lhs:
        raise ConfigError(
            "beams: energy conservation violated at band centers: "
            f"1/lambda_p differs from 1/lambda_1 + 1/lambda_2 by "
            f"{abs(lhs - rhs) / lhs:.3e} relative (limit "
            f"{_ENERGY_CONSERVATION_RTOL:g})"
        )

    waist_p = _positive(_get(beams, "waist_p_m", "beams"), "beams.waist_p_m")
    waist_1 = _positive(_get(beams, "waist_1_m", "beams"), "beams.waist_1_m")
    waist_2 = _positive(_get(beams, "waist_2_m", "beams"), "beams.waist_2_m")

    d_eff = _nonnegative(
        _get(material, "d_eff_m_per_V", "material"), "material.d_eff_m_per_V"
    )
    Lz = _positive(
        _get(material, "crystal_length_m", "material"),
        "material.crystal_length_m",
    )
    poling = material.get("poling_period_m")
    if poling is not None:
        where = "material.poling_period_m"
        poling = _positive(_number(poling, where), where)
    # informational only: validated, not stored
    tdims = material.get("transverse_dims_m")
    if tdims is not None:
        if not (isinstance(tdims, (list, tuple)) and len(tdims) == 2):
            raise ConfigError("material.transverse_dims_m: expected [Lx, Ly]")
        for i, value in enumerate(tdims):
            where = f"material.transverse_dims_m[{i}]"
            _positive(_number(value, where), where)

    indices = _indices_from_block(material, (lam_p, lam_1, lam_2), base_dir)

    # validated, not stored: rates are per mW of pump power
    _positive(_get(pump, "power_W", "pump"), "pump.power_W")
    bandwidth = _positive(
        _get(pump, "bandwidth_rad_s", "pump"), "pump.bandwidth_rad_s"
    )
    shape = pump.get("shape", "gaussian")
    if shape != "gaussian":
        raise ConfigError(f"pump.shape: unsupported shape {shape!r}")

    return ExperimentConfig(
        lambda_p=lam_p, lambda_1=lam_1, lambda_2=lam_2,
        waist_p=waist_p, waist_1=waist_1, waist_2=waist_2,
        d_eff=d_eff, crystal_length=Lz,
        indices=indices,
        pump_bandwidth=bandwidth,
        poling_period=poling,
        run=dict(run),
    )


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config file."""
    path = Path(path)
    return parse_config(_read_json_object(path, "config file"), path.parent)


def load_table_fixture(path) -> list:
    """Load a published-rates table fixture.

    Each row: name, correction factor, R_th_paper, R_th_revised (all
    required), optional R_exp (experimental; metadata only, never used in
    pass/fail) and a per-row relative tolerance. Values with uncertainties
    are [central, uncertainty] pairs; only centrals are computed with.
    Numbers must be finite, the revised rate and the tolerance positive.
    """
    path = Path(path)
    rows = _read_json_object(path, "table fixture").get("rows")
    if not isinstance(rows, list) or not rows:
        raise ConfigError(f"{path}: expected a non-empty 'rows' array")

    def central(row, name, key, positive=False):
        if key not in row:
            raise ConfigError(f"{path}: row {name!r} missing field {key}")
        v, where = row[key], f"{path}: row {name!r}: {key}"
        if isinstance(v, list) and len(v) == 2:  # [central, uncertainty]
            _number(v[1], where)
            v = v[0]
        value = _number(v, where)
        return _positive(value, where) if positive else value

    out = []
    for row in rows:
        if not isinstance(row, dict):
            raise ConfigError(f"{path}: every row must be an object, got {row!r}")
        name = row.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{path}: every row needs a 'name'")
        out.append({
            "name": name,
            "correction_factor": central(row, name, "correction_factor"),
            "rate_published": central(row, name, "R_th_published_per_s_per_mW"),
            "rate_revised": central(row, name, "R_th_revised_per_s_per_mW", positive=True),
            "rate_experimental": (
                central(row, name, "R_exp_per_s_per_mW")
                if "R_exp_per_s_per_mW" in row else None
            ),
            "tolerance_rel": (
                central(row, name, "tolerance_rel", positive=True)
                if "tolerance_rel" in row else 0.002
            ),
        })
    return out
