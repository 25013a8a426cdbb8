"""Absolute brightness of spontaneous parametric down-conversion with
focused Gaussian pump and collection modes: closed-form rates, overlap
integrals, and the brute-force quadrature oracles that validate them."""

from .beams import BeamTriple, GaussianMode, focal_parameter, mode_function, scaled_beam_parameter
from .errors import (
    ConfigError,
    DegenerateConfigurationError,
    DegenerateDispersionError,
    DomainError,
    OverlapSingularityError,
    QuadratureError,
    SpdcError,
    WavelengthRangeError,
)
from .materials import (
    CONSTANTS,
    DispersionModel,
    MaterialOptics,
    PhysicalConstants,
    group_index,
    inverse_chi2,
    load_builtin_material,
    load_dispersion_model,
    poling_profile,
    refractive_index,
    wavenumber,
)
from .overlap import (
    OverlapParams,
    a_plus_b_plus,
    aggregate_focal_parameter,
    normalization_coefficient,
    overlap_direct,
    overlap_params,
    overlap_simplified,
    phase_mismatch_phi,
    quadratic_coefficient,
)
from .rates import (
    PumpSpec,
    RateResult,
    apply_table_correction,
    bennink_ratio,
    collimated_limit_rates,
    equal_focus_beams,
    focus_optimize,
    jsa_value,
    overlap_value,
    pairs_closed_form,
    pairs_degenerate_numeric,
    pairs_per_second,
    pairs_via_bruteforce,
    tutorial_correction_factor,
)
from .config import ExperimentConfig, load_config, load_table_fixture

__version__ = "0.1.0"
