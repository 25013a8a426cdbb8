"""Shared fixtures: a PPKTP-like type-II benchmark configuration.

The literal indices pin n_p = (n_1 + n_2)/2 so that k_p = k_1 + k_2 holds
exactly (quadratic denominator coefficient C = 0), which is the regime the
closed-form rate assumes. Group indices are the shipped KTP values at
775/1550 nm.
"""

import pathlib

import pytest

from spdc.beams import BeamTriple, GaussianMode
from spdc.materials import MaterialOptics

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"

N_1 = 1.7349061194074447   # KTP y @ 1550 nm
N_2 = 1.8157731108173114   # KTP z @ 1550 nm
N_P = (N_1 + N_2) / 2.0    # exact k_p = k_1 + k_2
NG_P = 1.8101841458646204  # KTP y @ 775 nm
NG_1 = 1.7628826167484315  # KTP y @ 1550 nm
NG_2 = 1.8514984196951656  # KTP z @ 1550 nm
LAMBDA_P = 775e-9
LAMBDA_1 = 1550e-9
LAMBDA_2 = 1550e-9
D_EFF = 2.4e-12
LZ = 10e-3


@pytest.fixture(scope="session")
def ppktp_material():
    return MaterialOptics(ng_p=NG_P, ng_1=NG_1, ng_2=NG_2, d_eff=D_EFF)


@pytest.fixture(scope="session")
def ppktp_base_beams():
    return BeamTriple(
        pump=GaussianMode(LAMBDA_P, N_P, 30e-6),
        signal=GaussianMode(LAMBDA_1, N_1, 40e-6),
        idler=GaussianMode(LAMBDA_2, N_2, 40e-6),
        crystal_length=LZ,
    )


@pytest.fixture(scope="session")
def narrowband_pump():
    """RMS pump bandwidth (rad/s) for the degenerate path, the one that reads it."""
    return 1e10
