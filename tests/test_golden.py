"""Golden output: the CLI's stdout, byte for byte, on the shipped configs.

These files pin bytes, not correctness. They were written by the code
itself, so a golden file that matches says only that nothing changed.
A deliberate change of output rewrites the files in the same change:
ROADMAP item 2 (the closed form at C != 0) will move the dispersion
config's rows, for one. To rewrite them:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from spdc.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

CONFIGS = ("ppktp_type2", "collimated", "ppktp_type2_dispersion")
SCANS = {
    "xi": ("--range=0.1:10", "--points", "20", "--log"),
    "waist": ("--range=1e-5:2e-4", "--points", "20"),
    "Lz": ("--range=1e-3:4e-2", "--points", "20", "--log"),
    "delta_k": ("--range=-2000:2000", "--points", "21"),
}


def _commands() -> dict:
    """Golden file stem -> argv."""
    commands = {"table": ["table", "--config", str(CONFIG_DIR / "table1.cfg")]}
    for name in CONFIGS:
        config = ["--config", str(CONFIG_DIR / f"{name}.json")]
        commands[f"{name}.rate"] = ["rate", *config]
        commands[f"{name}.rate_oracle"] = ["rate", *config, "--oracle"]
        commands[f"{name}.rate_degenerate"] = ["rate", *config, "--degenerate",
                                               "--kappa0", "1e-25"]
        commands[f"{name}.optimize"] = ["optimize", *config]
        for variable, span in SCANS.items():
            commands[f"{name}.scan_{variable}"] = ["scan", *config, "--variable", variable,
                                                   *span]
    return commands


COMMANDS = _commands()


def run(argv: list) -> bytes:
    """Exit code and stdout of one in-process CLI run, as the golden file holds them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_output_matches_golden_bytes(stem):
    assert run(COMMANDS[stem]) == (GOLDEN_DIR / f"{stem}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem, argv in COMMANDS.items():
        (GOLDEN_DIR / f"{stem}.txt").write_bytes(run(argv))
    print(f"wrote {len(COMMANDS)} files to {GOLDEN_DIR}", file=sys.stderr)
