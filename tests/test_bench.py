"""The benchmark's smoke run passes against the package in this checkout."""

import os
import subprocess
import sys

from conftest import REPO_ROOT


def test_bench_smoke_passes():
    # bench/ calls the package by name, so a change that breaks one of those
    # calls fails here; the run writes only under the ignored .bench_out/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=REPO_ROOT,
                          capture_output=True, text=True, env=env, check=False,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
