"""numpy loads on first array use: the closed-form paths never import it."""

import ast
import os
import subprocess
import sys

import pytest

from spdc.cli import main
from conftest import CONFIG_DIR, REPO_ROOT

PACKAGE_DIR = REPO_ROOT / "src" / "spdc"
PPKTP_CONFIG = CONFIG_DIR / "ppktp_type2.json"
DISPERSION_CONFIG = CONFIG_DIR / "ppktp_type2_dispersion.json"

# Imports spdc in a fresh interpreter, runs one action and writes the numpy
# submodules it left in sys.modules as the last line of stderr. The "numpy"
# entry itself is not listed: it is there from import on, as a lazy module.
PROBE = """
import sys
import spdc

action, args = sys.argv[1], sys.argv[2:]
code = 0
if action == "load":
    spdc.load_config(args[0])
elif action == "cli":
    from spdc.cli import main
    code = main(args)
    sys.stdout.flush()
print(" ".join(sorted(m for m in sys.modules if m.startswith("numpy."))), file=sys.stderr)
sys.exit(code)
"""


def fresh(action, *args):
    """(exit code, stdout, numpy submodules) of PROBE in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", PROBE, action, *map(str, args)],
                          capture_output=True, text=True, env=env, check=False,
                          timeout=120)
    lines = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, lines[-1].split() if lines else None


def in_process(capsys, *args):
    code = main([str(a) for a in args])
    return code, capsys.readouterr().out


CLOSED_FORM_COMMANDS = {
    "rate": ("rate", "--config", PPKTP_CONFIG),
    "rate_dispersion": ("rate", "--config", DISPERSION_CONFIG),
    "optimize": ("optimize", "--config", PPKTP_CONFIG),
    "table": ("table", "--config", CONFIG_DIR / "table1.cfg"),
}

ARRAY_COMMANDS = {
    "scan": ("scan", "--config", PPKTP_CONFIG, "--variable", "xi",
             "--range", "0.1:5", "--points", "7"),
    "rate_oracle": ("rate", "--config", PPKTP_CONFIG, "--oracle"),
}


def test_import_leaves_numpy_unloaded():
    assert fresh("import") == (0, "", [])


@pytest.mark.parametrize("path", [PPKTP_CONFIG, DISPERSION_CONFIG],
                         ids=["literal", "dispersion"])
def test_load_config_leaves_numpy_unloaded(path):
    assert fresh("load", path) == (0, "", [])


@pytest.mark.parametrize("args", CLOSED_FORM_COMMANDS.values(), ids=CLOSED_FORM_COMMANDS)
def test_closed_form_command_leaves_numpy_unloaded(capsys, args):
    code, out, numpy_modules = fresh("cli", *args)
    assert (code, numpy_modules) == (0, [])
    assert (code, out) == in_process(capsys, *args)


@pytest.mark.parametrize("args", ARRAY_COMMANDS.values(), ids=ARRAY_COMMANDS)
def test_array_command_loads_numpy_and_prints_the_same_bytes(capsys, args):
    code, out, numpy_modules = fresh("cli", *args)
    assert code == 0 and "numpy._core" in numpy_modules
    assert (code, out) == in_process(capsys, *args)


def test_missing_numpy_fails_at_import():
    """numpy stays a hard dependency: without it ``import spdc`` fails at once."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    no_site = [sys.executable, "-S", "-c"]
    if subprocess.run(no_site + ["import numpy"], capture_output=True, env=env,
                      timeout=60).returncode == 0:
        pytest.skip("numpy is importable without site-packages")
    proc = subprocess.run(no_site + ["import spdc"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "ModuleNotFoundError: No module named 'numpy'"


def module_level_imports(tree):
    """Names imported by statements that run when the module is imported."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        todo.extend(ast.iter_child_nodes(node))


def test_only_the_lazy_helper_imports_numpy_at_module_level():
    """Every module takes numpy from ``spdc._numpy``; one eager ``import numpy``
    would load it for every process that imports the package."""
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "_numpy.py")
    assert {"cli.py", "materials.py", "quadrature.py", "rates.py"} <= {p.name for p in modules}
    eager = {
        path.name: name
        for path in modules
        for name in module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name == "numpy" or name.startswith("numpy.")
    }
    assert eager == {}


def test_guard_sees_nested_module_level_imports():
    tree = ast.parse("try:\n    import numpy.linalg\nexcept ImportError:\n    pass\n"
                     "class A:\n    from numpy import ndarray\n"
                     "def f():\n    import numpy\n")
    assert sorted(module_level_imports(tree)) == ["numpy", "numpy.linalg"]
