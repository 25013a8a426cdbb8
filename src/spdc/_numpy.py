"""numpy, imported on first attribute access.

``from ._numpy import np`` gives the real module when numpy is already
imported. Otherwise it gives a lazy module registered as ``numpy`` whose first
attribute access runs numpy's import and turns it into the real module object,
so a process that never touches an array never imports numpy. That first
access is not thread-safe under Python 3.11's ``LazyLoader``; the package
starts no threads.
"""

import importlib.util
import sys


def _lazy_numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:  # fail at import, as an eager import would
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
