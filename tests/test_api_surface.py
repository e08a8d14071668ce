import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import fracfilt

MODULES = ["fracfilt"] + sorted(
    f"fracfilt.{info.name}" for info in pkgutil.iter_modules(fracfilt.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_import_leaves_scipy_signal_out():
    # scipy.signal drags scipy.stats and scipy.interpolate into every import;
    # scipy.integrate (which pulls in scipy.optimize) serves one self-test only
    heavy = ("scipy.signal", "scipy.integrate", "scipy.optimize")
    probe = f"import sys, fracfilt, fracfilt.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(fracfilt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
