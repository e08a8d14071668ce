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


def _heavy_modules_after(code):
    """scipy.signal, scipy.integrate and scipy.optimize among sys.modules after
    running code in a fresh interpreter on this checkout's package."""
    heavy = ("scipy.signal", "scipy.integrate", "scipy.optimize")
    probe = f"import sys\n{code}\nprint([m for m in {heavy!r} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(fracfilt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_signal_out():
    # scipy.signal drags scipy.stats and scipy.interpolate into every import;
    # scipy.integrate pulls in scipy.optimize, and no module of the package needs either
    assert _heavy_modules_after("import fracfilt, fracfilt.cli") == "[]"


def test_laplace_self_test_and_criterion_2_leave_scipy_integrate_out():
    code = ("from fracfilt import acceptance\n"
            "from fracfilt.subordinator import laplace_identity_residual\n"
            "laplace_identity_residual(0.8, 1.0, [1.1])\n"
            "assert acceptance.criterion_2().passed")
    assert _heavy_modules_after(code) == "[]"
