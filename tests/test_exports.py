"""Every name a public __all__ promises can be imported, and importing the
package stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import grushin

MODULES = ["grushin"] + sorted(
    info.name for info in pkgutil.walk_packages(grushin.__path__, "grushin."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_import_loads_no_interpolate_or_optimize():
    # the package, its lab and its CLI need scipy.special and scipy.linalg
    # only; scipy.interpolate would pull in scipy.optimize and some 250
    # modules more at every process start
    src = str(Path(grushin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, grushin, grushin.lab, grushin.cli\n"
            "print(*sorted(m for m in sys.modules if m.startswith("
            "('scipy.interpolate', 'scipy.optimize'))))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
