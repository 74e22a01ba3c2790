"""The package namespace: every public name loads its submodule on first use."""

import os
import subprocess
import sys

from conftest import SRC, run_python


def test_package_import_loads_no_submodule_and_every_public_name_resolves():
    probe = """
import sys
import metricdim
assert sorted(m for m in sys.modules if m.startswith("metricdim")) == ["metricdim"]
star = {}
exec("from metricdim import *", star)
names = metricdim.__all__
assert len(set(names)) == len(names) == 56, names
for name in names:
    value = getattr(metricdim, name)
    assert star[name] is value and value.__module__.startswith("metricdim."), name
    assert name in dir(metricdim), name
assert metricdim.minor is sys.modules["metricdim.minor"]
try:
    metricdim.no_such_name
except AttributeError:
    print("ok")
"""
    assert run_python(probe).strip() == "ok"



def test_no_module_imports_dataclasses():
    """The CLI and every module it may load start without ``dataclasses``, which
    costs about 10 ms of cold start because it imports ``inspect``."""
    probe = (
        "import sys, metricdim.cli, metricdim.families, metricdim.formulas, metricdim.minor; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
