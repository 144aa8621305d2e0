"""Runtime code imports sympy and hypothesis nowhere: they are for tests only."""
import os
import pkgutil
import subprocess
import sys

import torsite

SRC = os.path.dirname(os.path.dirname(os.path.abspath(torsite.__file__)))

PROBE = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(sorted(m for m in ("sympy", "hypothesis") if m in sys.modules))
"""


def test_no_torsite_module_loads_a_test_only_package():
    names = ["torsite"] + [f"torsite.{m.name}" for m in pkgutil.iter_modules(torsite.__path__)]
    assert {"torsite.cli", "torsite.modules", "torsite.grskew"} <= set(names)
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-c", PROBE, *names], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert run.stdout.strip() == "[]"
