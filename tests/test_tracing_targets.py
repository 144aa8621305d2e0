"""The traced benchmark run (perfbench/run.py --trace 1) wraps torsite
functions by name; every name it lists must still resolve."""
import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets())
def test_tracing_target_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__.get(meth)), attr
    else:
        assert callable(getattr(owner, attr, None)), attr
