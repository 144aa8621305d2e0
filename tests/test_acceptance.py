"""Acceptance suite: one test per criterion, each enforcing its oracle
values and its runtime budget and printing a single pass/fail line."""
import ast
import os
import subprocess
import sys
import time

import pytest

from torsite.acceptance import CRITERIA

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.mark.parametrize(
    "number,name,fn,limit",
    CRITERIA,
    ids=[f"criterion_{n:02d}_{name.replace(' ', '_')}" for n, name, _, _ in CRITERIA],
)
def test_criterion(number, name, fn, limit, capsys):
    start = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except AssertionError as exc:
        detail = str(exc)
        ok = False
    seconds = time.perf_counter() - start
    status = "PASS" if ok and seconds <= limit else "FAIL"
    with capsys.disabled():
        print(
            f"\ncriterion {number:2d} [{status}] {seconds:7.2f}s / {limit:.0f}s  {name}: {detail}"
        )
    assert ok, f"criterion {number} failed: {detail}"
    assert seconds <= limit, f"criterion {number} exceeded {limit:.0f}s ({seconds:.2f}s)"


def test_criterion_fails_under_optimize():
    # python -O strips assert statements; a wrong frozen value must still fail
    code = (
        "from torsite import acceptance\n"
        "acceptance.SKEW_DIMENSIONS['a2_f2'] = 4\n"
        "acceptance.criterion_1_skew_algebra()\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode != 0
    assert "AssertionError: {'terminal_f2': 1, 'a2_f2': 3" in run.stderr


def test_no_assert_statements_in_the_package():
    package = os.path.join(SRC, "torsite")
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
