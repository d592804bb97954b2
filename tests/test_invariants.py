"""The invariant registry that ``cavityswap verify`` runs, and the layering
that keeps it below the command-line front end."""
import os
import subprocess
import sys

import pytest

from cavityswap import invariants


@pytest.mark.parametrize(
    "suite, name",
    [(suite, name) for suite, checks in invariants.VERIFY_CHECKS.items() for name in checks],
)
def test_invariant(suite, name):
    invariants.VERIFY_CHECKS[suite][name]()


def test_library_modules_import_without_the_front_end():
    """presets loads without invariants, and neither loads cli."""
    child = """
import sys
import cavityswap.presets
assert "cavityswap.invariants" not in sys.modules, "presets imported invariants"
import cavityswap.invariants
assert "cavityswap.cli" not in sys.modules, "a library module imported cli"
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(invariants.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
