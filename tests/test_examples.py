"""Smoke tests: the fast example scripts must run end to end.

The slow campaign-scale example (domain_model_training) is exercised
implicitly by the integration tests/benches that call the same code
paths; here we run the quick scripts as real subprocesses to catch
import/CLI-level breakage.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


@pytest.mark.slow
def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "Pareto" in out
    assert "Best trade-off" in out


@pytest.mark.slow
def test_virtual_screening_runs():
    out = run_example("virtual_screening.py")
    assert "Best candidate" in out
    assert "Campaign cost" in out


@pytest.mark.slow
def test_mhd_simulation_runs():
    out = run_example("mhd_simulation.py")
    assert "mass drift" in out
    assert "Orszag-Tang" in out


def test_all_examples_importable():
    """Every example must at least be syntactically valid Python.

    README's example table must name exactly the scripts in ``examples/``.
    """
    import ast
    import re

    scripts = sorted(EXAMPLES.glob("*.py"))
    readme = (EXAMPLES.parent / "README.md").read_text()
    listed = re.findall(r"^\| `([^`]+\.py)` \|", readme, flags=re.MULTILINE)
    assert [script.name for script in scripts] == sorted(listed)
    for script in scripts:
        ast.parse(script.read_text(), filename=str(script))
