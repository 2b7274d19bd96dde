"""Every demo script runs to completion against this checkout."""
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero_with_output(script, run_python, tmp_path):
    proc = run_python(script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
