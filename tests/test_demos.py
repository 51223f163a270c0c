"""Golden-output test for the narrative demos.

Each script in demos/ runs in-process and its stdout must match the copy in
tests/demo_outputs/.  Several demos pick divisors by position, so this also
guards the order of `enumerate_divisors`.  After a deliberate change to a
demo, regenerate its copy with `python demos/NAME.py > tests/demo_outputs/NAME.txt`.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_outputs"


def test_every_demo_has_a_golden_output():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue() == (GOLDEN / f"{demo.stem}.txt").read_text()
