"""Every demo script runs to completion against the library in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_ten_demos_found():
    assert len(DEMOS) == 10


def check_cat_picture(stdout):
    """Demo 07's sign picture of the conditioned cat, whose two lobes sit on
    the real axis at Re beta = +-alpha: printed with Im beta = +2 as its top
    row and Im beta = -2 as its bottom row, the lobes' '#' fill neither of
    those, and the middle row (Im beta = 0) has them on both sides of its
    centre."""
    lines = stdout.splitlines()
    top = lines.index("sign structure of W(beta) (fringes along Im beta):") + 1
    rows = [line.strip() for line in lines[top : top + 21]]
    assert len({len(row) for row in rows}) == 1 and len(rows[0]) == 21, rows
    assert "#" not in rows[0] + rows[-1]
    middle = rows[10]
    assert "#" in middle[:10] and "#" in middle[11:], middle


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    if demo.stem == "07_wigner_tomography":
        check_cat_picture(out.stdout)
