import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["closed_formula_tour", "configuratrix_tour", "degeneracy_witnesses",
         "vanishing_locus_sweep"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")], capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
