import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# sha256 of each demo's stdout, taken while the Bareiss kernel still swapped
# rows and preferred the diagonal pivot; closed_formula_tour's was taken
# again once decompose and reduced_system left the library and the demo
# stopped printing them. Any changed printed byte fails
DEMOS = {
    "closed_formula_tour": "aa13e981b10973c14741b9029386c8bd5f60b223ed7422ff85d8adfd6999cefd",
    "configuratrix_tour": "6ad63c7ca542bdaf1d74b5cdaaf1c43bda11c25049568b1bfb40e409f3cbc0ce",
    "degeneracy_witnesses": "ad60e92a1c0c6b740104a32cf8096609501f2484c903ef46ffe1f3aa8ea8901b",
    "vanishing_locus_sweep": "3024cc3da57d57aa78b88eda2a90be7394a86a0305ad1f32bf6557a8f56de4e2",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")], capture_output=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[demo]
