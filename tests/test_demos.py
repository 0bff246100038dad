"""Every demo script runs to completion and prints exactly what it printed before.

A demo that uses a removed or renamed public name fails here first, and
so does any change to a demo's output: each output is deterministic, and
is pinned by the first 16 hex digits of its SHA-256.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
DIGESTS = {
    "01_smith_and_hermite.py": "e986ddb0c5d3f6e6",
    "02_lattice_degree.py": "588762bb4467e885",
    "03_hilbert_counting.py": "65187564d74681d7",
    "04_toric_points.py": "ee282743b0e9d865",
    "05_sandpiles.py": "705cb04d7510ee1d",
    "06_cas_scripts.py": "dbce4e0cfe4204a6",
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == DIGESTS[path.name]
