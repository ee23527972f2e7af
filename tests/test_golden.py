"""Byte-for-byte regression of ``mrdg run`` outputs on eight small cases.

Each directory under ``tests/golden`` holds a ``case.cfg`` and the files a
run of it wrote when the fixture was made.  A refactor that keeps behaviour
reproduces every one of those files exactly.  The cases cover a sparse 2D
grid with an interior snapshot, a full 1D grid, adaptive 2D and 3D runs whose
grids refine and coarsen between snapshots, the Dirichlet boundary load of
``cosine-mixed``, the interpolated ``c^2`` coefficient pipeline of
``smooth-speed`` and ``layered-aligned``, and that pipeline between the
Dirichlet walls of ``layered-pulse``.

To regenerate after an intended change of output, run each case with
``mrdg run --config tests/golden/<case>/case.cfg --out tests/golden/<case>``.
"""

from pathlib import Path

import pytest

from mrdg.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


def test_all_cases_present():
    assert CASES == [
        "adaptive2d",
        "adaptive3d",
        "aligned2d",
        "full1d",
        "mixed2d",
        "pulse2d",
        "sparse2d",
        "varspeed2d",
    ]


@pytest.mark.parametrize("case", CASES)
def test_run_outputs_match_golden(case, tmp_path):
    src = GOLDEN / case
    assert main(["run", "--config", str(src / "case.cfg"), "--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in src.iterdir() if p.name != "case.cfg")
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (src / name).read_bytes(), name
