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

import itertools
import math
import re
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
        got, want = (tmp_path / name).read_bytes(), (src / name).read_bytes()
        if got != want:
            pytest.fail(mismatch_report(f"{case}/{name}", want, got), pytrace=False)


def _numbers(line: str) -> list[float]:
    """The fields of a line that parse as numbers."""
    out = []
    for field in re.split(r"[\s,=]+", line):
        try:
            out.append(float(field))
        except ValueError:
            pass
    return out


def mismatch_report(name: str, want: bytes, got: bytes, shown: int = 5) -> str:
    """How an output differs from its golden file: the file, its first
    differing lines, and the largest relative and absolute differences of
    the numeric fields of all differing lines (inf where their fields do not
    pair up).  A flip of roundoff-sized values shows a tiny absolute one."""
    old, new = want.decode().splitlines(), got.decode().splitlines()
    diffs = [
        (i, a, b)
        for i, (a, b) in enumerate(itertools.zip_longest(old, new, fillvalue=""), 1)
        if a != b
    ]
    worst = largest = 0.0
    for _, a, b in diffs:
        x, y = _numbers(a), _numbers(b)
        if len(x) != len(y):
            worst = largest = math.inf
        for u, v in zip(x, y):
            if u != v:
                worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
                largest = max(largest, abs(u - v))
    out = [f"{name}: {len(diffs)} of {max(len(old), len(new))} lines differ"]
    for i, a, b in diffs[:shown]:
        out += [f"  line {i} golden: {a}", f"  line {i} run:    {b}"]
    out.append(f"  largest relative difference of numeric fields: {worst:.3g}")
    out.append(f"  largest absolute difference of numeric fields: {largest:.3g}")
    return "\n".join(out)


def test_mismatch_report_names_lines_and_relative_difference():
    want = b"# problem = x\nt,err\n0.1,6.09249e-14\n0.2,1\n"
    got = b"# problem = x\nt,err\n0.1,6.09246e-14\n0.2,1\n"
    report = mismatch_report("case/table.csv", want, got)
    assert report.splitlines() == [
        "case/table.csv: 1 of 4 lines differ",
        "  line 3 golden: 0.1,6.09249e-14",
        "  line 3 run:    0.1,6.09246e-14",
        "  largest relative difference of numeric fields: 4.92e-06",
        "  largest absolute difference of numeric fields: 3e-19",
    ]
    assert "inf" in mismatch_report("f", b"1,2\n", b"1\n")
