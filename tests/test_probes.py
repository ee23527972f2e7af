"""The benchmark's probes still read the operators the solver builds.

`perfbench/probes.py` registers the matrix `op.mat` of every factor a
`WaveOperator` holds and counts their bytes and nonzeros, dense arrays and
scipy.sparse matrices alike; its sweep replay reads `op.tag` and `op.row.n`.
"""

import sys
from pathlib import Path

from mrdg.fastmv import TensorSpace
from mrdg.grids import AdaptiveGrid
from mrdg.ipdg import SchemeConfig, WaveOperator
from mrdg.problems import make_problem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from probes import Tracer, matrix_footprint, sweep_stats  # noqa: E402


def test_smooth_speed_factors_count_as_sparse():
    n = 5
    prob = make_problem("smooth-speed", 2)
    wop = WaveOperator(
        SchemeConfig(
            ndim=2, k=2, m=3, variant="interface", n_max=n, sigma=10.0,
            bc=prob.bc, csq=prob.csq,
        )
    )
    tracer = Tracer()
    tracer._register_roles((wop,), None)
    mats = list(tracer.matrices.values())
    assert mats and all(mat.format == "csr" for mat in mats)
    nbytes, nnz, size = matrix_footprint(mats)
    assert nnz == sum(mat.nnz for mat in mats)
    assert nbytes == sum(
        mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes for mat in mats
    )
    assert nnz < 0.25 * size

    space = TensorSpace(AdaptiveGrid.sparse(2, n))
    for top in tracer.holders:
        ops = top.terms[0].ops
        assert {op.row.n for t in top.terms for op in t.ops if op is not None} == {n}
        p_in = tuple(wop.p_a[d] if op is None else op.col.p for d, op in enumerate(ops))
        pairs, flops, _ = sweep_stats(top, space, space.zeros(p_in))
        assert pairs > 0 and flops > 0
