"""The benchmark's probes still read the operators the solver builds.

`perfbench/probes.py` registers the matrix `op.mat` of every factor a
`WaveOperator` holds and counts its bytes and stored entries: a dense array,
or a pyramid form's `shape`, `nnz`, `data` and `indices`; its sweep replay
reads `op.tag` and `op.row.n`.  Every other probe wraps a solver name
looked up by string, which must still exist.
"""

import os
import subprocess
import sys
from pathlib import Path

from mrdg.fastmv import TensorSpace
from mrdg.grids import AdaptiveGrid
from mrdg.ipdg import SchemeConfig, WaveOperator
from mrdg.problems import make_problem
from mrdg.pyramid import GalerkinForm, NodeForm, SurplusStencil

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from probes import Tracer, matrix_footprint, sweep_stats  # noqa: E402


def test_every_wrapped_name_exists():
    # a name the solver no longer has is listed in `missing`, and its
    # metrics read 0 without an error; installing the wrappers in a fresh
    # process keeps them out of this one
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from probes import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(tracer.missing)\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"


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
    assert mats and all(isinstance(mat, (GalerkinForm, NodeForm, SurplusStencil)) for mat in mats)
    # the footprint is the stored tables: values, plus the index tables of
    # the node and surplus forms, against the logical operator shape
    nbytes, nnz, size = matrix_footprint(mats)
    assert nnz == sum(mat.nnz for mat in mats)
    assert nbytes == sum(
        mat.data.nbytes + (mat.indices.nbytes if hasattr(mat, "indices") else 0) for mat in mats
    )
    assert size == sum(mat.shape[0] * mat.shape[1] for mat in mats)
    assert nnz < 0.25 * size

    space = TensorSpace(AdaptiveGrid.sparse(2, n))
    for top in tracer.holders:
        ops = top.terms[0].ops
        assert {op.row.n for t in top.terms for op in t.ops if op is not None} == {n}
        p_in = tuple(wop.p_a[d] if op is None else op.col.p for d, op in enumerate(ops))
        pairs, flops, _ = sweep_stats(top, space, space.zeros(p_in))
        assert pairs > 0 and flops > 0
