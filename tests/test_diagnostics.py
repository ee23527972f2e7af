"""Error norms, rate fits, and the text output helpers."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrdg import diagnostics, fastmv
from mrdg.diagnostics import (
    RunRecord,
    center_lattice,
    dof_rates,
    eps_rates,
    fmt,
    l2_error,
    linf_error,
    orders,
    write_csv,
    write_lines,
)
from mrdg.fastmv import TensorSpace, eval_on_lattice, project_separable
from mrdg.grids import AdaptiveGrid
from mrdg.problems import REGISTRY, make_problem

from conftest import cellwise_gauss, random_coeffs, random_pruning


def quadrature_l2_error(space, u, k, n, exact_xy):
    # brute reference: tensor Gauss quadrature of (u_h - u)^2 over the
    # finest mesh, dense in both directions
    x, wx = cellwise_gauss(n, k + 4)
    vals = eval_on_lattice(space, u, k, n, [x, x])
    diff = (vals - exact_xy(x[:, None], x[None, :])) ** 2
    return math.sqrt(float(wx @ diff @ wx))


def test_l2_error_matches_quadrature():
    k, n = 2, 3
    space = TensorSpace(AdaptiveGrid.sparse(2, n))
    u = random_coeffs(space, (k + 1, k + 1), 5)
    u.scale(0.05)
    # exact field sin(pi x) sin(pi y): closed-form squared integral 1/4
    terms = [(lambda x: np.sin(np.pi * x), lambda y: np.sin(np.pi * y))]
    got = l2_error(space, u, k, n, terms, 0.25)
    want = quadrature_l2_error(
        space, u, k, n, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    assert abs(got - want) < 1e-9 * max(1.0, want)


def test_l2_error_is_cancellation_free_near_zero():
    # u_h = P(exact): the distance is the pure projection tail, which the
    # three-term expansion would compute as a difference of O(1) numbers
    k, n = 2, 4
    space = TensorSpace(AdaptiveGrid.full(2, n))
    terms = [(lambda x: np.sin(np.pi * x), lambda y: np.sin(np.pi * y))]
    u = project_separable(space, terms, k, n)
    got = l2_error(space, u, k, n, terms, 0.25)
    assert 0.0 < got < 1e-4
    want = quadrature_l2_error(
        space, u, k, n, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    assert abs(got - want) < 1e-3 * want


def test_l2_error_flags_nonfinite_and_bad_norms():
    k, n = 1, 2
    space = TensorSpace(AdaptiveGrid.sparse(2, n))
    u = space.zeros((2, 2))
    u.data[(0, 0)][0, 0, 0, 0] = np.nan
    terms = [(lambda x: 0.0 * x, lambda y: 0.0 * y)]
    assert l2_error(space, u, k, n, terms, 0.0) == math.inf
    ok = space.zeros((2, 2))
    with pytest.raises(ValueError):
        # claimed ||u||^2 far below the projection's: inconsistent inputs
        l2_error(space, ok, k, n, [(lambda x: 1.0 + 0 * x, lambda y: 1.0 + 0 * y)], 0.5)


def test_linf_error_on_lattice_and_chunked_path(monkeypatch):
    k, n = 1, 3
    space = TensorSpace(AdaptiveGrid.full(2, n))
    terms = [(lambda x: x, lambda y: 1.0 - y)]
    u = project_separable(space, terms, k, n)
    exact = lambda x, y: x * (1.0 - y)
    assert linf_error(space, u, k, n, exact) < 1e-12
    # shifted exact field: the max deviation on the lattice is known
    off = lambda x, y: x * (1.0 - y) + 0.25
    whole = linf_error(space, u, k, n, off)
    assert abs(whole - 0.25) < 1e-12
    # a small slab budget splits the 16 x 16 lattice into slabs of 5, 5, 5
    # and 1 rows along the last axis, which give the one-slab result
    slabs = []
    evaluate = diagnostics.eval_on_lattice

    def counted(space, cs, k, n, axes, tile):
        slabs.append(len(axes[-1]))
        return evaluate(space, cs, k, n, axes, tile)

    monkeypatch.setattr(diagnostics, "eval_on_lattice", counted)
    monkeypatch.setattr(diagnostics, "SLAB_POINTS", 5 * 16 + 3)
    assert abs(linf_error(space, u, k, n, off) - whole) < 1e-12
    assert slabs == [5, 5, 5, 1]


@given(
    d=st.integers(1, 3),
    n=st.integers(1, 3),
    k=st.integers(0, 2),
    budget=st.integers(1, 4096),
    adaptive=st.booleans(),
    seed=st.integers(0, 2**16),
)
# 8^3 lattice: slabs of 3 rows, which neither divide the axis nor fill one
# level-2 cell (4 rows); planes of 64 points tiled in chunks of 2 rows along
# x2, then in chunks of 5 points along x1; a 16^2 lattice in one-row slabs
@example(d=3, n=2, k=1, budget=3 * 64, adaptive=False, seed=1)
@example(d=3, n=2, k=2, budget=16, adaptive=True, seed=2)
@example(d=3, n=2, k=0, budget=5, adaptive=True, seed=3)
@example(d=2, n=3, k=2, budget=16, adaptive=False, seed=4)
@settings(max_examples=40, deadline=None)
def test_linf_error_tiles_match_one_whole_evaluation(d, n, k, budget, adaptive, seed):
    # every lattice point lands in exactly one tile, with the value one
    # whole-lattice evaluation gives, and the max-norm agrees
    n = min(n, 2) if d == 3 else n
    grid = random_pruning(d, n, seed) if adaptive else AdaptiveGrid.sparse(d, n)
    space = TensorSpace(grid)
    u = random_coeffs(space, (k + 1,) * d, seed)
    pts = center_lattice(n)
    whole = eval_on_lattice(space, u, k, n, [pts] * d)

    def exact(*xs):
        return sum(np.sin(3.0 * x + j) for j, x in enumerate(xs))

    want = np.abs(whole - exact(*np.meshgrid(*[pts] * d, indexing="ij", sparse=True))).max()
    got_vals, seen = np.zeros(whole.shape), np.zeros(whole.shape, int)
    evaluate = diagnostics.eval_on_lattice

    def recorded(space, cs, k, n, axes, tile):
        vals = evaluate(space, cs, k, n, axes, tile)
        assert vals.shape == tuple(len(x) for x in axes) and vals.size <= budget
        got_vals[tile[1]] = vals
        seen[tile[1]] += 1
        return vals

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "SLAB_POINTS", budget)
        mp.setattr(diagnostics, "eval_on_lattice", recorded)
        got = linf_error(space, u, k, n, exact)
    assert (seen == 1).all()
    scale = np.abs(whole).max()
    assert np.abs(got_vals - whole).max() <= 1e-14 * scale
    assert abs(got - want) <= 1e-14 * want


def test_linf_error_builds_each_leading_table_once(monkeypatch):
    # 3D n 2 in tiles of 16 points: axis 0 whole, axis 1 in four chunks of
    # 2 rows, axis 2 a row at a time.  Each leading axis's table of one
    # level and row range is built once, however many tiles read it; the
    # last axis's tables belong to their window of fiber sums.
    d, n, k = 3, 2, 1
    space = TensorSpace(AdaptiveGrid.sparse(d, n))
    u = random_coeffs(space, (k + 1,) * d, 0)
    built, asked = Counter(), []
    method, table = fastmv.Lattice._table, fastmv._table

    def asking(self, m, l, rows):
        asked.append((m, l, rows.start, rows.stop))
        try:
            return method(self, m, l, rows)
        finally:
            asked.pop()

    def building(cell, vals):
        built[asked[-1]] += 1
        return table(cell, vals)

    monkeypatch.setattr(fastmv.Lattice, "_table", asking)
    monkeypatch.setattr(fastmv, "_table", building)
    monkeypatch.setattr(diagnostics, "SLAB_POINTS", 16)
    linf_error(space, u, k, n, lambda x, y, z: x * y * z)
    leading = {key: count for key, count in built.items() if key[0] < d - 1}
    assert {key[2:] for key in leading if key[0] == 1} == {(0, 2), (2, 4), (4, 6), (6, 8)}
    assert set(leading.values()) == {1}


@pytest.mark.parametrize("n", [6, 7])
def test_linf_error_memory_is_bounded_by_the_budget(n):
    # 3D k 2 sparse: from n 6 to n 7 the lattice grows 8x (2^21 to 2^24
    # points), while everything linf_error holds at once stays within a
    # fixed multiple of one tile's values
    k = 2
    space = TensorSpace(AdaptiveGrid.sparse(3, n))
    u = random_coeffs(space, (k + 1,) * 3, n)
    tracemalloc.start()
    try:
        linf_error(space, u, k, n, lambda x, y, z: np.cos(x) * np.cos(y) * np.cos(z))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (8 * diagnostics.SLAB_POINTS)


EXACT_FIELDS = [
    (name, ndim)
    for name in sorted(REGISTRY)
    for ndim in (2, 3)
    if make_problem(name, ndim).solution(0.0) is not None
]


@pytest.mark.parametrize("name,ndim", EXACT_FIELDS)
def test_exact_fields_broadcast_an_open_mesh(name, ndim):
    # linf_error hands the solution a sparse mesh: an elementwise field gives
    # the dense-mesh values bit for bit (0, 1/4, 3/4 and the corner included)
    axes = [np.arange(m + 1) / m for m in (32, 16, 8)[:ndim]]
    fn = make_problem(name, ndim).solution(0.3)
    dense = fn(*np.meshgrid(*axes, indexing="ij"))
    sparse = np.broadcast_to(fn(*np.meshgrid(*axes, indexing="ij", sparse=True)), dense.shape)
    assert np.array_equal(sparse, dense)


def test_center_lattice_avoids_breakpoints():
    pts = center_lattice(3)
    assert len(pts) == 16
    scaled = pts * 2**3
    assert not np.any(np.isclose(scaled, np.round(scaled)))


def test_rate_helpers_on_hand_values():
    assert orders([8.0, 4.0, 1.0]) == [1.0, 2.0]
    assert orders([1.0, 0.0]) == [math.inf]
    assert dof_rates([10, 100], [1.0, 0.01]) == [pytest.approx(2.0)]
    assert eps_rates([1e-2, 1e-4], [1e-3, 1e-5]) == [pytest.approx(1.0)]


def test_fmt_six_significant_digits():
    assert fmt(0.000123456789) == "0.000123457"
    assert fmt(3) == "3"
    assert fmt(np.int64(7)) == "7"
    assert fmt(1.5) == "1.5"
    assert fmt("x") == "x"
    assert fmt(float("nan")) == "nan"


def test_write_csv_echo_and_determinism(tmp_path):
    rows = [[1, 0.5, "a"], [2, 1.0 / 3.0, "b"]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        write_csv(p, ["n", "err", "tag"], rows, echo=["k = 1", "cfl = 0.1"])
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "# k = 1"
    assert lines[2] == "n,err,tag"
    assert lines[3] == "1,0.5,a"
    assert lines[4] == "2,0.333333,b"


def test_write_lines(tmp_path):
    p = tmp_path / "c.txt"
    write_lines(p, ["one", "two"], echo=["cfg = here"])
    assert p.read_text() == "# cfg = here\none\ntwo\n"


def test_run_record_stability_flag():
    assert RunRecord(dof=8, num_elements=2, t_final=1.0).stable
    assert not RunRecord(dof=8, num_elements=2, t_final=1.0, aborted_step=3).stable
