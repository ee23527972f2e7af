"""Acceptance gate: accuracy, stability, and adaptivity targets end to end.

Every test here drives the public runner on a small but representative
configuration and checks measured errors, convergence orders, degree-of-freedom
counts, or energy drift against frozen reference values.  Each test prints a
single ``PASS``/``FAIL`` line; run with ``pytest tests/test_acceptance.py -s``
to see the full scoreboard.  The whole gate takes a couple of minutes.
"""

import math
from dataclasses import replace

import numpy as np

from conftest import (
    alpert_point_matrix,
    cellwise_gauss,
    dense_from_terms,
    flatten,
    interp_phi,
    random_coeffs,
    random_pruning,
)
from mrdg.config import RunConfig
from mrdg.fastmv import TensorSpace
from mrdg.grids import AdaptiveGrid
from mrdg.interp import make_interp_basis
from mrdg.ipdg import Coefficient, SchemeConfig, WaveOperator, make_rhs
from mrdg.problems import make_problem
from mrdg.runner import initial_state, run, scheme_config, sweep
from mrdg.timestep import RK4, compute_dt, effective_cfl
from test_ipdg import truncation_norm

_CACHE: dict = {}


def _cfg(**raw) -> RunConfig:
    return RunConfig.from_mapping({k: str(v) for k, v in raw.items()})


def sweep_rows(**raw):
    """Cached sweep; returns the table rows [value, DoF, l2, rate...]."""
    key = ("sweep",) + tuple(sorted(raw.items()))
    if key not in _CACHE:
        _, rows, _ = sweep(_cfg(**raw))
        _CACHE[key] = rows
    return _CACHE[key]


def run_once(**raw):
    key = ("run",) + tuple(sorted(raw.items()))
    if key not in _CACHE:
        _CACHE[key] = run(_cfg(**raw)).record
    return _CACHE[key]


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def fmt(xs):
    return "[" + ", ".join(f"{x:.3g}" for x in xs) + "]"


def within_factor(got, ref, factor):
    return all(r / factor <= g <= r * factor for g, r in zip(got, ref))


def orders_close(got, ref, tol):
    return all(abs(g - r) <= tol for g, r in zip(got, ref))


# ---------------------------------------------------------------------------
# fixed-grid convergence


def test_linear_elements_2d():
    rows = sweep_rows(problem="cosine-periodic", ndim=2, k=1, n_values="5,6,7,8", t_final=0.1)
    errs = [r[2] for r in rows]
    ords = [r[3] for r in rows[1:]]
    ok = within_factor(errs, [5.90e-3, 1.69e-3, 4.66e-4, 1.23e-4], 2.0)
    ok = ok and orders_close(ords, [1.81, 1.86, 1.92], 0.25)
    report("2D linear elements", ok, f"errors {fmt(errs)}, orders {fmt(ords)}")


def test_higher_degree_2d():
    rows2 = sweep_rows(problem="cosine-periodic", ndim=2, k=2, n_values="5,6,7,8", t_final=0.1)
    rows3 = sweep_rows(problem="cosine-periodic", ndim=2, k=3, n_values="3,4,5,6", t_final=0.1)
    ords2 = [r[3] for r in rows2[1:]]
    ords3 = [r[3] for r in rows3[1:]]
    ok = orders_close(ords2, [2.69, 2.77, 2.83], 0.3)
    ok = ok and orders_close(ords3, [3.96, 3.61, 3.76], 0.3)
    report("2D degree 2 and 3", ok, f"k=2 orders {fmt(ords2)}, k=3 orders {fmt(ords3)}")


def test_mixed_boundaries_2d():
    rows = sweep_rows(problem="cosine-mixed", ndim=2, k=2, n_values="3,4,5,6", t_final=0.1)
    ords = [r[3] for r in rows[1:]]
    ok = orders_close(ords, [2.75, 2.89, 2.83], 0.3)
    report("2D Dirichlet/Neumann walls", ok, f"orders {fmt(ords)}")


def test_three_dimensional():
    rec1 = run_once(problem="cosine-periodic", ndim=3, k=1, n=5, t_final=0.1)
    rows2 = sweep_rows(problem="cosine-periodic", ndim=3, k=2, n_values="5,6", t_final=0.1)
    errs2 = [r[2] for r in rows2]
    order2 = rows2[1][3]
    ok = 1.58e-2 / 2 <= rec1.l2 <= 1.58e-2 * 2
    ok = ok and within_factor(errs2, [7.38e-4, 1.68e-4], 2.0)
    ok = ok and abs(order2 - 2.14) <= 0.3
    report(
        "3D convergence",
        ok,
        f"k=1 error {rec1.l2:.3g}, k=2 errors {fmt(errs2)}, order {order2:.3g}",
    )


# ---------------------------------------------------------------------------
# variable wave speed


def test_variable_speed_2d():
    rows = sweep_rows(
        problem="smooth-speed", ndim=2, k=2, m=3, n_values="3,4,5,6", t_final=0.1
    )
    errs = [r[2] for r in rows]
    rec4 = run_once(problem="smooth-speed", ndim=2, k=2, m=4, n=6, t_final=0.1)
    ok = within_factor(errs, [2.08e-3, 4.38e-4, 7.58e-5, 1.16e-5], 2.0)
    gap = abs(rec4.l2 - errs[-1]) / errs[-1]
    ok = ok and gap <= 0.05
    report(
        "variable speed, interpolated coefficients",
        ok,
        f"M=3 errors {fmt(errs)}, M=4 vs M=3 at finest level {gap * 100:.2f}%",
    )


def test_node_placement_decides_stability():
    # Interior-only interpolation nodes destabilize the scheme; putting nodes
    # on the cell interfaces restores convergence on the same problem.
    with np.errstate(over="ignore", invalid="ignore"):
        inner = run_once(
            problem="smooth-speed", ndim=2, k=3, m=4, variant="inner", n=5, t_final=0.1
        )
    interface = run_once(
        problem="smooth-speed", ndim=2, k=3, m=4, variant="interface", n=5, t_final=0.1
    )
    ok = inner.l2 > 1e3 and interface.l2 < 1e-5
    report(
        "interface vs interior interpolation nodes",
        ok,
        f"inner error {inner.l2:.3g}, interface error {interface.l2:.3g}",
    )


# ---------------------------------------------------------------------------
# adaptivity


def test_adaptive_threshold_tracking():
    rows = sweep_rows(
        problem="cosine-periodic",
        ndim=2,
        k=3,
        m=4,
        n=8,
        mode="adaptive",
        eps_values="1e-2,1e-3,1e-4",
        t_final=0.1,
    )
    epss = [r[0] for r in rows]
    dofs = [r[1] for r in rows]
    errs = [r[2] for r in rows]
    ok = all(e <= eps for e, eps in zip(errs, epss))
    ok = ok and within_factor(dofs, [320, 1088, 1536], 3.0)
    slope = float(np.polyfit(np.log(epss), np.log(errs), 1)[0])
    ok = ok and 0.6 <= slope <= 1.3
    report(
        "adaptive threshold tracking",
        ok,
        f"errors {fmt(errs)} under thresholds {fmt(epss)}, DoF {dofs}, fitted rate {slope:.2f}",
    )


# ---------------------------------------------------------------------------
# conservation


def test_energy_drift_rk4():
    cfg = _cfg(problem="cosine-periodic", ndim=2, k=2, n=5)
    prob = make_problem(cfg.problem, cfg.ndim)
    space = TensorSpace(AdaptiveGrid.sparse(cfg.ndim, cfg.n))
    wop = WaveOperator(scheme_config(cfg, prob))
    state = initial_state(space, prob, cfg.k, cfg.n)
    rhs = make_rhs(wop, space, [])
    dt = compute_dt(effective_cfl(cfg.cfl, cfg.k), cfg.n, prob.c_max)
    e0 = wop.energy(space, state.u, state.w)
    t = 0.0
    for _ in range(100):
        state = RK4.step(rhs, t, dt, state)
        t += dt
    drift = abs(wop.energy(space, state.u, state.w) - e0) / e0
    ok = drift <= 1e-6
    report("energy drift over 100 RK4 steps", ok, f"relative drift {drift:.3g}")


# ---------------------------------------------------------------------------
# kernels and bases


def test_fast_apply_matches_dense_kronecker():
    worst = 0.0
    for d, k, n, seed in [(2, 2, 3, 1), (3, 1, 3, 2)]:
        sc = SchemeConfig(
            ndim=d, k=k, m=k + 1, variant="interface", n_max=n,
            sigma=10.0, bc=(("periodic", "periodic"),) * d, csq=Coefficient.const(1.0),
        )
        wop = WaveOperator(sc)
        p = (k + 1,) * d
        for grid in [AdaptiveGrid.sparse(d, n), random_pruning(d, n, seed)]:
            space = TensorSpace(grid)
            x = random_coeffs(space, p, seed + 10)
            got = flatten(space, wop.apply(space, x))
            dense = dense_from_terms(wop._op_const.terms, space, p)
            want = dense @ flatten(space, x)
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    ok = worst <= 1e-12
    report("fast apply vs dense Kronecker", ok, f"max relative gap {worst:.3g}")


def test_basis_foundations():
    # orthonormality and vanishing moments of the L2 basis
    k, n = 3, 3
    xq, wq = cellwise_gauss(n, k + 3)
    vals = alpert_point_matrix(k, n, xq)  # (npts, nbasis)
    gram_gap = np.abs(vals.T * wq @ vals - np.eye(vals.shape[1])).max()
    moments = [
        np.abs(wq * xq**j @ vals[:, k + 1 :]).max() for j in range(k + 1)
    ]
    ok = gram_gap < 1e-11 and max(moments) < 1e-11

    # delta property and nesting of the interpolation families
    worst_delta = 0.0
    for m in range(1, 6):
        for variant in ("interface", "inner"):
            basis = make_interp_basis(m, variant)
            nodes = basis.nodes_level0()
            for i in range(m + 1):
                for j, (x, s) in enumerate(nodes):
                    got = interp_phi(basis, i, np.array([float(x)]), s)[0]
                    worst_delta = max(worst_delta, abs(got - (1.0 if i == j else 0.0)))
            base = set(basis.base_nodes)
            halved = {(x / 2, s) for x, s in base} | {((x + 1) / 2, s) for x, s in base}
            ok = ok and base <= halved
    iface4 = make_interp_basis(4, "interface")
    phi0_at_zero = interp_phi(iface4, 0, np.array([0.0]), 1)[0]
    ok = ok and worst_delta < 1e-12 and abs(phi0_at_zero - 1.0) < 1e-12
    report(
        "basis orthonormality, moments, node property",
        ok,
        f"gram gap {gram_gap:.2g}, worst moment {max(moments):.2g}, "
        f"delta gap {worst_delta:.2g}, phi0(0)={phi0_at_zero:g}",
    )


def test_interpolated_operator_accuracy():
    ns = [3, 4, 5, 6]
    detail = []
    ok = True
    for k in (1, 2):
        errs = [truncation_norm(k, n) for n in ns]
        rate = -float(np.polyfit(ns, np.log2(errs), 1)[0])
        ok = ok and rate >= k + 0.5
        detail.append(f"k={k} rate {rate:.3f}")
    report("interpolated operator truncation order", ok, ", ".join(detail))
