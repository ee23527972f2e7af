"""Run orchestration: grids, initial data, stepping, adaptivity, outputs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adapt import coarsen, refine
from .config import RunConfig
from .diagnostics import (
    RunRecord,
    dof_rates,
    eps_rates,
    l2_error,
    linf_error,
    orders,
)
from .fastmv import TensorSpace, eval_on_lattice, project_separable, separable_from_vectors
from .grids import AdaptiveGrid
from .ipdg import Coefficient, SchemeConfig, SourceTerm, State, WaveOperator, make_rhs
from .operators1d import alpert_family, boundary_vectors
from .alpert import project_1d
from .problems import DirichletData, Problem, make_problem
from .timestep import InstabilityError, compute_dt, effective_cfl, scheme_for


@dataclass
class RunResult:
    config: RunConfig
    record: RunRecord
    slices: list = field(default_factory=list)  # (t, axes, values)
    centers: list = field(default_factory=list)  # (t, lines)


def scheme_config(cfg: RunConfig, prob: Problem) -> SchemeConfig:
    return SchemeConfig(
        ndim=cfg.ndim,
        k=cfg.k,
        m=cfg.m,
        variant=cfg.variant,
        n_max=cfg.n,
        sigma=cfg.sigma,
        bc=prob.bc,
        csq=prob.csq,
    )


def initial_state(space: TensorSpace, prob: Problem, k: int, n: int) -> State:
    """Zero displacement and the projected initial velocity `w0_terms`."""
    w = project_separable(space, prob.w0_terms, k, n)
    return State(space.zeros(w.p), w)


def _dirichlet_spatial(space, dd: DirichletData, cfg: RunConfig, csq: Coefficient):
    """Weak boundary load: trace data paired with n c^2 v' and penalty."""
    if not csq.is_constant:
        raise NotImplementedError("boundary data requires a constant speed here")
    fam = alpert_family(cfg.k, cfg.n)
    val, der = boundary_vectors(fam, dd.side)
    h = 2.0**-cfg.n
    sign = 1.0 if dd.side == 0 else -1.0
    face_vec = sign * csq.constant * der + (cfg.sigma / h) * val
    vecs = tuple(
        face_vec if j == dd.dim else project_1d(dd.profiles[j], cfg.k, cfg.n)
        for j in range(cfg.ndim)
    )
    return separable_from_vectors(space, [vecs], fam)


def build_sources(space: TensorSpace, prob: Problem, cfg: RunConfig) -> list[SourceTerm]:
    out = []
    if prob.source_terms:
        spatial = project_separable(space, prob.source_terms, cfg.k, cfg.n)
        out.append(SourceTerm(prob.source_time, spatial))
    for dd in prob.dirichlet:
        out.append(SourceTerm(dd.time_fn, _dirichlet_spatial(space, dd, cfg, prob.csq)))
    return out


def _snapshot(result: RunResult, cfg: RunConfig, space, state, grid, t: float):
    pts = (np.arange(cfg.slice_points) + 0.5) / cfg.slice_points
    if cfg.ndim == 1:
        axes = [pts]
    elif cfg.ndim == 2:
        axes = [pts, pts]
    else:
        mid = np.array([pts[len(pts) // 2]])  # plane nearest x3 = 1/2
        axes = [pts, pts, mid]
    vals = eval_on_lattice(space, state.u, cfg.k, cfg.n, axes)
    result.slices.append((t, axes, vals))
    result.centers.append((t, grid.dump_centers()))


def _finish(cfg, prob, space, state, record):
    if prob.exact_terms is not None:
        record.l2 = l2_error(
            space,
            state.u,
            cfg.k,
            cfg.n,
            prob.exact_terms(record.t_final),
            prob.int_exact_sq(record.t_final),
        )
    solution = prob.solution(record.t_final)
    if solution is not None:
        record.linf = linf_error(space, state.u, cfg.k, cfg.n, solution)


def _targets(cfg: RunConfig) -> list[float]:
    times = sorted({s for s in cfg.snapshots if 0.0 < s <= cfg.t_final})
    if cfg.t_final > 0 and (not times or times[-1] < cfg.t_final):
        times.append(cfg.t_final)
    return times


def initial_adaptive_grid(cfg: RunConfig, prob: Problem):
    """Refine the starting mesh until the projected data passes `eps`."""
    grid = AdaptiveGrid.sparse(cfg.ndim, min(cfg.init_n, cfg.n), n_max=cfg.n)
    for _ in range(cfg.n + 1):
        space = TensorSpace(grid)
        state = initial_state(space, prob, cfg.k, cfg.n)
        if not refine(grid, space, [state.u, state.w], cfg.eps):
            return grid, space, state  # the last grid's space and state
    space = TensorSpace(grid)
    return grid, space, initial_state(space, prob, cfg.k, cfg.n)


def run(cfg: RunConfig, prob: Problem | None = None) -> RunResult:
    """Execute one configuration end to end.

    Fixed and adaptive grids share one loop; adaptive runs refine before and
    coarsen after every step, rebuilding the space and right-hand side
    whenever the grid changed.
    """
    prob = prob if prob is not None else make_problem(cfg.problem, cfg.ndim)
    adaptive = cfg.mode == "adaptive"
    if adaptive:
        grid, space, state = initial_adaptive_grid(cfg, prob)
    else:
        if cfg.mode == "full":
            grid = AdaptiveGrid.full(cfg.ndim, cfg.n, block=cfg.k + 1)
        else:
            grid = AdaptiveGrid.sparse(cfg.ndim, cfg.n)
        space = TensorSpace(grid)
        state = initial_state(space, prob, cfg.k, cfg.n)
    wop = WaveOperator(scheme_config(cfg, prob))
    rhs = make_rhs(wop, space, build_sources(space, prob, cfg))
    scheme = scheme_for(cfg.k)
    dt = compute_dt(effective_cfl(cfg.cfl, cfg.k), cfg.n, prob.c_max)
    eta = cfg.eps / 10.0

    record = RunRecord(dof=0, num_elements=0, t_final=cfg.t_final)
    result = RunResult(cfg, record)
    record.energy.append((0.0, wop.energy(space, state.u, state.w)))

    def regrid():
        nonlocal space, state, rhs
        space = TensorSpace(grid)
        state = State(space.conform(state.u), space.conform(state.w))
        rhs = make_rhs(wop, space, build_sources(space, prob, cfg))

    t, step = 0.0, 0
    try:
        for target in _targets(cfg):
            while t < target - 1e-12:
                if adaptive and refine(grid, space, [state.u, state.w], cfg.eps):
                    regrid()
                h = min(dt, target - t)
                state = scheme.step(rhs, t, h, state)
                t, step = t + h, step + 1
                if not state.finite():
                    raise InstabilityError(step, t)
                if adaptive and coarsen(grid, space, [state.u, state.w], eta):
                    regrid()
            record.energy.append((t, wop.energy(space, state.u, state.w)))
            _snapshot(result, cfg, space, state, grid, t)
    except InstabilityError as bad:
        record.aborted_step = bad.step
        record.l2 = math.inf
    else:
        _finish(cfg, prob, space, state, record)
    record.dof = space.dof_count((cfg.k + 1,) * cfg.ndim)
    record.num_elements = space.n_active
    return result


# ---------------------------------------------------------------------------
# sweeps


def sweep(cfg: RunConfig):
    """Convergence table over mesh levels (fixed) or thresholds (adaptive).

    Returns (header, rows, results).  Fixed sweeps report the L2 order per
    refinement; adaptive sweeps report rates against DoF count and the
    threshold itself.
    """
    from dataclasses import replace

    if cfg.mode == "adaptive":
        name, cast, values = "eps", float, cfg.eps_values or (cfg.eps,)
    else:
        name, cast, values = "n", int, cfg.n_values or (cfg.n,)
    results = [run(replace(cfg, **{name: cast(v)})) for v in values]
    errs = [r.record.l2 for r in results]
    dofs = [r.record.dof for r in results]
    if cfg.mode == "adaptive":
        header = ["epsilon", "DoF", "l2_error", "R_DoF", "R_eps"]
        rates = [dof_rates(dofs, errs), eps_rates(values, errs)]
    else:
        header = ["N", "DoF", "l2_error", "order"]
        rates = [orders(errs)]
    columns = [values, dofs, errs, *([float("nan"), *r] for r in rates)]
    return header, [list(row) for row in zip(*columns)], results
