"""Outside-in probes for one `mrdg run`: wrappers installed from the benchmark.

Nothing in the solver is edited.  Probes replace the module attributes that
the runner, the CLI and the IPDG layer look up (``mrdg.runner.refine``,
``mrdg.ipdg.assemble_trace``, ...) and a few class methods
(``WaveOperator.apply``, ``TensorOperator.apply``, ...) with timing wrappers.

`LightProbe` is what every untraced repetition carries: two hooks, fired once
per RK step and once per ``TensorSpace`` build, that give the start of the
first step (the end of set-up) and the DoF summed over steps.  `Tracer` adds
the per-layer timers and counters of the traced run.

Timers split into two phases: ``setup`` (before the first RK step starts) and
``solve`` (from then on).
"""

from __future__ import annotations

import dataclasses
import math
import time

import mrdg.cli
import mrdg.diagnostics
import mrdg.fastmv
import mrdg.ipdg
import mrdg.operators1d
import mrdg.runner
from mrdg.grids import num_cells

now = time.perf_counter

# WaveOperator attributes holding TensorOperators, by role; lists hold one
# operator per dimension.  `_q_sided` (aligned-jump speeds) holds tuples.
ROLES = ("const", "penalty", "nodeval", "pd_nodeval", "surplus", "p_ops", "q_op", "energy")
_ROLE_ATTRS = {
    "_op_const": "const",
    "_penalty": "penalty",
    "_nodeval": "nodeval",
    "_pd_nodeval": "pd_nodeval",
    "_surplus": "surplus",
    "_p_ops": "p_ops",
    "_q_op": "q_op",
}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class LightProbe:
    """End of set-up and the DoF trajectory, at one call per step."""

    def __init__(self):
        self.first_step: float | None = None
        self.dofs: list[int] = []  # active DoF at each RK step
        self.space = None  # latest TensorSpace the runner built
        self._counted = None
        self._n_active = 0

    @property
    def phase(self) -> str:
        return "setup" if self.first_step is None else "solve"

    def install(self) -> None:
        probe = self
        base = mrdg.runner.TensorSpace

        class ProbedSpace(base):
            def __init__(self, grid):
                probe.before_space()
                super().__init__(grid)
                probe.space = self
                probe.after_space()

        mrdg.runner.TensorSpace = ProbedSpace
        scheme_for = mrdg.runner.scheme_for

        def probed_scheme_for(k):
            scheme = scheme_for(k)
            step = scheme.step

            def probed_step(fn, t, dt, y):
                return probe.on_step(step, fn, t, dt, y)

            return dataclasses.replace(scheme, step=probed_step)

        mrdg.runner.scheme_for = probed_scheme_for

    def before_space(self) -> None:
        pass

    def after_space(self) -> None:
        pass

    def on_step(self, step, fn, t, dt, y):
        if self.first_step is None:
            self.first_step = now()
        if self.space is not self._counted:
            self._counted = self.space
            self._n_active = self.space.n_active
        self.dofs.append(self._n_active * math.prod(y.u.p))
        return step(fn, t, dt, y)


class Bucket:
    """Accumulated seconds and call count of one wrapped boundary."""

    __slots__ = ("seconds", "calls", "samples")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self.samples: list[float] = []


class Tracer(LightProbe):
    """Per-layer timers and counters for the traced repetition."""

    def __init__(self):
        super().__init__()
        self.buckets: dict[str, Bucket] = {}
        self.roles: dict[int, str] = {}  # id(TensorOperator) -> role
        self.holders: list = []  # keeps role-mapped operators alive
        self.matrices: dict[int, object] = {}  # id(matrix) -> matrix
        self.sweep_cache: dict = {}
        self.pairs = self.flops = self.bytes = 0
        self.top_seconds = 0.0
        self.lattice_points = 0
        self.regrids = 0
        self.missing: list[str] = []
        self._in_energy = False
        self._space_t0 = 0.0

    def bucket(self, name: str) -> Bucket:
        b = self.buckets.get(name)
        if b is None:
            b = self.buckets[name] = Bucket()
        return b

    def seconds(self, name: str) -> float:
        b = self.buckets.get(name)
        return 0.0 if b is None else b.seconds

    def calls(self, name: str) -> int:
        b = self.buckets.get(name)
        return 0 if b is None else b.calls

    def timed(self, fn, name: str, phased: bool = False, after=None):
        """Wrap `fn` so its time and calls land in bucket `name`.

        With `phased`, the bucket is `name.setup` or `name.solve`.  `after`
        sees (args, result) once the call returned.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = now()
            out = fn(*args, **kwargs)
            dt = now() - t0
            b = tracer.bucket(f"{name}.{tracer.phase}" if phased else name)
            b.seconds += dt
            b.calls += 1
            b.samples.append(dt)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def wrap(self, owner, name: str, bucket: str, **kw) -> None:
        """Replace `owner.name` by a timed wrapper; a name the solver no
        longer has is listed in `missing` and its metrics read 0."""
        fn = getattr(owner, name, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        setattr(owner, name, self.timed(fn, bucket, **kw))

    def install(self) -> None:
        super().install()
        ipdg, runner, fastmv = mrdg.ipdg, mrdg.runner, mrdg.fastmv
        for name in dir(ipdg):
            if name.startswith("assemble_"):
                self.wrap(ipdg, name, "operators1d.assemble")

        wave = ipdg.WaveOperator
        self.wrap(wave, "__init__", "ipdg.construct", after=self._register_roles)
        self.wrap(wave, "apply", "ipdg.apply")
        wave.energy = self._wave_energy(wave.energy)
        fastmv.TensorOperator.apply = self._tensor_apply(fastmv.TensorOperator.apply)

        self.wrap(fastmv.TensorSpace, "conform", "fastmv.conform", phased=True)
        self.wrap(runner, "project_separable", "fastmv.project")
        for owner in (runner, mrdg.diagnostics):
            self.wrap(owner, "eval_on_lattice", "fastmv.eval_lattice", after=self._count_points)

        self.wrap(runner, "refine", "adapt.refine", phased=True, after=self._count_regrid)
        self.wrap(runner, "coarsen", "adapt.coarsen", phased=True, after=self._count_regrid)
        self.wrap(runner, "make_rhs", "runner.make_rhs", phased=True)
        self.wrap(runner, "build_sources", "runner.build_sources", phased=True)
        self.wrap(runner, "initial_adaptive_grid", "runner.initial_grid")
        self.wrap(runner, "initial_state", "runner.initial_state")
        self.wrap(runner, "l2_error", "diagnostics.l2_error")
        self.wrap(runner, "linf_error", "diagnostics.linf_error")
        self.wrap(mrdg.cli, "write_csv", "cli.write")
        self.wrap(mrdg.cli, "write_lines", "cli.write")

    # -- hooks -----------------------------------------------------------

    def before_space(self) -> None:
        self._space_t0 = now()

    def after_space(self) -> None:
        b = self.bucket(f"fastmv.space.{self.phase}")
        b.seconds += now() - self._space_t0
        b.calls += 1

    def on_step(self, step, fn, t, dt, y):
        applies = self.bucket("ipdg.apply")
        apply_s = applies.seconds
        t0 = now()
        try:
            return super().on_step(step, fn, t, dt, y)
        finally:
            elapsed = now() - t0
            b = self.bucket("timestep.step")
            b.seconds += elapsed
            b.calls += 1
            b.samples.append(elapsed)
            self.bucket("timestep.self").seconds += elapsed - (applies.seconds - apply_s)

    def _register_roles(self, args, _out) -> None:
        wop = args[0]
        for attr, role in _ROLE_ATTRS.items():
            held = getattr(wop, attr, None)
            for op in held if isinstance(held, list) else [held]:
                if op is not None:
                    self._add_role(op, role)
        for _m, _s, nv_op, q_op in getattr(wop, "_q_sided", ()):
            self._add_role(nv_op, "nodeval")
            self._add_role(q_op, "q_op")

    def _add_role(self, top, role: str) -> None:
        self.roles[id(top)] = role
        self.holders.append(top)
        for term in top.terms:
            for op in term.ops:
                if op is not None:
                    self.matrices[id(op.mat)] = op.mat

    def _wave_energy(self, energy):
        tracer = self

        def wrapper(wop, space, u, w):
            tracer._in_energy = True
            t0 = now()
            try:
                return energy(wop, space, u, w)
            finally:
                tracer._in_energy = False
                b = tracer.bucket("ipdg.energy")
                b.seconds += now() - t0
                b.calls += 1

        return wrapper

    def _tensor_apply(self, apply):
        tracer = self

        def wrapper(top, space, cs, out=None):
            key = (id(top), id(space.grid), space.version, tuple(cs.data), cs.p)
            stats = tracer.sweep_cache.get(key)
            if stats is None:
                stats = tracer.sweep_cache[key] = sweep_stats(top, space, cs)
            t0 = now()
            res = apply(top, space, cs, out)
            dt = now() - t0
            role = "energy" if tracer._in_energy else tracer.roles.get(id(top), "other")
            b = tracer.bucket(f"fastmv.apply.{role}")
            b.seconds += dt
            b.calls += 1
            tracer.top_seconds += dt
            tracer.pairs += stats[0]
            tracer.flops += stats[1]
            tracer.bytes += stats[2]
            return res

        return wrapper

    def _count_points(self, args, _out) -> None:
        self.lattice_points += math.prod(len(pts) for pts in args[4])

    def _count_regrid(self, _args, changed) -> None:
        if changed and self.phase == "solve":
            self.regrids += 1

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; 0 where the layer did no such work."""
        s, c = self.seconds, self.calls
        misses = sum(
            getattr(mrdg.operators1d, name).cache_info().misses
            for name in dir(mrdg.operators1d)
            if name.startswith("assemble_")
            and hasattr(getattr(mrdg.operators1d, name), "cache_info")
        )
        nbytes, nnz, size = matrix_footprint(self.matrices.values())
        applies = c("ipdg.apply")
        apply_samples = self.bucket("ipdg.apply").samples
        step_samples = self.bucket("timestep.step").samples
        attempts = c("adapt.refine.solve") + c("adapt.coarsen.solve")
        out = {
            "operators1d.assemble_s": s("operators1d.assemble"),
            "operators1d.assemble_misses": misses,
            "operators1d.matrix_mb": nbytes / 2**20,
            "operators1d.nnz_frac": nnz / size if size else 0.0,
            "ipdg.construct_s": s("ipdg.construct"),
            "ipdg.apply_calls": applies,
            "ipdg.apply_s": s("ipdg.apply"),
            "ipdg.apply_ms.p50": 1e3 * quantile(apply_samples, 0.50),
            "ipdg.apply_ms.p99": 1e3 * quantile(apply_samples, 0.99),
            "ipdg.energy_s": s("ipdg.energy"),
        }
        for role in ROLES:
            out[f"fastmv.apply_s.{role}"] = s(f"fastmv.apply.{role}")
        out.update(
            {
                "fastmv.level_pairs_per_apply": self.pairs / applies if applies else 0.0,
                "fastmv.us_per_level_pair": 1e6 * self.top_seconds / self.pairs if self.pairs else 0.0,
                "fastmv.flops_per_apply": self.flops / applies if applies else 0.0,
                "fastmv.bytes_per_apply": self.bytes / applies if applies else 0.0,
                "fastmv.gflops": self.flops / self.top_seconds / 1e9 if self.top_seconds else 0.0,
                "fastmv.space_builds": c("fastmv.space.setup") + c("fastmv.space.solve"),
                "fastmv.space_s": s("fastmv.space.setup") + s("fastmv.space.solve"),
                "fastmv.conform_s": s("fastmv.conform.setup") + s("fastmv.conform.solve"),
                "fastmv.project_s": s("fastmv.project"),
                "fastmv.eval_lattice_s": s("fastmv.eval_lattice"),
                "timestep.steps": len(self.dofs),
                "timestep.step_ms.p50": 1e3 * quantile(step_samples, 0.50),
                "timestep.step_ms.p99": 1e3 * quantile(step_samples, 0.99),
                "timestep.self_s": s("timestep.self"),
                "adapt.refine_calls": c("adapt.refine.solve"),
                "adapt.coarsen_calls": c("adapt.coarsen.solve"),
                "adapt.regrids": self.regrids,
                "adapt.regrid_frac": self.regrids / attempts if attempts else 0.0,
                "adapt.refine_s": s("adapt.refine.solve"),
                "adapt.coarsen_s": s("adapt.coarsen.solve"),
                "adapt.regrid_s": s("fastmv.space.solve")
                + s("fastmv.conform.solve")
                + s("runner.make_rhs.solve")
                + s("runner.build_sources.solve"),
                "adapt.dof_mean": sum(self.dofs) / len(self.dofs) if self.dofs else 0.0,
                "adapt.dof_max": max(self.dofs, default=0),
                "adapt.elements_final": self.space.n_active if self.space is not None else 0,
                "runner.initial_grid_s": s("runner.initial_grid"),
                "runner.initial_state_s": s("runner.initial_state"),
                "runner.build_sources_s": s("runner.build_sources.setup"),
                "diagnostics.l2_error_s": s("diagnostics.l2_error"),
                "diagnostics.linf_error_s": s("diagnostics.linf_error"),
                "diagnostics.lattice_points": self.lattice_points,
                "cli.write_s": s("cli.write"),
            }
        )
        return out


def _out_levels(tag: str, a: int, n: int) -> range:
    """Output levels a 1D factor can reach from input level `a`, by its tag.

    Derived from the triangularity tag alone, so the count does not depend on
    how the solver enumerates blocks.
    """
    if tag == "diag":
        return range(a, a + 1)
    if "lower" in tag:
        return range(a + 1 if tag.startswith("strictly") else a, n + 1)
    if "upper" in tag:
        return range(0, a if tag.startswith("strictly") else a + 1)
    return range(0, n + 1)


def sweep_stats(top, space, cs) -> tuple[int, int, int]:
    """Level pairs, flops and operand bytes of one `TensorOperator.apply`.

    Replays the sweeps on level tuples only: a pair is an (input level,
    output level) block product whose output level is in the space's level
    set.  Flops count 2 per multiply-add of the dense block product; bytes
    count the float64 input block, matrix block and result once each.  Both
    are computed from shapes, not measured.
    """
    pairs = flops = nbytes = 0
    level_set = space.level_set
    for term in top.terms:
        levels = set(cs.data)
        p = list(cs.p)
        for dim in mrdg.fastmv.sweep_order(term.ops):
            op = term.ops[dim]
            if op is None:
                continue
            pr, pc = op.row.p, op.col.p
            reached = set()
            for lv in levels:
                rest = math.prod(
                    num_cells(l) * p[j] for j, l in enumerate(lv) if j != dim
                )
                ca = num_cells(lv[dim])
                for b in _out_levels(op.tag, lv[dim], op.row.n):
                    lv_out = lv[:dim] + (b,) + lv[dim + 1 :]
                    if lv_out not in level_set:
                        continue
                    cb = num_cells(b)
                    pairs += 1
                    flops += 2 * rest * ca * pc * cb * pr
                    nbytes += 8 * (rest * ca * pc + cb * pr * ca * pc + rest * cb * pr)
                    reached.add(lv_out)
            levels = reached
            p[dim] = pr
    return pairs, flops, nbytes


def matrix_footprint(mats) -> tuple[int, int, int]:
    """Bytes, stored nonzeros and total entries of distinct 1D matrices.

    Counts dense arrays and scipy.sparse matrices alike, so the figure stays
    comparable if the 1D operators change storage.
    """
    nbytes = nnz = size = 0
    for mat in mats:
        shape = mat.shape
        size += shape[0] * shape[1]
        if hasattr(mat, "nnz"):  # scipy.sparse storage
            nnz += mat.nnz
            nbytes += sum(
                getattr(mat, part).nbytes
                for part in ("data", "indices", "indptr")
                if hasattr(mat, part)
            )
        else:
            nnz += int((mat != 0).sum())
            nbytes += mat.nbytes
    return nbytes, nnz, size
