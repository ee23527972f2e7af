"""Interior-penalty DG semi-discretization of u_tt = div(c^2 grad u) + f.

The spatial operator acting on the orthonormal hierarchical coefficients of
u is assembled from Kronecker factors per dimension:

  <L u, v> = -B(u, v),
  B(u, v)  = sum_m [ int p_m d_m v  -  sum_faces {p_m}[v]
                     - sum_faces (1/2 (d_m v)~ [q~] both sides)
                     + (sigma/h) sum_faces [u][v] ],

with q = I(c^2 u) and p_m = I(c^2 d_m u) interpolated onto the interpolatory
multiwavelet space.  For constant speed the interpolants are exact and the
whole operator collapses to one 1D matrix per dimension (`assemble_ipdg`),
shared by the dimensions with equal boundary conditions.  For speeds with
jumps aligned to dyadic planes, the third group samples both one-sided limits
of c^2 u separately (side-forced node evaluation); for continuous speeds both
halves merge into an averaged-derivative trace term.

Trace sums run over every interface of the finest mesh fixed by the configured
maximum level: jumps of functions smooth across a face vanish, so only true
element boundaries contribute, and the penalty weight sigma/h is uniform with
h = 2^-n_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .fastmv import CoeffSet, TensorOperator, TensorSpace, TensorTerm, on_level
from .interp import make_interp_basis
from .operators1d import (
    Operator1D,
    alpert_family,
    assemble_ipdg,
    assemble_mass,
    assemble_node_to_surplus,
    assemble_node_values,
    assemble_trace,
    assemble_volume_derivative,
    interp_family,
    node_family,
)


@dataclass(frozen=True)
class Coefficient:
    """Squared wave speed c^2 as a field on [0,1]^d.

    `fn(xs, sides)` receives broadcastable coordinate and side-tag arrays (one
    per dimension, sides in {-1, 0, +1}) and returns c^2 elementwise, in any
    shape that broadcasts to theirs.  Fields with
    jumps aligned to dyadic planes must set `aligned_jumps` so the scheme
    samples both one-sided limits across them.  A constant speed carries no
    `fn`: the scheme folds it into its operators and never samples it.
    """

    fn: Callable | None = None
    constant: float | None = None
    aligned_jumps: bool = False

    @classmethod
    def const(cls, value: float) -> "Coefficient":
        return cls(constant=float(value))

    @classmethod
    def smooth(cls, fn: Callable) -> "Coefficient":
        return cls(fn=lambda xs, sides: fn(*xs))

    @classmethod
    def piecewise(cls, fn: Callable) -> "Coefficient":
        return cls(fn=fn, aligned_jumps=True)

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    def __call__(self, xs, sides):
        return self.fn(xs, sides)


@dataclass(frozen=True)
class SchemeConfig:
    """Everything the spatial operator depends on."""

    ndim: int
    k: int
    m: int
    variant: str
    n_max: int
    sigma: float
    bc: tuple[tuple[str, str], ...]  # per dimension (left, right)
    csq: Coefficient

    @property
    def h_min(self) -> float:
        return 2.0 ** (-self.n_max)


def _elementwise_mul(cs: CoeffSet, values: np.ndarray) -> CoeffSet:
    cs.buf *= values
    return cs


class WaveOperator:
    """Applies the semi-discrete spatial operator L on a tensor space."""

    def __init__(self, cfg: SchemeConfig):
        self.cfg = cfg
        d, k, n = cfg.ndim, cfg.k, cfg.n_max
        A = alpert_family(k, n)
        self.p_a = (k + 1,) * d
        soh = cfg.sigma / cfg.h_min

        if cfg.csq.is_constant:
            # one matrix per distinct bc pair, shared by its dimensions
            terms = []
            for m in range(d):
                ops: list[Operator1D | None] = [None] * d
                ops[m] = assemble_ipdg(A, cfg.bc[m], cfg.csq.constant, soh)
                terms.append(TensorTerm(tuple(ops), scale=-1.0))
            self._op_const = TensorOperator(terms)
            return

        I = interp_family(cfg.m, cfg.variant, n)
        Nd = node_family(cfg.m, cfg.variant, n)
        self.p_i = (cfg.m + 1,) * d
        C = assemble_mass(A, I)
        EA = assemble_node_values(Nd, A)
        Einv = assemble_node_to_surplus(Nd)
        self._nodeval = TensorOperator.from_factors((EA,) * d)
        self._surplus = TensorOperator.from_factors((Einv,) * d)

        # volume-plus-average branch, one operator per derivative direction
        self._p_ops = []
        self._pd_nodeval = []
        pen_terms = []
        for m in range(d):
            Vd = assemble_volume_derivative(A, I)
            Tav = assemble_trace(A, I, "jump", "avg", cfg.bc[m])
            ops = [C] * d
            ops[m] = Operator1D(Tav.mat - Vd.mat, A, I, "general")
            self._p_ops.append(TensorOperator.from_factors(tuple(ops)))
            EdA = assemble_node_values(Nd, A, deriv=True)
            nops = [EA] * d
            nops[m] = EdA
            self._pd_nodeval.append(TensorOperator.from_factors(tuple(nops)))
            J = assemble_trace(A, A, "jump", "jump", cfg.bc[m])
            jops: list[Operator1D | None] = [None] * d
            jops[m] = J
            pen_terms.append(TensorTerm(tuple(jops), scale=-soh))
        self._penalty = TensorOperator(pen_terms)
        # (node operator, forced side, output operator) per interpolated term:
        # its node samples of u, times c^2, map through surpluses to the output
        self._terms = list(zip(self._pd_nodeval, [None] * d, self._p_ops))

        if cfg.csq.aligned_jumps:
            # sample both one-sided limits of c^2 u across dyadic planes
            self._q_sided = []
            for m in range(d):
                for s, kind in ((-1, "dminus"), (1, "dplus")):
                    EAf = assemble_node_values(Nd, A, force_side=s)
                    nv_ops = [EA] * d
                    nv_ops[m] = EAf
                    F = assemble_trace(A, I, kind, "jump", cfg.bc[m], half=True)
                    q_ops = [C] * d
                    q_ops[m] = F
                    nv_op = TensorOperator.from_factors(tuple(nv_ops))
                    q_op = TensorOperator.from_factors(tuple(q_ops))
                    self._q_sided.append((m, s, nv_op, q_op))
                    self._terms.append((nv_op, (m, s), q_op))
        else:
            q_terms = []
            for m in range(d):
                Fq = assemble_trace(A, I, "davg", "jump", cfg.bc[m])
                ops = [C] * d
                ops[m] = Fq
                q_terms.append(TensorTerm(tuple(ops)))
            self._q_op = TensorOperator(q_terms)
            self._terms.append((self._nodeval, None, self._q_op))

        self._cval: dict = {}  # force -> c^2 at the nodes of `_cval_layout`
        self._cval_layout = None

    # -- coefficient samples at the hierarchical nodes ------------------

    def _csq_at_nodes(self, space: TensorSpace, force: tuple[int, int] | None):
        # the samples cover every cell of the space's levels, so they
        # follow its level list, which its layout stands for
        if self._cval_layout is not space.layout:
            self._cval.clear()
            self._cval_layout = space.layout
        hit = self._cval.get(force)
        if hit is not None:
            return hit
        cfg = self.cfg
        basis = make_interp_basis(cfg.m, cfg.variant)
        vals = space.zeros(self.p_i)
        for lv, view in vals.data.items():
            tables = [basis.level_nodes(l) for l in lv]
            coords = [c for c, _ in tables]
            sides = [s for _, s in tables]
            if force is not None:
                m, side = force
                inner = (coords[m] > 0.0) & (coords[m] < 1.0)
                sides[m] = np.where(inner, side, sides[m])
            view[...] = cfg.csq(on_level(coords), on_level(sides))
        self._cval[force] = vals.buf
        return vals.buf

    # -- operator application -------------------------------------------

    def apply(
        self, space: TensorSpace, u: CoeffSet, out: CoeffSet | None = None
    ) -> CoeffSet:
        """out += L u (allocates a fresh zero target when out is None).
        The node samples are made one term at a time, as the interpolated
        terms use them, so at most two are alive at once.  The fiber orders
        that the first apply on a layout builds for its index maps serve all
        the operators, then go."""
        if self.cfg.csq.is_constant:
            out = self._op_const.apply(space, u, out)
        else:
            if out is None:
                out = space.zeros(self.p_a)
            self._penalty.apply(space, u, out)
            samples = (
                _elementwise_mul(node_op.apply(space, u), self._csq_at_nodes(space, force))
                for node_op, force, _ in self._terms
            )
            self.apply_interpolated(space, samples, out)
        space.layout.orders.clear()
        return out

    def apply_interpolated(
        self,
        space: TensorSpace,
        samples: Iterable[CoeffSet],
        out: CoeffSet | None = None,
    ) -> CoeffSet:
        """Variable-speed interpolated terms driven by node samples (out += ...).

        `samples` yields one node-sample set per interpolated term: c^2 d_m u
        for each m, then c^2 u for a smooth speed, or for aligned jumps its
        one-sided limits across the planes normal to each m (below, then
        above).  `apply` passes samples of the discrete u; exact samples of a
        smooth u give the truncation error of the scheme.  The penalty term,
        zero for a continuous u, is not included.
        """
        if self.cfg.csq.is_constant:
            raise ValueError("node samples need a variable speed")
        if out is None:
            out = space.zeros(self.p_a)
        for (_, _, op), sample in zip(self._terms, samples, strict=True):
            op.apply(space, self._surplus.apply(space, sample), out)
        return out

    def bilinear(self, space: TensorSpace, u: CoeffSet, v: CoeffSet) -> float:
        """B(u, v) = -<L u, v>."""
        return -self.apply(space, u).dot(v)

    def energy(self, space: TensorSpace, u: CoeffSet, w: CoeffSet) -> float:
        """Discrete energy 1/2 ||w||^2 + 1/2 B(u, u)."""
        return 0.5 * w.norm2() + 0.5 * self.bilinear(space, u, u)


@dataclass
class State:
    """First-order-system unknowns (u, u_t) as paired coefficient sets."""

    u: CoeffSet
    w: CoeffSet

    def copy(self) -> "State":
        return State(self.u.copy(), self.w.copy())

    def axpy(self, alpha: float, other: "State") -> "State":
        self.u.axpy(alpha, other.u)
        self.w.axpy(alpha, other.w)
        return self

    def scale(self, alpha: float) -> "State":
        self.u.scale(alpha)
        self.w.scale(alpha)
        return self

    def finite(self) -> bool:
        return self.u.finite() and self.w.finite()


@dataclass
class SourceTerm:
    """Separable load theta(t) * (fixed spatial coefficient vector)."""

    time_fn: Callable[[float], float]
    spatial: CoeffSet


def make_rhs(
    wop: WaveOperator,
    space: TensorSpace,
    sources: list[SourceTerm] = (),
):
    """Right-hand side of the first-order system d/dt (u, w) = (w, L u + f)."""

    def rhs(t: float, state: State) -> State:
        dw = wop.apply(space, state.u)
        for s in sources:
            dw.axpy(s.time_fn(t), s.spatial)
        return State(state.w.copy(), dw)

    return rhs
