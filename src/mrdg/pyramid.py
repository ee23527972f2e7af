"""Multiwavelet pyramid forms of the variable-speed 1D operators.

Every variable-speed factor is R^T K S, stored as tables of (k+1)^2 to
(2(k+1))^2 numbers per level:

* S synthesises the column family, level by level, to single-scale
  coefficients: the orthonormal Legendre family 2^(l/2) e_q(2^l x - j) of
  each of the 2^l intervals of level l (`_Synthesis`: the two-scale filters
  and the mother wavelets of the family);
* K is the local form on one level's intervals: block diagonal for mass and
  volume derivative, the faces between neighbouring intervals plus the wrap
  face or walls of the bc pair for traces (`GalerkinForm`), or the values
  at the nodes (`NodeForm`);
* R^T is the row family's analysis, the transposed synthesis.

The node-to-surplus map is its exact local stencil instead
(`SurplusStencil`).  A form is applied by `cascade` to all the fibers of a
sweep at once, and the operator's triangularity tag chooses the cascade:
the whole operator ("general"), the blocks whose output level is >= their
input level ("lower") or the rest ("strictly-upper").

A cascade takes and returns a level-major fiber buffer: level l holds
counts[l] fibers, each its num_cells(l) cells of p values in order, and the
levels follow one another from level 0.  Fibers are sorted by the top level
of their chain, highest first, so the fibers that reach level l are the
leading counts[l] ones of every lower level.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .alpert import mother_wavelets, two_scale
from .grids import num_cells
from .interp import make_interp_basis

if TYPE_CHECKING:
    from .operators1d import FamilySpec


# Work arrays kept from one call to the next, one growing buffer per role
# and thread.  A cascade's temporaries are a few hundred kB each; fresh ones
# cost a page fault per 4 kB every time the allocator has handed the memory
# back to the system (about 650 faults per apply of the 2D smooth-speed
# operator at n 8, when they were fresh).
_WORK = threading.local()


def work_array(role: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised array of this shape that the next call with the
    same role reuses; arrays live at the same time take different roles."""
    size = math.prod(shape)
    buf = _WORK.__dict__.get(role)
    if buf is None or len(buf) < size:
        buf = _WORK.__dict__[role] = np.empty(size)
    return buf[:size].reshape(shape)


def _kept(cache: dict, key, build):
    """cache[key], built on first use.  The oldest entries go beyond 16
    keys, so the many level lists of an adaptive run do not pile up."""
    hit = cache.get(key)
    if hit is None:
        while len(cache) >= 16:
            del cache[next(iter(cache))]
        hit = cache[key] = build()
    return hit


@dataclass(frozen=True)
class _Chains:
    """The single-scale intervals of a level-major fiber buffer: level l's
    block holds its counts[l] fibers' 2^l intervals each, and the blocks
    follow one another from level 0."""

    counts: tuple[int, ...]
    starts: tuple[int, ...]  # first interval of each level's block, then the total
    first: np.ndarray  # first interval of every (fiber, level) chain of intervals
    last: np.ndarray  # its last interval

    def __post_init__(self):
        # flat positions of the first interval's left and the last interval's
        # right entry in an (intervals, 2) array
        object.__setattr__(self, "first_left", 2 * self.first)
        object.__setattr__(self, "last_right", 2 * self.last + 1)


@lru_cache(maxsize=64)
def _chains(counts: tuple[int, ...]) -> _Chains:
    sizes = [count << level for level, count in enumerate(counts)]
    starts = tuple(itertools.accumulate(sizes, initial=0))
    first = np.concatenate(
        [starts[level] + (np.arange(count) << level) for level, count in enumerate(counts)]
    )
    last = first + np.repeat([(1 << level) - 1 for level in range(len(counts))], counts)
    return _Chains(counts, starts, first, last)


def _scale_levels(arr: np.ndarray, ch: _Chains, factors, cells: bool = False) -> None:
    """Multiply the rows of each level l >= 1 by factors[l], in place: the
    rows of an interval-layout array, or with `cells` those of a level-major
    fiber buffer of (cells, p) rows."""
    n0 = ch.counts[0]
    for level in range(1, len(ch.counts)):
        lo, hi = ch.starts[level], ch.starts[level + 1]
        if cells:
            lo, hi = (lo + n0) // 2, (hi + n0) // 2
        arr[lo:hi] *= factors[level]


@dataclass(frozen=True)
class _Synthesis:
    """A family's pyramid tables on the single-scale bases, in row form
    (coefficient rows multiply from the left).

    Row i of `top` holds level-0 function i.  A level-l cell's parent
    coefficients times `filters` give the coefficients on its two
    intervals; its level-l coefficients times `mothers`, times scale[l],
    add its own functions.  The scale is 1 for Alpert (the unitary
    dilation) and sqrt(2) 2^(-l/2) for the interpolatory family, whose
    functions keep value 1 at their node (`level_values`).
    """

    top: np.ndarray  # (p, p)
    filters: np.ndarray  # (p, 2p)
    mothers: np.ndarray  # (p, 2p)
    scale: np.ndarray | None  # per level; None when every level's is 1

    def __post_init__(self):
        # the analysis multiplies by the transposes; contiguous, they run
        # several times faster as the right factor of a tall product
        for name in ("top", "filters", "mothers"):
            object.__setattr__(self, name + "_t", np.ascontiguousarray(getattr(self, name).T))

    def synthesize(
        self, x: np.ndarray, ch: _Chains, own: np.ndarray, s: np.ndarray, exponent: int
    ) -> np.ndarray:
        """Each level's partial synthesis on its intervals, times
        2^(exponent l) on level l, into s (intervals, p), from the levels'
        `own` functions scaled alike."""
        p, n0 = len(self.top), ch.counts[0]
        filters = self.filters * 2.0**exponent  # a power of 2 rounds nothing
        np.matmul(x[: n0 * p].reshape(-1, p), self.top, out=s[:n0])
        for level in range(1, len(ch.counts)):
            lo, hi = ch.starts[level], ch.starts[level + 1]
            start = ch.starts[level - 1]
            out = s[lo:hi].reshape(-1, 2 * p)
            np.matmul(s[start : start + len(out)], filters, out=out)
            np.add(s[lo:hi], own[lo:hi], out=s[lo:hi])
        return s

    def own(self, x: np.ndarray, ch: _Chains, w: np.ndarray, exponent: int = 0) -> np.ndarray:
        """Each level's own functions alone on its intervals, times
        2^(exponent l) on level l, into w (intervals, p); level 0 holds
        zeros."""
        p, n0 = len(self.top), ch.counts[0]
        w[:n0] = 0.0
        np.matmul(x[n0 * p :].reshape(-1, p), self.mothers, out=w[n0:].reshape(-1, 2 * p))
        scale = 2.0 ** (exponent * np.arange(len(ch.counts)))
        if self.scale is not None:
            scale = scale * self.scale[: len(scale)]
        if exponent or self.scale is not None:
            _scale_levels(w, ch, scale)
        return w

    def carry(self, t: np.ndarray, ch: _Chains) -> np.ndarray:
        """The functional `t` of each level's own functions, carried down
        the analysis: on each level's intervals, the sum of the finer
        levels' functionals."""
        p, top = len(self.top), len(ch.counts) - 1
        f = work_array("carried", t.shape)
        f.fill(0.0)
        for level in range(top, 0, -1):
            lo, hi = ch.starts[level], ch.starts[level + 1]
            reach = ch.counts[level + 1] << level if level < top else 0
            t[lo : lo + reach] += f[lo : lo + reach]
            start = ch.starts[level - 1]
            out = f[start : start + ((hi - lo) >> 1)]
            np.matmul(t[lo:hi].reshape(len(out), 2 * p), self.filters_t, out=out)
        return f

    def analyse(self, h: np.ndarray, ch: _Chains) -> np.ndarray:
        """The family's functions paired with the functional `h` on every
        level's intervals, as a level-major fiber buffer."""
        p, n0 = len(self.top), ch.counts[0]
        y = np.empty(p * (n0 + (ch.starts[-1] - n0) // 2))
        np.matmul(h[:n0], self.top_t, out=y[: n0 * p].reshape(-1, p))
        out = y[n0 * p :].reshape(-1, p)
        np.matmul(h[n0:].reshape(len(out), 2 * p), self.mothers_t, out=out)
        if self.scale is not None:
            _scale_levels(y.reshape(-1, p), ch, self.scale, cells=True)
        return y

    @property
    def tables(self) -> tuple[np.ndarray, ...]:
        return (self.top, self.filters, self.mothers)


@lru_cache(maxsize=None)
def _synthesis(fam: FamilySpec) -> _Synthesis:
    """The pyramid tables of a family.  A degree-i polynomial has no
    component above degree i on either half, so those filter entries are
    exact zeros."""
    r0, r1 = (np.triu(r) for r in two_scale(fam.degree))
    filters = np.hstack([r0.T, r1.T])
    if fam.kind == "alpert":
        mothers = mother_wavelets(fam.degree).reshape(fam.p, -1)
        return _Synthesis(np.eye(fam.p), filters, mothers, None)
    basis = make_interp_basis(fam.degree, fam.variant)
    mothers = basis.mothers.reshape(fam.p, -1)
    scale = np.sqrt(2.0) * 2.0 ** (-0.5 * np.arange(fam.n + 1))
    return _Synthesis(basis.phi, filters, mothers, scale)


def _stored(*tables) -> np.ndarray:
    """The distinct stored tables as one flat array."""
    seen = {id(t): t for t in tables}
    return np.concatenate([t.ravel() for t in seen.values()])


class Volume:
    """The volume pairing on every interval alone: `ref` on the reference
    interval."""

    def __init__(self, ref: np.ndarray):
        self.ref_t = np.ascontiguousarray(ref.T)  # (p_col, p_row)
        self.tables = (self.ref_t,)

    def scaled(self, s: float) -> "Volume":
        return Volume(s * self.ref_t.T)

    def apply(self, z: np.ndarray, ch: _Chains, out: np.ndarray) -> None:
        np.matmul(z, self.ref_t, out=out)


class Faces:
    """The face sum on the faces between the intervals of every chain, and
    on its wrap face or walls, on the reference interval's scale.

    The column family's trace at the face left of each interval is the
    weighted sum of the two limits there (`limits`: right limit at the
    interval's left end, left limit at its right end); the row family pairs
    it with its end values, weighted the same way.  A wall has one limit:
    `walls` holds the column limit at each wall, times both its weights
    (zero on a Neumann side, which holds no face).
    """

    def __init__(self, limits, ends, weights, walls, periodic: bool):
        self.limits = limits  # (p_col, 2): [w_right e(0), w_left e(1)]
        self.ends = ends  # (2, p_row): row values at the left and right end
        self.weights = weights  # row weights (right limit, left limit)
        self.walls = walls  # (2, p_col): left wall, right wall
        self.periodic = periodic
        self.tables = (limits, ends, walls)

    def scaled(self, s: float) -> "Faces":
        return Faces(self.limits, s * self.ends, self.weights, self.walls, self.periodic)

    def apply(self, z: np.ndarray, ch: _Chains, out: np.ndarray) -> None:
        v = np.matmul(z, self.limits, out=work_array("limits", (len(z), 2)))
        g = work_array("traces", (len(z),))
        np.copyto(g, v[:, 0])
        g[1:] += v[:-1, 1]  # the trace at each interval's left face; chain ends below
        wr, wl = self.weights
        u = work_array("paired", (len(z), 2))
        np.multiply(g, wr, out=u[:, 0])
        np.multiply(g[1:], wl, out=u[:-1, 1])
        flat_v, flat_u = v.ravel(), u.ravel()
        if self.periodic:
            wrap = flat_v[ch.first_left] + flat_v[ch.last_right]
            flat_u[ch.first_left] = wr * wrap
            flat_u[ch.last_right] = wl * wrap
        else:
            flat_u[ch.first_left] = np.take(z, ch.first, axis=0) @ self.walls[0]
            flat_u[ch.last_right] = np.take(z, ch.last, axis=0) @ self.walls[1]
        np.matmul(u, self.ends, out=out)


class Inside:
    """Faces of the finest mesh inside a level's intervals, where the two
    limits agree, as one block per level."""

    def __init__(self, blocks: np.ndarray):
        self.blocks = blocks  # (n + 1, p_col, p_row), transposed
        self.tables = (blocks,)

    def scaled(self, s: float) -> "Inside":
        return Inside(s * self.blocks)

    def apply(self, z: np.ndarray, ch: _Chains, out: np.ndarray) -> None:
        for level, (lo, hi) in enumerate(zip(ch.starts, ch.starts[1:])):
            np.matmul(z[lo:hi], self.blocks[level], out=out[lo:hi])


class GalerkinForm:
    """A volume or face pairing of two families as R^T K S.

    K at level l is the sum of the parts, each scaled by 2^(e l) for its
    exponent e: its single-scale basis is the reference interval's,
    dilated.  Mass and volume derivative are one `Volume` part, traces one
    `Faces` part (plus `Inside` when no jump enters).  The first part's
    scale rides on the synthesis, which leaves the sums unchanged bit for
    bit, as the scales are powers of 2.
    """

    def __init__(self, row: FamilySpec, col: FamilySpec, parts: list):
        self.row, self.col = row, col
        self.parts = parts  # (exponent, part)
        self.exponent = parts[0][0]
        self.shape = (row.ndof, col.ndof)

    def __sub__(self, other: "GalerkinForm") -> "GalerkinForm":
        return GalerkinForm(
            self.row, self.col, self.parts + [(e, part.scaled(-1.0)) for e, part in other.parts]
        )

    @property
    def data(self) -> np.ndarray:
        tables = [t for _, part in self.parts for t in part.tables]
        return _stored(*tables, *_synthesis(self.row).tables, *_synthesis(self.col).tables)

    @property
    def nnz(self) -> int:
        return self.data.size

    def _local(self, z: np.ndarray, ch: _Chains, role: str) -> np.ndarray:
        """K on single-scale coefficients of every level's intervals, into
        the work array of `role`."""
        out = work_array(role, (len(z), self.row.p))
        for i, (exponent, part) in enumerate(self.parts):
            t = work_array("part", out.shape) if i else out
            part.apply(z, ch, t)
            if exponent != self.exponent:  # z carries 2^(self.exponent l)
                ratio = 2.0 ** ((exponent - self.exponent) * np.arange(len(ch.counts)))
                _scale_levels(t, ch, ratio)
            if i:
                out += t
        return out

    def cascade(self, tag: str, x: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
        """The operator's `tag` part applied to the level-major fibers `x`
        (the layout of the "pyramid forms" section), as a level-major
        buffer of the same fibers.

        "lower": K on each level's partial synthesis.  "strictly-upper": K
        on each level's own functions, carried down the analysis to the
        coarser levels.  "general": both, summed on each level's intervals
        before the analysis.  An entry of one unit input takes exactly one
        of the two sums, so the two halves of `lu_split` add up to the
        general operator exactly.
        """
        ch = _chains(counts)
        rows, cols = _synthesis(self.row), _synthesis(self.col)
        shape = (ch.starts[-1], self.col.p)
        h = None
        own = cols.own(x, ch, work_array("own", shape), self.exponent)
        if tag != "strictly-upper":
            s = cols.synthesize(x, ch, own, work_array("single", shape), self.exponent)
            h = self._local(s, ch, "lower")
        if tag != "lower":
            f = rows.carry(self._local(own, ch, "upper"), ch)
            h = f if h is None else np.add(h, f, out=h)
        return rows.analyse(h, ch)


class NodeForm:
    """Values of a family at the hierarchical nodes, as R^T K S with node
    rows: the evaluation K of a single-scale synthesis at the nodes.

    `levels[l]` is the level-l interval of every node of levels <= l and
    the values of that interval's single-scale basis there.  A level-l node
    lies at the same place in every level-l cell, on every level l >= 1, so
    `at` evaluates the two intervals of a cell at its p nodes on the
    reference scale (2^(-l/2) times the level's, 2^(-3l/2) for derivatives).
    A coarser node also sees the finer functions: `cells[a]` is the level-a
    cell of every node of levels < a, and `values` stacks the level-a
    functions' values there, level after level.
    """

    def __init__(self, rows, col, deriv: bool, levels, cells, values):
        self.row, self.col = rows, col
        self.levels = levels
        where, vals = levels[min(1, rows.n)]
        self.at = np.zeros((2 * col.p, rows.p))
        for i in range(rows.p if rows.n else 0):  # the level-1 nodes
            h = where[rows.p + i]
            self.at[h * col.p : (h + 1) * col.p, i] = vals[rows.p + i] / 2.0 ** (0.5 + deriv)
        self.scale = 2.0 ** ((0.5 + deriv) * np.arange(rows.n + 1))
        self.cells = cells  # [None] + [level-a cell of each node of levels < a]
        self.values = values  # (nodes of levels < a, summed over a >= 1, p_col)
        self.shape = (rows.ndof, col.ndof)
        self._tops: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._links: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def data(self) -> np.ndarray:
        tables = [v for _, v in self.levels] + [self.at, self.values]
        return _stored(*tables, *_synthesis(self.col).tables)

    @property
    def indices(self) -> np.ndarray:
        return np.concatenate([j for j, _ in self.levels] + self.cells[1:])

    @property
    def nnz(self) -> int:
        return self.data.size

    def _link_table(self, counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For every fiber, finer level a and node of levels < a: the input
        row of its level-a cell, the values there of its functions and the
        output entry."""
        p = self.row.p
        cells = np.array([num_cells(a) for a in range(len(counts))])
        x_at = np.cumsum([0, *(cells * counts)])
        src, vrow, dst = [], [], []
        for a in range(1, len(counts)):
            nodes = np.arange(self.row.level_offset(a))
            level = np.frexp(nodes // p)[1]  # bit length of the cell count: the level
            pos = nodes - np.where(level > 0, p << np.maximum(level - 1, 0), 0)
            fibers = np.arange(counts[a])[:, None]
            src.append((x_at[a] + cells[a] * fibers + self.cells[a]).ravel())
            below = sum(self.row.level_offset(b) for b in range(1, a))
            vrow.append(np.tile(below + nodes, counts[a]))
            dst.append((p * (x_at[level] + cells[level] * fibers) + pos).ravel())
        none = [np.zeros(0, np.intp)]
        src, vrow, dst = (np.concatenate(part + none) for part in (src, vrow, dst))
        return src, np.take(self.values, vrow, axis=0), dst

    def _top_table(self, counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """For every output entry, in output order: the single-scale row of
        the interval holding its node on its fiber's top level, and the
        basis values there."""
        starts = _chains(counts).starts
        ends = [*counts[1:], 0]
        rows, vals = [], []
        for b in range(len(counts)):
            nodes = self.row.level_slice(b)
            for top in range(len(counts) - 1, b - 1, -1):  # fibers by top, highest first
                fibers = np.arange(ends[top], counts[top])[:, None]
                where, values = self.levels[top]
                rows.append((starts[top] + (fibers << top) + where[nodes]).ravel())
                vals.append(np.tile(values[nodes], (len(fibers), 1)))
        return np.concatenate(rows), np.concatenate(vals)

    def cascade(self, tag: str, x: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
        """As `GalerkinForm.cascade`: "lower" evaluates each level's partial
        synthesis at that level's nodes, "strictly-upper" each level's own
        functions at the coarser nodes, and "general" each fiber's whole
        synthesis at all its nodes."""
        p, pc, ch = self.row.p, self.col.p, _chains(counts)
        size = len(x) // pc * p
        if tag == "strictly-upper":
            src, values, dst = _kept(self._links, counts, lambda: self._link_table(counts))
        else:
            cols, shape = _synthesis(self.col), (ch.starts[-1], pc)
            own = cols.own(x, ch, work_array("own", shape))
            x = cols.synthesize(x, ch, own, work_array("single", shape), 0)
        if tag == "lower":  # each level's cells at their own nodes, one product
            y = np.empty(size)
            n0 = counts[0]
            np.matmul(x[:n0], self.levels[0][1].T, out=y[: n0 * p].reshape(-1, p))
            out = y[n0 * p :].reshape(-1, p)
            np.matmul(x[n0:].reshape(len(out), 2 * pc), self.at, out=out)
            _scale_levels(y.reshape(-1, p), ch, self.scale, cells=True)
            return y
        if tag == "general":
            src, values = _kept(self._tops, counts, lambda: self._top_table(counts))
        gathered = work_array("nodes", values.shape)
        np.take(x.reshape(-1, pc), src, axis=0, out=gathered, mode="clip")
        out = np.multiply(gathered, values, out=gathered) @ np.ones(pc)
        if tag == "general":
            return out
        # float even without links (a sweep whose fibers all stop at level 0),
        # where bincount gives int64 zeros
        return np.bincount(dst, out, size).astype(float, copy=False)


class SurplusStencil:
    """Node values -> surpluses by the exact local stencil: the surplus of a
    level-b node (b >= 1) in cell c is its value minus sum_k w[i, k] times
    the value at coarse node k of the cell."""

    def __init__(self, nodes: FamilySpec, weights: np.ndarray, coarse: np.ndarray):
        self.nodes = nodes
        self.weights = weights  # (p, p), one table for every level and cell
        self._weights_t = np.ascontiguousarray(weights.T)
        self.coarse = coarse  # (cells of levels 1..n, p): `all_nodes` index of each coarse node
        self.shape = (nodes.ndof, nodes.ndof)
        self._gathers: dict[tuple[int, ...], np.ndarray] = {}  # by fiber counts

    @property
    def data(self) -> np.ndarray:
        return self.weights.ravel()

    @property
    def indices(self) -> np.ndarray:
        return self.coarse

    @property
    def nnz(self) -> int:
        return self.weights.size + self.coarse.size

    def _gather(self, counts: tuple[int, ...]) -> np.ndarray:
        """Where each fiber's coarse node values sit in a level-major buffer
        of these counts, for every cell of levels >= 1, shape (cells, p)."""
        p = self.nodes.p
        level = np.frexp(self.coarse // p)[1]  # bit length of the cell count: the level
        pos = self.coarse - np.where(level > 0, p << np.maximum(level - 1, 0), 0)
        starts = np.cumsum([0] + [p * c * num_cells(a) for a, c in enumerate(counts)])
        width = p * np.array([num_cells(a) for a in range(len(counts))])
        out = []
        for b in range(1, len(counts)):
            cells = slice((1 << (b - 1)) - 1, (1 << b) - 1)
            lv, ps = level[cells], pos[cells]
            fibers = np.arange(counts[b])[:, None, None]
            out.append((starts[lv] + width[lv] * fibers + ps).reshape(-1, p))
        return np.concatenate([np.zeros((0, p), int)] + out)

    def cascade(self, tag: str, x: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
        """The map on level-major fibers; it is lower."""
        if tag != "lower":
            raise ValueError("the surplus map is lower triangular")
        p, n0 = self.nodes.p, counts[0] * self.nodes.p
        y = np.empty_like(x)
        y[:n0] = x[:n0]
        out = y[n0:].reshape(-1, p)
        where = _kept(self._gathers, counts, lambda: self._gather(counts))
        coarse = np.take(x, where, out=work_array("coarse", where.shape), mode="clip")
        np.subtract(x[n0:].reshape(-1, p), coarse @ self._weights_t, out=out)
        return y


