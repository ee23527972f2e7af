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
  at the nodes, of each level's partial synthesis at its own nodes and of
  its own functions at the coarser ones (`NodeForm`);
* R^T is the row family's analysis, the transposed synthesis.

The node-to-surplus map is its exact local stencil instead
(`SurplusStencil`).  A form is applied by `cascade` to all the fibers of a
sweep at once, and the operator's triangularity tag chooses the cascade:
the blocks whose output level is >= their input level ("lower"), the rest
("strictly-upper"), or the whole operator ("general"), the sum of the two,
so the halves of `lu_split` add up to it exactly.

A cascade takes and returns a level-major fiber buffer, laid out by a
`Chains`, one per distinct `counts` on a level list: level l holds
counts[l] fibers, each its num_cells(l) cells of p values in order, and the
levels follow one another from level 0.  Fibers are sorted by the top level
of their chain, highest first, so the fibers that reach level l are the
leading counts[l] ones of every lower level.  The `Chains` also keeps the
index tables that the node and surplus forms build on that layout, one per
node layout (`operators1d.NodeLayout`) or stencil, whichever forms share it.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .alpert import mother_wavelets, two_scale
from .grids import num_cells
from .interp import make_interp_basis

if TYPE_CHECKING:
    from .operators1d import FamilySpec, NodeLayout


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


def drop_work_arrays() -> None:
    """Free the calling thread's work arrays; later calls allocate anew."""
    _WORK.__dict__.clear()


class Chains:
    """The level-major layout of a sweep's fibers, and the index tables of
    the node and surplus forms on it, built once per distinct `counts` on a
    level list: every sweep plan with those counts shares it.

    Level l's block holds its counts[l] fibers, each its num_cells(l) cells
    (the rows of a (cells, p) buffer) or its 2^l single-scale intervals, and
    the blocks follow one another from level 0.  A fiber's level-l cells
    and intervals are its chain of level l.
    """

    def __init__(self, counts: tuple[int, ...]):
        widths = [num_cells(level) for level in range(len(counts))]
        self.counts = counts
        # first interval and first cell row of each level's block, then the total
        self.starts = tuple(itertools.accumulate((c << l for l, c in enumerate(counts)), initial=0))
        self.rows = tuple(itertools.accumulate((c * w for c, w in zip(counts, widths)), initial=0))
        # every 1D hierarchical cell's row on the first fiber, and the rows
        # from one fiber to the next (the cells of its level)
        below = itertools.accumulate(widths, initial=0)
        self.cell_row = np.arange(sum(widths)) + np.repeat(
            [row - cell for row, cell in zip(self.rows[:-1], below)], widths
        )
        self.stride = np.repeat(widths, widths)
        self.tables: dict = {}  # by the bound method that builds each

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The ends of every (fiber, level) chain of intervals, as flat
        positions in an (intervals, 2) array: its first interval's left end
        and its last interval's right end.  Built on first use, since only
        the face sums read them."""
        counts = self.counts
        first = np.concatenate([self.starts[l] + (np.arange(c) << l) for l, c in enumerate(counts)])
        last = first + np.repeat([(1 << l) - 1 for l in range(len(counts))], counts)
        return 2 * first, 2 * last + 1

    def entries(self, index: np.ndarray, p: int, fibers: int) -> np.ndarray:
        """The level-major entry of each 1D hierarchical index of a family
        of p values per cell on each of the leading `fibers` fibers, shape
        (fibers, *index.shape)."""
        cell, i = np.divmod(index, p)
        fiber = np.arange(fibers).reshape((-1,) + (1,) * index.ndim)
        return p * (self.cell_row[cell] + self.stride[cell] * fiber) + i

    def table(self, build):
        """build(self), an index table on this layout, made on first use.
        `build` is a bound method of what the table depends on, an
        `operators1d.NodeLayout` or a `SurplusStencil`, so the forms that
        share it share the table."""
        hit = self.tables.get(build)
        if hit is None:
            hit = self.tables[build] = build(self)
        return hit


def _scale_levels(arr: np.ndarray, starts: tuple[int, ...], factors) -> None:
    """Multiply the rows of each level l >= 1 by factors[l], in place; the
    level blocks begin at `starts` (a layout's intervals or cell rows)."""
    for level in range(1, len(starts) - 1):
        arr[starts[level] : starts[level + 1]] *= factors[level]


@dataclass(frozen=True)
class _Synthesis:
    """A family's pyramid tables on the single-scale bases, in row form
    (coefficient rows multiply from the left).

    Row i of `top` holds level-0 function i.  A level-l cell's parent
    coefficients times `filters` give the coefficients on its two
    intervals; its level-l coefficients times `mothers`, times scale[l],
    add its own functions.  The scale is 1 for Alpert (the unitary
    dilation) and sqrt(2) 2^(-l/2) for the interpolatory family, whose
    functions keep value 1 at their node.
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
        self, x: np.ndarray, ch: Chains, own: np.ndarray, s: np.ndarray, exponent: int
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

    def own(self, x: np.ndarray, ch: Chains, w: np.ndarray, exponent: int = 0) -> np.ndarray:
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
            _scale_levels(w, ch.starts, scale)
        return w

    def carry(self, t: np.ndarray, ch: Chains) -> np.ndarray:
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

    def analyse(self, h: np.ndarray, ch: Chains) -> np.ndarray:
        """The family's functions paired with the functional `h` on every
        level's intervals, as a level-major fiber buffer.  Every form's rows
        are an Alpert family, whose scale is 1 on every level."""
        p, n0 = len(self.top), ch.counts[0]
        y = np.empty(p * ch.rows[-1])
        np.matmul(h[:n0], self.top_t, out=y[: n0 * p].reshape(-1, p))
        out = y[n0 * p :].reshape(-1, p)
        np.matmul(h[n0:].reshape(len(out), 2 * p), self.mothers_t, out=out)
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

    def apply(self, z: np.ndarray, ch: Chains, out: np.ndarray) -> None:
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

    def apply(self, z: np.ndarray, ch: Chains, out: np.ndarray) -> None:
        v = np.matmul(z, self.limits, out=work_array("limits", (len(z), 2)))
        g = work_array("traces", (len(z),))
        np.copyto(g, v[:, 0])
        g[1:] += v[:-1, 1]  # the trace at each interval's left face; chain ends below
        wr, wl = self.weights
        u = work_array("paired", (len(z), 2))
        np.multiply(g, wr, out=u[:, 0])
        np.multiply(g[1:], wl, out=u[:-1, 1])
        flat_v, flat_u = v.ravel(), u.ravel()
        left, right = ch.ends
        if self.periodic:
            wrap = flat_v[left] + flat_v[right]
            flat_u[left] = wr * wrap
            flat_u[right] = wl * wrap
        else:
            flat_u[left] = np.take(z, left >> 1, axis=0) @ self.walls[0]
            flat_u[right] = np.take(z, right >> 1, axis=0) @ self.walls[1]
        np.matmul(u, self.ends, out=out)


class GalerkinForm:
    """A volume or face pairing of two families as R^T K S.

    K at level l is the sum of the parts, each scaled by 2^(e l) for its
    exponent e: its single-scale basis is the reference interval's,
    dilated.  Mass and volume derivative are one `Volume` part, traces one
    `Faces` part: every face term of the scheme pairs a jump, and a finer
    face inside an interval, where the jump is 0, adds nothing.  The first
    part's scale rides on the synthesis, which leaves the sums unchanged bit
    for bit, as the scales are powers of 2.
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

    def _local(self, z: np.ndarray, ch: Chains, role: str) -> np.ndarray:
        """K on single-scale coefficients of every level's intervals, into
        the work array of `role`."""
        out = work_array(role, (len(z), self.row.p))
        for i, (exponent, part) in enumerate(self.parts):
            t = work_array("part", out.shape) if i else out
            part.apply(z, ch, t)
            if exponent != self.exponent:  # z carries 2^(self.exponent l)
                ratio = 2.0 ** ((exponent - self.exponent) * np.arange(len(ch.counts)))
                _scale_levels(t, ch.starts, ratio)
            if i:
                out += t
        return out

    def cascade(self, tag: str, x: np.ndarray, ch: Chains) -> np.ndarray:
        """The operator's `tag` part applied to the level-major fibers `x`
        of the layout `ch`, as a level-major buffer of the same fibers.

        "lower": K on each level's partial synthesis.  "strictly-upper": K
        on each level's own functions, carried down the analysis to the
        coarser levels.  "general": both, summed on each level's intervals
        before the analysis.  An entry of one unit input takes exactly one
        of the two sums, so the two halves of `lu_split` add up to the
        general operator exactly.
        """
        rows, cols = _synthesis(self.row), _synthesis(self.col)
        shape = (ch.starts[-1], self.col.p)
        h = None
        own = cols.own(x, ch, work_array("own", shape), self.exponent)
        if tag != "strictly-upper":
            s = cols.synthesize(x, ch, own, work_array("single", shape), self.exponent)
            h = self._local(s, ch, "lower")
        if tag != "lower":
            # s is spent by now, so its work array takes the upper half
            f = rows.carry(self._local(own, ch, "single"), ch)
            h = f if h is None else np.add(h, f, out=h)
        return rows.analyse(h, ch)


class NodeForm:
    """Values of a family at the hierarchical nodes, as R^T K S with node
    rows: the evaluation K of a single-scale synthesis at the nodes.

    The lower half evaluates each level's partial synthesis at that level's
    own nodes: `levels[0]` holds the level-0 single-scale values at the
    level-0 nodes.  A level-l node lies at the same place in every level-l
    cell, on every level l >= 1, so `at` evaluates the two intervals of a
    cell at its p nodes on the reference scale (2^(-l/2) times the level's,
    2^(-3l/2) for derivatives), from the level-1 values `levels[1]` on their
    intervals `nodes.halves`.  The strictly-upper half evaluates the finer
    functions at the coarser nodes: `values[a]` holds the level-a functions'
    values at every node of levels < a, in its level-a cell
    (`nodes.cells[a]`), stored once per node, not per fiber.  A cascade
    multiplies each fiber's rows by its level's table, gathered by the
    index table that `nodes` (an `operators1d.NodeLayout`) keeps on each
    `Chains`.  The whole operator is the sum of the two halves.
    """

    def __init__(self, nodes: NodeLayout, col, deriv: bool, levels, values):
        rows = nodes.row
        self.row, self.col = rows, col
        self.nodes = nodes
        self.levels = levels
        self.at = np.zeros((2 * col.p, rows.p))
        for i, h in enumerate(nodes.halves):  # the level-1 nodes
            self.at[h * col.p : (h + 1) * col.p, i] = levels[1][i] / 2.0 ** (0.5 + deriv)
        self.scale = 2.0 ** ((0.5 + deriv) * np.arange(rows.n + 1))
        self.values = values  # [(0, p_col)] + [level-a values at nodes of levels < a]
        self.shape = (rows.ndof, col.ndof)

    @property
    def data(self) -> np.ndarray:
        return _stored(*self.levels, self.at, *self.values, *_synthesis(self.col).tables)

    @property
    def indices(self) -> np.ndarray:
        return np.concatenate([self.nodes.halves, *self.nodes.cells[1:]])

    @property
    def nnz(self) -> int:
        return self.data.size

    def cascade(self, tag: str, x: np.ndarray, ch: Chains) -> np.ndarray:
        """As `GalerkinForm.cascade`: "lower" evaluates each level's partial
        synthesis at that level's nodes, "strictly-upper" each level's own
        functions at the coarser nodes, and "general" is their sum, so the
        two halves of `lu_split` add up to it exactly."""
        if tag == "general":
            y = self.cascade("lower", x, ch)
            return np.add(y, self.cascade("strictly-upper", x, ch), out=y)
        p, pc, counts = self.row.p, self.col.p, ch.counts
        size = p * ch.rows[-1]
        if tag == "lower":  # each level's cells at their own nodes, one product
            cols, shape = _synthesis(self.col), (ch.starts[-1], pc)
            own = cols.own(x, ch, work_array("own", shape))
            s = cols.synthesize(x, ch, own, work_array("single", shape), 0)
            y = np.empty(size)
            n0 = counts[0]
            np.matmul(s[:n0], self.levels[0].T, out=y[: n0 * p].reshape(-1, p))
            out = y[n0 * p :].reshape(-1, p)
            np.matmul(s[n0:].reshape(len(out), 2 * pc), self.at, out=out)
            _scale_levels(y.reshape(-1, p), ch.rows, self.scale)
            return y
        src, dst = ch.table(self.nodes.link_table)
        gathered = work_array("nodes", (len(src), pc))
        np.take(x.reshape(-1, pc), src, axis=0, out=gathered, mode="clip")
        flat, at = gathered.ravel(), 0
        for a in range(1, len(counts)):  # each fiber's rows times the table of its level
            table = self.values[a]
            block = flat[at : at + counts[a] * table.size].reshape(counts[a], table.size)
            np.multiply(block, table.ravel(), out=block)
            at += block.size
        out = np.matmul(gathered, np.ones(pc), out=work_array("node sums", (len(src),)))
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

    @property
    def data(self) -> np.ndarray:
        return self.weights.ravel()

    @property
    def indices(self) -> np.ndarray:
        return self.coarse

    @property
    def nnz(self) -> int:
        return self.weights.size + self.coarse.size

    def _gather(self, ch: Chains) -> np.ndarray:
        """Where each fiber's coarse node values sit in the level-major
        buffer of `ch`, for every cell of levels >= 1, shape (cells, p)."""
        p = self.nodes.p
        out = [
            ch.entries(self.coarse[(1 << (b - 1)) - 1 : (1 << b) - 1], p, count).reshape(-1, p)
            for b, count in enumerate(ch.counts[1:], 1)
        ]
        return np.concatenate([np.zeros((0, p), int)] + out)

    def cascade(self, tag: str, x: np.ndarray, ch: Chains) -> np.ndarray:
        """The map on level-major fibers; it is lower."""
        if tag != "lower":
            raise ValueError("the surplus map is lower triangular")
        p, n0 = self.nodes.p, ch.counts[0] * self.nodes.p
        y = np.empty_like(x)
        y[:n0] = x[:n0]
        out = y[n0:].reshape(-1, p)
        where = ch.table(self._gather)
        coarse = np.take(x, where, out=work_array("coarse", where.shape), mode="clip")
        np.subtract(x[n0:].reshape(-1, p), coarse @ self._weights_t, out=out)
        return y


