"""1D operators in hierarchical multiwavelet coordinates.

A level-l function is one polynomial on each half of its cell, so a point
meets p functions per level; `level_values` evaluates them on the point's
own level cell.  The span of levels 0..l is the broken polynomial space on
the 2^l intervals of level l.

Every 1D operator is a multiwavelet pyramid form of `pyramid`, and the
assemblers here build its reference tables: the pairing of the Legendre
families on one interval, their end values and the values at the nodes,
whose places (`NodeLayout`) the node forms of one node family share.
The factors of the variable-speed pipeline (mass, volume derivative,
traces, node values, node-to-surplus and the `lu_split` halves) stay forms;
a form's cascade chooses its blocks by the operator's tag, so `lu_split`
only retags.  The constant-speed IPDG operator sums the scaled parts of the
stiffness and trace forms into one form, and keeps a dense copy of its
leading block (`LeadingBlock`), probed only as deep as the sweeps need it
(`assemble_ipdg`).  `point_values` is a dense table, for the boundary data
and the tests.

Operators carry block-triangularity metadata with respect to the level-major
ordering (level 0 first; within a level, cells then polynomial index).  Rows
are the test/output family, columns the trial/input family; "lower" means
output level >= input level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .alpert import Quadrature1D, legendre_values, mother_wavelets
from .grids import num_cells
from .interp import make_interp_basis
from .pyramid import Chains, Faces, GalerkinForm, NodeForm, SurplusStencil, Volume, drop_work_arrays

_TAGS = ("lower", "strictly-upper", "general")


@dataclass(frozen=True)
class FamilySpec:
    """Index layout of one 1D hierarchical family (degree, levels, layout)."""

    kind: str  # 'alpert' | 'interp' | 'nodes' (nodes share the interp layout)
    degree: int
    n: int
    variant: str = ""

    @property
    def p(self) -> int:
        return self.degree + 1

    @property
    def ndof(self) -> int:
        return self.p << self.n if self.n else self.p

    def level_offset(self, level: int) -> int:
        return 0 if level == 0 else self.p * (1 << (level - 1))

    def level_size(self, level: int) -> int:
        return self.p * num_cells(level)

    def level_slice(self, level: int) -> slice:
        off = self.level_offset(level)
        return slice(off, off + self.level_size(level))


def alpert_family(k: int, n: int) -> FamilySpec:
    return FamilySpec("alpert", k, n)


def interp_family(m: int, variant: str, n: int) -> FamilySpec:
    return FamilySpec("interp", m, n, variant)


def node_family(m: int, variant: str, n: int) -> FamilySpec:
    return FamilySpec("nodes", m, n, variant)


@dataclass(eq=False)
class Operator1D:
    """Hierarchical operator; every level block outside its tag is 0.

    `mat` is a pyramid form (`GalerkinForm`, `NodeForm` or `SurplusStencil`),
    or the constant-speed IPDG form with its dense leading block
    (`LeadingBlock`): on short fibers a dense product beats a cascade.
    """

    mat: object
    row: FamilySpec
    col: FamilySpec
    tag: str

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown triangularity tag {self.tag!r}")


def lu_split(op: Operator1D) -> tuple[Operator1D, Operator1D]:
    """Split a general pyramid operator into L (output level >= input
    level) plus strictly-upper U.

    Both halves share the operator's tables; each cascade forms only its own
    blocks, so the two share no blocks and sum to the operator.
    """
    if op.tag != "general" or isinstance(op.mat, LeadingBlock):
        raise ValueError("only a general pyramid operator splits")
    return tuple(Operator1D(op.mat, op.row, op.col, tag) for tag in ("lower", "strictly-upper"))


# ---------------------------------------------------------------------------
# point values


def _locate(
    degree: int, level: int, x: np.ndarray, sides, deriv: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Level-`level` interval (half of a level cell) of each point and the
    Legendre values e_q (derivatives with `deriv`, in x) at its local
    coordinate there, shape (len(x), degree + 1).

    At a breakpoint a negative side takes the interval to its left and any
    other side the one to its right; the domain ends clip to the first and
    last interval.
    """
    x = np.asarray(x, dtype=float)
    halves = 1 << level
    t = x * halves
    half = np.floor(t).astype(int)
    half = np.where((t == half) & (np.asarray(sides) < 0), half - 1, half)
    half = np.clip(half, 0, halves - 1)
    leg = legendre_values(degree, t - half, deriv)
    return half, (halves * leg if deriv else leg)


def level_values(
    fam: FamilySpec, level: int, x: np.ndarray, sides=1, deriv: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Level-`level` cell of each point and the p values there of that
    cell's functions (derivatives with `deriv`), shape (len(x), p), for an
    Alpert family.

    Sides pick the half at breakpoints as in `_locate`.  On the half that
    holds x, level-l function i (l >= 1) is 2^(l/2) (the unitary dilation)
    times the Legendre expansion of mother i on that half, in the half's
    local coordinate.
    """
    if fam.kind != "alpert":
        raise ValueError("level values take an Alpert family")
    half, leg = _locate(fam.degree, level, x, sides, deriv)
    if level == 0:
        return half, leg
    pieces = 2.0 ** (0.5 * level) * mother_wavelets(fam.degree)  # [i, half, q]
    right = (half & 1).astype(bool)[:, None]
    return half >> 1, np.where(right, leg @ pieces[:, 1].T, leg @ pieces[:, 0].T)


def point_values(fam: FamilySpec, x, sides, deriv: bool = False) -> np.ndarray:
    """Value (derivative with `deriv`) of every function of the Alpert
    family `fam` at the points x in [0, 1], a dense (len(x), ndof) array;
    sides as in `level_values`.

    Left and right limits at a point inside a level's half are bit for bit
    equal, so jumps of the functions smooth there are exact zeros.
    """
    out = np.zeros((len(x), fam.ndof))
    for level in range(fam.n + 1):
        cell, v = level_values(fam, level, x, sides, deriv)
        cols = fam.level_offset(level) + fam.p * cell[:, None] + np.arange(fam.p)
        out[np.arange(len(x))[:, None], cols] += v
    return out


# ---------------------------------------------------------------------------
# volume terms


def _cellwise(row: FamilySpec, col: FamilySpec, drow: bool, dcol: bool) -> Operator1D:
    """The exact L2 pairing of the two families, each differentiated when
    its flag is set: on every interval alone, the pairing of the reference
    Legendre families, times 2^(l (drow + dcol)) on level l."""
    quad = Quadrature1D.gauss(max(row.degree, col.degree) + 1)
    er = quad.weights[:, None] * legendre_values(row.degree, quad.nodes, drow)
    ref = er.T @ legendre_values(col.degree, quad.nodes, dcol)
    form = GalerkinForm(row, col, [(drow + dcol, Volume(ref))])
    return Operator1D(form, row, col, "general")


@lru_cache(maxsize=None)
def assemble_mass(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Exact L2 pairing of two families."""
    return _cellwise(row, col, False, False)


@lru_cache(maxsize=None)
def assemble_volume_derivative(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Entries sum_cells int col_b * row_a' (test differentiated)."""
    return _cellwise(row, col, True, False)


# ---------------------------------------------------------------------------
# face traces


# (left, right) weight of the one-sided limits on a two-sided face
_TRACE_WEIGHTS = {
    "jump": (1.0, -1.0),
    "avg": (0.5, 0.5),
    "davg": (0.5, 0.5),
    "dminus": (1.0, 0.0),
    "dplus": (0.0, 1.0),
}


@lru_cache(maxsize=None)
def assemble_trace(
    row: FamilySpec,
    col: FamilySpec,
    row_kind: str,
    col_kind: str,
    bc: tuple[str, str],
    half: bool = False,
) -> Operator1D:
    """Face sum of outer products row_kind(test) x col_kind(trial) over all
    finest-mesh interfaces selected by the boundary condition pair.

    Every face term of the scheme pairs a jump, so one of the two kinds
    must be "jump": at level l the faces of the level-l mesh couple
    neighbouring intervals, and a finer face lies inside an interval, where
    the jump is 0.  `half` scales by 1/2 (the one-sided derivative pairings
    enter the scheme with that weight).  A wall has a single limit: the
    jump there is q n, and every other kind takes that limit whole.
    """
    left, right = bc
    if "periodic" in bc and left != right:
        raise ValueError("periodic boundary must apply to both sides")
    if "jump" not in (row_kind, col_kind):
        raise ValueError(f"face pair {row_kind} x {col_kind} holds no jump")
    (wl_r, wr_r), (wl_c, wr_c) = _TRACE_WEIGHTS[row_kind], _TRACE_WEIGHTS[col_kind]
    dr, dc = row_kind.startswith("d"), col_kind.startswith("d")
    weight = 0.5 if half else 1.0
    ends = weight * legendre_values(row.degree, np.array([0.0, 1.0]), dr)
    c0, c1 = legendre_values(col.degree, np.array([0.0, 1.0]), dc)
    # a wall's weight: -1 for the jump at x = 0 (q n), else the limit whole
    wall_r, wall_c = (-1.0 if kind == "jump" else 1.0 for kind in (row_kind, col_kind))
    walls = np.array([wall_r * wall_c * (left == "dirichlet") * c0, (right == "dirichlet") * c1])
    limits = np.column_stack([wr_c * c0, wl_c * c1])
    faces = Faces(limits, ends, (wr_r, wl_r), walls, left == "periodic")
    return Operator1D(GalerkinForm(row, col, [(1 + dr + dc, faces)]), row, col, "general")


@lru_cache(maxsize=None)
def assemble_ipdg(
    fam: FamilySpec, bc: tuple[str, str], c2: float, penalty: float
) -> Operator1D:
    """The constant-speed IPDG operator of one dimension:
    c2 (S - T - T^T) + penalty J, with S the broken stiffness, T the face sum
    of jump(test) x derivative average(trial) and J that of jump x jump.

    The four terms are the scaled parts of one pyramid form, the parts of
    `_cellwise` and `assemble_trace`, held with its dense leading block.
    """
    kinds = [("jump", "davg", -c2), ("davg", "jump", -c2), ("jump", "jump", penalty)]
    terms = [(_cellwise(fam, fam, True, True), c2)]
    terms += [(assemble_trace(fam, fam, row, col, bc), s) for row, col, s in kinds]
    parts = [(e, part.scaled(s)) for op, s in terms for e, part in op.mat.parts]
    return Operator1D(LeadingBlock(GalerkinForm(fam, fam, parts)), fam, fam, "general")


class LeadingBlock:
    """A symmetric form of one family and the dense matrix of its levels
    0..depth, its leading block.

    The block starts empty and is probed anew, deeper, when a sweep needs
    a deeper level (`reach`); the sweeps bound it (`fastmv.DENSE_ENTRIES`)
    and cascade the form on the longer fibers.  Its entries do not depend
    on the depth it was probed to, bit for bit.
    """

    def __init__(self, form: GalerkinForm):
        self.form = form
        self.shape = form.shape
        self.block = np.zeros((0, 0))

    def reach(self, rows: int) -> None:
        """Grow the block to at least `rows` entries per side, the levels
        0..A of a fiber of p 2^A entries."""
        if len(self.block) < rows:
            self.block = _probed(self.form, (rows // self.form.row.p).bit_length() - 1)

    def cascade(self, tag: str, x: np.ndarray, ch: Chains) -> np.ndarray:
        return self.form.cascade(tag, x, ch)

    @property
    def data(self) -> np.ndarray:
        return self.block

    @property
    def nnz(self) -> int:
        return np.count_nonzero(self.block)


def _probed(form: GalerkinForm, depth: int) -> np.ndarray:
    """The dense matrix of levels 0..depth of a symmetric form of one
    family, from one lower cascade per input level a over coloured probes
    (Curtis, Powell & Reid, IMA J. Appl. Math. 13, 1974).

    A level-b function, b >= a, meets only the level-a functions of its
    cell's level-a ancestor u and of u's neighbours, across the wrap face
    too.  Fiber (r, q) of the probe holds function q of every level-a cell
    of colour r, its index mod C = min(4, num_cells(a)), so an output in a
    cell with ancestor u belongs to the one cell u + d, d in {-1, 0, 1}, of
    colour r, mod the cell count (C divides every count >= 4).  Without a
    wrap face the outputs written across the ends are exact zeros.  Every
    block above the diagonal mirrors the one below.  A lower cascade's
    level-b outputs read levels <= b only, so no deeper level enters.

    Each cascade's outputs go into the matrix at once, as a p x p block
    and its mirror per output cell of levels >= a and colour, through the
    matrix's (cell, function, cell, function) view.  One cascade of all
    levels' probes side by side moves the roundoff of some entries (k 0
    with a wall at depth 1, k >= 8), as its matrix products have other
    shapes.
    """
    fam, p = form.row, form.row.p
    size = fam.level_offset(depth + 1)
    counts = np.array([num_cells(level) for level in range(depth + 1)])
    level = np.repeat(np.arange(depth + 1), counts)  # of each cell h of levels 0..depth
    cell = np.arange(len(level)) - (1 << level >> 1)
    mat = np.zeros((size, size))
    blocks = mat.reshape(len(level), p, len(level), p)  # [h, i, h', q]
    for a in range(depth + 1):
        cells = num_cells(a)
        colours = min(4, cells)
        fibers = colours * p
        x = np.zeros(fibers * size)
        probe = x[fibers * fam.level_offset(a) : fibers * fam.level_offset(a + 1)]
        probe = probe.reshape(colours, p, cells // colours, colours, p)
        probe[np.arange(colours), :, :, np.arange(colours)] = np.eye(p)[:, None]
        y = form.cascade("lower", x, Chains((fibers,) * (depth + 1)))
        # each cell h of levels b >= a with each colour r next to its ancestor u
        h = np.arange(1 << a >> 1, len(level))
        u = cell[h] >> (level[h] - a)
        d = (np.arange(colours) - u[:, None] + 1) % colours - 1
        pair, r = np.nonzero(d <= 1)  # d = 2: colour r is not next to u
        h, col = h[pair], (1 << a >> 1) + (u[pair] + d[pair, r]) % cells
        b = level[h]
        # the p outputs of h on fiber (r, q) are one row of y: [h, q, i]
        rows = fibers * (h - cell[h]) + p * r * counts[b] + cell[h]
        vals = y.reshape(-1, p)[rows[:, None] + counts[b][:, None] * np.arange(p)]
        blocks[h, :, col, :] = vals.transpose(0, 2, 1)
        blocks[col[b > a], :, h[b > a], :] = vals[b > a]
    drop_work_arrays()  # the probe's buffers; the sweeps' cascades size their own
    return mat


# ---------------------------------------------------------------------------
# node values and surpluses


class NodeLayout:
    """Where the hierarchical nodes of a node family sit: `where[l]` is the
    level-l interval of every node of levels <= l, and `cells[a]` the
    level-a cell of every node of levels < a.

    The node forms of one node family and side convention share it (values
    and derivatives alike, whatever their columns), and with it the index
    tables it builds on each `Chains`.  Forced sides move the nodes on a
    breakpoint to the other interval, so they have a layout of their own.
    """

    def __init__(self, rows: FamilySpec, where: list[np.ndarray]):
        self.row = rows
        self.where = where
        self.cells = [None] + [w[: rows.level_offset(a)] >> 1 for a, w in enumerate(where) if a]

    def top_table(self, ch: Chains) -> tuple[np.ndarray, np.ndarray]:
        """For every fiber, in order, and every node of levels <= its top
        level: the single-scale row of the top level's interval that holds
        the node.  And for every output entry, in output order, its place in
        that list."""
        starts, counts = ch.starts, ch.counts
        ends = [*counts[1:], 0]
        src, first, at = [], {}, 0
        for top in range(len(counts) - 1, -1, -1):  # fibers by top, highest first
            fibers = np.arange(ends[top], counts[top])[:, None]
            src.append((starts[top] + (fibers << top) + self.where[top]).ravel())
            first[top] = at - ends[top] * len(self.where[top])
            at += src[-1].size
        place = []
        for b in range(len(counts)):
            nodes = np.arange(self.row.level_offset(b), self.row.level_offset(b + 1))
            for top in range(len(counts) - 1, b - 1, -1):
                fibers = np.arange(ends[top], counts[top])[:, None]
                place.append((first[top] + fibers * len(self.where[top]) + nodes).ravel())
        return np.concatenate(src), np.concatenate(place)

    def link_table(self, ch: Chains) -> tuple[np.ndarray, np.ndarray]:
        """For every finer level a, fiber and node of levels < a: the input
        row of its level-a cell, and the output entry."""
        counts = ch.counts
        src, dst = [], []
        for a in range(1, len(counts)):
            fibers = np.arange(counts[a])[:, None]
            src.append((ch.rows[a] + num_cells(a) * fibers + self.cells[a]).ravel())
            dst.append(ch.entries(np.arange(len(self.cells[a])), self.row.p, counts[a]).ravel())
        none = [np.zeros(0, np.intp)]
        return np.concatenate(src + none), np.concatenate(dst + none)


@lru_cache(maxsize=None)
def _nodes(rows: FamilySpec, force_side: int) -> tuple[np.ndarray, np.ndarray, NodeLayout]:
    """The hierarchical nodes of a node family, their side tags (all
    `force_side` when it is nonzero) and their `NodeLayout`, which every
    node form on them shares."""
    x, sides = make_interp_basis(rows.degree, rows.variant).all_nodes(rows.n)
    if force_side:
        sides = np.full_like(sides, force_side)
    reach = [rows.level_offset(level + 1) for level in range(rows.n + 1)]
    where = [_locate(0, level, x[:r], sides[:r], False)[0] for level, r in enumerate(reach)]
    return x, sides, NodeLayout(rows, where)


@lru_cache(maxsize=None)
def assemble_node_values(
    rows: FamilySpec,
    col: FamilySpec,
    deriv: bool = False,
    force_side: int = 0,
) -> Operator1D:
    """Values (or derivatives) of an Alpert column family at the
    hierarchical nodes, as a `NodeForm`.

    A nonzero `force_side` replaces every node's side tag, which samples both
    one-sided limits across coefficient-jump planes (the domain ends keep
    their interval, see `_locate`).
    """
    if rows.kind != "nodes" or col.kind != "alpert":
        raise ValueError("node values take a node layout and an Alpert family")
    x, sides, nodes = _nodes(rows, force_side)
    levels, values = [], [np.zeros((0, col.p))]
    for level in range(rows.n + 1):
        below = rows.level_offset(level)  # the nodes of levels < level
        reach = rows.level_offset(level + 1)  # ... and of levels <= level
        # the single-scale basis of each node's level-`level` interval
        _, leg = _locate(col.degree, level, x[:reach], sides[:reach], deriv)
        levels.append(2.0 ** (0.5 * level) * leg)
        if level:
            values.append(level_values(col, level, x[:below], sides[:below], deriv)[1])
    form = NodeForm(nodes, col, deriv, levels, values)
    return Operator1D(form, rows, col, "general")


@lru_cache(maxsize=None)
def assemble_node_to_surplus(nodes: FamilySpec) -> Operator1D:
    """Node values -> surpluses, the exact inverse of the interpolation system.

    A surplus is the node value minus the coarser interpolant there.  For a
    node of level l >= 1 in level-l cell c, that interpolant is the Lagrange
    polynomial through the m + 1 coarser nodes of the cell, so the row is
    e_node - sum_k w[i, k] e_coarse(c, k) with one weight table for every
    level and cell (`InterpBasis1D.coarse_stencil`).  Level-0 surpluses are
    the node values.  The map is unit lower triangular.
    """
    fam = interp_family(nodes.degree, nodes.variant, nodes.n)
    weights, coarse = make_interp_basis(nodes.degree, nodes.variant).coarse_stencil(nodes.n)
    return Operator1D(SurplusStencil(nodes, weights, coarse), fam, nodes, "lower")


@lru_cache(maxsize=None)
def boundary_vectors(fam: FamilySpec, side: int) -> tuple[np.ndarray, np.ndarray]:
    """One-sided endpoint value and derivative of every basis function.

    Returns ``(values, derivatives)`` at x=0 (side 0, right limits) or x=1
    (side 1, left limits).  These are the ingredients of weakly imposed
    boundary data: a Dirichlet load pairs the prescribed trace with
    ``n c^2 (d/dn) v + (sigma/h) v`` on the boundary face.
    """
    x = np.array([float(side)])
    sides = 1 - 2 * side  # right limit at x = 0, left limit at x = 1
    return point_values(fam, x, sides)[0], point_values(fam, x, sides, deriv=True)[0]
