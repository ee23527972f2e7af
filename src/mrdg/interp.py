"""Interpolatory multiwavelets on nested dyadic point sets.

A family of M+1 base nodes X0 in [0,1] is chosen so that X0 is contained in
X1 = X0/2 u (X0+1)/2.  The M+1 fresh nodes of X1 define the mother wavelets:
wavelet i is the degree-<=M Lagrange polynomial on the half-interval holding
fresh node i that equals 1 there and 0 at the other nodes of X1 in that half,
extended by zero to the rest of [0,1].  Level-0 functions are the Lagrange
basis on X0.  Dilation psi_i(2^(n-1) x - j) populates level n >= 1, cell j,
whose fresh nodes are 2^-(n-1) (x~_i + j).

Nodes carry a one-sided evaluation tag (-1 left limit, +1 right limit,
0 plain) because piecewise fields are sampled at cell interfaces.  Two node
families are provided:

* ``interface``: X0 = {i/M} with tags on dyadic nodes (0 is approached from
  the right, dyadic interior nodes and 1 from the left).  Fresh midpoint
  nodes appear as left/right limit pairs.  This is the robust default.
* ``inner``: strictly interior nodes generated by the nested-orbit rule
  starting from {1/3, 2/3}; kept to reproduce the high-order instability of
  inner-node interpolation inside the wave solver.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .alpert import Quadrature1D, legendre_values
from .grids import num_cells

# Base node values per variant, as exact rationals.  Inner nodes: each set is
# nested under x -> x/2, x -> (x+1)/2 images of itself; the M=4 and M=5 sets
# continue the same orbit.
_INNER_NODES = {
    1: ["1/3", "2/3"],
    2: ["1/6", "1/3", "2/3"],
    3: ["1/6", "1/3", "7/12", "2/3"],
    4: ["1/6", "7/24", "1/3", "7/12", "2/3"],
    5: ["1/12", "1/6", "7/24", "1/3", "7/12", "2/3"],
}


def _is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def _base_nodes(m: int, variant: str) -> list[tuple[Fraction, int]]:
    if variant == "interface":
        nodes = []
        for i in range(m + 1):
            x = Fraction(i, m)
            if x == 0:
                side = 1
            elif _is_dyadic(x):
                side = -1  # includes x = 1 and interior dyadic nodes
            else:
                side = 0
            nodes.append((x, side))
        return nodes
    if variant == "inner":
        if m not in _INNER_NODES:
            raise ValueError(f"inner nodes available for M in 1..5, got {m}")
        return [(Fraction(s), 0) for s in _INNER_NODES[m]]
    raise ValueError(f"unknown node variant {variant!r}")


def _lagrange_on(nodes: list[Fraction], hold: int) -> np.ndarray:
    """Monomial coefficients (low->high) of the Lagrange cardinal at nodes[hold]."""
    poly = np.array([1.0])
    xi = float(nodes[hold])
    for j, xj in enumerate(nodes):
        if j == hold:
            continue
        xj = float(xj)
        poly = np.convolve(poly, np.array([-xj, 1.0])) / (xi - xj)
    return poly


def _poly_to_local_legendre(poly: np.ndarray, p: int) -> np.ndarray:
    """Expand a monomial-coefficient polynomial on [0,1] in the orthonormal
    shifted Legendre basis of degree p."""
    quad = Quadrature1D.gauss(p + 1)
    vals = np.polyval(poly[::-1], quad.nodes)
    basis = legendre_values(p, quad.nodes)
    return np.einsum("x,x,xq->q", quad.weights, vals, basis)


class InterpBasis1D:
    """1D interpolatory multiwavelet family of degree M.

    Attributes:
        m: polynomial degree (M+1 nodes per cell and level).
        variant: "interface" or "inner".
        base_nodes: list of (value, side) for X0, sorted.
        fresh_nodes: list of (value, side) for the fresh nodes of X1, sorted
            by (value, side); wavelet i interpolates fresh node i.
        halves: half-interval (0 left, 1 right) owning each wavelet.
        phi: level-0 Lagrange basis, orthonormal-Legendre coefficients,
            shape (M+1, M+1).
        mothers: wavelet pieces in half-local orthonormal Legendre
            coefficients, shape (M+1, 2, M+1); the off-support half is zero.
    """

    def __init__(self, m: int, variant: str = "interface"):
        if not 1 <= m <= 5:
            raise ValueError("degree M must be in 1..5")
        self.m = m
        self.p = m + 1
        self.variant = variant
        base = _base_nodes(m, variant)
        level1 = {(x / 2, s) for x, s in base} | {((x + 1) / 2, s) for x, s in base}
        if not {(x, s) for x, s in base} <= level1:
            raise AssertionError("node family is not nested")
        fresh = sorted(level1 - set(base))
        if len(fresh) != m + 1:
            raise AssertionError("expected M+1 fresh nodes at level 1")
        self.base_nodes = sorted(base)
        self.fresh_nodes = fresh
        self._level_nodes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.halves = [self._half(x, s) for x, s in fresh]

        self.phi = np.zeros((self.p, self.p))
        base_vals = [x for x, _ in self.base_nodes]
        for i in range(self.p):
            self.phi[i] = _poly_to_local_legendre(_lagrange_on(base_vals, i), m)

        self.mothers = np.zeros((self.p, 2, self.p))
        level1_sorted = sorted(level1)
        for i, (x, s) in enumerate(fresh):
            h = self.halves[i]
            half_nodes = [v for v, sv in level1_sorted if self._half(v, sv) == h]
            assert len(half_nodes) == self.p
            # Lagrange on the half, in half-local coordinates xi = 2x - h.
            local = [2 * v - h for v in half_nodes]
            hold = local.index(2 * x - h)
            self.mothers[i, h] = _poly_to_local_legendre(
                _lagrange_on(local, hold), m
            ) / np.sqrt(2.0)
            # division: the half-local orthonormal functions are sqrt(2)-scaled

    @staticmethod
    def _half(x: Fraction, side: int) -> int:
        if x < Fraction(1, 2):
            return 0
        if x > Fraction(1, 2):
            return 1
        if side == 0:
            raise AssertionError("midpoint node must carry a side")
        return 0 if side < 0 else 1

    # -- node enumeration ------------------------------------------------

    def level_nodes(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates and side tags of one level's nodes, each shaped
        (cells, p), built once per level and read-only: the base nodes x on
        level 0, 2^-(l-1) (x + cell) for the fresh ones on level l >= 1.
        With x = num/den, one correctly rounded division of integers, then
        an exact scale by a power of 2, rounds the rational bit for bit."""
        table = self._level_nodes.get(level)
        if table is None:
            nodes = self.fresh_nodes if level else self.base_nodes
            num, den = np.array([(x.numerator, x.denominator) for x, _ in nodes]).T
            cell = np.arange(num_cells(level))[:, None]
            coords = np.ldexp((num + cell * den) / den, 1 - max(level, 1))
            sides = np.tile([s for _, s in nodes], (len(cell), 1))
            table = self._level_nodes[level] = (coords, sides)
            for arr in table:
                arr.flags.writeable = False
        return table

    def all_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates and side tags of every node of levels 0..n, in the
        hierarchical (level, cell, i) order."""
        tables = [self.level_nodes(level) for level in range(n + 1)]
        return tuple(np.concatenate([t[j].ravel() for t in tables]) for j in (0, 1))

    def coarse_stencil(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Interpolation of each level from the nodes of the coarser ones.

        On a level-l cell (l >= 1) the coarser nodes are the base nodes X0
        mapped onto the cell.  Returns ``(weights, coarse)``: weights[i, k]
        is the level-0 Lagrange function k at fresh node i, computed in exact
        rationals, and coarse[c, k] is the `all_nodes(n)` index of base node
        k mapped onto the c-th cell of levels 1..n (level-major).

        The nodes are nested: base node k on half h of a cell is fresh node
        i of the cell or its base node k', so each level's table is one
        gather from its parent level's, without comparing coordinates.
        """
        base = [x for x, _ in self.base_nodes]
        weights = np.empty((self.p, self.p))
        for i, (x, _) in enumerate(self.fresh_nodes):
            for k, xk in enumerate(base):
                w = Fraction(1)
                for j, xj in enumerate(base):
                    if j != k:
                        w *= (x - xj) / (xk - xj)
                weights[i, k] = float(w)
        fresh = {node: i for i, node in enumerate(self.fresh_nodes)}
        halves = [[((x + h) / 2, s) for x, s in self.base_nodes] for h in (0, 1)]
        is_fresh = np.array([[node in fresh for node in half] for half in halves])
        slot = np.array([[fresh[node] if node in fresh else self.base_nodes.index(node)
                          for node in half] for half in halves])
        coarse = [np.arange(self.p)[None]] if n else []  # level 1: the level-0 nodes
        for level in range(2, n + 1):
            cell = np.arange(num_cells(level))
            parent, h = cell[:, None] >> 1, cell & 1
            own = self.p * (num_cells(level - 1) + parent) + slot[h]  # fresh on the parent
            coarse.append(np.where(is_fresh[h], own, coarse[-1][parent, slot[h]]))
        return weights, np.concatenate(coarse + [np.zeros((0, self.p), dtype=int)])


@lru_cache(maxsize=None)
def make_interp_basis(m: int, variant: str = "interface") -> InterpBasis1D:
    return InterpBasis1D(m, variant)
