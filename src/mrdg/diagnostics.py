"""Error measures, convergence-rate fits, and the text output formats."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .fastmv import CoeffSet, Lattice, TensorSpace, eval_on_lattice, project_separable

# Lattice points per tile of `linf_error`, slabs along the last axis.  The
# budget bounds every array the evaluation makes, not only a tile's values:
# the last-axis fiber sums a window of tiles shares and the partial sums
# over the leading axes each hold at most a few times this many values, by
# a factor that depends on k and the dimension but not on n.  On a 128^3
# lattice, tiles of 2^16 values (512 kB) took as long as tiles of 2^17 and
# hold half as much; tiles of 2^15 took longer.
SLAB_POINTS = 2**16


def l2_error(
    space: TensorSpace,
    u: CoeffSet,
    k: int,
    n: int,
    exact_terms,
    int_exact_sq: float,
) -> float:
    """L2 distance to a separable exact field, without forming point values.

    Orthogonality splits ||u_h - u||^2 into ||u_h - Pu||^2 + ||u - Pu||^2
    with P the projection onto the active space.  The first part is a plain
    coefficient-difference norm; the second is ||u||^2 - ||Pu||^2 with the
    exact-solution norm supplied in closed form.  Keeping the grid-side term
    cancellation-free matters once errors approach the rounding floor of the
    classical three-term expansion.

    The tail still cancels: its roundoff is a few eps ||Pu||^2.  On
    perfbench's varspeed2d run the tail is 1.27e-18 of an l2^2 of 1.43e-18,
    against ||Pu||^2 = 2.47e-6 (eps times that is 5.5e-22), so the last
    digits of that l2 error are the projection's roundoff.
    """
    if not u.finite():
        return math.inf
    pu = project_separable(space, exact_terms, k, n)
    tail = int_exact_sq - pu.norm2()
    near = u.copy().axpy(-1.0, pu).norm2()
    if tail < -1e-10 * max(1.0, int_exact_sq):
        raise ValueError(f"inconsistent exact-solution norm: tail={tail}")
    return math.sqrt(near + max(tail, 0.0))


def center_lattice(n: int) -> np.ndarray:
    """Midpoints of the 2^(n+1) finest-mesh half-cells, avoiding breakpoints."""
    m = 1 << (n + 1)
    return (np.arange(m) + 0.5) / m


def linf_error(
    space: TensorSpace,
    u: CoeffSet,
    k: int,
    n: int,
    exact_fn: Callable,
) -> float:
    """Max-norm distance on the midpoint lattice `center_lattice(n)`.

    The lattice streams through `eval_on_lattice` in tiles of at most
    `SLAB_POINTS` points: slabs of whole planes along the last axis, or,
    when one plane is larger, tiles of a plane along the next axis.  The
    last axis is the one contracted first, so a slab costs no more
    arithmetic per point than the whole lattice, and memory stays fixed
    however large the lattice is.
    """
    pts = center_lattice(n)
    lattice = Lattice(u, k, [pts] * space.ndim, SLAB_POINTS)
    worst = 0.0
    for rows in lattice.tiles():
        axes = [pts[r] for r in rows]
        vals = eval_on_lattice(space, u, k, n, axes, (lattice, rows))
        # exact_fn is elementwise: it broadcasts the open mesh itself
        vals -= exact_fn(*np.meshgrid(*axes, indexing="ij", sparse=True))
        worst = max(worst, float(np.abs(vals, out=vals).max()))
        del vals  # freed before the next tile is made
    return worst


def orders(errors: Sequence[float]) -> list[float]:
    """log2 ratios of consecutive errors (one level of refinement apart)."""
    return [
        math.log2(errors[i] / errors[i + 1]) if errors[i + 1] > 0 else math.inf
        for i in range(len(errors) - 1)
    ]


def _log_slope(y1, y0, x1, x0) -> float:
    # Undefined when the abscissa repeats (e.g. two thresholds landing on the
    # same grid) or a value is non-finite; report nan rather than raise.
    try:
        num, den = math.log(y1 / y0), math.log(x1 / x0)
        return num / den if den != 0.0 else math.nan
    except (ValueError, OverflowError, ZeroDivisionError):
        return math.nan


def dof_rates(dofs, errors) -> list[float]:
    """-d log(err) / d log(DoF) between consecutive rows."""
    return [
        -_log_slope(errors[i + 1], errors[i], dofs[i + 1], dofs[i])
        for i in range(len(errors) - 1)
    ]


def eps_rates(epss, errors) -> list[float]:
    """d log(err) / d log(eps) between consecutive rows."""
    return [
        _log_slope(errors[i + 1], errors[i], epss[i + 1], epss[i])
        for i in range(len(errors) - 1)
    ]


# ---------------------------------------------------------------------------
# output files


def fmt(x) -> str:
    """Numbers at 6 significant digits; non-floats pass through as str."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def write_csv(path, header: Sequence[str], rows, echo: Sequence[str] = ()):
    """CSV with the resolved configuration echoed as leading comments."""
    lines = [",".join(header)]
    lines += [",".join(map(fmt, row)) for row in rows]
    write_lines(path, lines, echo)


def write_lines(path, body: Iterable[str], echo: Sequence[str] = ()):
    """`echo` as ``# `` comment lines, then `body`, each line ended by a
    newline, in one write.  `body` may be lazy: it is read here."""
    lines = [*map("# {}".format, echo), *body]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n" if lines else "")


@dataclass
class RunRecord:
    """Everything a single integration produced."""

    dof: int
    num_elements: int
    t_final: float
    l2: float | None = None
    linf: float | None = None
    energy: list[tuple[float, float]] = field(default_factory=list)
    aborted_step: int | None = None

    @property
    def stable(self) -> bool:
        return self.aborted_step is None
