"""Command-line front end.

Two subcommands on top of the runner:

  mrdg run   --config exp.cfg [--out DIR] [--override key=value ...]
  mrdg sweep --config exp.cfg [--out DIR] [--override key=value ...]

``run`` integrates a single configuration and writes ``table.csv`` (one
summary row), ``energy.csv``, and per-snapshot ``slice_<t>.csv`` /
``centers_<t>.txt``.  ``sweep`` produces the convergence table over
``n_values`` (fixed grids) or ``eps_values`` (adaptive).  Every output file
starts with the resolved configuration as ``# key = value`` comment lines,
so a table is always reproducible from its own header.  Outputs are
byte-identical across repeated invocations of the same configuration.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Iterator

from .config import RunConfig, load_config
from .diagnostics import write_csv, write_lines
from .runner import RunResult, run, sweep


def _tag(t: float) -> str:
    return f"{t:g}"


def _slice_lines(axes, vals) -> Iterator[str]:
    """The rows of a slice file, lazily: the lattice coordinates, then the
    value, in `np.ndindex` order.  Each coordinate is formatted once per
    axis and each value once, as `diagnostics.fmt` formats a float."""
    coords = [list(map("{:.6g}".format, x.tolist())) for x in axes]
    points = map(",".join, itertools.product(*coords))
    return map("{},{:.6g}".format, points, vals.ravel().tolist())


def _write_snapshots(result: RunResult, out: str, echo) -> list[str]:
    written = []
    for t, axes, vals in result.slices:
        path = os.path.join(out, f"slice_{_tag(t)}.csv")
        header = ",".join([f"x{i + 1}" for i in range(len(axes))] + ["u"])
        write_lines(path, itertools.chain([header], _slice_lines(axes, vals)), echo)
        written.append(path)
    for t, lines in result.centers:
        path = os.path.join(out, f"centers_{_tag(t)}.txt")
        write_lines(path, lines, echo)
        written.append(path)
    return written


def _cmd_run(cfg: RunConfig, out: str) -> int:
    result = run(cfg)
    rec = result.record
    echo = cfg.echo_lines()
    energy = rec.energy[-1][1] if rec.energy else float("nan")
    row = [
        rec.t_final,
        rec.dof,
        rec.num_elements,
        float("nan") if rec.l2 is None else rec.l2,
        float("nan") if rec.linf is None else rec.linf,
        energy,
        "" if rec.aborted_step is None else rec.aborted_step,
    ]
    header = ["t", "DoF", "num_elements", "l2_error", "linf_error", "energy", "aborted_step"]
    write_csv(os.path.join(out, "table.csv"), header, [row], echo)
    write_csv(
        os.path.join(out, "energy.csv"),
        ["t", "energy"],
        [[t, e] for t, e in rec.energy],
        echo,
    )
    files = _write_snapshots(result, out, echo)
    if not rec.stable:
        print(f"instability: state became non-finite at step {rec.aborted_step}")
    summary = [f"t = {rec.t_final:g}", f"DoF = {rec.dof}"]
    if rec.l2 is not None:
        summary.append(f"l2_error = {rec.l2:.6g}")
    if rec.linf is not None:
        summary.append(f"linf_error = {rec.linf:.6g}")
    print("  ".join(summary))
    for path in ["table.csv", "energy.csv"] + [os.path.basename(f) for f in files]:
        print(f"wrote {os.path.join(out, path) if os.sep not in path else path}")
    return 0


def _cmd_sweep(cfg: RunConfig, out: str) -> int:
    header, rows, _results = sweep(cfg)
    echo = cfg.echo_lines()
    path = os.path.join(out, "table.csv")
    write_csv(path, header, rows, echo)
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                print(line.rstrip("\n"))
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mrdg",
        description="Adaptive multiresolution DG solver for the second-order wave equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("run", "integrate one configuration and write its outputs"),
        ("sweep", "run a convergence study over n_values or eps_values"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", default="out", help="output directory (created if absent)")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry; repeatable, applied in order",
        )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.override)
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return (_cmd_run if args.command == "run" else _cmd_sweep)(cfg, args.out)
    except MemoryError as exc:  # an adaptive grid outgrew its coefficient cap
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
