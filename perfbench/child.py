"""One benchmark repetition in a fresh process.

    python3 perfbench/child.py --config CFG --out DIR --result JSON [--trace]

Imports `mrdg` from the checkout's `src/`, installs the probes, calls
``mrdg.cli.main(["run", ...])`` and writes the timings, the DoF summed over
steps, the peak RSS and (with --trace) the per-layer metrics to JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def versions() -> dict[str, str]:
    """numpy, scipy and BLAS versions of the process that ran the solver."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import mrdg.cli

    if not os.path.abspath(mrdg.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"mrdg imported from {mrdg.cli.__file__}, not {SRC}")
    from probes import LightProbe, Tracer

    probe = Tracer() if args.trace else LightProbe()
    probe.install()
    t0 = time.perf_counter()
    rc = mrdg.cli.main(["run", "--config", args.config, "--out", args.out])
    t1 = time.perf_counter()
    if rc != 0:
        raise RuntimeError(f"mrdg run returned {rc}")
    if probe.first_step is None:
        raise RuntimeError("no RK step was observed")
    result = {
        "run_s": t1 - t0,
        "setup_s": probe.first_step - t0,
        "dof_steps": sum(probe.dofs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layers"] = probe.metrics()
        result["missing_probes"] = probe.missing
    result["versions"] = versions()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
