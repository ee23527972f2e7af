"""mrdg benchmark: timed `mrdg run` repetitions, each in a fresh process.

    python3 perfbench/run.py --workload const2d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each repetition starts
``perfbench/child.py``, which calls ``mrdg.cli.main(["run", ...])`` on the
workload's generated config and reports its timings; the parent checks the
written ``table.csv`` against the workload's frozen reference.  Repetitions
start until ``--seconds`` have passed (at least one round always runs).

--trace 0 prints the end-to-end metrics (medians over repetitions).
--trace 1 alternates traced and untraced repetitions and prints the
per-layer metrics (medians over traced repetitions) plus
``trace.overhead_frac``.  ``--workload all`` runs every workload, rounds
shuffled by the seed, and prefixes each metric with its workload.

The seed only shuffles the order of repetitions within each round; the
solver receives nothing but the generated configs.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import L2_RTOL, WORKLOADS, config_text  # noqa: E402

END_TO_END = ("run_s", "setup_s", "solve_s", "dof_steps_per_s", "peak_rss_mb", "l2_error")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = 1  # at most nproc on any machine
DEADLINE_SLACK_S = 150.0  # a run ends by --seconds plus this, whatever happens


def read_table(path: str) -> dict[str, str]:
    """The single data row of a `mrdg run` table.csv, keyed by header."""
    with open(path) as fh:
        rows = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return dict(zip(rows[0].split(","), rows[1].split(",")))


def check(table: dict[str, str], reference: dict) -> str | None:
    """Why a repetition's table misses its reference, or None if it matches."""
    if table.get("aborted_step"):
        return f"instability abort at step {table['aborted_step']}"
    l2 = float(table["l2_error"])
    if not math.isfinite(l2):
        return f"non-finite l2_error {l2}"
    if abs(l2 - reference["l2_error"]) > L2_RTOL * reference["l2_error"]:
        return f"l2_error {l2:.6g} outside reference {reference['l2_error']:.6g}"
    if int(table["DoF"]) != reference["dof"]:
        return f"DoF {table['DoF']} differs from reference {reference['dof']}"
    return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def repetition(spec: dict, workdir: str, traced: bool, timeout: float) -> dict:
    """Run one repetition; returns the child's result or {'error': reason}."""
    os.makedirs(workdir)
    cfg = os.path.join(workdir, "exp.cfg")
    out = os.path.join(workdir, "out")
    result_path = os.path.join(workdir, "result.json")
    with open(cfg, "w") as fh:
        fh.write(config_text(spec["config"]))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--config", cfg,
           "--out", out, "--result", result_path]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    with open(result_path) as fh:
        res = json.load(fh)
    try:
        table = read_table(os.path.join(out, "table.csv"))
    except (OSError, IndexError) as exc:
        return {**res, "error": f"unreadable table.csv: {exc}"}
    res["l2_error"] = float(table["l2_error"])
    res["dof"] = int(table["DoF"])
    reason = check(table, spec["reference"])
    if reason is not None:
        res["error"] = reason
    return res


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    """Per-repetition end-to-end values of the repetitions that completed."""
    out: dict[str, list[float]] = {name: [] for name in END_TO_END}
    for r in reps:
        if "run_s" not in r:
            continue
        solve = r["run_s"] - r["setup_s"]
        out["run_s"].append(r["run_s"])
        out["setup_s"].append(r["setup_s"])
        out["solve_s"].append(solve)
        out["dof_steps_per_s"].append(r["dof_steps"] / solve)
        out["peak_rss_mb"].append(r["peak_rss_mb"])
        if "l2_error" in r:
            out["l2_error"].append(r["l2_error"])
    return out


def summarize(name: str, reps: list[dict], traced: list[dict], trace: bool, units: dict):
    """Metrics of one workload as {metric: value}, plus report lines."""
    lines = []
    values = end_to_end(reps)
    failed = sum("error" in r for r in reps + traced)
    attempted = len(reps) + len(traced)
    lines.append(f"{name}: {attempted} repetitions, failed_frac = {failed}/{attempted}")
    for r in reps + traced:
        if "error" in r:
            lines.append(f"{name}: failed repetition: {r['error']}")
    metrics = {}
    for metric in END_TO_END:
        vals = values[metric]
        if not vals:
            continue
        q1, med, q3 = quartiles(vals)
        lines.append(f"{name}: {metric} = {med:.6g} {units[metric]}  (median of {len(vals)}; "
                     f"quartiles {q1:.6g} .. {q3:.6g})")
        if not trace:
            metrics[metric] = med
    if trace:
        layer_runs = [r["layers"] for r in traced if "layers" in r]
        for r in traced[:1]:
            for probe in r.get("missing_probes", ()):
                lines.append(f"{name}: probe not installed, its metrics read 0: {probe}")
        for metric in layer_runs[0] if layer_runs else ():
            metrics[metric] = statistics.median(lr[metric] for lr in layer_runs)
        traced_run = [r["run_s"] for r in traced if "run_s" in r]
        if traced_run and values["run_s"]:
            overhead = statistics.median(traced_run) / statistics.median(values["run_s"]) - 1
            metrics["trace.overhead_frac"] = overhead
            lines.append(f"{name}: trace.overhead_frac = {overhead:.4f}  (traced run_s median "
                         f"{statistics.median(traced_run):.6g} s over untraced)")
    return metrics, failed, attempted, lines


def environment(reps: list[dict]) -> dict:
    env = {
        "cpu_model": "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for r in reps:
        if "versions" in r:
            env.update(r["versions"])
            break
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mrdg", "cli.py")):
        print(f"error: no mrdg sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    specs = {n: WORKLOADS[n] for n in names}
    return run(names, specs, args.seed, args.seconds, bool(args.trace),
               os.path.join(ROOT, ".perfbench"))


def metric_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def run(names: list[str], specs: dict, seed: int, seconds: float, trace: bool,
        workroot: str) -> int:
    units = metric_units()
    rng = random.Random(seed)
    workdir = os.path.join(workroot, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    plain = {n: [] for n in names}
    traced = {n: [] for n in names}
    start = time.perf_counter()
    deadline = start + seconds + DEADLINE_SLACK_S
    count = 0
    try:
        while count == 0 or time.perf_counter() - start < seconds:
            order = [(n, t) for n in names for t in ((True, False) if trace else (False,))]
            rng.shuffle(order)
            for name, is_traced in order:
                left = deadline - time.perf_counter()
                if left <= 1.0:
                    break
                res = repetition(specs[name], os.path.join(workdir, str(count)), is_traced, left)
                (traced if is_traced else plain)[name].append(res)
                count += 1
            if deadline - time.perf_counter() <= 1.0:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = [r for n in names for r in plain[n] + traced[n]]
    print("# env " + json.dumps(environment(every), sort_keys=True))
    print(f"# seed {seed}, {count} repetitions in {time.perf_counter() - start:.1f} s")
    metrics, failed, attempted = {}, 0, 0
    for name in names:
        m, f, a, lines = summarize(name, plain[name], traced[name], trace, units)
        for line in lines:
            print(line)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
        failed += f
        attempted += a
    if not any("run_s" in r for r in every):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
