"""Self-test of the benchmark harness on tiny configurations (about 15 s).

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted, that the per-layer
probes see the variable-speed and adaptive paths, and that a wrong
reference counts as a failed repetition instead of being dropped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

TINY = {
    "const": {"problem": "cosine-periodic", "ndim": 2, "k": 1, "n": 3, "t_final": 0.01},
    "varspeed": {"problem": "smooth-speed", "ndim": 2, "k": 2, "m": 3, "n": 3,
                 "t_final": 0.005},
    "adapt": {"problem": "cosine-periodic", "ndim": 2, "k": 3, "m": 4, "n": 4,
              "mode": "adaptive", "eps": 1e-3, "t_final": 0.02},
}


def bench() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def invoke(specs: dict, trace: bool, workdir) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.run(sorted(specs), specs, 3, 0.0, trace, str(workdir)) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def specs(tmp_path_factory) -> dict:
    """Tiny workloads with references frozen from one repetition each."""
    out = {}
    for name, config in TINY.items():
        probe = {"config": config, "reference": {"l2_error": 1.0, "dof": -1}}
        res = run.repetition(probe, str(tmp_path_factory.mktemp(name) / "rep"), False, 120.0)
        assert "run_s" in res, res
        out[name] = {"config": config,
                     "reference": {"l2_error": res["l2_error"], "dof": res["dof"]}}
    return out


def test_workloads_match_benchmark_json():
    b = bench()
    assert [w["name"] for w in b["workloads"]] == list(WORKLOADS)
    for spec in WORKLOADS.values():
        assert spec["reference"]["l2_error"] > 0
        assert spec["reference"]["dof"] > 0


def test_end_to_end_metrics_emitted(specs, tmp_path):
    result = invoke({"const": specs["const"]}, False, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_emitted(specs, tmp_path):
    result = invoke(specs, True, tmp_path)
    assert result["correct"], result
    expected = {m["name"] for m in bench()["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in specs:
        assert {k.split(".", 1)[1] for k in metrics if k.startswith(name + ".")} == expected
    assert metrics["const.fastmv.apply_s.const"] > 0
    assert metrics["const.fastmv.apply_s.p_ops"] == 0
    assert metrics["const.adapt.regrids"] == 0
    assert metrics["varspeed.fastmv.apply_s.p_ops"] > 0
    assert metrics["varspeed.fastmv.apply_s.surplus"] > 0
    assert metrics["varspeed.operators1d.assemble_misses"] > 0
    assert metrics["adapt.adapt.regrids"] > 0
    assert metrics["adapt.runner.initial_grid_s"] > 0
    for name in specs:
        assert metrics[f"{name}.ipdg.apply_calls"] > 0
        assert metrics[f"{name}.fastmv.level_pairs_per_apply"] > 0


def test_every_probe_installed(specs, tmp_path):
    res = run.repetition(specs["varspeed"], str(tmp_path / "rep"), True, 120.0)
    assert "error" not in res, res
    assert res["missing_probes"] == []


def test_wrong_reference_counts_as_failure(specs, tmp_path):
    ref = specs["const"]["reference"]
    wrong_l2 = {"config": specs["const"]["config"],
                "reference": {**ref, "l2_error": ref["l2_error"] * 1.01}}
    wrong_dof = {"config": specs["const"]["config"], "reference": {**ref, "dof": ref["dof"] + 1}}
    result = invoke({"wrong_l2": wrong_l2, "wrong_dof": wrong_dof}, False, tmp_path)
    assert not result["correct"]
    assert result["attempted"] == 2 and result["failed"] == 2
    assert "wrong_l2.run_s" in result["metrics"]  # timed, counted, not dropped


def test_bare_directory_exits_nonzero(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "const2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
