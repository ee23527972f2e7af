"""The benchmark's workloads still meet their frozen references.

`perfbench/workloads.py` freezes each workload's `l2_error` and final DoF,
and the benchmark counts a repetition outside them as failed.  Running each
config once here catches a change of those figures in the test suite, before
a benchmark run does.  The module is only read, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

from mrdg.cli import main

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_meets_its_frozen_reference(name, tmp_path):
    spec = workloads.WORKLOADS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(workloads.config_text(spec["config"]))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "table.csv").read_text()
    header, row = [line for line in text.splitlines() if not line.startswith("#")]
    table = dict(zip(header.split(","), row.split(",")))
    ref = spec["reference"]
    assert int(table["DoF"]) == ref["dof"]
    l2 = float(table["l2_error"])
    assert abs(l2 - ref["l2_error"]) <= workloads.L2_RTOL * ref["l2_error"], l2
