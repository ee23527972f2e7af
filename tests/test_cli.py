"""End-to-end checks of the ``mrdg`` command line.

Everything here goes through :func:`mrdg.cli.main` with a real config file in
``tmp_path``, exactly as a shell invocation would, and inspects the files it
leaves behind.  The 1D cosine problem keeps each run in the millisecond range.
"""

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mrdg.adapt
from mrdg.cli import _write_snapshots, main
from mrdg.config import RunConfig
from mrdg.problems import make_problem
from mrdg.runner import run
from mrdg.timestep import compute_dt, effective_cfl

from conftest import slice_text

BASE = """\
# smallest non-trivial standing wave
problem = cosine-periodic
ndim = 1
k = 1
n = 3
t_final = 0.05
slice_points = 8
"""


# every kind of float a slice value can be, drawn often
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-320, 1e300, -1e300]


@st.composite
def slices(draw):
    """(axes, values) as the runner makes them: `slice_points` midpoints
    per axis, and a single plane in 3D; or arbitrary coordinates."""
    ndim = draw(st.integers(1, 3))
    points = draw(st.integers(1, 9))
    pts = (np.arange(points) + 0.5) / points
    axes = [pts] * min(ndim, 2) + [pts[len(pts) // 2 :][:1]] * (ndim == 3)
    if draw(st.booleans()):
        axes = [
            np.array(draw(st.lists(st.floats(), min_size=1, max_size=4))) for _ in range(ndim)
        ]
    shape = tuple(len(x) for x in axes)
    floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
    vals = draw(st.lists(floats, min_size=math.prod(shape), max_size=math.prod(shape)))
    return axes, np.array(vals).reshape(shape)


@given(slices())
@example(([np.array([0.5])], np.array([-0.0])))  # slice_points = 1
@example(([np.array([0.5])] * 2 + [np.array([0.25])], np.array(SPECIAL[:1]).reshape(1, 1, 1)))
@example(([np.array([0.25, 0.75])] * 2, np.array(SPECIAL[5:]).reshape(2, 2)))
@settings(max_examples=60, deadline=None)
def test_slice_files_equal_the_row_by_row_writer(case):
    axes, vals = case
    echo = ["problem = cosine-periodic", "k = 1"]
    result = SimpleNamespace(slices=[(0.05, axes, vals)], centers=[])
    with tempfile.TemporaryDirectory() as out:
        (path,) = _write_snapshots(result, out, echo)
        assert os.path.basename(path) == "slice_0.05.csv"
        with open(path, newline="") as fh:
            assert fh.read() == slice_text(axes, vals, echo)


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE)
    return str(path)


def read_table(path):
    """Split a CSV into (echo comment lines, header, rows-of-strings)."""
    echo, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            echo.append(line)
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return echo, header, rows


def test_run_writes_summary_table(tmp_path, cfg_file, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == 0

    echo, header, rows = read_table(out / "table.csv")
    assert "# n = 3" in echo
    assert "# m = 2" in echo  # defaulted to k + 1 and echoed back
    assert header == "t,DoF,num_elements,l2_error,linf_error,energy,aborted_step"
    assert len(rows) == 1
    t, dof, nel, l2, linf, energy, aborted = rows[0]
    assert float(t) == 0.05
    assert int(dof) == 16 and int(nel) == 8
    assert 0 < float(l2) < 2e-2
    assert 0 < float(linf) < 1e-2
    assert 9.0 < float(energy) < 10.0  # roughly pi^2 for this standing wave
    assert aborted == ""

    stdout = capsys.readouterr().out
    assert "DoF = 16" in stdout
    assert "l2_error = " in stdout
    assert "wrote" in stdout


def test_run_writes_energy_history(tmp_path, cfg_file):
    out = tmp_path / "out"
    main(["run", "--config", cfg_file, "--out", str(out)])
    _, header, rows = read_table(out / "energy.csv")
    assert header == "t,energy"
    times = [float(r[0]) for r in rows]
    energies = [float(r[1]) for r in rows]
    assert times == [0.0, 0.05]
    # source-free periodic problem: discrete energy barely moves
    assert abs(energies[1] - energies[0]) < 1e-4 * energies[0]


def test_run_writes_slice_and_centers(tmp_path, cfg_file):
    out = tmp_path / "out"
    main(["run", "--config", cfg_file, "--out", str(out)])

    _, header, rows = read_table(out / "slice_0.05.csv")
    assert header == "x1,u"
    assert len(rows) == 8
    xs = np.array([float(r[0]) for r in rows])
    us = np.array([float(r[1]) for r in rows])
    assert np.allclose(xs, (np.arange(8) + 0.5) / 8)
    exact = math.sin(2 * math.pi * 0.05) * np.cos(2 * math.pi * xs)
    assert np.abs(us - exact).max() < 0.05

    lines = [
        line
        for line in (out / "centers_0.05.txt").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(lines) == 8  # one per active element, matching the table
    assert "0 0 0.50000000" in lines  # the root cell


def test_rerun_is_byte_identical(tmp_path, cfg_file):
    for name in ("a", "b"):
        main(["run", "--config", cfg_file, "--out", str(tmp_path / name)])
    for fname in ("table.csv", "energy.csv", "slice_0.05.csv", "centers_0.05.txt"):
        first = (tmp_path / "a" / fname).read_bytes()
        second = (tmp_path / "b" / fname).read_bytes()
        assert first == second, fname


def test_override_changes_echo_and_result(tmp_path, cfg_file):
    main(["run", "--config", cfg_file, "--out", str(tmp_path / "lo")])
    main(
        ["run", "--config", cfg_file, "--out", str(tmp_path / "hi"), "--override", "n=4"]
    )
    echo_lo, _, rows_lo = read_table(tmp_path / "lo" / "table.csv")
    echo_hi, _, rows_hi = read_table(tmp_path / "hi" / "table.csv")
    assert "# n = 3" in echo_lo and "# n = 4" in echo_hi
    assert int(rows_hi[0][1]) == 2 * int(rows_lo[0][1])
    assert float(rows_hi[0][3]) < float(rows_lo[0][3])  # finer grid, smaller error


def test_fixed_sweep_table(tmp_path, cfg_file, capsys):
    out = tmp_path / "sw"
    rc = main(
        [
            "sweep",
            "--config",
            cfg_file,
            "--out",
            str(out),
            "--override",
            "n_values=3,4,5",
        ]
    )
    assert rc == 0
    _, header, rows = read_table(out / "table.csv")
    assert header == "N,DoF,l2_error,order"
    assert [int(r[0]) for r in rows] == [3, 4, 5]
    assert [int(r[1]) for r in rows] == [16, 32, 64]
    assert math.isnan(float(rows[0][3]))
    for row in rows[1:]:
        assert 1.5 < float(row[3]) < 2.5  # second order for k = 1
    stdout = capsys.readouterr().out
    assert "N,DoF,l2_error,order" in stdout
    assert f"wrote {out / 'table.csv'}" in stdout


def test_single_value_sweep_has_nan_order(tmp_path, cfg_file):
    out = tmp_path / "sw1"
    main(["sweep", "--config", cfg_file, "--out", str(out), "--override", "n_values=4"])
    _, _, rows = read_table(out / "table.csv")
    assert len(rows) == 1
    assert math.isnan(float(rows[0][3]))


def test_adaptive_sweep_table(tmp_path, cfg_file):
    out = tmp_path / "swa"
    rc = main(
        [
            "sweep",
            "--config",
            cfg_file,
            "--out",
            str(out),
            "--override",
            "mode=adaptive",
            "--override",
            "eps_values=1e-2,1e-4",
        ]
    )
    assert rc == 0
    _, header, rows = read_table(out / "table.csv")
    assert header == "epsilon,DoF,l2_error,R_DoF,R_eps"
    assert [float(r[0]) for r in rows] == [1e-2, 1e-4]
    assert math.isnan(float(rows[0][3])) and math.isnan(float(rows[0][4]))
    # n = 3 saturates for this smooth solution: both thresholds land on the
    # same grid, so the DoF-based rate is undefined and must come out nan
    # rather than crash the sweep.
    assert int(rows[1][1]) == int(rows[0][1])
    assert math.isnan(float(rows[1][3]))
    float(rows[1][4])  # parses (zero here: identical errors)


def test_missing_config_fails(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert (tmp_path / "table.csv").exists() is False


def test_invalid_config_value_fails(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = sideways\n")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "mode" in capsys.readouterr().err


def test_malformed_override_fails(tmp_path, cfg_file, capsys):
    rc = main(
        ["run", "--config", cfg_file, "--out", str(tmp_path / "out"), "--override", "k:2"]
    )
    assert rc == 2
    assert "override" in capsys.readouterr().err


# The two tests below loop over both run modes rather than taking `mode` as a
# parameter, so their test ids stay those of the fixed-grid originals.


def test_unstable_run_reports_step(tmp_path, cfg_file, capsys):
    dt = compute_dt(effective_cfl(10.0, 1), 3, make_problem("cosine-periodic", 1).c_max)
    for mode in ("sparse", "adaptive"):
        out = tmp_path / mode
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(
                [
                    "run",
                    "--config",
                    cfg_file,
                    "--out",
                    str(out),
                    "--override",
                    "cfl=10",
                    "--override",
                    "t_final=100",
                    "--override",
                    f"mode={mode}",
                ]
            )
        assert rc == 0  # diagnosed and reported, not a crash
        stdout = capsys.readouterr().out
        assert "instability: state became non-finite at step " in stdout

        _, _, rows = read_table(out / "table.csv")
        t, dof, nel, l2, linf, energy, aborted = rows[0]
        assert float(l2) == math.inf
        assert math.isnan(float(linf))
        # the first non-finite step, counted over the whole run; the blow-up
        # takes many steps at this CFL, so step 1 would mean a miscounted loop
        assert 1 < int(aborted) <= math.ceil(100 / dt)
        assert np.isfinite(float(energy))  # last finite value, from t = 0


def test_zero_t_final_is_exact(tmp_path, cfg_file):
    for mode in ("sparse", "adaptive"):
        out = tmp_path / mode
        main(
            [
                "run",
                "--config",
                cfg_file,
                "--out",
                str(out),
                "--override",
                "t_final=0",
                "--override",
                f"mode={mode}",
            ]
        )
        _, _, rows = read_table(out / "table.csv")
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][3]) == 0.0  # u0 is identically zero here
        assert list(out.glob("slice_*.csv")) == []  # nothing to snapshot
        _, _, energy_rows = read_table(out / "energy.csv")
        assert [float(r[0]) for r in energy_rows] == [0.0]  # no step was taken


@pytest.mark.parametrize("mode", ["sparse", "adaptive"])
def test_last_step_lands_on_each_target(mode):
    # dt = 0.07 / 3 / 8 divides neither interval (0, 0.02] nor (0.02, 0.05],
    # so the last step of each must be shortened to land on its target
    cfg = RunConfig.from_mapping(
        {
            "ndim": "1",
            "k": "1",
            "n": "3",
            "cfl": "0.07",
            "t_final": "0.05",
            "snapshots": "0.02",
            "slice_points": "8",
            "mode": mode,
        }
    )
    dt = compute_dt(effective_cfl(cfg.cfl, cfg.k), cfg.n, 1.0)
    for span in (0.02, 0.03):  # steps per interval are far from whole
        assert 0.1 < (span / dt) % 1.0 < 0.9
    times = [t for t, _e in run(cfg).record.energy]
    assert times[0] == 0.0
    assert times[1:] == pytest.approx([0.02, 0.05], abs=1e-12)


@pytest.mark.parametrize(
    "override",
    [
        "cfl=0",
        "m=6",
        "n=14",
        "k=11 m=3 n=2",  # the Alpert wavelet construction fails above degree 10
        "slice_points=0",
        "ndim=2 slice_points=100000",  # a 10^10-point slice lattice
        "t_final=-1",
        "eps=-1",
        "problem=smooth-speed",  # defined for ndim 2 and 3 only
        "ndim=3 n=9 mode=full",  # 2^30 coefficients, over the full-grid cap
        # 365M coefficients (2.7 GiB) per field on the sparse grid
        "problem=smooth-speed ndim=3 k=10 m=5 n=13 mode=sparse",
        # the same grid as an adaptive run's starting grid
        "mode=adaptive init_n=13 problem=smooth-speed ndim=3 k=10 m=5 n=13",
        "init_n=-2 mode=adaptive",
        "sigma=nan",
        "cfl=inf",
    ],
)
def test_rejected_config_exits_2_with_one_line(tmp_path, cfg_file, capsys, override):
    out = tmp_path / "out"
    args = ["run", "--config", cfg_file, "--out", str(out)]
    for item in override.split():
        args += ["--override", item]
    rc = main(args)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"])
def test_out_below_a_file_exits_2_with_one_line(tmp_path, cfg_file, capsys, below):
    # --out names a file, or a directory below one
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = blocker / below if below else blocker
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_adaptive_grid_over_the_cap_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command):
    # eps 1e-12 refines the initial grid toward all 32 x 32 cells of n 5,
    # 4096 coefficients per field: the full grid, not the sparse one of n
    monkeypatch.setattr(mrdg.adapt, "FULL_GRID_COEFFS", 2048)
    cfg = tmp_path / "cap.cfg"
    cfg.write_text(
        "problem = cosine-periodic\nndim = 2\nk = 1\nn = 5\nmode = adaptive\n"
        "eps = 1e-12\nt_final = 0.01\n"
    )
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "coefficients per field, over the cap 2048" in err


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("problem", ["smooth-speed", "layered-aligned"])
def test_root_only_variable_speed_run(tmp_path, problem, ndim):
    # eps far above every coefficient coarsens the grid to its root, so every
    # sweep of the variable-speed factors runs on fibers that stop at level 0
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        f"problem = {problem}\nndim = {ndim}\nk = 1\nm = 2\nn = 3\n"
        "mode = adaptive\neps = 100\nt_final = 0.01\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    _echo, header, rows = read_table(out / "table.csv")
    assert header.split(",")[1:3] == ["DoF", "num_elements"]
    assert (int(rows[0][1]), int(rows[0][2])) == (2**ndim, 1)


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "config",
    [
        # the const2d benchmark workload: one dense matrix per bc pair
        "problem = cosine-periodic\nndim = 2\nk = 1\nn = 8\nmode = sparse\nt_final = 0.005\n",
        # constant speed with Dirichlet loads, which read `boundary_vectors`
        "problem = cosine-mixed\nndim = 2\nk = 1\nn = 3\nt_final = 0.005\n",
        # variable speed: every factor is a pyramid form
        "problem = smooth-speed\nndim = 2\nk = 1\nm = 2\nn = 3\nt_final = 0.001\n",
        # aligned jumps add the one-sided node samples
        "problem = layered-aligned\nndim = 2\nk = 1\nm = 2\nn = 3\nt_final = 0.001\n",
    ],
    ids=["constant", "constant-dirichlet", "smooth-speed", "layered-aligned"],
)
def test_run_never_imports_scipy(tmp_path, config):
    # a fresh process, so no other test's import counts; importing
    # scipy.sparse alone added about 22 MB of resident memory to a run
    cfg = tmp_path / "case.cfg"
    cfg.write_text(config)
    code = (
        "import sys\n"
        "from mrdg.cli import main\n"
        f"assert main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "False"
