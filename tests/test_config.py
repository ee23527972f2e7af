"""Config parsing, defaults, and the echo round trip."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrdg.config import RunConfig, load_config, parse_text


def test_parse_text_grammar():
    text = """
    # full-line comment
    problem = smooth-speed
    k = 2   # trailing comment
    n_values = 3, 4, 5

    t_final=0.25
    """
    raw = parse_text(text)
    assert raw == {
        "problem": "smooth-speed",
        "k": "2",
        "n_values": "3, 4, 5",
        "t_final": "0.25",
    }


def test_parse_text_rejects_bare_words():
    with pytest.raises(ValueError, match="line 2"):
        parse_text("a = 1\nnot-an-assignment\n")


def test_defaults_depend_on_dimension():
    two = RunConfig.from_mapping({"ndim": "2"})
    three = RunConfig.from_mapping({"ndim": "3"})
    assert (two.cfl, two.sigma) == (0.1, 10.0)
    assert (three.cfl, three.sigma) == (0.05, 30.0)
    assert two.problem == "cosine-periodic"
    assert two.m == two.k + 1
    assert two.mode == "sparse"
    # explicit values win over the dimension defaults
    own = RunConfig.from_mapping({"ndim": "3", "cfl": "0.2", "sigma": "5"})
    assert (own.cfl, own.sigma) == (0.2, 5.0)


def test_m_tracks_k_unless_given():
    assert RunConfig.from_mapping({"k": "3"}).m == 4
    assert RunConfig.from_mapping({"k": "3", "m": "2"}).m == 2


def test_init_n_caps_at_four():
    assert RunConfig.from_mapping({"n": "7"}).init_n == 4
    assert RunConfig.from_mapping({"n": "3"}).init_n == 3
    assert RunConfig.from_mapping({"n": "7", "init_n": "2"}).init_n == 2


def test_list_valued_keys():
    cfg = RunConfig.from_mapping(
        {"n_values": "3,4,5", "eps_values": "1e-2, 1e-3", "snapshots": "0.05,0.1"}
    )
    assert cfg.n_values == (3, 4, 5)
    assert cfg.eps_values == (1e-2, 1e-3)
    assert cfg.snapshots == (0.05, 0.1)
    assert RunConfig.from_mapping({}).n_values == ()


@pytest.mark.parametrize(
    "bad",
    [
        {"typo_key": "1"},
        {"problem": "nope"},
        {"mode": "fancy"},
        {"variant": "edge"},
        {"ndim": "4"},
        {"ndim": "0"},
        {"k": "0"},
        {"n": "-1"},
        {"n": "14"},
        {"n_values": "4,14"},
        {"m": "0"},
        {"m": "6"},
        {"k": "5"},  # m defaults to k + 1 = 6
        {"k": "11", "m": "3"},  # no Alpert mother table above degree 10
        # full grids over the coefficient cap, (k+1)^2 4^n > 2^26
        {"n": "13", "mode": "full"},
        {"k": "2", "n": "12", "mode": "full"},
        {"problem": "cosine-mixed", "n": "12", "n_values": "11,13", "mode": "full"},
        {"cfl": "0"},
        {"cfl": "-0.1"},
        {"cfl": "nan"},
        {"t_final": "-1"},
        {"eps": "0"},
        {"eps": "-1", "mode": "adaptive"},
        {"eps_values": "1e-3,-1e-4"},
        {"slice_points": "0"},
        {"ndim": "2", "slice_points": "100000"},  # a 10^10-point slice lattice
        {"problem": "smooth-speed", "ndim": "1"},
        {"problem": "layered-aligned", "ndim": "1"},
        {"ndim": "3", "k": "1", "n": "9", "mode": "full"},  # 2^30 coefficients
        {"ndim": "2", "mode": "full", "n": "3", "n_values": "4,13"},
        # 365M coefficients (2.7 GiB) per field on the sparse grid, and the
        # same grid reached through n_values
        {"problem": "smooth-speed", "ndim": "3", "k": "10", "m": "5", "n": "13", "mode": "sparse"},
        {"ndim": "3", "k": "10", "m": "5", "n": "3", "n_values": "13", "mode": "sparse"},
        {"init_n": "-2", "mode": "adaptive"},  # would start from an empty grid
        {"sigma": "0"},
        {"sigma": "-1"},
        {"sigma": "nan"},
        {"sigma": "inf"},
        {"cfl": "inf"},
        {"t_final": "inf"},  # the run would never end
        {"eps": "inf"},
        {"eps_values": "1e-3,inf", "mode": "adaptive"},
    ],
)
def test_invalid_mappings_raise(bad):
    with pytest.raises(ValueError):
        RunConfig.from_mapping(bad)


def test_range_limits_are_accepted():
    cfg = RunConfig.from_mapping(
        {"problem": "smooth-speed", "n": "13", "m": "5", "t_final": "0",
         "slice_points": "1", "eps": "1e-12"}
    )  # variable-speed operators are pyramid tables, so n = 13 is no dense allocation
    assert (cfg.n, cfg.m, cfg.t_final, cfg.slice_points) == (13, 5, 0.0, 1)
    assert RunConfig.from_mapping({"k": "10", "m": "3"}).k == 10
    assert RunConfig.from_mapping({"n": "12", "n_values": "11"}).n == 12
    assert RunConfig.from_mapping({"problem": "cosine-mixed", "n": "12"}).n == 12
    cfg = RunConfig.from_mapping({"ndim": "2", "slice_points": "1024"})
    assert cfg.slice_points == 1024  # a 2^20-point slice
    cfg = RunConfig.from_mapping({"n": "6", "init_n": "0", "sigma": "1e-300"})
    assert (cfg.init_n, cfg.sigma) == (4, 1e-300)  # 0 means min(4, n)
    assert RunConfig.from_mapping({"problem": "smooth-speed", "ndim": "3"}).ndim == 3
    # the largest full grid: (k+1)^ndim * 2^(n*ndim) = 2^26 coefficients
    assert RunConfig.from_mapping({"ndim": "2", "n": "12", "mode": "full"}).n == 12


@pytest.mark.parametrize(
    "mapping",
    [
        {"problem": "cosine-periodic", "ndim": "2", "k": "2", "n": "12", "mode": "sparse"},
        {"k": "3", "m": "4", "n": "12", "mode": "adaptive", "eps": "1e-4"},
        {"n": "13", "mode": "sparse"},
    ],
    ids=["sparse-k2-n12", "adaptive-k3-n12", "sparse-k1-n13"],
)
def test_constant_speed_runs_are_bounded_by_the_coefficient_caps(mapping):
    # a constant-speed operator holds its dense leading block only as deep
    # as the sweeps reach, at most `fastmv.DENSE_ENTRIES` entries a side, so
    # no dense-operator cap refuses these (1.12, 2 and 2 GiB of dense
    # matrices once)
    cfg = RunConfig.from_mapping(mapping)
    assert (cfg.n, cfg.mode) == (int(mapping["n"]), mapping["mode"])


def test_echo_lines_round_trip():
    cfg = RunConfig.from_mapping(
        {
            "problem": "layered-aligned",
            "ndim": "2",
            "k": "3",
            "n": "6",
            "mode": "adaptive",
            "eps": "1e-4",
            "t_final": "0.1234567",  # %g would echo 0.123457
            "n_values": "3,4",
            "snapshots": "0.025,0.05",
        }
    )
    again = RunConfig.from_mapping(parse_text("\n".join(cfg.echo_lines())))
    assert again == cfg


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(
    t_final=positive,
    cfl=positive,
    sigma=positive,
    eps=positive,
    eps_values=st.lists(positive, max_size=3),
    snapshots=st.lists(positive, max_size=3),
)
def test_echo_lines_round_trip_any_float(t_final, cfl, sigma, eps, eps_values, snapshots):
    cfg = RunConfig.from_mapping(
        {
            "t_final": repr(t_final),
            "cfl": repr(cfl),
            "sigma": repr(sigma),
            "eps": repr(eps),
            "eps_values": ",".join(map(repr, eps_values)),
            "snapshots": ",".join(map(repr, snapshots)),
        }
    )
    again = RunConfig.from_mapping(parse_text("\n".join(cfg.echo_lines())))
    assert again == cfg


def test_load_config_applies_overrides_in_order(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("problem = cosine-periodic\nk = 1\nn = 3\n")
    cfg = load_config(str(p), ["k=2", "n=5", "k=3"])
    assert (cfg.k, cfg.n) == (3, 5)
    with pytest.raises(ValueError, match="override"):
        load_config(str(p), ["k:2"])
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "absent.cfg"))
