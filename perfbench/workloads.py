"""The benchmark's workloads: fixed solver configurations and frozen references.

Each repetition writes `config` as a ``key = value`` file and runs
``mrdg run`` on it.  `reference` holds the `l2_error` and final `dof` that
``table.csv`` must report; a repetition outside them counts as failed.  The
references were frozen from the solver at the `t_final` given here.  Why each
workload was chosen is stated in BENCHMARK.json and README.md.
"""

from __future__ import annotations

# Relative tolerance on l2_error.  table.csv prints 6 significant digits, so
# the band allows a last-digit flip from summation-order roundoff and no more.
L2_RTOL = 1e-4

WORKLOADS = {
    "const2d": {
        "config": {
            "problem": "cosine-periodic",
            "ndim": 2,
            "k": 1,
            "n": 8,
            "mode": "sparse",
            "t_final": 0.005,
        },
        "reference": {"l2_error": 6.56988e-06, "dof": 5120},
    },
    "varspeed2d": {
        "config": {
            "problem": "smooth-speed",
            "ndim": 2,
            "k": 2,
            "m": 3,
            "n": 8,
            "mode": "sparse",
            "t_final": 0.001,
        },
        "reference": {"l2_error": 1.19567e-09, "dof": 11520},
    },
    "adapt2d": {
        "config": {
            "problem": "cosine-periodic",
            "ndim": 2,
            "k": 3,
            "m": 4,
            "n": 8,
            "mode": "adaptive",
            "eps": 1e-4,
            "t_final": 0.02,
        },
        "reference": {"l2_error": 1.09355e-06, "dof": 1024},
    },
    "const3d": {
        "config": {
            "problem": "cosine-periodic",
            "ndim": 3,
            "k": 2,
            "n": 6,
            "mode": "sparse",
            "t_final": 0.02,
        },
        "reference": {"l2_error": 3.53069e-05, "dof": 18576},
    },
}


def config_text(config: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config.items())
