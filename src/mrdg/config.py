"""Flat key=value run configuration with typed access and overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .alpert import MAX_DEGREE
from .grids import FULL_GRID_COEFFS, MAX_LEVEL, num_cells, sparse_levels
from .problems import REGISTRY


def parse_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(v) for v in s.split(",") if v.strip())


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.split(",") if v.strip())


_MODES = ("sparse", "full", "adaptive")
_VARIANTS = ("interface", "inner")
_MAX_SLICE_POINTS = 1024  # a slice file then holds at most 2^20 lattice points


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one run or sweep."""

    problem: str
    ndim: int
    k: int
    n: int
    m: int
    variant: str
    mode: str
    t_final: float
    cfl: float
    sigma: float
    eps: float
    n_values: tuple[int, ...]
    eps_values: tuple[float, ...]
    snapshots: tuple[float, ...]
    slice_points: int
    init_n: int

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "RunConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

        ndim = int(raw.get("ndim", 2))
        k = int(raw.get("k", 1))
        n = int(raw.get("n", 4))
        cfg = cls(
            problem=raw.get("problem", "cosine-periodic"),
            ndim=ndim,
            k=k,
            n=n,
            m=int(raw.get("m", k + 1)),
            variant=raw.get("variant", "interface"),
            mode=raw.get("mode", "sparse"),
            t_final=float(raw.get("t_final", 0.1)),
            cfl=float(raw.get("cfl", 0.1 if ndim <= 2 else 0.05)),
            sigma=float(raw.get("sigma", 10.0 if ndim <= 2 else 30.0)),
            eps=float(raw.get("eps", 1e-3)),
            n_values=_ints(raw.get("n_values", "")),
            eps_values=_floats(raw.get("eps_values", "")),
            snapshots=_floats(raw.get("snapshots", "")),
            slice_points=int(raw.get("slice_points", 64)),
            init_n=int(raw.get("init_n", 0)) or min(4, n),
        )
        # comparisons are written so that nan fails them
        if cfg.problem not in REGISTRY:
            raise ValueError(f"unknown problem {cfg.problem!r}; choices: {sorted(REGISTRY)}")
        if cfg.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        if cfg.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not 1 <= ndim <= 3:
            raise ValueError("ndim must be 1, 2, or 3")
        if not 1 <= k <= MAX_DEGREE:
            raise ValueError(
                f"k must be in 1..{MAX_DEGREE}: the Alpert wavelet construction"
                f" loses all precision at higher degree, got {k}"
            )
        if not all(1 <= v <= MAX_LEVEL for v in (n,) + cfg.n_values):
            raise ValueError(f"n and n_values must be in 1..{MAX_LEVEL}")
        need = max((k + 1) ** ndim << (v * ndim) for v in (n,) + cfg.n_values)
        if cfg.mode == "full" and need > FULL_GRID_COEFFS:
            raise ValueError(
                f"full grid needs {need} coefficients, (k+1)^ndim * 2^(n*ndim);"
                f" the cap is {FULL_GRID_COEFFS}"
            )
        if cfg.mode != "full":  # an adaptive run starts on the sparse grid of min(init_n, n)
            tops = (n,) + cfg.n_values if cfg.mode == "sparse" else (min(cfg.init_n, n),)
            cells = max(
                sum(math.prod(map(num_cells, lv)) for lv in sparse_levels(ndim, v)) for v in tops
            )
            if (k + 1) ** ndim * cells > FULL_GRID_COEFFS:
                raise ValueError(
                    f"sparse grid needs {(k + 1) ** ndim * cells} coefficients per field,"
                    f" (k+1)^ndim on each of {cells} cells; the cap is {FULL_GRID_COEFFS}"
                )
        if not 1 <= cfg.m <= 5:
            raise ValueError(f"m must be in 1..5 (it defaults to k + 1), got {cfg.m}")
        if not 0 < cfg.cfl < math.inf:
            raise ValueError(f"cfl must be finite and > 0, got {cfg.cfl:g}")
        if not 0 < cfg.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {cfg.sigma:g}")
        if cfg.init_n < 0:
            raise ValueError(f"init_n must be >= 0 (0 means min(4, n)), got {cfg.init_n}")
        if not 0 <= cfg.t_final < math.inf:
            raise ValueError(f"t_final must be finite and >= 0, got {cfg.t_final:g}")
        if not all(0 < e < math.inf for e in (cfg.eps,) + cfg.eps_values):
            raise ValueError("eps and eps_values must be finite and > 0")
        if not 1 <= cfg.slice_points <= _MAX_SLICE_POINTS:
            raise ValueError(
                f"slice_points must be in 1..{_MAX_SLICE_POINTS}, got {cfg.slice_points}"
            )
        REGISTRY[cfg.problem](ndim)  # raises ValueError when ndim is unsupported
        return cfg

    def echo_lines(self) -> list[str]:
        """Canonical `key = value` rendering of every resolved field.

        Floats print as `%g` when that reads back exactly, else as `repr`, so
        `from_mapping(parse_text(...))` of the lines gives an equal config.
        """

        def num(x):
            if not isinstance(x, float):
                return str(x)
            short = f"{x:g}"
            return short if float(short) == x else repr(x)

        def show(v):
            return ",".join(map(num, v)) if isinstance(v, tuple) else num(v)

        return [f"{f.name} = {show(getattr(self, f.name))}" for f in fields(self)]


def load_config(path: str, overrides: list[str] = ()) -> RunConfig:
    """Read a config file and apply `key=value` override strings in order."""
    with open(path) as fh:
        raw = parse_text(fh.read())
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    return RunConfig.from_mapping(raw)
