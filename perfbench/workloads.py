"""Seeded workload generator for the rodwave benchmark.

Each workload is a solver config written as JSON and fed to the program
through ``rodwave.experiments.resolve_config(path)``, so the program sees
only generated inputs.  On ``peakon`` and ``compare_smooth`` the seed moves
the wave position ``x0`` by a fraction of one cell, which changes the
projected initial data (and the exact counts downstream) but not the amount
of work: kernel evaluations stay within one of each other across seeds.

``collision`` keeps ``x0`` fixed.  Its fold-over is shallow (min dy about
-0.02), so whether an evaluation falls back to the O(N^2) kernel hinges on
roundoff: sub-cell shifts of ``x0`` moved the fallback count between 1 and
660 of ~1940 evaluations (and whole-cell shifts between 362 and 677), which
changes its wall time by up to a factor of two.  A seed-dependent input there
would measure the seed, not the program.

The configs are spelled out here instead of read from the bundled table so
that an edit to the program's own experiment list cannot silently change
what the benchmark measures.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Mirrors the bundled experiments peakon_c1, peakon_antipeakon_gamma1 (with a
# snapshot every step) and smooth_gamma02 at the commit that defined the
# benchmark.  smooth_gamma02 is cut from T=7 to T=2: one compare call at T=7
# takes ~10 s, too few samples per run to outvote the host's slow spells.
_BASE = {
    "peakon": {
        "driver": "run",
        "shift_x0": True,
        "config": {
            "name": "bench_peakon",
            "initial_data": {"kind": "peakon", "c": 1.0, "x0": 0.0},
            "gamma": 1.0,
            "grid": {"dxi": 0.05, "r": 25.0},
            "stepper": {"dt": 0.2, "scheme": "strang"},
            "t_final": 5.0,
            "output_stride": 5,
        },
    },
    "collision": {
        "driver": "run",
        "shift_x0": False,
        "config": {
            "name": "bench_collision",
            "initial_data": {"kind": "peakon_antipeakon", "c": 1.0, "x0": 0.0,
                             "separation": 1.0},
            "gamma": 1.0,
            "grid": {"dxi": 0.1, "r": 25.0},
            "stepper": {"dt": 0.1, "scheme": "strang"},
            "t_final": 8.0,
            "output_stride": 1,
        },
    },
    "compare_smooth": {
        "driver": "compare",
        "shift_x0": True,
        "config": {
            "name": "bench_compare_smooth",
            "initial_data": {"kind": "smooth", "c": 1.0, "x0": 0.0},
            "gamma": 0.2,
            "grid": {"dxi": 0.25, "r": 25.0},
            "stepper": {"dt": 0.1, "scheme": "strang"},
            "t_final": 2.0,
            "output_stride": 10,
        },
    },
}

# Small Strang dt sweep on a smooth wave: the global-order gate.  The
# reference runs at dt_min/4, which biases the fitted slope by under 0.1.
_STRANG_ORDER = {
    "name": "bench_strang_order",
    "initial_data": {"kind": "smooth", "c": 1.0, "x0": 0.0},
    "gamma": 0.2,
    "grid": {"dxi": 0.5, "r": 20.0},
    "stepper": {"dt": 0.2, "scheme": "strang"},
    "t_final": 0.8,
    "reference_dt_factor": 0.25,
    "sweep": {"dt": [0.2, 0.1, 0.05]},
}

# Tiny grids for the benchmark's own smoke test: same code paths, seconds
# instead of minutes.  The collision keeps enough resolution to fold.
_TINY = {
    "peakon": {"grid": {"dxi": 0.25, "r": 8.0}, "t_final": 1.0},
    "collision": {"grid": {"dxi": 0.1, "r": 6.0}, "t_final": 2.0},
    "compare_smooth": {"grid": {"dxi": 0.5, "r": 10.0}, "t_final": 0.4},
}

WORKLOADS = tuple(_BASE)


def x0_shift(seed: int, dxi: float) -> float:
    """Sub-cell shift of x0 drawn from the seed, in [0, dxi)."""
    return random.Random(seed).random() * dxi


def _copy(d: dict) -> dict:
    return json.loads(json.dumps(d))


def _with_shift(config: dict, seed: int) -> dict:
    config = _copy(config)
    spec = config["initial_data"]
    spec["x0"] = spec["x0"] + x0_shift(seed, config["grid"]["dxi"])
    return config


def generate(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> dict:
    """Write the configs of one workload for ``seed`` into ``out_dir``.

    Returns the driver name, the initial ``x0`` and the paths of the
    measured config and of the Strang-order sweep config.
    """
    if workload not in _BASE:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    base = _BASE[workload]
    config = _copy(base["config"])
    if tiny:
        config.update(_copy(_TINY[workload]))
    if base["shift_x0"]:
        config = _with_shift(config, seed)
    order = _with_shift(_STRANG_ORDER, seed)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, cfg in (("config", config), ("strang_order", order)):
        path = out_dir / f"{workload}_{key}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        paths[key] = str(path)
    return {"workload": workload, "driver": base["driver"],
            "x0": config["initial_data"]["x0"], **paths}
