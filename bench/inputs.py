"""Workload inputs: the recipe configs each workload hands to the mfdl CLI.

This module imports nothing from mfdl, so the independent oracle
(oracle.py) can share the query pool and the phase grids without touching
the code under test.

Seeds change the inputs without changing the amount of work:

* gradsim and universality use the seed as the network seed, so the same
  number of weight matrices, matvecs and fits is done for every seed;
* queries draws, for each stratum of similar-cost points, a seeded sample
  from a fixed pool whose reference values oracle.py commits to
  reference.json;
* phase is the fixed 64-point recipe grid at two keep rates; its inputs do
  not depend on the seed, because moving the grid would move points on and
  off the slow chi1 = 1 pole and change the work.
"""

from __future__ import annotations

import random

SIGMA_B_CHOICES = (0.05, 0.1, 0.15, 0.2)

# ---------------------------------------------------------------------------
# gradsim / universality
# ---------------------------------------------------------------------------

GRADSIM_DEPTH = 25
GRADSIM_INSTANCES = 8


def gradsim_config(seed: int, threads: int) -> dict:
    """The gradsim recipe: Linear, sigma_w^2=0.5, sigma_b^2=0.1, rho=0.8, N=1000."""
    return {
        "activation": "linear",
        "sigma_w_sq": 0.5,
        "sigma_b_sq": 0.1,
        "rho": 0.8,
        "depth": GRADSIM_DEPTH,
        "width": 1000,
        "instances": GRADSIM_INSTANCES,
        "seed": seed,
        "threads": threads,
    }


UNIVERSALITY_DEPTH = 100
UNIVERSALITY_INSTANCES = 4


def universality_config(seed: int) -> dict:
    """The default 12-row sweep (4 activations x rho {1, 0.7, 0.4}, N=500)."""
    return {
        "rows": [
            {"activation": a, "rho": r, "width": 500}
            for a in ("linear", "relu", "tanh", "hardtanh")
            for r in (1.0, 0.7, 0.4)
        ],
        "depth": UNIVERSALITY_DEPTH,
        "instances": UNIVERSALITY_INSTANCES,
        "seed": seed,
        "threads": 1,
    }


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------

PHASE_RHOS = (1.0, 0.98)
PHASE_SIGMA_B_SQ = 0.05
PHASE_GRID = (1.0, 4.0, 64)


def phase_configs() -> list[dict]:
    """The Tanh phase recipe on the 64-point log grid, once per keep rate."""
    lo, hi, n = PHASE_GRID
    return [
        {
            "activation": "tanh",
            "rho": rho,
            "sigma_b_sq": PHASE_SIGMA_B_SQ,
            "grid_min": lo,
            "grid_max": hi,
            "grid_points": n,
            "grid_log": True,
        }
        for rho in PHASE_RHOS
    ]


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------
#
# A stratum is a set of points of similar cost; the seed draws `count`
# distinct points from each.  Linear and ReLU fixed points sit on the
# ordered side (sigma_w^2 below the critical rho and 2*rho), where q* is
# finite.  Bounded activations avoid the chi1 = 1 pole, where the cost of a
# fixed point depends steeply on the distance to it.
#
# Sorted by latency, a pass of 102 queries is: 38 queries under ~10 ms
# (Linear/ReLU/Erf fixed points, Erf/HardTanh critical lines), 36 Tanh fixed
# points (ranks 39-74; p50 at rank 51.5), 14 HardTanh fixed points of
# ~25-65 ms, 12 Tanh critical lines of ~80 ms (ranks 89-100; p90 at rank
# 92.7), and the two Linear/ReLU critical lines of ~1 s each.


def _fixed(act, rho, sw):
    return [
        {"kind": "fixed-point", "activation": act, "rho": rho, "sigma_w_sq": sw, "sigma_b_sq": sb}
        for sb in SIGMA_B_CHOICES
    ]


def _crit(act, rho, sigma_bs=SIGMA_B_CHOICES):
    return [
        {"kind": "critical-line", "activation": act, "rho": rho, "sigma_b_sq": sb}
        for sb in sigma_bs
    ]


def _stratum(name, count, points):
    return {"name": name, "count": count, "points": points}


QUERY_STRATA = [
    _stratum("fp-linear", 9, [p for rho in (1.0, 0.8, 0.6) for f in (0.3, 0.6)
                              for p in _fixed("linear", rho, round(f * rho, 6))]),
    _stratum("fp-relu", 9, [p for rho in (1.0, 0.8, 0.6) for f in (0.3, 0.6)
                            for p in _fixed("relu", rho, round(2 * f * rho, 6))]),
    _stratum("fp-erf", 9, [p for rho in (1.0, 0.8, 0.6) for sw in (0.7, 2.8)
                           for p in _fixed("erf", rho, sw)]),
    _stratum("crit-erf", 6, [p for rho in (1.0, 0.8, 0.6) for p in _crit("erf", rho)]),
    _stratum("crit-hardtanh", 5, [p for rho in (1.0, 0.8, 0.6) for p in _crit("hardtanh", rho)]),
    _stratum("fp-tanh", 36, [p for rho in (1.0, 0.9, 0.7) for sw in (0.5, 1.0, 3.0)
                             for p in _fixed("tanh", rho, sw)]),
    _stratum("fp-hardtanh", 14, [p for rho in (0.8, 0.6) for sw in (0.5, 2.5)
                                 for p in _fixed("hardtanh", rho, sw)]),
    # p90 falls here: sigma_b^2 near 0.15 keeps every Tanh critical line at ~80 ms
    _stratum("crit-tanh", 12, [p for rho in (1.0, 0.9, 0.8, 0.7, 0.6)
                               for p in _crit("tanh", rho, (0.13, 0.15, 0.17))]),
    _stratum("crit-linear", 1, [p for rho in (1.0, 0.8, 0.6) for p in _crit("linear", rho)]),
    _stratum("crit-relu", 1, [p for rho in (1.0, 0.8, 0.6) for p in _crit("relu", rho)]),
]


def query_pool() -> list[dict]:
    """Every point any seed can draw, in a fixed order."""
    return [p for s in QUERY_STRATA for p in s["points"]]


def query_key(q: dict) -> str:
    """Identifies a query point in reference.json."""
    if q["kind"] == "fixed-point":
        return f"fp/{q['activation']}/rho={q['rho']!r}/sw={q['sigma_w_sq']!r}/sb={q['sigma_b_sq']!r}"
    return f"crit/{q['activation']}/rho={q['rho']!r}/sb={q['sigma_b_sq']!r}"


def query_configs(seed: int) -> list[dict]:
    """The seeded query sequence of one pass: a per-stratum sample, shuffled."""
    rng = random.Random(seed)
    picked = []
    for s in QUERY_STRATA:
        picked.extend(rng.sample(s["points"], s["count"]))
    rng.shuffle(picked)
    return picked
