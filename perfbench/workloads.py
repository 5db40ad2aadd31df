"""Seeded workload generation for the nfde-lab benchmark.

Each workload is a fixed list of CLI tasks over configs built from a seed.
The seed moves initial data, the starting phase theta0 and coefficient
values only. It never changes m, lags, h, step counts, truncation depths or
sampling grids, so every seed does the same amount of work: the integrated
operators keep their contraction factor, so truncation and inversion depths
do not move. Values are drawn from ranges on which every task succeeds:
pairs start ordered and the checked conditions hold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GOLDEN = 0.6180339887498949
SILVER = 0.41421356237309515

# Seed-independent acceptance bounds used by the correctness gate. The mass
# residual bounds are about four times the largest seen over 32 seeds at the
# commit that defined the benchmark (4.8e-5 for s1 at h=0.01, 7.2e-4 for c3
# at h=0.02), leaving room for a method change of the same order.
S1_MASS_RESIDUAL_MAX = 2e-4
C3_MASS_RESIDUAL_MAX = 3e-3
ROUNDTRIP_RESIDUAL_MAX = 1e-7
MIN_RETURNS = 3


@dataclass(frozen=True)
class Task:
    """One CLI invocation: `nfde-lab <task> --config <cfg>`, expected exit 0."""

    task: str
    config: dict
    steps: int = 0  # RK4 step calls the task makes, from its config
    limit: float = 0.0  # bound on the task's error figure, where it has one


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # rng -> list of Task


def _steps(sim: dict) -> int:
    return int(round(sim["t_end"] / sim["h"]))


def _poly(constant: float, k, amp: float, phase: float) -> dict:
    """constant + amp * sin(2 pi (k . theta) + phase) as a config polynomial."""
    return {
        "constant": constant,
        "terms": [{"k": list(k), "cos": amp * math.sin(phase), "sin": amp * math.cos(phase)}],
    }


def _s1_system(rng: random.Random) -> dict:
    # c = 0.3 + 0.2 sin(2 pi theta + phi): the phase moves, sup c stays 0.5,
    # so the contraction factor and the product-series depth stay fixed.
    return {
        "kind": "neutral_diag",
        "m": 1,
        "c": [_poly(0.3, [1], 0.2, rng.uniform(0.0, 2.0 * math.pi))],
        "alpha": [1.0],
        "rho": [[1.0]],
        "gains": [[rng.uniform(0.8, 1.2)]],
    }


def _s1_history(rng: random.Random) -> dict:
    return {
        "kind": "sinusoid",
        "base": [rng.uniform(1.5, 2.5)],
        "amp": [rng.uniform(0.0, 0.3)],
        "period": [rng.uniform(0.5, 2.0)],
        "phase": [rng.uniform(0.0, 2.0 * math.pi)],
    }


def build_s1_diag(rng: random.Random) -> list:
    system = _s1_system(rng)
    theta0 = [rng.random()]
    z_init = _s1_history(rng)
    audit_sim = {"h": 0.01, "t_end": 20.0, "log_stride": 10}
    pair_sim = {"h": 0.01, "t_end": 10.0, "log_stride": 10}
    base = {"schema": 1, "flow": {"freqs": [GOLDEN]}, "system": system, "theta0": theta0, "z_init": z_init}
    audit = dict(base, sim=audit_sim)
    pair = dict(
        base,
        sim=pair_sim,
        cone={"a_diag": [-2.0], "horizon": 1.0},
        z_init_y={"kind": "ordered_offset", "lam": rng.uniform(0.1, 0.3)},
    )
    return [
        Task("mass-audit", audit, _steps(audit_sim), S1_MASS_RESIDUAL_MAX),
        Task("pair", pair, 2 * _steps(pair_sim)),
    ]


def build_s1_denselog(rng: random.Random) -> list:
    sim = {"h": 0.01, "t_end": 16.0, "log_stride": 1}
    cfg = {
        "schema": 1,
        "flow": {"freqs": [GOLDEN]},
        "system": _s1_system(rng),
        "theta0": [rng.random()],
        "z_init": _s1_history(rng),
        "sim": sim,
        "covering": {"return_tols": [0.1, 0.03, 0.01], "window": 8.0, "t_min": 2.0},
    }
    return [Task("covering", cfg, _steps(sim))]


def build_c3_general(rng: random.Random) -> list:
    # The operator (B and both atoms) is fixed, so the contraction factor and
    # the inversion depth do not depend on the seed; the seed moves the
    # network's rates, the initial data and the starting phase.
    def u(lo, hi):
        return rng.uniform(lo, hi)

    B = [
        [{"constant": 1.0, "terms": [{"k": [1, 0], "cos": 0.15}]}, 0.05, 0.0],
        [0.0, {"constant": 1.0, "terms": [{"k": [0, 1], "sin": 0.1}]}, 0.05],
        [0.05, 0.0, 1.0],
    ]
    atoms = [
        {"lag": 0.5, "weight": [
            [{"constant": 0.2, "terms": [{"k": [1, 0], "sin": 0.05}]}, 0.0, 0.0],
            [0.0, 0.15, 0.0],
            [0.0, 0.0, 0.1],
        ]},
        {"lag": 1.0, "weight": [
            [0.1, 0.0, 0.0],
            [0.0, {"constant": 0.1, "terms": [{"k": [0, 1], "cos": 0.05}]}, 0.0],
            [0.0, 0.0, 0.2],
        ]},
    ]
    instant = [[0.0, 1.0]]
    system = {
        "kind": "compartmental",
        "m": 3,
        "B": B,
        "atoms": atoms,
        # transports[i][j]: flow from j into i; a 0 -> 1 -> 2 -> 0 ring
        "transports": [
            [0.0, 0.0, _poly(u(0.5, 0.7), [0, 1], 0.2, u(0.0, 2.0 * math.pi))],
            [u(0.4, 0.6), 0.0, 0.0],
            [0.0, {"gain": u(0.7, 0.9), "shape": "saturate"}, 0.0],
        ],
        "pipes": [
            [instant, instant, instant],
            [[[0.6, 1.0]], instant, instant],
            [instant, [[0.4, 0.5], [1.2, 0.5]], instant],
        ],
        "outflows": [0.0, 0.0, u(0.2, 0.4)],
        "inflows": [_poly(u(0.3, 0.5), [1, 0], 0.1, u(0.0, 2.0 * math.pi)), 0.0, 0.0],
    }
    sim = {"h": 0.02, "t_end": 0.6, "log_stride": 5, "n_trunc": 21}
    base = {
        "schema": 1,
        "flow": {"freqs": [GOLDEN, SILVER]},
        "system": system,
        "theta0": [rng.random(), rng.random()],
    }
    # Initial data sized so the sup of every inverted segment stays inside
    # one Neumann-depth bracket (21 terms), whatever the seed.
    audit = dict(
        base,
        sim=sim,
        z_init={"kind": "constant", "value": [u(0.55, 0.8), u(0.85, 1.15), u(1.2, 1.45)]},
    )
    invert = dict(
        base,
        yhat={
            "kind": "sinusoid",
            "base": [u(0.7, 0.9) for _ in range(3)],
            "amp": [u(0.1, 0.2) for _ in range(3)],
            "period": [1.0, 2.0, 3.0],
            "phase": [u(0.0, 2.0 * math.pi) for _ in range(3)],
            "step": 0.05,
            "horizon": 10.0,
        },
    )
    return [
        Task("mass-audit", audit, _steps(sim), C3_MASS_RESIDUAL_MAX),
        Task("invert", invert, 0, ROUNDTRIP_RESIDUAL_MAX),
    ]


def build_d3_check(rng: random.Random) -> list:
    # Strong self-loops against weak cross transport keep G4, G5 and G9
    # satisfiable; sum_i c_i < 0.8 keeps the g6 requirement.
    def u(lo, hi):
        return rng.uniform(lo, hi)

    ks = ([1, 0], [0, 1], [1, 1])
    c = [_poly(u(0.15, 0.2), ks[i], 0.05, u(0.0, 2.0 * math.pi)) for i in range(3)]
    gains = [
        [u(0.9, 1.1) if i == j else u(0.05, 0.15) for j in range(3)] for i in range(3)
    ]
    cfg = {
        "schema": 1,
        "flow": {"freqs": [GOLDEN, SILVER]},
        "system": {
            "kind": "neutral_diag",
            "m": 3,
            "c": c,
            "alpha": [1.0, 0.8, 1.2],
            "rho": [[1.0, 0.5, 0.5], [0.5, 0.8, 0.5], [0.5, 0.5, 1.2]],
            "gains": gains,
            "g6": True,
        },
        "sampling": {"grid_per_dim": 20, "orbit_points": 256},
        "check": {"conditions": ["G4", "G5", "G9"], "a": "auto"},
    }
    return [Task("check", cfg)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "s1-diag",
            "scalar s1 through the diagonal product-series path (mass-audit + pair); "
            "deleting that path must not slow it",
            build_s1_diag,
        ),
        Workload(
            "c3-general",
            "3-compartment system on the general path: every RK4 stage inverts the lift, "
            "so invert_Dhat dominates",
            build_c3_general,
        ),
        Workload(
            "s1-denselog",
            "s1 with log_stride=1 under covering: logging (mass window + total_mass) "
            "dominates instead of stepping",
            build_s1_denselog,
        ),
        Workload(
            "d3-check",
            "m=3 condition checks with a: auto, no integration: suggest_a on G4 dominates; "
            "the only workload on the checkers",
            build_d3_check,
        ),
    )
}


def generate(name: str, seed: int) -> list:
    """Tasks of one workload for one seed; the same seed gives the same configs."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name].build(rng)
