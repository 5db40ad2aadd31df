"""Pinned CLI numbers: a drift in the integrator's or the checkers' arithmetic fails here.

Each integration case runs one CLI task and compares every number in
`summary.txt` and the column sums of `result.csv` with values recorded
before the stage plan replaced the per-stage phase computations (which left
every output byte-identical); the `invert` and `covering` cases were
recorded later, before the condition checkers were reduced to one
evaluation per condition; the `invert` case was re-recorded when the
inverse changed from the truncated Neumann series to the method of steps,
which took its round-trip residual from 2.4e-12 to 4.4e-16; the
short-delay case before the stage plan read the delayed state a window
of stages at a time; the ring case, whose gains are read at a pipe lag's
phase, before the stage plan evaluated the balance law's coefficients.
The mass residuals of the two s1 `mass-audit` cases were re-recorded when a
linear law began to step by one affine map per step: the residual is
M(t) - M(0), about 3e-5 against M of about 3.4, so the rounding change of
a few ulps of M (no row of M or of the residual moved by more than 1e-14)
moves it by 1e-11 to 4e-10 relative.
The `check` case compares every suggested rate and margin in `summary.txt`
and every margin in `result.csv` with values recorded before the rate scan
evaluated all trial rates at once.
The tolerance is 1e-12 relative: a change of the method or of its
floating-point order moves these numbers far more.
"""

import csv
import json
import re

import pytest

from nfde_lab.cli import main

# The README example system s1.
S1 = {
    "schema": 1,
    "flow": {"freqs": [0.6180339887498949]},
    "system": {
        "kind": "neutral_diag",
        "m": 1,
        "c": [{"constant": 0.3, "terms": [{"k": [1], "sin": 0.2}]}],
        "alpha": [1.0],
        "rho": [[1.0]],
        "gains": [[1.0]],
    },
    "cone": {"a_diag": [-2.0], "horizon": 1.0},
    "sim": {"h": 0.01, "t_end": 100.0, "log_stride": 10},
    "z_init": {"kind": "constant", "value": [2.0]},
    "check": {"conditions": ["G5"], "a": [-2.0]},
}


def _poly(constant, k, cos=0.0, sin=0.0):
    return {"constant": constant, "terms": [{"k": k, "cos": cos, "sin": sin}]}


# A 3-compartment ring: phase-dependent B, two atoms, lagged and split
# pipes, a saturating transport, an outflow and a phase-dependent inflow.
INSTANT = [[0.0, 1.0]]
W_HALF = [[_poly(0.2, [1, 0], sin=0.05), 0.0, 0.0], [0.0, 0.15, 0.0], [0.0, 0.0, 0.1]]
W_ONE = [[0.1, 0.0, 0.0], [0.0, _poly(0.1, [0, 1], cos=0.05), 0.0], [0.0, 0.0, 0.2]]
C3 = {
    "schema": 1,
    "flow": {"freqs": [0.6180339887498949, 0.41421356237309515]},
    "theta0": [0.25, 0.7],
    "system": {
        "kind": "compartmental",
        "m": 3,
        "B": [
            [_poly(1.0, [1, 0], cos=0.15), 0.05, 0.0],
            [0.0, _poly(1.0, [0, 1], sin=0.1), 0.05],
            [0.05, 0.0, 1.0],
        ],
        "atoms": [{"lag": 0.5, "weight": W_HALF}, {"lag": 1.0, "weight": W_ONE}],
        "transports": [
            [0.0, 0.0, _poly(0.6, [0, 1], sin=0.2)],
            [0.5, 0.0, 0.0],
            [0.0, {"gain": 0.8, "shape": "saturate"}, 0.0],
        ],
        "pipes": [
            [INSTANT, INSTANT, INSTANT],
            [[[0.6, 1.0]], INSTANT, INSTANT],
            [INSTANT, [[0.4, 0.5], [1.2, 0.5]], INSTANT],
        ],
        "outflows": [0.0, 0.0, 0.3],
        "inflows": [_poly(0.4, [1, 0], sin=0.1), 0.0, 0.0],
    },
    "sim": {"h": 0.02, "t_end": 1.0, "log_stride": 5, "n_trunc": 21},
    "z_init": {"kind": "constant", "value": [0.7, 1.0, 1.3]},
}

# The operator of C3 alone (phase-dependent B, two atoms), inverted on a
# sinusoidal target.
C3_INVERT = {
    "schema": 1,
    "flow": C3["flow"],
    "theta0": [0.25, 0.7],
    "system": {
        "kind": "d_operator",
        "m": 3,
        "B": C3["system"]["B"],
        "atoms": C3["system"]["atoms"],
    },
    "yhat": {
        "kind": "sinusoid",
        "base": [0.8, 0.75, 0.9],
        "amp": [0.15, 0.1, 0.2],
        "period": [1.0, 2.0, 3.0],
        "phase": [0.3, 1.1, 2.0],
        "step": 0.05,
        "horizon": 10.0,
    },
}

# A ring 0 -> 1 -> 2 -> 0 on the 2-torus: every transport has its own
# phase-dependent gain and a sine_bend shape, and runs through a pipe of lag
# 0.4, so each gain is read at the phase 0.4 back; the inflow into 0 and B
# depend on the phase too.
DIAG_B = [[_poly(1.0, [1, 0], cos=0.1) if i == j else 0.0 for j in range(3)] for i in range(3)]
RING = {
    "schema": 1,
    "flow": C3["flow"],
    "theta0": [0.2, 0.6],
    "system": {
        "kind": "compartmental",
        "m": 3,
        "B": DIAG_B,
        "atoms": [{"lag": 0.5, "weight": [[0.2 if i == j else 0.0 for j in range(3)] for i in range(3)]}],
        "transports": [
            [
                {
                    "gain": _poly(0.5 + 0.1 * i, [0, 1], cos=0.1, sin=0.05 * i),
                    "shape": {"kind": "sine_bend", "eps": 0.3},
                }
                if j == (i - 1) % 3
                else 0.0
                for j in range(3)
            ]
            for i in range(3)
        ],
        "pipes": [[[[0.4, 1.0]] if j == (i - 1) % 3 else INSTANT for j in range(3)] for i in range(3)],
        "inflows": [_poly(0.3, [1, 0], cos=0.1), 0.0, 0.0],
    },
    "sim": {"h": 0.02, "t_end": 2.0, "log_stride": 5},
    "z_init": {"kind": "constant", "value": [1.0, 1.0, 1.0]},
}

# task, config, summary numbers in order, result.csv column sums, data rows
CASES = {
    # residual sum re-recorded when the history a run needs shrank from 30.0
    # to 2.02 time units (was -0.01304373418099214, 1.8e-10 relative): the
    # row of time zero moved from 2,900 to 102, so the stencil positions
    # t / h - lag / h + row, and with them the cubic weights, round differently.
    # max_abs_residual and the residual sum re-recorded when the linear law
    # began to step by affine maps (were 3.3880071374170484e-05, 2.6e-11
    # relative, and -0.013043734183391997, 3.7e-10 relative)
    "s1-mass-audit": (
        "mass-audit",
        S1,
        [3.388007137505866e-05],
        {"t": 50050.0, "M": 3403.386956265817, "residual": -0.013043734188176614},
        1001,
    ),
    "s1-pair": (
        "pair",
        {**S1, "z_init_y": {"kind": "ordered_offset", "lam": 0.2}},
        [0.001980132669323925, 0.14725764767116045, 0.21268376213256834],
        {
            "t": 50050.0,
            "zx1": 1983.3053444212194,
            "zy1": 2167.4456814580567,
            "zhatx1": 1418.9052488353814,
            "zhaty1": 1550.5774328631644,
            "dgap1": 131.67218402778002,
            "mass_x": 3403.386956265817,
            "mass_y": 3719.3006427533464,
            "cone_margin": 2.0602306362618013,
            "z_diff_sup": 212.1445170472485,
        },
        1001,
    ),
    # delays of two steps: each read window of the stage plan is one step
    # long. The residual sum re-recorded when the linear law began to step by
    # affine maps (was -0.00026245060785701213, 1.1e-11 relative)
    "s1-short-delay-mass-audit": (
        "mass-audit",
        {
            **S1,
            "system": {**S1["system"], "alpha": [0.02], "rho": [[0.02]]},
            "sim": {"h": 0.01, "t_end": 2.0, "log_stride": 10},
        },
        [1.5442329254433673e-05],
        {"t": 21.0, "M": 30.239737549392142, "residual": -0.0002624506078598987},
        21,
    ),
    "c3-mass-audit": (
        "mass-audit",
        C3,
        [0.0003424479481447737],
        {"t": 5.500000000000001, "M": 30.315193298578638, "residual": 0.001436459939895057},
        11,
    ),
    "ring-phase-gain-mass-audit": (
        "mass-audit",
        RING,
        [0.0007355467472707211],
        {"t": 21.0, "M": 74.00636538596028, "residual": -0.0065050614525226196},
        21,
    ),
    "c3-invert": (
        "invert",
        C3_INVERT,
        [0.3935281743472413, 2.0526833603875296, 4.4408920985006262e-16],
        {
            "s": -1215.5000000000002,
            "z1": 241.36355428761274,
            "z2": 205.5658611077667,
            "z3": 269.24302595097214,
        },
        221,
    ),
    "s1-covering": (
        "covering",
        S1,
        [
            0.1, 98.0, 0.29895944578133005, 0.10690215454597807,
            0.03, 29.0, 0.22616407567097863, 0.1230385630264923,
            0.01, 9.0, 0.19121029095116615, 0.1594699425256838,
        ],
        {
            "return_tol": 10.75999999999996,
            "T": 3462.2999999999993,
            "phase_dist": 5.437739411636308,
            "e": 26.9739822535695,
        },
        136,
    ),
}

NUMBER = re.compile(r"[-+]?\d[\d.]*(?:e[-+]?\d+)?")


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_cli_numbers(tmp_path, case):
    task, cfg, summary_ref, sums_ref, n_rows = CASES[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([task, "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    numbers = [float(x) for line in lines for x in NUMBER.findall(line.split("=", 1)[-1])]
    assert numbers == pytest.approx(summary_ref, rel=1e-12, abs=0.0)
    with open(out / "result.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == n_rows
    sums = {name: sum(float(r[c]) for r in rows[1:]) for c, name in enumerate(rows[0])}
    assert list(sums) == list(sums_ref)
    for name, ref in sums_ref.items():
        assert sums[name] == pytest.approx(ref, rel=1e-12, abs=0.0), name


# A 3-compartment neutral-diagonal system with rho_ii = alpha_i, checked
# under G4, G5 and G9 with scanned rates.
D3 = {
    "schema": 1,
    "flow": {"freqs": [0.6180339887498949, 0.41421356237309515]},
    "system": {
        "kind": "neutral_diag",
        "m": 3,
        "c": [
            _poly(0.18, [1, 0], sin=0.05),
            _poly(0.16, [0, 1], cos=0.05),
            _poly(0.17, [1, 1], sin=0.04),
        ],
        "alpha": [1.0, 0.8, 1.2],
        "rho": [[1.0, 0.5, 0.5], [0.5, 0.8, 0.5], [0.5, 0.5, 1.2]],
        "gains": [[1.0, 0.1, 0.05], [0.12, 0.95, 0.1], [0.08, 0.1, 1.05]],
        "g6": True,
    },
    "sampling": {"grid_per_dim": 12, "orbit_points": 64},
    "check": {"conditions": ["G4", "G5", "G9"], "a": "auto"},
}
D3_SUGGESTED = {"G4": [-1.25, -1.25, -1.25], "G5": [0.0, 0.0, 0.0], "G9": [-1.75, -2.0, -1.75]}
# (condition, component, sub, margin): the rows of result.csv, also in summary.txt
D3_MARGINS = [
    ("G4", 0, "G4", 7.1937114411163349e-38),
    ("G4", 1, "G4", 1.4748935851013438e-40),
    ("G4", 2, "G4", 5.9563117915361476e-39),
    ("G5", 0, "G5", 0.72399999999999998),
    ("G5", 1, "G5", 0.70849999999999991),
    ("G5", 2, "G5", 0.79800000000000004),
    ("G9", 0, "G9.1", 0.54999999999999982),
    ("G9", 0, "G9.2", 0.567613372450263),
    ("G9", 1, "G9.1", 0.84999999999999987),
    ("G9", 1, "G9.2", 0.63749758364274234),
    ("G9", 2, "G9.1", 0.54999999999999982),
    ("G9", 2, "G9.2", 0.55114118382005706),
]
SUGGESTED = re.compile(r"^(G\d): suggested a = \[(.*)\]$")
MARGIN = re.compile(r"^(G\d) comp (\d+) (G[\d.]+): margin (\S+)")


def test_pinned_check_numbers(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(D3))
    out = tmp_path / "out"
    assert main(["check", "--config", str(path), "--out", str(out)]) == 0
    suggested, margins = {}, []
    for line in (out / "summary.txt").read_text().splitlines():
        if m := SUGGESTED.match(line):
            suggested[m[1]] = [float(v.strip("' ")) for v in m[2].split(",")]
        elif m := MARGIN.match(line):
            margins.append((m[1], int(m[2]), m[3], float(m[4])))
    assert list(suggested) == list(D3_SUGGESTED)
    for cond, want in D3_SUGGESTED.items():
        assert suggested[cond] == pytest.approx(want, rel=1e-12, abs=0.0), cond
    with open(out / "result.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["condition", "component", "sub", "margin"]
    from_csv = [(r[0], int(r[1]), r[2], float(r[3])) for r in rows[1:]]
    for got in (margins, from_csv):
        assert [g[:3] for g in got] == [w[:3] for w in D3_MARGINS]
        for g, w in zip(got, D3_MARGINS):
            assert g[3] == pytest.approx(w[3], rel=1e-12, abs=0.0), w[:3]
