import csv
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

from nfde_lab.cli import main

S1_SYSTEM = {
    "kind": "neutral_diag",
    "m": 1,
    "c": [{"constant": 0.3, "terms": [{"k": [1], "sin": 0.2}]}],
    "alpha": [1.0],
    "rho": [[1.0]],
    "gains": [[1.0]],
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_result(tmp_path):
    with open(tmp_path / "result.csv", newline="") as fh:
        return list(csv.reader(fh))


def test_check_g5_passes(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "system": S1_SYSTEM,
        "check": {"conditions": ["G5"], "a": [-2.0]},
    }
    code = main(["check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "overall=PASS" in summary
    margin = [ln for ln in summary.splitlines() if "G5 comp 0" in ln][0]
    assert float(margin.split("margin ")[1].split(" ")[0]) >= 0.5


def test_check_failing_condition_exit_one(tmp_path):
    cfg = {
        "system": {**S1_SYSTEM, "gains": [[2.5]]},
        "check": {"conditions": ["G8"], "a": [-1.0]},
    }
    code = main(["check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1


def test_unstable_coefficient_exit_three(tmp_path):
    cfg = {
        "system": {**S1_SYSTEM, "c": [1.2]},
        "check": {"conditions": ["G5"], "a": [-2.0]},
    }
    code = main(["check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 3


def test_malformed_config_exit_two(tmp_path):
    bad = {k: v for k, v in S1_SYSTEM.items() if k != "alpha"}
    cfg = {"system": bad, "check": {"conditions": ["G5"], "a": [-2.0]}}
    code = main(["check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2


def test_unparsable_json_exit_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_simulate_equilibrium_constant_column(tmp_path):
    cfg = {
        "system": {**S1_SYSTEM, "c": [0.3]},
        "sim": {"h": 0.02, "t_end": 2.0, "log_stride": 10},
        "z_init": {"kind": "constant", "value": [2.0]},
    }
    code = main(
        ["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]
    )
    assert code == 0
    rows = read_result(tmp_path)
    assert rows[0] == ["t", "z1", "zhat1", "M"]
    zvals = [float(r[1]) for r in rows[1:]]
    assert max(abs(v - 2.0) for v in zvals) < 1e-7
    assert (tmp_path / "config.echo.json").exists()


def test_simulate_deterministic_bytes(tmp_path):
    cfg = {
        "system": S1_SYSTEM,
        "sim": {"h": 0.02, "t_end": 2.0, "log_stride": 5},
        "z_init": {"kind": "constant", "value": [2.0]},
    }
    path = write_cfg(tmp_path, cfg)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "result.csv").read_bytes() == (out2 / "result.csv").read_bytes()


def test_mass_audit_threshold(tmp_path):
    cfg = {
        "system": S1_SYSTEM,
        "sim": {"h": 0.02, "t_end": 5.0, "log_stride": 10},
        "z_init": {"kind": "constant", "value": [2.0]},
        "thresholds": {"mass_residual": 5e-4},
    }
    code = main(
        ["mass-audit", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]
    )
    assert code == 0
    rows = read_result(tmp_path)
    assert rows[0] == ["t", "M", "residual"]
    tight = {**cfg, "thresholds": {"mass_residual": 1e-12}}
    code = main(
        ["mass-audit", "--config", write_cfg(tmp_path, tight, "t.json"), "--out", str(tmp_path)]
    )
    assert code == 4


def test_pair_ordered_offset_and_unordered_exit(tmp_path):
    cfg = {
        "system": S1_SYSTEM,
        "cone": {"a_diag": [-2.0], "horizon": 1.0},
        "sim": {"h": 0.02, "t_end": 2.0, "log_stride": 10},
        "z_init": {"kind": "constant", "value": [2.0]},
        "z_init_y": {"kind": "ordered_offset", "lam": 0.2},
    }
    code = main(["pair", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    rows = read_result(tmp_path)
    margins = [float(r[-2]) for r in rows[1:]]
    assert min(margins) >= -1e-7

    bad = dict(cfg)
    bad["z_init_y"] = {
        "kind": "sinusoid",
        "base": [2.0],
        "amp": [0.5],
        "period": [0.3],
        "phase": [0.0],
    }
    code = main(
        ["pair", "--config", write_cfg(tmp_path, bad, "bad.json"), "--out", str(tmp_path)]
    )
    assert code == 3


def test_unordered_pair_witness_is_plain_numbers(tmp_path, capsys):
    # the witness prints as a time and a component, not as NumPy scalars; the
    # default z_init reaches 2.08 back, so its transform reaches 1.08 back
    cfg = {
        "system": {**S1_SYSTEM, "c": [0.3]},
        "cone": {"a_diag": [-2.0], "horizon": 1.0},
        "sim": {"h": 0.02, "t_end": 0.2},
        "z_init": {"kind": "constant", "value": [1.0]},
        "z_init_y": {"kind": "constant", "value": [0.5]},
    }
    assert main(["pair", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 3
    assert "worst margin -3.500e-01 at (-1.08, 0)" in capsys.readouterr().err


@pytest.mark.parametrize("horizon, code", [(9.0, 0), (30.0, 3)])
def test_pair_checks_all_of_the_given_history(tmp_path, capsys, horizon, code):
    # z_init_y - z_init = 0.5 cos(2 pi s / 40) is positive on (-10, 0], which
    # covers the 1.04 a run stores, and negative on (-30, -10): the initial
    # check reads as far back as the data go
    cfg = {
        "system": {**S1_SYSTEM, "c": [0.3]},
        "cone": {"a_diag": [-2.0], "horizon": 1.0},
        "sim": {"h": 0.02, "t_end": 0.2},
        "z_init": {"kind": "constant", "value": [1.0], "horizon": horizon},
        "z_init_y": {
            "kind": "sinusoid", "base": [1.0], "amp": [0.5], "period": [40.0],
            "phase": [0.5 * math.pi],
        },
    }
    assert main(["pair", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == code
    if code == 3:
        err = capsys.readouterr().err
        assert float(re.search(r"at \((\S+), 0\)", err).group(1)) < -10.0


def test_ordered_offset_on_a_coarser_z_init_grid(tmp_path):
    # a z_init sampled at 2h is put on the step grid before the offset is
    # added, so the pair matches the one from z_init sampled at h
    results = []
    for step in (0.01, 0.02):
        cfg = {
            "system": S1_SYSTEM,
            "cone": {"a_diag": [-2.0], "horizon": 1.0},
            "sim": {"h": 0.01, "t_end": 0.5, "log_stride": 10},
            "z_init": {
                "kind": "sinusoid", "base": [2.0], "amp": [0.2], "period": [5.0], "step": step,
            },
            "z_init_y": {"kind": "ordered_offset", "lam": 0.2},
        }
        out = tmp_path / str(step)
        assert main(["pair", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        with open(out / "result.csv", newline="") as fh:
            results.append([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    assert len(results[0]) == len(results[1])
    for fine, coarse in zip(*results):
        assert coarse == pytest.approx(fine, rel=0.0, abs=1e-8)


def test_invert_task_scalar_geometric(tmp_path):
    cfg = {
        "system": {
            "kind": "d_operator",
            "m": 1,
            "atoms": [{"lag": 1.0, "weight": [[0.5]]}],
        },
        "yhat": {"kind": "constant", "value": [1.0], "step": 0.05, "horizon": 40.0},
    }
    code = main(
        ["invert", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]
    )
    assert code == 0
    rows = read_result(tmp_path)
    assert rows[0][0] == "s"
    vals = [float(r[1]) for r in rows[1:]]
    assert max(abs(v - 2.0) for v in vals) <= 1e-7
    summary = (tmp_path / "summary.txt").read_text()
    assert "lambda=0.5" in summary


def test_invert_sizes_its_depth_from_the_reported_estimate(tmp_path):
    # a coarse sampling block misses the weight's peak, so its lambda is
    # smaller than the default plan's; the inverse must use the estimate
    # summary.txt reports, the one on the config's plan
    import numpy as np

    from nfde_lab import (
        GOLDEN_FREQ,
        AtomicMeasureFamily,
        DOperatorSpec,
        MeasureAtom,
        TorusFlow,
        TorusPoint,
        TrigPoly,
        constant_history,
        invert_Dhat,
    )
    from nfde_lab.base_flow import SamplingConfig
    from nfde_lab.d_operator import identity_poly_matrix

    weight = {"constant": 0.3, "terms": [{"k": [1], "sin": 0.25}]}
    cfg = {
        "system": {
            "kind": "d_operator",
            "m": 1,
            "atoms": [{"lag": 1.0, "weight": [[weight]]}],
        },
        "yhat": {"kind": "constant", "value": [1.0], "step": 0.05, "horizon": 3.0},
        "sampling": {"grid_per_dim": 2, "orbit_points": 0},
        "sim": {"inv_tol": 1e-10},
    }
    assert main(["invert", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    c = TrigPoly.from_terms(0.3, [([1], 0.0, 0.25)])
    atom = MeasureAtom(1.0, [[c]])

    def spec_on(flow):
        return DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily((atom,)), flow)

    coarse = spec_on(TorusFlow([GOLDEN_FREQ], SamplingConfig(grid_per_dim=2, orbit_points=0)))
    spec = spec_on(TorusFlow([GOLDEN_FREQ]))
    est = coarse.stability
    assert est.lam < spec.stability.lam
    yhat = constant_history([1.0], 0.05, 3.0)
    want = invert_Dhat(coarse, TorusPoint([0.0]), yhat, 1e-10).samples[:, 0]
    default = invert_Dhat(spec, TorusPoint([0.0]), yhat, 1e-10).samples[:, 0]
    got = np.array([float(r[1]) for r in read_result(tmp_path)[1:]])
    assert got.tobytes() == want.tobytes() != default.tobytes()
    summary = dict(ln.split("=", 1) for ln in (tmp_path / "summary.txt").read_text().split())
    assert float(summary["lambda"]) == est.lam


def test_covering_task(tmp_path):
    cfg = {
        "system": {**S1_SYSTEM, "c": [0.3]},
        "sim": {"h": 0.02, "t_end": 40.0, "log_stride": 5},
        "z_init": {"kind": "constant", "value": [2.0]},
        "covering": {"return_tols": [0.1, 0.05], "window": 5.0, "t_min": 0.0},
    }
    code = main(
        ["covering", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]
    )
    assert code == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "diagnostic_only=yes" in summary
    assert "e_max_trend_monotone_decreasing=yes" in summary


def test_compartmental_kind_open_system(tmp_path):
    cfg = {
        "system": {
            "kind": "compartmental",
            "m": 1,
            "transports": [[0.0]],
            "inflows": [1.0],
            "pipes": [[[[0.0, 1.0]]]],
        },
        "sim": {"h": 0.05, "t_end": 2.0, "log_stride": 4},
        "z_init": {"kind": "constant", "value": [0.5]},
    }
    code = main(
        ["mass-audit", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]
    )
    assert code == 0
    rows = read_result(tmp_path)
    # inflow 1 with no outflow: mass grows linearly, residual ~ 0
    t_last, m_last, r_last = (float(v) for v in rows[-1])
    m_first = float(rows[1][1])
    assert m_last - m_first == pytest.approx(t_last, abs=1e-9)
    assert abs(r_last) <= 1e-9


def test_covering_no_returns_exit_three(tmp_path):
    cfg = {
        "system": {**S1_SYSTEM, "c": [0.3]},
        "sim": {"h": 0.02, "t_end": 4.0, "log_stride": 5},
        "z_init": {"kind": "constant", "value": [2.0]},
        "covering": {"return_tols": [1e-6], "window": 1.0},
    }
    code = main(
        ["covering", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]
    )
    assert code == 3


def _simulate_code(tmp_path, system, sim):
    cfg = {"system": system, "sim": sim, "z_init": {"kind": "constant", "value": [1.0]}}
    return main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])


OPEN_SCALAR = {"kind": "compartmental", "m": 1, "transports": [[0.0]], "inflows": [1.0]}


@pytest.mark.parametrize(
    "system",
    [
        {**OPEN_SCALAR, "pipes": [[[]]]},  # empty pipe cell
        {**OPEN_SCALAR, "atoms": [{"lag": -1.0, "weight": [[0.5]]}]},  # negative atom lag
    ],
)
def test_invalid_system_cell_exit_two(tmp_path, system):
    assert _simulate_code(tmp_path, system, {"h": 0.05, "t_end": 1.0}) == 2


NEGATIVE_GAINS = {
    "constant": -1.0,
    "trig": {"constant": 0.1, "terms": [{"k": [1], "sin": 0.5}]},  # dips to -0.4
}


@pytest.mark.parametrize("gain", sorted(NEGATIVE_GAINS))
@pytest.mark.parametrize("task", ["check", "simulate"])
def test_negative_transport_gain_exit_three(tmp_path, capsys, task, gain):
    cfg = {
        "system": {**S1_SYSTEM, "gains": [[NEGATIVE_GAINS[gain]]]},
        "sim": {"h": 0.01, "t_end": 0.1},
        "z_init": {"kind": "constant", "value": [1.0]},
        "check": {"conditions": ["G5"], "a": [-2.0]},
    }
    assert main([task, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 3
    assert "negative transport gain for pair (0,0)" in capsys.readouterr().err


@pytest.mark.parametrize("gain", sorted(NEGATIVE_GAINS))
def test_negative_outflow_gain_exit_three(tmp_path, capsys, gain):
    system = {**OPEN_SCALAR, "outflows": [NEGATIVE_GAINS[gain]]}
    assert _simulate_code(tmp_path, system, {"h": 0.05, "t_end": 1.0}) == 3
    assert "negative outflow gain of compartment 0" in capsys.readouterr().err


def test_t_end_off_step_grid_exit_two(tmp_path):
    assert _simulate_code(tmp_path, S1_SYSTEM, {"h": 0.03, "t_end": 1.0}) == 2


def test_delay_below_step_exit_three(tmp_path):
    system = {**S1_SYSTEM, "alpha": [0.005]}
    assert _simulate_code(tmp_path, system, {"h": 0.01, "t_end": 0.1}) == 3


def test_singular_B_at_a_stage_phase_exit_three(tmp_path, capsys):
    # B = 1 + cos(2 pi theta) vanishes at theta = 0.5 only: the sampling plan
    # 0, 1/3, 2/3 misses it, and the run's first stage sits there. The stage
    # plan inverts B by the checked batched inverse, which names the phase
    # as plain numbers, not as the repr of a TorusPoint and its array
    system = {
        "kind": "compartmental",
        "m": 1,
        "B": [[{"constant": 1.0, "terms": [{"k": [1], "cos": 1.0}]}]],
        "transports": [[0.0]],
        "outflows": [0.5],
        "inflows": [0.2],
    }
    cfg = {
        "system": system,
        "sampling": {"grid_per_dim": 3, "orbit_points": 0},
        "theta0": [0.5],
        "sim": {"h": 0.01, "t_end": 0.1},
        "z_init": {"kind": "constant", "value": [1.0]},
    }
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "instantaneous coefficient matrix singular at theta=[0.5] (det=" in err
    assert "array(" not in err and "TorusPoint" not in err


@pytest.mark.parametrize("where", [0, 2])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_component_exits_five(tmp_path, capsys, where, value):
    # an inflow of 1e308 into one of three compartments overflows its new
    # zhat to inf; an outflow of the same size makes the stage rates inf and
    # -inf, whose sum is NaN. The guard must see it in the first or the last
    # component, and report it as it always has.
    outflows, inflows, z = [0.0] * 3, [0.0] * 3, [1.0] * 3
    inflows[where] = 1e308
    if value == "nan":
        outflows[where], z[where] = 1e308, 2.0
    system = {"kind": "compartmental", "m": 3, "transports": [[0.0] * 3] * 3}
    cfg = {
        "system": {**system, "outflows": outflows, "inflows": inflows},
        "sim": {"h": 0.02, "t_end": 0.2},
        "z_init": {"kind": "constant", "value": z},
    }
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert f"diverged: state norm {value} exceeded guard at t=0.02" in err


def test_config_echo_ignores_thread_variable(tmp_path, monkeypatch):
    cfg = {"system": S1_SYSTEM, "check": {"conditions": ["G5"], "a": [-2.0]}}
    path = write_cfg(tmp_path, cfg)
    monkeypatch.delenv("NFDE_THREADS", raising=False)
    assert main(["check", "--config", path, "--out", str(tmp_path / "unset")]) == 0
    monkeypatch.setenv("NFDE_THREADS", "4")
    assert main(["check", "--config", path, "--out", str(tmp_path / "four")]) == 0
    echo = "config.echo.json"
    assert (tmp_path / "unset" / echo).read_bytes() == (tmp_path / "four" / echo).read_bytes()


def _run(tmp_path, task, cfg):
    return main([task, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("trial", [[0.5, -1.0], [], "x", [-1.0, float("nan")]])
def test_check_invalid_trial_rates_exit_two(tmp_path, trial):
    check = {"conditions": ["G5"], "a": "auto", "trial_a": trial}
    assert _run(tmp_path, "check", {"system": S1_SYSTEM, "check": check}) == 2


@pytest.mark.parametrize("a", [[0.5], [float("nan")], "fast"])
def test_check_invalid_rates_exit_two(tmp_path, a):
    check = {"conditions": ["G5"], "a": a}
    assert _run(tmp_path, "check", {"system": S1_SYSTEM, "check": check}) == 2


@pytest.mark.parametrize("conds", ["G5", []])
def test_check_conditions_must_be_a_nonempty_list(tmp_path, capsys, conds):
    check = {"conditions": conds, "a": [-2.0]}
    assert _run(tmp_path, "check", {"system": S1_SYSTEM, "check": check}) == 2
    assert "check.conditions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sampling",
    [
        {"grid_per_dim": "many"},
        {"grid_per_dim": 0, "orbit_points": 0},
        {"grid_per_dim": 2.5},
        {"orbit_points": -1},
        {"orbit_step": float("inf")},
    ],
)
def test_check_invalid_sampling_exit_two(tmp_path, sampling):
    cfg = {"system": S1_SYSTEM, "sampling": sampling, "check": {"a": [-2.0]}}
    assert _run(tmp_path, "check", cfg) == 2


def test_config_echo_sampling_defaults(tmp_path):
    cfg = {"system": S1_SYSTEM, "check": {"conditions": ["G5"], "a": [-2.0]}}
    assert _run(tmp_path, "check", cfg) == 0
    echo = json.loads((tmp_path / "out" / "config.echo.json").read_text())
    assert echo["sampling"] == {"grid_per_dim": 64, "orbit_points": 512, "orbit_step": 0.37}
    assert [type(v) for v in echo["sampling"].values()] == [int, int, float]


@pytest.mark.parametrize(
    "content",
    [None, "s,z1\n0,2.0\n", "s,z1\n0,2.0\n-0.02,oops\n-0.04,2.0\n", "\ns,z1\n0,2\n-0.02,2\n"],
)
def test_csv_history_errors_exit_two(tmp_path, content):
    path = tmp_path / "hist.csv"
    if content is not None:  # None: the file does not exist
        path.write_text(content)
    history = {"kind": "csv", "path": str(path)}
    sim = {"system": S1_SYSTEM, "sim": {"h": 0.02, "t_end": 0.2}, "z_init": history}
    assert _run(tmp_path, "simulate", sim) == 2
    inv = {
        "system": {"kind": "d_operator", "m": 1, "atoms": [{"lag": 1.0, "weight": [[0.5]]}]},
        "yhat": history,
    }
    assert _run(tmp_path, "invert", inv) == 2


def test_csv_history_nan_offset_exits_two(tmp_path, capsys):
    # NaN fails every comparison of the uniform-grid check, so an offset
    # column 0, nan reached the run as a grid of step NaN
    path = tmp_path / "hist.csv"
    path.write_text("s,z1\n0,1.0\nnan,1.0\n")
    cfg = {**SIM_CFG, "z_init": {"kind": "csv", "path": str(path)}}
    assert _run(tmp_path, "simulate", cfg) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "z_init" in err and "finite" in err


@pytest.mark.parametrize("value", [2.5, "3", True])
@pytest.mark.parametrize("key", ["sim.log_stride", "sim.n_trunc", "system.m"])
def test_counts_must_be_whole_numbers(tmp_path, capsys, key, value):
    block, name = key.split(".")
    cfg = {
        "system": dict(S1_SYSTEM),
        "sim": {"h": 0.02, "t_end": 0.2},
        "z_init": {"kind": "constant", "value": [1.0]},
    }
    cfg[block][name] = value
    assert _run(tmp_path, "simulate", cfg) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("block", ["sim", "sampling"])
def test_config_blocks_must_be_objects(tmp_path, capsys, block):
    cfg = {"system": S1_SYSTEM, block: [1], "check": {"a": [-2.0]}}
    assert _run(tmp_path, "check", cfg) == 2
    assert f"{block}: expected an object" in capsys.readouterr().err


SIM_CFG = {
    "system": S1_SYSTEM,
    "sim": {"h": 0.02, "t_end": 0.2},
    "z_init": {"kind": "constant", "value": [1.0]},
}
PAIR_CFG = {
    **SIM_CFG,
    "cone": {"a_diag": [-2.0], "horizon": 1.0},
    "z_init_y": {"kind": "ordered_offset", "lam": 0.2},
}


@pytest.mark.parametrize(
    "task, cfg",
    [
        ("invert", {"system": S1_SYSTEM, "yhat": {"kind": "constant", "value": [1.0]}}),
        ("pair", PAIR_CFG),
    ],
)
def test_task_estimates_stability_once_on_the_configs_plan(tmp_path, monkeypatch, task, cfg):
    # the system's build-time contraction check and the inverse read one
    # estimate per operator, taken on the config's sampling plan
    import nfde_lab
    from nfde_lab import cli, d_operator
    from nfde_lab.base_flow import SamplingConfig

    specs = []
    real = d_operator.stability_margin

    def counted(spec, *args):
        specs.append(spec)
        return real(spec, *args)

    for mod in (nfde_lab, cli, d_operator):  # every module that holds the function
        if vars(mod).get("stability_margin") is real:
            monkeypatch.setattr(mod, "stability_margin", counted)
    cfg = {**cfg, "sampling": {"grid_per_dim": 8, "orbit_points": 8}}
    assert main([task, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    assert len(specs) == 1
    assert specs[0].flow.sampling == SamplingConfig(grid_per_dim=8, orbit_points=8)


@pytest.mark.parametrize(
    "task, cfg",
    [
        ("check", [1]),
        ("simulate", "text"),
        ("check", {"system": S1_SYSTEM, "check": [1]}),
        ("covering", {**SIM_CFG, "covering": [1]}),
        ("simulate", {**SIM_CFG, "thresholds": [1]}),
        ("mass-audit", {**SIM_CFG, "thresholds": [1]}),
        ("pair", {**PAIR_CFG, "thresholds": [1]}),
        ("simulate", {**SIM_CFG, "flow": [1]}),
        ("simulate", {**SIM_CFG, "z_init": 5}),
        ("simulate", {**SIM_CFG, "schema": [1]}),
        ("simulate", {**SIM_CFG, "schema": "one"}),
    ],
    ids=[
        "top-level-list",
        "top-level-string",
        "check",
        "covering",
        "thresholds-simulate",
        "thresholds-mass-audit",
        "thresholds-pair",
        "flow",
        "z_init",
        "schema-list",
        "schema-text",
    ],
)
def test_non_object_json_exit_two(tmp_path, capsys, task, cfg):
    assert _run(tmp_path, task, cfg) == 2
    assert "config error" in capsys.readouterr().err


def _with(cfg, path, value):
    """A deep copy of cfg with the dotted key path set to value."""
    cfg = json.loads(json.dumps(cfg))
    *blocks, key = path.split(".")
    node = cfg
    for name in blocks:
        node = node.setdefault(name, {})
    node[key] = value
    return cfg


CONE_CFG = {**SIM_CFG, "cone": {"a_diag": [-2.0]}}
# case id -> (task, config, the key the error must name)
NOT_A_NUMBER = {
    "theta0": ("simulate", _with(SIM_CFG, "theta0", "x"), "theta0"),
    "cone.a_diag": ("simulate", _with(CONE_CFG, "cone.a_diag", "x"), "cone.a_diag"),
    "cone.horizon": ("simulate", _with(CONE_CFG, "cone.horizon", "x"), "cone.horizon"),
    "z_init.value": ("simulate", _with(SIM_CFG, "z_init.value", "x"), "z_init.value"),
    "poly-constant": (
        "simulate",
        _with(SIM_CFG, "system.c", [{"constant": "x"}]),
        "system.c.constant",
    ),
    "poly-k-text": (
        "simulate",
        _with(SIM_CFG, "system.c", [{"terms": [{"k": ["x"]}]}]),
        "system.c.terms.k",
    ),
    # a fractional mode used to be truncated silently
    "poly-k-fraction": (
        "simulate",
        _with(SIM_CFG, "system.c", [{"terms": [{"k": [1.5]}]}]),
        "system.c.terms.k",
    ),
    "poly-k-ragged": (
        "simulate",
        _with(SIM_CFG, "system.c", [{"terms": [{"k": [1]}, {"k": [1, 0]}]}]),
        "system.c.terms.k",
    ),
    "thresholds": (
        "simulate",
        _with(SIM_CFG, "thresholds.mass_residual", "x"),
        "thresholds.mass_residual",
    ),
    "z_init_y.lam": ("pair", _with(PAIR_CFG, "z_init_y.lam", "x"), "z_init_y.lam"),
    "covering.return_tols": (
        "covering",
        _with(SIM_CFG, "covering.return_tols", [0.1, "x"]),
        "covering.return_tols",
    ),
    "covering.window": ("covering", _with(SIM_CFG, "covering.window", "x"), "covering.window"),
    "covering.t_min": ("covering", _with(SIM_CFG, "covering.t_min", "x"), "covering.t_min"),
}


@pytest.mark.parametrize("case", sorted(NOT_A_NUMBER))
def test_value_not_a_number_exit_two(tmp_path, capsys, case):
    task, cfg, key = NOT_A_NUMBER[case]
    assert _run(tmp_path, task, cfg) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize(
    "cone", [{"a_diag": [-1.0, -2.0]}, {"A": [[[-1.0]]]}, {"A": [[-1.0, 0.0]]}]
)
def test_cone_must_be_m_by_m(tmp_path, capsys, cone):
    assert _run(tmp_path, "pair", {**PAIR_CFG, "cone": cone}) == 2
    assert "cone: expected an 1x1 matrix" in capsys.readouterr().err


def _echo_of(tmp_path, task, cfg):
    _run(tmp_path, task, cfg)  # the echo is written before the task runs
    return json.loads((tmp_path / "out" / "config.echo.json").read_text())


def test_config_echo_task_defaults(tmp_path):
    check = _echo_of(tmp_path, "check", {"system": S1_SYSTEM, "check": {"a": [-2.0]}})
    assert check["check"] == {"conditions": ["G5"], "a": [-2.0]}
    echo = _echo_of(tmp_path, "covering", SIM_CFG)
    assert echo["covering"] == {"return_tols": [0.1, 0.03, 0.01], "window": 50.0, "t_min": 0.0}
    pair = _echo_of(tmp_path, "pair", _with(PAIR_CFG, "z_init_y", {"kind": "ordered_offset"}))
    assert pair["z_init_y"] == {"kind": "ordered_offset", "lam": 0.1}
    inv = {
        "system": {"kind": "d_operator", "m": 1, "atoms": [{"lag": 1.0, "weight": [[0.5]]}]},
        "yhat": {"kind": "constant", "value": [1.0], "horizon": 3.0},
    }
    assert _echo_of(tmp_path, "invert", inv)["yhat"] == {**inv["yhat"], "step": 0.05}
    csv_yhat = {**inv, "yhat": {"kind": "csv", "path": "hist.csv"}}
    assert _echo_of(tmp_path, "invert", csv_yhat)["yhat"] == csv_yhat["yhat"]


TWO_POOLS = {
    "kind": "compartmental",
    "m": 2,
    "transports": [[0.0, 0.5], [0.25, 0.0]],
    "inflows": [1.0, 0.0],
}
SHORT_SIM = {"h": 0.02, "t_end": 0.4, "log_stride": 5}
Z1 = {"kind": "constant", "value": [2.0]}
FORMAT_CASES = {
    "simulate": (
        {"system": TWO_POOLS, "sim": SHORT_SIM, "z_init": {"kind": "constant", "value": [1.0, 2.0]}},
        ["t", "z1", "z2", "zhat1", "zhat2", "M"],
    ),
    "pair": (
        {
            "system": S1_SYSTEM,
            "cone": {"a_diag": [-2.0], "horizon": 1.0},
            "sim": SHORT_SIM,
            "z_init": Z1,
            "z_init_y": {"kind": "ordered_offset", "lam": 0.2},
        },
        ["t", "zx1", "zy1", "zhatx1", "zhaty1", "dgap1"]
        + ["mass_x", "mass_y", "cone_margin", "z_diff_sup"],
    ),
    "invert": (
        {
            "system": {"kind": "d_operator", "m": 1, "atoms": [{"lag": 1.0, "weight": [[0.5]]}]},
            "yhat": {"kind": "sinusoid", "base": [1.0], "amp": [0.3], "step": 0.1, "horizon": 3.0},
        },
        ["s", "z1"],
    ),
    "mass-audit": (
        {"system": S1_SYSTEM, "sim": SHORT_SIM, "z_init": Z1},
        ["t", "M", "residual"],
    ),
    "covering": (
        {
            "system": {**S1_SYSTEM, "c": [0.3]},
            "sim": {"h": 0.02, "t_end": 40.0, "log_stride": 5},
            "z_init": Z1,
            "covering": {"return_tols": [0.1], "window": 5.0},
        },
        ["return_tol", "T", "phase_dist", "e"],
    ),
    "check": (
        {"system": S1_SYSTEM, "check": {"conditions": ["G5", "G8"], "a": [-2.0]}},
        ["condition", "component", "sub", "margin", "witness_theta", "verdict"],
    ),
}


@pytest.mark.parametrize("task", sorted(FORMAT_CASES))
def test_result_csv_header_and_number_format(tmp_path, task):
    cfg, header = FORMAT_CASES[task]
    assert _run(tmp_path, task, cfg) in (0, 1)
    rows = read_result(tmp_path / "out")
    assert rows[0] == header
    assert len(rows) > 1
    numbers = 0
    for row in rows[1:]:
        assert len(row) == len(header)
        for field in row:
            for part in field.split(";"):  # check's witness_theta joins coordinates
                try:
                    value = float(part)
                except ValueError:
                    continue
                assert part == format(value, ".17g")
                numbers += 1
    assert numbers >= len(rows) - 1


OPEN_CFG = {**SIM_CFG, "system": OPEN_SCALAR}
INVERT_CFG = {
    "system": {"kind": "d_operator", "m": 1, "atoms": [{"lag": 1.0, "weight": [[0.5]]}]},
    "yhat": {"kind": "constant", "value": [1.0], "horizon": 3.0},
}
NAN, INF = float("nan"), float("inf")
PAIR_GIVEN_CFG = {**CONE_CFG, "z_init_y": {"kind": "constant", "value": [3.0]}}
SINE_BEND = {"gain": 1.0, "shape": {"kind": "sine_bend", "eps": 1.5}}
# a csv z_init, read from the directory a case runs in (CSV_FILES)
CSV_CFG = _with(SIM_CFG, "z_init", {"kind": "csv", "path": "one.csv"})
# case id -> (task, config, the key the error must name). Each of these
# used to escape `main` with a traceback, or to run with a wrong meaning.
EXIT_TWO = {
    "cone-number": ("pair", _with(PAIR_CFG, "cone", 5), "cone"),
    # a cone block gives exactly one of its matrices: a_diag or A
    "cone-a_diag-and-A": ("pair", _with(PAIR_CFG, "cone.A", [[5.0]]), "cone.a_diag and cone.A"),
    "cone-neither": ("pair", _with(PAIR_CFG, "cone", {"horizon": 1}), "cone.a_diag and cone.A"),
    "system.c-number": ("simulate", _with(SIM_CFG, "system.c", 0.3), "system.c"),
    "poly-terms-number": (
        "simulate",
        _with(SIM_CFG, "system.c", [{"constant": 0.3, "terms": 5}]),
        "system.c.terms",
    ),
    "outflows-number": ("simulate", _with(OPEN_CFG, "system.outflows", 0.5), "system.outflows"),
    "inflows-number": ("simulate", _with(OPEN_CFG, "system.inflows", 0.5), "system.inflows"),
    "sine_bend-eps": ("simulate", _with(SIM_CFG, "system.gains", [[SINE_BEND]]), "eps"),
    "z_init.step-zero": ("simulate", _with(SIM_CFG, "z_init.step", 0), "z_init.step"),
    "z_init.step-negative": ("simulate", _with(SIM_CFG, "z_init.step", -0.1), "z_init.step"),
    "yhat.step-zero": ("invert", _with(INVERT_CFG, "yhat.step", 0), "yhat.step"),
    "z_init.horizon-negative": (
        "simulate",
        _with(SIM_CFG, "z_init.horizon", -1.0),
        "z_init.horizon",
    ),
    "z_init.horizon-inf": ("simulate", _with(SIM_CFG, "z_init.horizon", "inf"), "z_init.horizon"),
    "z_init-period-zero": (
        "simulate",
        _with(SIM_CFG, "z_init", {"kind": "sinusoid", "base": [1.0], "amp": [0.1], "period": [0]}),
        "z_init",
    ),
    "z_init-nan": ("simulate", _with(SIM_CFG, "z_init.value", ["nan"]), "z_init"),
    "z_init_y-nan": ("pair", _with(PAIR_GIVEN_CFG, "z_init_y.value", ["nan"]), "z_init_y"),
    "sim.t_end-inf": ("simulate", _with(SIM_CFG, "sim.t_end", "inf"), "t_end"),
    "sim.inv_tol-zero": ("simulate", _with(SIM_CFG, "sim.inv_tol", 0), "inv_tol"),
    "sim.inv_tol-invert": ("invert", _with(INVERT_CFG, "sim.inv_tol", -1e-8), "inv_tol"),
    "sim.n_trunc-negative": ("simulate", _with(SIM_CFG, "sim.n_trunc", -3), "n_trunc"),
    "system.g6-string": ("check", _with(SIM_CFG, "system.g6", "false"), "system.g6"),
    "cone.assume_hurwitz-string": (
        "pair",
        _with(PAIR_CFG, "cone.assume_hurwitz", "no"),
        "cone.assume_hurwitz",
    ),
    "sim.tol_cone-negative": ("pair", _with(PAIR_GIVEN_CFG, "sim.tol_cone", -1.0), "tol_cone"),
    "sim.divergence_limit-zero": (
        "simulate",
        _with(SIM_CFG, "sim.divergence_limit", 0),
        "divergence_limit",
    ),
    "sim-typo": ("simulate", _with(SIM_CFG, "sim", {"h": 0.02, "t_End": 0.2}), "t_End"),
    "sampling-typo": ("check", _with(SIM_CFG, "sampling.grid_per_dm", 3), "grid_per_dm"),
    "check-typo": ("check", _with(SIM_CFG, "check.conditons", ["G4"]), "conditons"),
    "check.trial_a-typo": ("check", _with(SIM_CFG, "check.trial_A", [-1.0]), "trial_A"),
    "covering-typo": ("covering", _with(SIM_CFG, "covering.windw", 3.0), "windw"),
    "flow-typo": ("simulate", _with(SIM_CFG, "flow.freq", [0.5]), "freq"),
    "cone-typo": ("pair", _with(PAIR_CFG, "cone.horizn", 1.0), "horizn"),
    "thresholds-typo": ("simulate", _with(SIM_CFG, "thresholds.mass_resid", 1.0), "mass_resid"),
    # NaN and Infinity, which json.load accepts
    "theta0-nan": ("simulate", _with(SIM_CFG, "theta0", [float("nan")]), "theta0"),
    "theta0-inf": ("mass-audit", _with(SIM_CFG, "theta0", [float("inf")]), "theta0"),
    "z_init_y.lam-inf": ("pair", _with(PAIR_CFG, "z_init_y.lam", float("inf")), "z_init_y.lam"),
    "thresholds.mass_residual-nan": (
        "simulate",
        _with(SIM_CFG, "thresholds.mass_residual", float("nan")),
        "thresholds.mass_residual",
    ),
    "check.trial_a-with-a": (
        "check",
        _with(_with(SIM_CFG, "check.a", [-2.0]), "check.trial_a", [-1.0]),
        "check.trial_a",
    ),
    # non-finite numbers in the system, cone and covering blocks
    "system.alpha-nan": ("check", _with(SIM_CFG, "system.alpha", [NAN]), "system.alpha"),
    "system.rho-nan": ("simulate", _with(SIM_CFG, "system.rho", [[NAN]]), "system.rho"),
    "system.gains-nan": ("simulate", _with(SIM_CFG, "system.gains", [[NAN]]), "system.gains"),
    "system.c-sin-inf": (
        "simulate",
        _with(SIM_CFG, "system.c", [{"constant": 0.3, "terms": [{"k": [1], "sin": INF}]}]),
        "system.c.terms.sin",
    ),
    "system.inflows-nan": ("simulate", _with(OPEN_CFG, "system.inflows", [NAN]), "system.inflows"),
    "atom-lag-nan": (
        "simulate",
        _with(OPEN_CFG, "system.atoms", [{"lag": NAN, "weight": [[0.5]]}]),
        "system.atoms[0].lag",
    ),
    "atom-weight-nan": (
        "invert",
        _with(INVERT_CFG, "system.atoms", [{"lag": 1.0, "weight": [[NAN]]}]),
        "system.atoms[0].weight[0][0]",
    ),
    "pipe-lag-inf": (
        "simulate",
        _with(OPEN_CFG, "system.pipes", [[[[INF, 1.0]]]]),
        "system.pipes[0][0]",
    ),
    "cone.a_diag-nan": ("pair", _with(PAIR_GIVEN_CFG, "cone.a_diag", [NAN]), "cone.a_diag"),
    "cone.A-inf": ("pair", _with(PAIR_GIVEN_CFG, "cone", {"A": [[-INF]]}), "cone.A"),
    "covering.return_tols-nan": (
        "covering",
        _with(SIM_CFG, "covering.return_tols", [NAN]),
        "covering.return_tols",
    ),
    "covering.window-inf": ("covering", _with(SIM_CFG, "covering.window", INF), "covering.window"),
    "covering.t_min-nan": ("covering", _with(SIM_CFG, "covering.t_min", NAN), "covering.t_min"),
    # the sampling block is parsed for every task, not only check and invert
    "sampling-simulate": ("simulate", _with(SIM_CFG, "sampling.grid_per_dim", 0), "grid_per_dim"),
    "sampling-mass-audit": (
        "mass-audit",
        _with(SIM_CFG, "sampling.orbit_points", -5),
        "orbit_points",
    ),
    "sampling-pair": ("pair", _with(PAIR_CFG, "sampling.orbit_step", "inf"), "orbit_step"),
    "sampling-covering": (
        "covering",
        _with(SIM_CFG, "sampling.grid_per_dim", 2.5),
        "sampling.grid_per_dim",
    ),
    # a schema no int holds, and a phase or cone diagonal that is not a flat list
    "schema-inf": ("simulate", _with(SIM_CFG, "schema", INF), "schema"),
    "theta0-nested": ("simulate", _with(SIM_CFG, "theta0", [[0.1]]), "theta0"),
    "cone.a_diag-scalar": ("pair", _with(PAIR_CFG, "cone.a_diag", -2.0), "cone.a_diag"),
    "cone.a_diag-nested": ("pair", _with(PAIR_CFG, "cone.a_diag", [[-2.0]]), "cone.a_diag"),
    # a phase with one number per torus dimension, on the 1-torus
    "theta0-long": ("simulate", _with(SIM_CFG, "theta0", [0.1, 0.2]), "theta0"),
    "theta0-empty": ("simulate", _with(SIM_CFG, "theta0", []), "theta0"),
    # every key is read whatever the task, so check rejects what simulate does
    "check-theta0-nested": ("check", _with(SIM_CFG, "theta0", [[0.1]]), "theta0"),
    "check-sim.h-negative": ("check", _with(SIM_CFG, "sim.h", -1), "sim.h"),
    # JSON true, false and strings are not numbers; they used to read as 1.0
    # or be converted
    "sim.h-true": ("simulate", _with(SIM_CFG, "sim.h", True), "sim.h"),
    "thresholds.mass_residual-true": (
        "mass-audit",
        _with(SIM_CFG, "thresholds.mass_residual", True),
        "thresholds.mass_residual",
    ),
    "z_init_y.lam-true": ("pair", _with(PAIR_CFG, "z_init_y.lam", True), "z_init_y.lam"),
    "sim.h-string": ("simulate", _with(SIM_CFG, "sim.h", "0.02"), "sim.h"),
    # a count no float holds used to escape as an OverflowError or IndexError
    "sim.n_trunc-huge": ("simulate", _with(SIM_CFG, "sim.n_trunc", 10**400), "sim.n_trunc"),
    "sim.log_stride-huge": ("simulate", _with(SIM_CFG, "sim.log_stride", 10**400), "log_stride"),
    "covering.window-string": (
        "covering",
        _with(SIM_CFG, "covering.window", "5"),
        "covering.window",
    ),
    # an unknown key of the top level, a system kind, a polynomial, a term, a
    # transport, a shape, an atom or a history kind; each used to be dropped,
    # so the config ran with a wrong meaning
    "config-typo": ("mass-audit", _with(SIM_CFG, "threshold", {"mass_residual": -1}), "threshold"),
    "system-neutral_diag-typo": ("simulate", _with(SIM_CFG, "system.g_6", True), "g_6"),
    "system-compartmental-typo": ("simulate", _with(OPEN_CFG, "system.inflow", [1.0]), "inflow"),
    "system-d_operator-typo": ("invert", _with(INVERT_CFG, "system.b", [[1.0]]), "system"),
    "poly-typo": ("simulate", _with(SIM_CFG, "system.c", [{"constnat": 0.3}]), "constnat"),
    "term-typo": (
        "simulate",
        _with(SIM_CFG, "system.c", [{"constant": 0.3, "terms": [{"k": [1], "sine": 0.2}]}]),
        "system.c.terms: unknown keys ['sine']",
    ),
    "transport-typo": (
        "simulate",
        _with(SIM_CFG, "system.gains", [[{"gain": 1.0, "shap": "saturate"}]]),
        "system.gains[0][0]: unknown keys ['shap']",
    ),
    "shape-typo": (
        "simulate",
        _with(SIM_CFG, "system.gains", [[{"shape": {"kind": "sine_bend", "eps": 0.5, "e": 1}}]]),
        "system.gains[0][0].shape: unknown keys ['e']",
    ),
    "atom-typo": (
        "invert",
        _with(INVERT_CFG, "system.atoms", [{"lag": 1.0, "weight": [[0.5]], "weigth": [[0.9]]}]),
        "system.atoms[0]: unknown keys ['weigth']",
    ),
    "sinusoid-typo": (
        "simulate",
        _with(SIM_CFG, "z_init", {"kind": "sinusoid", "base": [1.0], "amplitude": [0.5]}),
        "z_init: unknown keys ['amplitude']",
    ),
    "constant-lam": ("pair", _with(PAIR_GIVEN_CFG, "z_init_y.lam", 0.5), "z_init_y"),
    "ordered_offset-step": ("pair", _with(PAIR_CFG, "z_init_y.step", 0.01), "z_init_y"),
    "csv-step": ("simulate", _with(CSV_CFG, "z_init.step", 0.5), "z_init: unknown keys ['step']"),
    "yhat-csv-horizon": (
        "invert",
        _with(INVERT_CFG, "yhat", {"kind": "csv", "path": "one.csv", "horizon": 1.0}),
        "yhat: unknown keys ['horizon']",
    ),
    # a csv history's value columns, one per component (files in CSV_FILES)
    "csv-two-columns": ("simulate", _with(CSV_CFG, "z_init.path", "two.csv"), "z_init"),
    "csv-no-value-column": ("simulate", _with(CSV_CFG, "z_init.path", "none.csv"), "z_init"),
    "csv-path-list": ("simulate", _with(CSV_CFG, "z_init.path", []), "z_init.path"),
    # covering's return tolerances and window are positive
    "covering.return_tols-empty": (
        "covering",
        _with(SIM_CFG, "covering.return_tols", []),
        "covering.return_tols",
    ),
    "covering.return_tols-zero": (
        "covering",
        _with(SIM_CFG, "covering.return_tols", [0.1, 0.0]),
        "covering.return_tols",
    ),
    "covering.window-negative": (
        "covering",
        _with(SIM_CFG, "covering.window", -5),
        "covering.window",
    ),
}
# the csv histories EXIT_TWO reads, written to the directory each case runs in
CSV_FILES = {
    "one.csv": "s,z1\n0,1.0\n-0.5,1.0\n-1.0,1.0\n-1.5,1.0\n-2.0,1.0\n-2.5,1.0\n",
    "two.csv": "s,z1,z2\n0,1.0,2.0\n-0.02,1.0,2.0\n",
    "none.csv": "s\n0\n-0.02\n",
}


@pytest.mark.parametrize("case", sorted(EXIT_TWO))
def test_bad_input_exits_two_and_names_the_key(tmp_path, capsys, monkeypatch, case):
    task, cfg, key = EXIT_TWO[case]
    for name, text in CSV_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)  # where a case's csv path is read from
    assert _run(tmp_path, task, cfg) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_known_keys_are_accepted(tmp_path):
    # every key of the closed blocks, and of every system kind, polynomial,
    # term, transport, shape, atom and history kind, set to its default or a
    # valid value: a closed set that drops a valid key fails here
    from nfde_lab import cli

    poly = {"constant": 0.3, "terms": [{"k": [1], "cos": 0.0, "sin": 0.2}]}
    grid = {"step": 0.02, "horizon": 6.0}
    cfg = {
        **SIM_CFG,
        "flow": {"freqs": [0.6180339887498949]},
        "sim": {
            "h": 0.02, "t_end": 0.2, "inv_tol": 1e-8, "n_trunc": 3, "log_stride": 1,
            "tol_cone": 0.0, "divergence_limit": 1e9,
        },
        "sampling": {"grid_per_dim": 4, "orbit_points": 4, "orbit_step": 0.37},
        "check": {"conditions": ["G5"], "a": "auto", "trial_a": [-1.0]},
        "covering": {"return_tols": [0.1], "window": 0.1, "t_min": 0.0},
        "cone": {"A": [[-2.0]], "horizon": "inf", "assume_hurwitz": False},
        "thresholds": {"mass_residual": 1.0, "cone_margin": -1.0},
        "z_init": {"kind": "constant", "value": [1.0], **grid},
        "z_init_y": {"kind": "ordered_offset", "lam": 0.2},
    }
    cfg["system"] = {**S1_SYSTEM, "c": [poly], "g6": True}
    assert _run(tmp_path, "check", cfg) == 0
    assert _run(tmp_path, "pair", cfg) == 0
    assert _run(tmp_path, "simulate", cfg) == 0
    sine = {"kind": "sinusoid", "base": [1.0], "amp": [0.1], "period": [10.0], "phase": [0.0]}
    given = {
        **cfg,
        "z_init": {**sine, **grid},
        "z_init_y": {"kind": "constant", "value": [3.0], **grid},
    }
    assert _run(tmp_path, "pair", given) == 0
    csv_path = tmp_path / "z.csv"
    csv_path.write_text("s,z1\n" + "".join(f"{-0.1 * j:.1f},1.0\n" for j in range(31)))
    atom = {"lag": 0.5, "weight": [[{"constant": 0.2}]]}
    shaped = {"gain": 0.5, "shape": {"kind": "sine_bend", "eps": 0.5}}
    open_cfg = {
        **SIM_CFG,
        "system": {
            "kind": "compartmental", "m": 1, "B": [[1.0]], "atoms": [atom],
            "transports": [[shaped]], "outflows": [0.1], "inflows": [1.0],
            "pipes": [[[[1.0, 1.0]]]],
        },
        "z_init": {"kind": "csv", "path": str(csv_path)},
    }
    assert _run(tmp_path, "simulate", open_cfg) == 0
    inverse = {
        "system": {"kind": "d_operator", "m": 1, "B": [[1.0]], "atoms": [atom]},
        "yhat": {"kind": "constant", "value": [1.0], **grid},
    }
    assert _run(tmp_path, "invert", inverse) == 0
    systems = (cfg["system"], open_cfg["system"], inverse["system"])
    assert {s["kind"]: set(s) for s in systems} == {
        kind: set(keys) for kind, keys in cli._SYSTEM_KEYS.items()
    }
    histories = (given["z_init"], cfg["z_init_y"], given["z_init_y"], open_cfg["z_init"])
    assert {h["kind"]: set(h) for h in histories} == {
        kind: set(keys) for kind, keys in cli._OFFSET_KEYS.items()
    }


GOLDEN, SILVER = 0.6180339887498949, 0.41421356237309515
# case id -> (task, config, the key the error must name). Each asks for more
# than MAX_CELLS numbers in one array: a 1e11-step run, 1e9 or 1e12 sampled
# phases, a 1e11-row history.
OVERSIZED = {
    "sim.t_end": ("mass-audit", _with(SIM_CFG, "sim", {"h": 0.01, "t_end": 1e9}), "sim.t_end"),
    "sim.t_end-pair": ("pair", _with(PAIR_CFG, "sim", {"h": 0.01, "t_end": 1e9}), "sim.t_end"),
    "sampling-check": (
        "check",
        _with(SIM_CFG, "sampling.grid_per_dim", 10**9),
        "sampling.grid_per_dim",
    ),
    "sampling-2-torus": (
        "simulate",
        _with(_with(OPEN_CFG, "flow.freqs", [GOLDEN, SILVER]), "sampling.grid_per_dim", 10**6),
        "sampling.grid_per_dim",
    ),
    "sampling.orbit_points": (
        "invert",
        _with(INVERT_CFG, "sampling.orbit_points", 10**9),
        "sampling.orbit_points",
    ),
    "z_init.horizon": ("simulate", _with(SIM_CFG, "z_init.horizon", 1e9), "z_init.horizon"),
    "yhat.step": ("invert", _with(INVERT_CFG, "yhat.step", 1e-9), "yhat.step"),
}
# what would allocate the oversized arrays: the sampled phases of the plan,
# or a history grid and the run's buffers
ALLOCATORS = {
    "sampling": ("sample_thetas", "plan_blocks"),
    "rows": ("from_function", "run", "run_ordered_pair", "_start", "invert_Dhat"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_runs_exit_two_before_allocating(tmp_path, capsys, monkeypatch, case):
    # every function that would allocate the oversized arrays fails the test
    # when it is reached: the budget check must come first
    import nfde_lab
    from nfde_lab import base_flow, cli, compartment, d_operator, history, integrator

    def refuse(*args, **kwargs):
        raise AssertionError("an oversized array was about to be allocated")

    names = ALLOCATORS["sampling" if case.startswith("sampling") else "rows"]
    for mod in (nfde_lab, base_flow, cli, compartment, d_operator, history, integrator):
        for name in names:
            if name in vars(mod):  # every module that holds the function
                monkeypatch.setattr(mod, name, refuse)
    task, cfg, key = OVERSIZED[case]
    assert _run(tmp_path, task, cfg) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    # no task holds the plan: its cap is on the phase count, not on memory
    if case.startswith("sampling"):
        assert "phases in the sampling plan" in err and "GiB" not in err
    else:
        assert "GiB" in err


def _leaves(node, path=()):
    """The dotted paths (list indices kept) of every leaf of a JSON tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


# the values each leaf of a config is set to in turn by the leaf sweeps
LEAF_VALUES = ["x", None, [], {}, True, math.nan, math.inf, -1, 0.5, [[1.0]]]


def _with_leaf(base, path, value):
    """A copy of the config base with its leaf at path set to value."""
    cfg = json.loads(json.dumps(base))
    node = cfg
    for p in path[:-1]:
        node = node[p]
    node[path[-1]] = value
    return cfg


def test_leaf_sweep_of_the_readme_example_ends_in_documented_exits(tmp_path, capsys):
    # every leaf of README's s1 example, set in turn to each value below and
    # run under check and simulate (cut to 20 steps), ends in a documented
    # exit code: 1 only from check, 2 only naming the key's path (list
    # indices dropped); an exception leaving main fails the test
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    base = json.loads(text.split("```json")[1].split("```")[0])
    base["sim"]["t_end"] = 20 * base["sim"]["h"]
    runs = 0
    for path in _leaves(base):
        key = ".".join(p for p in path if isinstance(p, str))
        for value in LEAF_VALUES:
            cfg = _with_leaf(base, path, value)
            for task in ("check", "simulate"):
                code = _run(tmp_path, task, cfg)
                err = capsys.readouterr().err
                where = (task, key, value, code, err)
                assert code in (0, 1, 2, 3, 4, 5), where
                assert code != 1 or task == "check", where
                assert code != 2 or key in err, where
                runs += 1
    assert runs == 2 * len(LEAF_VALUES) * len(list(_leaves(base)))


def _workload_config(monkeypatch, name: str, task: str) -> dict:
    """The config of one task of a benchmark workload, seed 0."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    return next(t.config for t in workloads.generate(name, 0) if t.task == task)


def test_leaf_sweep_of_the_c3_audit_ends_in_documented_exits(tmp_path, capsys, monkeypatch):
    # the README sweep's assertions over every leaf of the 3-compartment
    # general system's mass-audit config (a sampling plan of 8/8 phases, the
    # run cut to 2 steps): a pipe, an atom lag or a transport's shape or gain
    # that the system rejects exits 2 naming its leaf, where each list index
    # may be named or dropped
    base = _workload_config(monkeypatch, "c3-general", "mass-audit")
    base["sampling"] = {"grid_per_dim": 8, "orbit_points": 8}
    base["sim"]["t_end"] = 2 * base["sim"]["h"]
    runs = 0
    for path in _leaves(base):
        key = "".join(
            rf"(\[{p}\])?" if isinstance(p, int) else (r"\." if n else "") + re.escape(p)
            for n, p in enumerate(path)
        )
        for value in LEAF_VALUES:
            code = _run(tmp_path, "mass-audit", _with_leaf(base, path, value))
            err = capsys.readouterr().err
            where = (path, value, code, err)
            assert code in (0, 2, 3, 4, 5), where
            assert code != 2 or re.search(key, err), where
            runs += 1
    assert runs == len(LEAF_VALUES) * len(list(_leaves(base)))


def test_no_task_is_capped_on_phases_times_m_squared(tmp_path, capsys, monkeypatch):
    # no task holds the sampled phases x m^2: the checkers walk the plan a
    # block at a time. The c3-general invert config holds 201 x 3 history
    # cells and a plan of 64^2 + 512 = 4608 phases, 41472 numbers at m = 3;
    # d3-check's plan of 20^2 + 256 = 656 phases would hold 656 x 9 at m = 3.
    # A cap under either product leaves both running.
    from nfde_lab import cli

    invert = _workload_config(monkeypatch, "c3-general", "invert")
    check = _workload_config(monkeypatch, "d3-check", "check")
    monkeypatch.setattr(cli, "MAX_CELLS", 10_000)
    assert _run(tmp_path, "invert", invert) == 0
    monkeypatch.setattr(cli, "MAX_CELLS", 656 * 9 - 1)
    assert _run(tmp_path, "check", check) == 0
    assert capsys.readouterr().err == ""


def test_plan_and_trial_caps_name_their_key(tmp_path, capsys, monkeypatch):
    # the plan's cap counts phases (its walk's time); check.trial_a's counts
    # the numbers of one (rates, block) array, the canonical rate included.
    # Both exit 2 naming their key before anything walks the plan.
    from nfde_lab import cli, compartment, d_operator
    from nfde_lab.base_flow import PLAN_BLOCK

    check = _workload_config(monkeypatch, "d3-check", "check")
    monkeypatch.setattr(cli, "MAX_CELLS", 600)  # under d3-check's 656 phases
    assert _run(tmp_path, "check", check) == 2
    err = capsys.readouterr().err
    assert "config error: sampling.grid_per_dim: 656 phases in the sampling plan" in err
    assert "over the cap of 6e+02" in err and "GiB" not in err
    check["check"]["trial_a"] = [-2.0, -1.0, 0.0]
    monkeypatch.setattr(cli, "MAX_CELLS", 4 * PLAN_BLOCK)
    assert _run(tmp_path, "check", check) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_CELLS", 4 * PLAN_BLOCK - 1)
    for mod in (compartment, d_operator):
        monkeypatch.setattr(mod, "plan_blocks", None)  # a walk of the plan fails the run
    assert _run(tmp_path, "check", check) == 2
    err = capsys.readouterr().err
    assert "config error: check.trial_a: one array would hold 2.05e+03 numbers" in err
