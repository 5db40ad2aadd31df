"""Batch front-end: JSON experiment configs in, CSV plus summary out.

Usage: nfde-lab <task> --config <path> [--out <dir>]

Tasks: check, simulate, pair, invert, mass-audit, covering. Every run
writes result.csv, summary.txt, and config.echo.json (the parsed config
with all defaults materialized) into the output directory. Floats are
serialized with round-trip precision, so identical configs produce
byte-identical outputs.

Exit codes: 0 success / all checks passed; 1 a requested condition failed;
2 malformed config; 3 structural precondition violated (includes unstable
operators, unordered initial pairs and delays shorter than the step); 4 a
monitored invariant exceeded its threshold; 5 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys as _sys

import numpy as np

from .base_flow import GOLDEN_FREQ, SamplingConfig, TorusFlow, TorusPoint, TrigPoly, _is_whole
from .compartment import (
    CONDITIONS,
    CompartmentalSystem,
    NeutralDiagSystem,
    PipeSpec,
    ShapeFn,
    TransportSpec,
    check_condition,
    mass_balance_residual,
    suggest_a,
)
from .d_operator import (
    AtomicMeasureFamily,
    DOperatorSpec,
    MeasureAtom,
    eval_Dhat_segment,
    identity_poly_matrix,
    invert_Dhat,
)
from .errors import (
    ConfigError,
    DivergenceError,
    HorizonError,
    NfdeError,
    NoReturnTimesError,
    SingularBError,
    StructuralPreconditionError,
    UnorderedPairError,
    UnstableMarginError,
)
from .history import HistoryGrid, _fmt, _nodes, export_csv, from_function, import_csv
from .history import resample, write_csv
from .integrator import (
    SimConfig,
    covering_diagnostic,
    pair_to_csv,
    required_z_horizon,
    run,
    run_ordered_pair,
    trajectory_to_csv,
)
from .ordering import ConeSpec, make_comparison_upper

TASKS = ("check", "simulate", "pair", "invert", "mass-audit", "covering")

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_CONFIG = 2
EXIT_STRUCTURAL = 3
EXIT_THRESHOLD = 4
EXIT_DIVERGED = 5


# --- config parsing ---------------------------------------------------------


def _req(node: dict, key: str, where: str):
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object, got {node!r}")
    if key not in node:
        raise ConfigError(f"missing key {key!r} in {where}")
    return node[key]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return value


def _flag(value, where: str) -> bool:
    """A JSON true or false; a string such as "false" is not read as a truth value."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _num(value, where: str, array: bool = False):
    """value as a float, or as a float array when array is set."""
    try:
        return np.asarray(value, dtype=float) if array else float(value)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from e


def _finite(value, where: str, array: bool = False):
    """_num, rejecting NaN and infinities."""
    value = _num(value, where, array)
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{where}: expected finite numbers, got {value!r}")
    return value


def _vector(value, where: str) -> np.ndarray:
    """A flat list of finite numbers."""
    v = _finite(value, where, array=True)
    if v.ndim != 1:
        raise ConfigError(f"{where}: expected a flat list of numbers, got {value!r}")
    return v


def _theta0(cfg: dict, flow) -> TorusPoint:
    """The starting phase: a flat list of numbers, or one number."""
    value = cfg.get("theta0", [0.0] * flow.dim)
    return TorusPoint(_vector([value] if isinstance(value, (int, float)) else value, "theta0"))


def _parse_poly(node, where: str) -> TrigPoly:
    if isinstance(node, (int, float)):
        return TrigPoly.const(_finite(node, where))
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: polynomial must be a number or an object")
    constant = _finite(node.get("constant", 0.0), f"{where}.constant")
    terms = []
    for t in _list(node.get("terms", []), f"{where}.terms"):
        k = _req(t, "k", f"{where}.terms")
        k = [_whole(v, f"{where}.terms.k") for v in (k if isinstance(k, list) else [k])]
        cos = _finite(t.get("cos", 0.0), f"{where}.terms.cos")
        sin = _finite(t.get("sin", 0.0), f"{where}.terms.sin")
        terms.append((k, cos, sin))
    try:
        return TrigPoly.from_terms(constant, terms)
    except ValueError as e:  # mode vectors of different lengths
        raise ConfigError(f"{where}.terms.k: {e}") from e


def _parse_shape(node, where: str) -> ShapeFn:
    if node is None or node == "identity":
        return ShapeFn.identity()
    if node == "saturate":
        return ShapeFn.saturate()
    if isinstance(node, dict) and node.get("kind") == "sine_bend":
        eps = _num(_req(node, "eps", where), f"{where}.eps")
        try:
            return ShapeFn.sine_bend(eps)
        except ValueError as e:
            raise ConfigError(f"{where}.eps: {e}") from e
    raise ConfigError(f"{where}: unknown shape {node!r}")


def _parse_matrix_of(parser, node, m, where):
    if not isinstance(node, list) or len(node) != m:
        raise ConfigError(f"{where}: expected an {m}x{m} matrix")
    out = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != m:
            raise ConfigError(f"{where}[{i}]: expected {m} entries")
        out.append([parser(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    return out


def _parse_flow(cfg: dict) -> TorusFlow:
    """The flow with the config's sampling plan, which every sampled sup of the task reads."""
    sampling = _parse_sampling(cfg)
    freqs = _block(cfg, "flow", {"freqs": [GOLDEN_FREQ]})["freqs"]
    try:
        return TorusFlow(np.asarray(freqs, dtype=float), sampling)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"flow: {e}") from e


def _parse_transports(node, m, where):
    def one(v, w):
        shape = ShapeFn.identity()
        if isinstance(v, dict) and ("gain" in v or "shape" in v):
            shape = _parse_shape(v.get("shape"), w)
            gain = _parse_poly(v.get("gain", 0.0), w)
        else:
            gain = _parse_poly(v, w)
        return TransportSpec(gain, shape)

    return tuple(tuple(row) for row in _parse_matrix_of(one, node, m, where))


def _parse_system(cfg: dict, flow: TorusFlow):
    node = _req(cfg, "system", "config")
    kind = _req(node, "kind", "system")
    m = _whole(_req(node, "m", "system"), "system.m")
    if kind == "neutral_diag":
        c = [_parse_poly(v, "system.c") for v in _list(_req(node, "c", "system"), "system.c")]
        if len(c) != m:
            raise ConfigError("system.c must have m entries")
        alpha = _finite(_req(node, "alpha", "system"), "system.alpha", array=True)
        rho = np.atleast_2d(_finite(_req(node, "rho", "system"), "system.rho", array=True))
        gains = _parse_transports(_req(node, "gains", "system"), m, "system.gains")
        try:
            return NeutralDiagSystem(
                m=m,
                c=tuple(c),
                alpha=alpha,
                rho=rho,
                transports=gains,
                flow=flow,
                g6=_flag(node.get("g6", False), "system.g6"),
            )
        except (ValueError, TypeError) as e:
            raise ConfigError(f"system: {e}") from e
    if kind == "compartmental":
        dspec = _parse_dspec(node, m, flow)
        transports = _parse_transports(
            _req(node, "transports", "system"), m, "system.transports"
        )
        outflows = tuple(
            _parse_transports([[v]], 1, "system.outflows")[0][0]
            for v in _list(node.get("outflows", [0.0] * m), "system.outflows")
        )
        inflows = tuple(
            _parse_poly(v, "system.inflows")
            for v in _list(node.get("inflows", [0.0] * m), "system.inflows")
        )
        pipes_node = node.get("pipes")
        try:
            if pipes_node is None:
                pipes = tuple(tuple(PipeSpec.instant() for _ in range(m)) for _ in range(m))
            else:
                if len(pipes_node) != m or any(len(row) != m for row in pipes_node):
                    raise ConfigError("system.pipes must be an m x m grid of atom lists")
                pipes = tuple(
                    tuple(
                        PipeSpec(_finite(cell, f"system.pipes[{i}][{j}]", array=True))
                        for j, cell in enumerate(row)
                    )
                    for i, row in enumerate(pipes_node)
                )
            return CompartmentalSystem(
                m=m,
                transports=transports,
                outflows=outflows,
                inflows=inflows,
                pipes=pipes,
                dspec=dspec,
                flow=flow,
            )
        except (ValueError, TypeError) as e:
            raise ConfigError(f"system: {e}") from e
    if kind == "d_operator":
        return _parse_dspec(node, m, flow)
    raise ConfigError(f"system.kind {kind!r} is not supported")


def _parse_dspec(node, m, flow) -> DOperatorSpec:
    if "B" in node:
        B = _parse_matrix_of(_parse_poly, node["B"], m, "system.B")
    else:
        B = identity_poly_matrix(m)
    atoms = []
    try:
        for k, at in enumerate(node.get("atoms", [])):
            where = f"system.atoms[{k}]"
            lag = _finite(_req(at, "lag", where), f"{where}.lag")
            weight = _parse_matrix_of(_parse_poly, _req(at, "weight", where), m, f"{where}.weight")
            atoms.append(MeasureAtom(lag, weight))
        return DOperatorSpec(m, B, AtomicMeasureFamily(tuple(atoms)), flow)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"system: {e}") from e


def _parse_cone(cfg: dict, m: int):
    if cfg.get("cone") is None:
        return None
    node = _block(cfg, "cone", {})
    if "a_diag" in node:
        A = np.diag(_vector(node["a_diag"], "cone.a_diag"))
    elif "A" in node:
        A = _finite(node["A"], "cone.A", array=True)
    else:
        raise ConfigError("cone needs a_diag or A")
    if np.atleast_2d(A).shape != (m, m):
        raise ConfigError(f"cone: expected an {m}x{m} matrix, got shape {A.shape}")
    horizon = node.get("horizon", "inf")
    horizon = math.inf if horizon in ("inf", None) else _num(horizon, "cone.horizon")
    try:
        return ConeSpec(A, horizon, _flag(node.get("assume_hurwitz", False), "cone.assume_hurwitz"))
    except ValueError as e:
        raise ConfigError(f"cone: {e}") from e


# Defaults of the `sampling` and `sim` blocks, which the parsers and the
# echoed config share. The sim block holds SimConfig's fields except the cone
# (a block of its own), with a default step and horizon for its two
# required fields.
_SAMPLING_DEFAULTS = {
    key: getattr(SamplingConfig, key) for key in ("grid_per_dim", "orbit_points", "orbit_step")
}
_SIM_DEFAULTS = {
    "h": 0.01,
    "t_end": 10.0,
    **{
        f.name: f.default
        for f in dataclasses.fields(SimConfig)
        if f.name not in ("h", "t_end", "cone")
    },
}

# Defaults of the blocks that a single task reads: `check` and `covering`,
# the grid of a `yhat` given by a formula (a csv file brings its own grid),
# and the bump size of an ordered_offset `z_init_y`.
_CHECK_DEFAULTS = {"conditions": ["G5"], "a": "auto"}
_COVERING_DEFAULTS = {"return_tols": [1e-1, 3e-2, 1e-2], "window": 50.0, "t_min": 0.0}
_YHAT_DEFAULTS = {"step": 0.05, "horizon": 40.0}
_OFFSET_DEFAULTS = {"lam": 0.1}

# Every key of the blocks whose keys are all known; any other key in one of
# them is a misspelling. History blocks are not listed: their keys depend on
# their kind.
_KEYS = {
    "sim": set(_SIM_DEFAULTS),
    "sampling": set(_SAMPLING_DEFAULTS),
    "check": {*_CHECK_DEFAULTS, "trial_a"},
    "covering": set(_COVERING_DEFAULTS),
    "flow": {"freqs"},
    "cone": {"a_diag", "A", "horizon", "assume_hurwitz"},
    "thresholds": {"mass_residual", "cone_margin"},
}


def _block(cfg: dict, name: str, defaults: dict) -> dict:
    """A config block with each missing key set to its default."""
    node = cfg.get(name, {})
    if not isinstance(node, dict):
        raise ConfigError(f"{name}: expected an object, got {node!r}")
    unknown = sorted(set(node) - _KEYS.get(name, set(node)))
    if unknown:
        raise ConfigError(f"{name}: unknown keys {unknown}")
    return {**defaults, **node}


def _kind(cfg: dict, name: str):
    node = cfg.get(name)
    return node.get("kind") if isinstance(node, dict) else None


def _materialize(cfg: dict, task: str) -> None:
    """Set every default the task reads into cfg, so that the echo is complete."""
    cfg["sim"] = _block(cfg, "sim", _SIM_DEFAULTS)
    cfg["sampling"] = _block(cfg, "sampling", _SAMPLING_DEFAULTS)
    cfg.setdefault("flow", {"freqs": [GOLDEN_FREQ]})
    if task == "check":
        cfg["check"] = _block(cfg, "check", _CHECK_DEFAULTS)
    elif task == "covering":
        cfg["covering"] = _block(cfg, "covering", _COVERING_DEFAULTS)
    elif task == "invert" and _kind(cfg, "yhat") in ("constant", "sinusoid"):
        cfg["yhat"] = _block(cfg, "yhat", _YHAT_DEFAULTS)
    elif task == "pair" and _kind(cfg, "z_init_y") == "ordered_offset":
        cfg["z_init_y"] = _block(cfg, "z_init_y", _OFFSET_DEFAULTS)


def _whole(value, where: str) -> int:
    if not _is_whole(value):
        raise ConfigError(f"{where}: expected a whole number, got {value!r}")
    return int(value)


def _parse_sampling(cfg: dict) -> SamplingConfig:
    """The sampling block; a missing key takes the SamplingConfig default."""
    vals = _block(cfg, "sampling", _SAMPLING_DEFAULTS)
    try:
        return SamplingConfig(
            grid_per_dim=_whole(vals["grid_per_dim"], "sampling.grid_per_dim"),
            orbit_points=_whole(vals["orbit_points"], "sampling.orbit_points"),
            orbit_step=_num(vals["orbit_step"], "sampling.orbit_step"),
        )
    except (ValueError, TypeError) as e:
        raise ConfigError(f"sampling: {e}") from e


def _parse_rates(value, where: str, m=None) -> np.ndarray:
    """A list of finite rates <= 0; exactly m of them when m is given."""
    a = np.atleast_1d(_num(value, where, array=True))
    if a.ndim != 1 or a.size == 0 or (m is not None and a.size != m):
        want = f"{m} rates" if m is not None else "a nonempty list of rates"
        raise ConfigError(f"{where}: expected {want}, got {value!r}")
    if not np.all(np.isfinite(a)) or np.any(a > 0):
        raise ConfigError(f"{where}: rates must be finite and <= 0, got {value!r}")
    return a


def _parse_sim(cfg: dict, cone) -> SimConfig:
    """The sim block; a missing key takes its _SIM_DEFAULTS value."""
    node = _block(cfg, "sim", _SIM_DEFAULTS)
    n_trunc = node["n_trunc"]
    try:
        return SimConfig(
            h=_num(node["h"], "sim.h"),
            t_end=_num(node["t_end"], "sim.t_end"),
            inv_tol=_num(node["inv_tol"], "sim.inv_tol"),
            n_trunc=None if n_trunc is None else _whole(n_trunc, "sim.n_trunc"),
            log_stride=_whole(node["log_stride"], "sim.log_stride"),
            cone=cone,
            tol_cone=_num(node["tol_cone"], "sim.tol_cone"),
            divergence_limit=_num(node["divergence_limit"], "sim.divergence_limit"),
        )
    except (ValueError, TypeError) as e:
        raise ConfigError(f"sim: {e}") from e


def _parse_history(node, where, m, step, horizon) -> HistoryGrid:
    kind = _req(node, "kind", where)
    horizon = _num(node.get("horizon", horizon), f"{where}.horizon")
    step = _num(node.get("step", step), f"{where}.step")
    for key, v in (("step", step), ("horizon", horizon)):
        if not 0.0 < v < math.inf:
            raise ConfigError(f"{where}.{key}: expected a finite number > 0, got {v!r}")

    def floats(key, default=None):
        value = _req(node, key, where) if default is None else node.get(key, default)
        return np.atleast_1d(_num(value, f"{where}.{key}", array=True))

    if kind == "constant":
        value = floats("value")
        if value.size != m:
            raise ConfigError(f"{where}: value must have {m} entries")

        def f(s):
            return np.tile(value, (s.size, 1))

    elif kind == "sinusoid":
        base = floats("base")
        amp = floats("amp", [0.0] * m)
        period = floats("period", [1.0] * m)
        phase = floats("phase", [0.0] * m)
        if not (base.size == amp.size == period.size == phase.size == m):
            raise ConfigError(f"{where}: component counts must equal m")

        def f(s):
            return base[None, :] + amp[None, :] * np.sin(
                2.0 * np.pi * s[:, None] / period[None, :] + phase[None, :]
            )

    elif kind == "csv":
        try:
            return import_csv(_req(node, "path", where))
        except (OSError, ValueError) as e:
            raise ConfigError(f"{where}: {e}") from e
    else:
        raise ConfigError(f"{where}: unknown history kind {kind!r}")
    try:
        with np.errstate(all="ignore"):  # the grid rejects samples that are not finite
            return from_function(f, step, horizon)
    except ValueError as e:  # samples that are not finite, or fewer than two
        raise ConfigError(f"{where}: {e}") from e


def _echo(cfg, outdir):
    with open(os.path.join(outdir, "config.echo.json"), "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_summary(outdir, lines):
    """Write summary.txt and print the same lines."""
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    print("\n".join(lines))


# --- tasks -------------------------------------------------------------------


def cmd_check(cfg: dict, outdir: str) -> int:
    flow = _parse_flow(cfg)
    sys_obj = _parse_system(cfg, flow)
    if not isinstance(sys_obj, NeutralDiagSystem):
        raise ConfigError("task=check needs a neutral_diag system")
    node = _block(cfg, "check", _CHECK_DEFAULTS)
    conds = node["conditions"]
    if not isinstance(conds, list) or not conds:
        raise ConfigError(f"check.conditions: expected a nonempty list, got {conds!r}")
    for c in conds:
        if c not in CONDITIONS:
            raise ConfigError(f"unknown condition {c!r}")
    a_node, trial = node["a"], node.get("trial_a")
    if trial is not None and a_node != "auto":
        raise ConfigError('check.trial_a: only read when check.a is "auto"')
    if trial is not None:
        trial = _parse_rates(trial, "check.trial_a")
    if a_node != "auto":
        a = _parse_rates(a_node, "check.a", sys_obj.m)
    rows = []
    lines = [f"task=check conditions={','.join(conds)}"]
    all_pass = True
    for cond in conds:
        if a_node == "auto":
            report = suggest_a(sys_obj, cond, trial).report
            lines.append(f"{cond}: suggested a = {[_fmt(v) for v in report.a]}")
        else:
            report = check_condition(sys_obj, cond, a)
        all_pass &= report.passed
        for compv in report.components:
            if compv.skipped:
                rows.append([cond, compv.index, "skipped", "", "", "pass"])
                continue
            for sub in compv.subs:
                witness = ";".join(_fmt(v) for v in sub.witness.theta)
                rows.append(
                    [
                        cond,
                        compv.index,
                        sub.name,
                        sub.min_margin,
                        witness,
                        "pass" if compv.passed else "fail",
                    ]
                )
                lines.append(
                    f"{cond} comp {compv.index} {sub.name}: margin {_fmt(sub.min_margin)}"
                    f"{' (strict)' if sub.strict_everywhere else ''}"
                )
            if compv.note:
                lines.append(f"{cond} comp {compv.index}: {compv.note}")
        for notev in report.notes:
            lines.append(f"{cond}: note: {notev}")
        lines.append(f"{cond}: {'PASS' if report.passed else 'FAIL'}")
    write_csv(
        os.path.join(outdir, "result.csv"),
        ["condition", "component", "sub", "margin", "witness_theta", "verdict"],
        rows,
    )
    lines.append(f"overall={'PASS' if all_pass else 'FAIL'}")
    _write_summary(outdir, lines)
    return EXIT_OK if all_pass else EXIT_FAILED_CHECK


def _sim_setup(cfg):
    flow = _parse_flow(cfg)
    sys_obj = _parse_system(cfg, flow)
    if isinstance(sys_obj, DOperatorSpec):
        raise ConfigError("simulation tasks need a compartmental system")
    cone = _parse_cone(cfg, sys_obj.m)
    sim = _parse_sim(cfg, cone)
    need = required_z_horizon(sys_obj, sim) + 2 * sim.h
    z0 = _parse_history(_req(cfg, "z_init", "config"), "z_init", sys_obj.m, sim.h, need)
    p0 = _theta0(cfg, flow)
    return flow, sys_obj, sim, z0, p0


def _threshold(cfg: dict, key: str):
    thr = _block(cfg, "thresholds", {}).get(key)
    return None if thr is None else _finite(thr, f"thresholds.{key}")


def cmd_simulate(cfg: dict, outdir: str) -> int:
    flow, sys_obj, sim, z0, p0 = _sim_setup(cfg)
    thr = _threshold(cfg, "mass_residual")
    log = run(sys_obj, p0, z0, sim)
    trajectory_to_csv(log, os.path.join(outdir, "result.csv"))
    mass_dev = float(np.max(np.abs(log.M - log.M[0])))
    lines = [
        "task=simulate",
        f"steps={sim.nsteps}",
        f"max_abs_mass_deviation={_fmt(mass_dev)}",
        f"final_z={[_fmt(v) for v in log.z[-1]]}",
    ]
    code = EXIT_OK
    if thr is not None and mass_dev > thr:
        lines.append(f"threshold_exceeded=mass_residual ({_fmt(mass_dev)} > {_fmt(thr)})")
        code = EXIT_THRESHOLD
    _write_summary(outdir, lines)
    return code


def cmd_pair(cfg: dict, outdir: str) -> int:
    flow, sys_obj, sim, z_x, p0 = _sim_setup(cfg)
    if sim.cone is None:
        raise ConfigError("task=pair needs a cone")
    node = _req(cfg, "z_init_y", "config")
    if _kind(cfg, "z_init_y") == "ordered_offset":
        lam = _finite(_block(cfg, "z_init_y", _OFFSET_DEFAULTS)["lam"], "z_init_y.lam")
        if z_x.step != sim.h:  # the offset is built on the step grid
            z_x = resample(z_x, sim.h, z_x.horizon, z_x.tail)
        comp = make_comparison_upper(sim.cone, sys_obj.m, step=sim.h, horizon=z_x.horizon)
        # the bump's inverse reaches one delay span further back, to z_x.J
        J = z_x.J - _nodes(sys_obj.dspec.support, sim.h)
        yhat = HistoryGrid(sim.h, comp.hist.samples[: J + 1], comp.hist.tail)
        bump = invert_Dhat(sys_obj.dspec, p0, yhat, sim.inv_tol)
        z_y = HistoryGrid(sim.h, z_x.samples + lam * bump.samples, z_x.tail)
    else:
        z_y = _parse_history(node, "z_init_y", sys_obj.m, sim.h, z_x.horizon)
    thr = _threshold(cfg, "cone_margin")
    plog = run_ordered_pair(sys_obj, p0, z_x, z_y, sim)
    pair_to_csv(plog, os.path.join(outdir, "result.csv"))
    min_margin = float(np.min(plog.cone_margin))
    max_gap = float(np.max(np.abs(plog.d_gap)))
    lines = [
        "task=pair",
        f"min_cone_margin={_fmt(min_margin)}",
        f"max_abs_d_gap={_fmt(max_gap)}",
        f"final_z_diff_sup={_fmt(plog.z_diff_sup[-1])}",
    ]
    code = EXIT_OK
    if thr is not None and min_margin < thr:
        lines.append(f"threshold_exceeded=cone_margin ({_fmt(min_margin)} < {_fmt(thr)})")
        code = EXIT_THRESHOLD
    _write_summary(outdir, lines)
    return code


def cmd_invert(cfg: dict, outdir: str) -> int:
    flow = _parse_flow(cfg)
    sys_obj = _parse_system(cfg, flow)
    dspec = sys_obj if isinstance(sys_obj, DOperatorSpec) else sys_obj.dspec
    node = _req(cfg, "yhat", "config")
    tol = _parse_sim(cfg, None).inv_tol
    yhat = _parse_history(
        node, "yhat", dspec.m, _YHAT_DEFAULTS["step"], _YHAT_DEFAULTS["horizon"]
    )
    p0 = _theta0(cfg, flow)
    x = invert_Dhat(dspec, p0, yhat, tol)
    export_csv(x, os.path.join(outdir, "result.csv"))
    back = eval_Dhat_segment(dspec, p0, x, yhat.J)
    resid = float(np.max(np.abs(back.samples - yhat.samples)))
    lines = [
        "task=invert",
        f"lambda={_fmt(dspec.stability.lam)}",
        f"k_bound={_fmt(dspec.stability.k_bound)}",
        f"roundtrip_residual={_fmt(resid)}",
    ]
    _write_summary(outdir, lines)
    return EXIT_OK


def cmd_mass_audit(cfg: dict, outdir: str) -> int:
    flow, sys_obj, sim, z0, p0 = _sim_setup(cfg)
    thr = _threshold(cfg, "mass_residual")
    log = run(sys_obj, p0, z0, sim)
    resid = mass_balance_residual(sys_obj, log)
    write_csv(
        os.path.join(outdir, "result.csv"),
        ["t", "M", "residual"],
        np.column_stack([log.t, log.M, resid]),
    )
    worst = float(np.max(np.abs(resid)))
    lines = ["task=mass-audit", f"max_abs_residual={_fmt(worst)}"]
    code = EXIT_OK
    if thr is not None and worst > thr:
        lines.append(f"threshold_exceeded=mass_residual ({_fmt(worst)} > {_fmt(thr)})")
        code = EXIT_THRESHOLD
    _write_summary(outdir, lines)
    return code


def cmd_covering(cfg: dict, outdir: str) -> int:
    flow, sys_obj, sim, z0, p0 = _sim_setup(cfg)
    node = _block(cfg, "covering", _COVERING_DEFAULTS)
    tols = node["return_tols"]
    if not isinstance(tols, list):
        raise ConfigError(f"covering.return_tols: expected a list, got {tols!r}")
    tols = [_finite(v, "covering.return_tols") for v in tols]
    window = _finite(node["window"], "covering.window")
    t_min = _finite(node["t_min"], "covering.t_min")
    log = run(sys_obj, p0, z0, sim)
    rows = []
    lines = ["task=covering"]
    maxima = []
    for tol in tols:
        rep = covering_diagnostic(log, flow, p0, tol, window, t_min)
        maxima.append(rep.e_max)
        for T, dist, e in rep.entries:
            rows.append([tol, T, dist, e])
        lines.append(
            f"return_tol={_fmt(tol)} returns={len(rep.entries)} "
            f"e_max={_fmt(rep.e_max)} e_min={_fmt(rep.e_min)}"
        )
    write_csv(os.path.join(outdir, "result.csv"), ["return_tol", "T", "phase_dist", "e"], rows)
    monotone = all(b <= a + 1e-15 for a, b in zip(maxima, maxima[1:]))
    lines.append(f"e_max_trend_monotone_decreasing={'yes' if monotone else 'no'}")
    lines.append("diagnostic_only=yes")
    _write_summary(outdir, lines)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nfde-lab",
        description="Batch experiments on neutral compartmental delay systems.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError(f"the config must be a JSON object, got {cfg!r}")
    except (OSError, json.JSONDecodeError, ConfigError) as e:
        print(f"config error: {e}", file=_sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)
    dispatch = {
        "check": cmd_check,
        "simulate": cmd_simulate,
        "pair": cmd_pair,
        "invert": cmd_invert,
        "mass-audit": cmd_mass_audit,
        "covering": cmd_covering,
    }
    try:
        try:
            schema = int(cfg.get("schema", 1))
        except (TypeError, ValueError, OverflowError):
            schema = None
        if schema != 1:
            raise ConfigError(f"unsupported schema version {cfg.get('schema')!r}")
        cfg.setdefault("schema", 1)
        cfg["task"] = args.task
        _materialize(cfg, args.task)
        _echo(cfg, args.out)
        return dispatch[args.task](cfg, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=_sys.stderr)
        return EXIT_CONFIG
    except (
        StructuralPreconditionError,
        UnstableMarginError,
        SingularBError,
        UnorderedPairError,
        HorizonError,
        NoReturnTimesError,
    ) as e:
        print(f"precondition violated: {e}", file=_sys.stderr)
        return EXIT_STRUCTURAL
    except DivergenceError as e:
        print(f"diverged: {e}", file=_sys.stderr)
        return EXIT_DIVERGED
    except NfdeError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_CONFIG


def console_main():  # pragma: no cover
    _sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
