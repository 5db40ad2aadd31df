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

# Cap on the numbers in one array (800 MB): stored rows x m of a run or a
# history, and the sampled phases x m^2 that only `check` holds. Every task
# caps the plan's phases alone by it too: the build-time sups read the plan
# in blocks, so its size is their time, not their memory. Checked before
# anything is allocated.
MAX_CELLS = 10**8


def _bounded(read, test, want: str):
    """A reader: `read`, then reject what `test` fails as not `want`."""

    def checked(value, where: str):
        x = read(value, where)
        if not test(x):
            raise ConfigError(f"{where}: expected {want}, got {value!r}")
        return x

    return checked


def _req(node: dict, key: str, where: str):
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object, got {node!r}")
    if key not in node:
        raise ConfigError(f"missing key {key!r} in {where}")
    return node[key]


_list = _bounded(lambda v, where: v, lambda v: isinstance(v, list), "a list")
# JSON true or false; the string "false" is not a truth value
_flag = _bounded(lambda v, where: v, lambda v: isinstance(v, bool), "true or false")


def _num(value, where: str, array: bool = False):
    """value as a float, or as a float array when array is set. JSON true,
    false and strings are not numbers."""
    def number(v):
        if array and isinstance(v, list):
            return all(number(x) for x in v)
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    try:
        if number(value):
            return np.asarray(value, dtype=float) if array else float(value)
    except (ValueError, OverflowError):  # a ragged list, or an integer no float holds
        pass
    raise ConfigError(f"{where}: expected a number, got {value!r}")


def _finite(value, where: str, array: bool = False):
    """_num, rejecting NaN and infinities."""
    value = _num(value, where, array)
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{where}: expected finite numbers, got {value!r}")
    return value


def _array(value, where: str) -> np.ndarray:
    return _finite(value, where, array=True)


_vector = _bounded(_array, lambda v: v.ndim == 1, "a flat list of numbers")


def _whole(value, where: str) -> int:
    if not _is_whole(value) or abs(value) > 2**53:  # past 2**53 floats skip integers
        raise ConfigError(f"{where}: expected a whole number, got {value!r}")
    return int(value)


def _fits(cells, key: str) -> None:
    """Reject an array of more than MAX_CELLS numbers, naming key."""
    if cells > MAX_CELLS:
        n = float(cells) if cells < 1e300 else math.inf
        size = f"{n:.3g} numbers ({n * 8 / 2**30:.3g} GiB)"
        raise ConfigError(f"{key}: one array would hold {size}, over the cap of {MAX_CELLS:.0e}")


def _shaped(shape):
    """A reader of finite numbers of `shape`, as NeutralDiagSystem shapes alpha and rho."""
    lift = np.atleast_1d if len(shape) == 1 else np.atleast_2d
    return _bounded(lambda v, w: lift(_array(v, w)), lambda a: a.shape == shape, f"shape {shape}")


def _optional(read):
    """read, also taking null, as None."""
    return lambda value, where: None if value is None else read(value, where)


# Readers: a JSON value and its dotted key in, the value checked and parsed out.
_positive = _bounded(_num, lambda x: 0 < x < math.inf, "a finite number > 0")
_above_zero = _bounded(_num, lambda x: x > 0, "a number > 0")
_not_negative = _bounded(_num, lambda x: x >= 0, "a number >= 0")
_count = _bounded(_whole, lambda n: n >= 0, "a whole number >= 0")
_count1 = _bounded(_whole, lambda n: n >= 1, "a whole number >= 1")
_schema = _bounded(_whole, lambda n: n == 1, "version 1")
_conditions = _bounded(
    _list, lambda c: c and all(x in CONDITIONS for x in c), f"a list of {'/'.join(CONDITIONS)}"
)
_rates = _bounded(  # one rate, or a nonempty flat list of them
    lambda v, where: np.atleast_1d(_num(v, where, array=True)),
    lambda a: a.ndim == 1 and a.size > 0 and np.all(np.isfinite(a)) and np.all(a <= 0),
    "a nonempty list of finite rates <= 0",
)


def _point(value, where: str) -> np.ndarray:
    """A flat list of finite numbers, or one number."""
    return _vector(value if isinstance(value, list) else [value], where)


def _numbers(value, where: str) -> list:
    return [_finite(v, where) for v in _list(value, where)]


_NONE = object()  # no default: the task's own, or none

# block -> key -> (reader, default) for each key outside the system and the
# history formulas ("" is the top level; README lists it). Only the top level
# and the histories, whose keys depend on their kind, take other keys.
_TABLE = {
    "": {"schema": (_schema, 1), "theta0": (_point, _NONE)},
    "sim": {
        "h": (_positive, 0.01),
        "t_end": (_positive, 10.0),
        "inv_tol": (_positive, 1e-8),
        "n_trunc": (_optional(_count), SimConfig.n_trunc),
        "log_stride": (_count1, SimConfig.log_stride),
        "tol_cone": (_not_negative, SimConfig.tol_cone),
        "divergence_limit": (_above_zero, SimConfig.divergence_limit),
    },
    "sampling": {
        "grid_per_dim": (_count1, SamplingConfig.grid_per_dim),
        "orbit_points": (_count, SamplingConfig.orbit_points),
        "orbit_step": (_finite, SamplingConfig.orbit_step),
    },
    "flow": {"freqs": (_point, [GOLDEN_FREQ])},
    "check": {
        "conditions": (_conditions, ["G5"]),
        "a": (lambda v, w: v if v == "auto" else _rates(v, w), "auto"),
        "trial_a": (_optional(_rates), _NONE),
    },
    "covering": {
        "return_tols": (_numbers, [0.1, 0.03, 0.01]),
        "window": (_finite, 50.0),
        "t_min": (_finite, 0.0),
    },
    "cone": {
        "a_diag": (_vector, _NONE),
        "A": (_array, _NONE),
        "horizon": (lambda v, w: math.inf if v in ("inf", None) else _above_zero(v, w), "inf"),
        "assume_hurwitz": (_flag, False),
    },
    "thresholds": {
        "mass_residual": (_optional(_finite), _NONE),
        "cone_margin": (_optional(_finite), _NONE),
    },
    "z_init": {"step": (_positive, _NONE), "horizon": (_positive, _NONE)},
    "z_init_y": {"step": (_positive, _NONE), "horizon": (_positive, _NONE), "lam": (_finite, 0.1)},
    "yhat": {"step": (_positive, 0.05), "horizon": (_positive, 40.0)},
}
_OPEN = ("", "z_init", "z_init_y", "yhat")


def _shown(name: str, task: str, node: dict) -> bool:
    """Whether the echo fills in the defaults of block `name` for this task
    (a csv yhat brings its own grid)."""
    kind = node.get("kind")
    return {
        "check": task == "check",
        "covering": task == "covering",
        "yhat": task == "invert" and kind in ("constant", "sinusoid"),
        "z_init_y": task == "pair" and kind == "ordered_offset",
    }.get(name, name in ("", "sim", "sampling", "flow"))


def _materialize(cfg: dict, task: str) -> dict:
    """Read every key of _TABLE in cfg, whatever the task, and fill in the
    defaults the echo shows. Returns the parsed blocks, the flow, the plan
    (no cone yet), `inv_tol` and `theta0`; "cone" is None for no cone."""
    conf = {}
    for name, fields in _TABLE.items():
        node = cfg.get(name, {}) if name else cfg
        if name == "cone" and node is None:  # a null cone is no cone
            node = {}
        if not isinstance(node, dict):
            raise ConfigError(f"{name}: expected an object, got {node!r}")
        unknown = sorted(set(node) - set(fields))
        if unknown and name not in _OPEN:
            raise ConfigError(f"{name}: unknown keys {unknown}")
        defaults = {k: d for k, (_, d) in fields.items() if d is not _NONE}
        given = {**defaults, **{k: node[k] for k in fields if k in node}}
        conf[name] = {k: fields[k][0](v, f"{name}.{k}" if name else k) for k, v in given.items()}
        if _shown(name, task, node):
            for k, d in defaults.items():
                node.setdefault(k, d)
            if name:
                cfg[name] = node
    try:
        flow = TorusFlow(conf["flow"]["freqs"], SamplingConfig(**conf["sampling"]))
    except ValueError as e:  # no frequency
        raise ConfigError(f"flow: {e}") from e
    theta0 = conf[""].get("theta0", np.zeros(flow.dim))
    if theta0.size != flow.dim:
        raise ConfigError(f"theta0: expected one number per frequency, got {cfg['theta0']!r}")
    inv_tol = conf["sim"].pop("inv_tol")
    try:
        plan = SimConfig(**conf["sim"])
    except ValueError as e:  # t_end off the step grid
        raise ConfigError(f"sim.t_end and sim.h: {e}") from e
    if conf["check"].get("trial_a") is not None and not isinstance(conf["check"]["a"], str):
        raise ConfigError('check.trial_a: only read when check.a is "auto"')
    if cfg.get("cone") is None:
        conf["cone"] = None
    elif len({"a_diag", "A"} & set(cfg["cone"])) != 1:
        raise ConfigError("cone needs exactly one of cone.a_diag and cone.A")
    return {**conf, "flow": flow, "sim": plan, "inv_tol": inv_tol, "theta0": TorusPoint(theta0)}


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


def _parse_transport(v, where) -> TransportSpec:
    """A gain polynomial, or an object of `gain` and `shape`."""
    if isinstance(v, dict) and ("gain" in v or "shape" in v):
        shape = _parse_shape(v.get("shape"), f"{where}.shape")
        return TransportSpec(_parse_poly(v.get("gain", 0.0), f"{where}.gain"), shape)
    return TransportSpec(_parse_poly(v, where), ShapeFn.identity())


def _parse_transports(node, m, where):
    return tuple(tuple(row) for row in _parse_matrix_of(_parse_transport, node, m, where))


def _parse_pipe(v, where) -> PipeSpec:
    """A pipe's [lag, weight] pairs."""
    try:
        return PipeSpec(_finite(v, where, array=True))
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_system(cfg: dict, flow: TorusFlow):
    node = _req(cfg, "system", "config")
    kind = _req(node, "kind", "system")
    m = _count1(_req(node, "m", "system"), "system.m")
    grid, orbit = flow.sampling.grid_per_dim**flow.dim, flow.sampling.orbit_points
    key = "sampling.grid_per_dim" if grid >= orbit else "sampling.orbit_points"
    _fits(grid + orbit, key)  # the phases every build-time sup walks
    if kind == "d_operator":
        return _parse_dspec(node, m, flow)
    if kind == "neutral_diag":
        c = [_parse_poly(v, "system.c") for v in _list(_req(node, "c", "system"), "system.c")]
        if len(c) != m:
            raise ConfigError("system.c must have m entries")
        cls, parts = NeutralDiagSystem, dict(
            c=tuple(c),
            alpha=_shaped((m,))(_req(node, "alpha", "system"), "system.alpha"),
            rho=_shaped((m, m))(_req(node, "rho", "system"), "system.rho"),
            transports=_parse_transports(_req(node, "gains", "system"), m, "system.gains"),
            g6=_flag(node.get("g6", False), "system.g6"),
        )
    elif kind == "compartmental":
        cls, parts = CompartmentalSystem, dict(
            dspec=_parse_dspec(node, m, flow),
            transports=_parse_transports(
                _req(node, "transports", "system"), m, "system.transports"
            ),
            outflows=tuple(
                _parse_transport(v, f"system.outflows[{k}]")
                for k, v in enumerate(_list(node.get("outflows", [0.0] * m), "system.outflows"))
            ),
            inflows=tuple(
                _parse_poly(v, "system.inflows")
                for v in _list(node.get("inflows", [0.0] * m), "system.inflows")
            ),
            pipes=_parse_matrix_of(  # instant pipes by default
                _parse_pipe, node.get("pipes", [[[[0.0, 1.0]]] * m] * m), m, "system.pipes"
            ),
        )
    else:
        raise ConfigError(f"system.kind {kind!r} is not supported")
    try:
        return cls(m=m, flow=flow, **parts)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"system: {e}") from e


def _parse_dspec(node, m, flow) -> DOperatorSpec:
    if "B" in node:
        B = _parse_matrix_of(_parse_poly, node["B"], m, "system.B")
    else:
        B = identity_poly_matrix(m)
    atoms = []
    for k, at in enumerate(_list(node.get("atoms", []), "system.atoms")):
        where = f"system.atoms[{k}]"
        lag = _positive(_req(at, "lag", where), f"{where}.lag")
        if any(a.lag == lag for a in atoms):
            raise ConfigError(f"{where}.lag: atom lags must be distinct, got {lag!r} twice")
        weight = _parse_matrix_of(_parse_poly, _req(at, "weight", where), m, f"{where}.weight")
        atoms.append(MeasureAtom(lag, weight))
    return DOperatorSpec(m, B, AtomicMeasureFamily(tuple(atoms)), flow)


def _parse_cone(node, m: int):
    """The cone of the parsed cone block, or None."""
    if node is None:
        return None
    A = np.diag(node["a_diag"]) if "a_diag" in node else node["A"]
    if np.atleast_2d(A).shape != (m, m):
        raise ConfigError(f"cone: expected an {m}x{m} matrix, got shape {A.shape}")
    try:
        return ConeSpec(A, node["horizon"], node["assume_hurwitz"])
    except ValueError as e:
        raise ConfigError(f"cone: {e}") from e


def _parse_history(node, where, m, step, horizon) -> HistoryGrid:
    """A history block on the grid `step`, `horizon`."""
    kind = _req(node, "kind", where)

    def floats(key, default=None):
        value = _req(node, key, where) if default is None else node.get(key, default)
        return _point(value, f"{where}.{key}")

    if kind == "constant":
        value = floats("value")
        if value.size != m:
            raise ConfigError(f"{where}.value: expected {m} entries")

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
        raise ConfigError(f"{where}.kind: unknown history kind {kind!r}")
    _fits((horizon / step + 1) * m, f"{where}.step and {where}.horizon")
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


def _verdict(outdir, lines, conf, key, value) -> int:
    """Write the summary; exit code 4 when value is past the threshold `key`."""
    thr, sign = conf["thresholds"].get(key), "<" if key == "cone_margin" else ">"
    past = thr is not None and (value < thr if sign == "<" else value > thr)
    if past:
        lines.append(f"threshold_exceeded={key} ({_fmt(value)} {sign} {_fmt(thr)})")
    _write_summary(outdir, lines)
    return EXIT_THRESHOLD if past else EXIT_OK


# --- tasks -------------------------------------------------------------------


def cmd_check(cfg: dict, conf: dict, outdir: str) -> int:
    flow = conf["flow"]
    grid, orbit = flow.sampling.grid_per_dim**flow.dim, flow.sampling.orbit_points
    key = "sampling.grid_per_dim" if grid >= orbit else "sampling.orbit_points"
    m = _count1(_req(_req(cfg, "system", "config"), "m", "system"), "system.m")
    _fits((grid + orbit) * m * m, key)  # the checkers' phase data, before the build walks the plan
    sys_obj = _parse_system(cfg, flow)
    if not isinstance(sys_obj, NeutralDiagSystem):
        raise ConfigError("task=check needs a neutral_diag system")
    conds, a = conf["check"]["conditions"], conf["check"]["a"]
    auto = isinstance(a, str)
    if not auto and a.size != sys_obj.m:
        raise ConfigError(f"check.a: expected {sys_obj.m} rates, got {cfg['check']['a']!r}")
    rows = []
    lines = [f"task=check conditions={','.join(conds)}"]
    all_pass = True
    for cond in conds:
        if auto:
            report = suggest_a(sys_obj, cond, conf["check"].get("trial_a")).report
            lines.append(f"{cond}: suggested a = {[_fmt(v) for v in report.a]}")
        else:
            report = check_condition(sys_obj, cond, a)
        all_pass &= report.passed
        for compv in report.components:
            if compv.skipped:
                rows.append([cond, compv.index, "skipped", "", "", "pass"])
                continue
            verdict = "pass" if compv.passed else "fail"
            for sub in compv.subs:
                witness = ";".join(_fmt(v) for v in sub.witness.theta)
                rows.append([cond, compv.index, sub.name, sub.min_margin, witness, verdict])
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


def _sim_setup(cfg: dict, conf: dict):
    flow = conf["flow"]
    sys_obj = _parse_system(cfg, flow)
    if isinstance(sys_obj, DOperatorSpec):
        raise ConfigError("simulation tasks need a compartmental system")
    sim = dataclasses.replace(conf["sim"], cone=_parse_cone(conf["cone"], sys_obj.m))
    need = required_z_horizon(sys_obj, sim) + 2 * sim.h
    past = need / sim.h
    key = "sim.t_end" if sim.nsteps >= past else "sim.n_trunc" if sim.n_trunc else "sim.h"
    _fits((past + sim.nsteps) * sys_obj.m, key)  # the stored rows of a run
    node, grid = _req(cfg, "z_init", "config"), conf["z_init"]
    step, horizon = grid.get("step", sim.h), grid.get("horizon", need)
    z0 = _parse_history(node, "z_init", sys_obj.m, step, horizon)
    return flow, sys_obj, sim, z0, conf["theta0"]


def cmd_simulate(cfg: dict, conf: dict, outdir: str) -> int:
    flow, sys_obj, sim, z0, p0 = _sim_setup(cfg, conf)
    log = run(sys_obj, p0, z0, sim)
    trajectory_to_csv(log, os.path.join(outdir, "result.csv"))
    mass_dev = float(np.max(np.abs(log.M - log.M[0])))
    lines = [
        "task=simulate",
        f"steps={sim.nsteps}",
        f"max_abs_mass_deviation={_fmt(mass_dev)}",
        f"final_z={[_fmt(v) for v in log.z[-1]]}",
    ]
    return _verdict(outdir, lines, conf, "mass_residual", mass_dev)


def cmd_pair(cfg: dict, conf: dict, outdir: str) -> int:
    flow, sys_obj, sim, z_x, p0 = _sim_setup(cfg, conf)
    if sim.cone is None:
        raise ConfigError("task=pair needs a cone")
    node, grid = _req(cfg, "z_init_y", "config"), conf["z_init_y"]
    if node.get("kind") == "ordered_offset":
        if z_x.step != sim.h:  # the offset is built on the step grid
            z_x = resample(z_x, sim.h, z_x.horizon, z_x.tail)
        comp = make_comparison_upper(sim.cone, sys_obj.m, step=sim.h, horizon=z_x.horizon)
        # the bump's inverse reaches one delay span further back, to z_x.J
        J = z_x.J - _nodes(sys_obj.dspec.support, sim.h)
        yhat = HistoryGrid(sim.h, comp.hist.samples[: J + 1], comp.hist.tail)
        bump = invert_Dhat(sys_obj.dspec, p0, yhat, conf["inv_tol"])
        z_y = HistoryGrid(sim.h, z_x.samples + grid["lam"] * bump.samples, z_x.tail)
    else:
        step, horizon = grid.get("step", sim.h), grid.get("horizon", z_x.horizon)
        z_y = _parse_history(node, "z_init_y", sys_obj.m, step, horizon)
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
    return _verdict(outdir, lines, conf, "cone_margin", min_margin)


def cmd_invert(cfg: dict, conf: dict, outdir: str) -> int:
    sys_obj = _parse_system(cfg, conf["flow"])
    dspec = sys_obj if isinstance(sys_obj, DOperatorSpec) else sys_obj.dspec
    grid = conf["yhat"]
    yhat = _parse_history(
        _req(cfg, "yhat", "config"), "yhat", dspec.m, grid["step"], grid["horizon"]
    )
    p0 = conf["theta0"]
    x = invert_Dhat(dspec, p0, yhat, conf["inv_tol"])
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


def cmd_mass_audit(cfg: dict, conf: dict, outdir: str) -> int:
    flow, sys_obj, sim, z0, p0 = _sim_setup(cfg, conf)
    log = run(sys_obj, p0, z0, sim)
    resid = mass_balance_residual(sys_obj, log)
    write_csv(
        os.path.join(outdir, "result.csv"),
        ["t", "M", "residual"],
        np.column_stack([log.t, log.M, resid]),
    )
    worst = float(np.max(np.abs(resid)))
    lines = ["task=mass-audit", f"max_abs_residual={_fmt(worst)}"]
    return _verdict(outdir, lines, conf, "mass_residual", worst)


def cmd_covering(cfg: dict, conf: dict, outdir: str) -> int:
    flow, sys_obj, sim, z0, p0 = _sim_setup(cfg, conf)
    tols, window, t_min = (conf["covering"][k] for k in ("return_tols", "window", "t_min"))
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
        cfg["task"] = args.task
        conf = _materialize(cfg, args.task)
        _echo(cfg, args.out)
        return dispatch[args.task](cfg, conf, args.out)
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
