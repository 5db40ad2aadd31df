"""The benchmark harness in perfbench/ reaches into nfde_lab by name: the
tracer wraps the functions listed in its TRACED table, and the measured
child process hooks a few more. A rename or deletion in nfde_lab that
leaves one of these names dangling fails here, not in a traced benchmark
run. Every CLI process pays for what `nfde_lab.cli` imports, so a check
here keeps SciPy out of it. The stage arithmetic and a linear law's affine
step sum in an explicit order, which a check here keeps free of `sum` and
`math.fsum`; which of the two a run takes follows its shapes alone, which a
check here keeps apart. A sampled history
is read by one rule, `history.cubic_stencil`, which a check here keeps the
only user of the interpolation weights, and its stencils are summed in one
place, `history.gather`. Stored rows are read back from a row by one causal
reader, `history._read_back`, and only the integrator builds stencils
besides it. The lift's inverse and the integrator's stages share one
method-of-steps kernel, `d_operator.StepPlan`, and `np.linalg.inv` is called
in one checked place. A `check` run leaves `numpy.ma` unimported. The operator's
delayed part is laid out and summed in `d_operator` alone, which a check
here keeps the only reader of the measure's atoms, density and midpoints.
The sampling plan rides on the flow, which a check here keeps the only way
a plan reaches a sampled sup.
The CLI reads its config through one table, which a check here keeps the
only source of defaults and in step with the README's key table. A
NeutralDiagSystem is a CompartmentalSystem, which a check here keeps the one
system type: no module unwraps it, and only `check` asks which kind it got.
A phase moves along the flow by one rule, `base_flow._rotate`, which a check
here keeps the only reader of `TorusFlow.freqs` outside `base_flow`. The
one-point twins of the array functions live in `tests/oracles.py`, and a
check here keeps each one gone from the module or class it left. A history
continues past its grid as its oldest sample, which a check here keeps the
one extension: no tail policy, field or parameter. A history is a
`HistoryGrid`, which a check here keeps the one representation: no wrapper
of a callable and no `hasattr` probe in the package."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# Hooked by name in perfbench/child.py: set-up ends at the first of these
# calls, and the run functions are timed.
CHILD_HOOKS = [
    ("cli", "run"),
    ("cli", "run_ordered_pair"),
    ("cli", "suggest_a"),
    ("cli", "check_condition"),
    ("integrator", "step"),
]


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(home, name) for home, funcs in tracer.TRACED.items() for name in funcs]


@pytest.mark.parametrize("home, name", _traced_names() + CHILD_HOOKS)
def test_benchmark_hook_resolves(home, name):
    module = importlib.import_module(f"nfde_lab.{home}")
    assert callable(getattr(module, name, None)), f"nfde_lab.{home}.{name} is gone"


def test_cli_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = (
        "import nfde_lab.cli, sys; "
        "print(sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_check_run_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use (10-17 ms); the rate scan of
    # check with a: auto dedupes its rates without it
    cfg = {
        "flow": {"freqs": [0.6180339887498949]},
        "system": {
            "kind": "neutral_diag", "m": 1, "alpha": [1.0], "rho": [[1.0]], "gains": [[1.0]],
            "c": [{"constant": 0.3, "terms": [{"k": [1], "sin": 0.2}]}],
        },
        "check": {"conditions": ["G4", "G5"], "a": "auto"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = (
        "import sys, nfde_lab.cli as cli; "
        f"code = cli.main(['check', '--config', {str(path)!r}, '--out', {str(tmp_path)!r}]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "0 False"


def test_setup_mark_comes_before_checker_work(tmp_path, monkeypatch):
    # perfbench/child.py ends `setup_s` at the first call of cli.suggest_a or
    # cli.check_condition; the checkers' phase data must be built after it
    from nfde_lab import cli, compartment

    spec = importlib.util.spec_from_file_location("child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for name in ("suggest_a", "check_condition"):
        monkeypatch.setattr(cli, name, getattr(cli, name))  # restored after the test
    marks = {}
    child._first_entry_hook(cli, ("suggest_a", "check_condition"), marks)
    built = []

    class Marked(compartment._Precomp):
        def __init__(self, *args):
            built.append("first_entry" in marks)
            super().__init__(*args)

    monkeypatch.setattr(compartment, "_Precomp", Marked)
    cfg = {
        "system": {
            "kind": "neutral_diag",
            "m": 1,
            "c": [{"constant": 0.3, "terms": [{"k": [1], "sin": 0.2}]}],
            "alpha": [1.0],
            "rho": [[1.0]],
            "gains": [[1.0]],
        },
        "sampling": {"grid_per_dim": 8, "orbit_points": 8},
        "check": {"conditions": ["G4", "G5"], "a": "auto"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 1)
    assert built and all(built)


def _stage_plan_marks(tmp_path, monkeypatch, task, extra):
    """Run `task` on a short s1 config updated with `extra`, with the set-up
    mark of perfbench/child.py hooked. Return whether the mark was set at
    each plan block or read window built, at each composition of step maps
    and at each evaluation of the balance law's coefficient columns, and
    the number of step calls."""
    from nfde_lab import cli, compartment, integrator

    spec = importlib.util.spec_from_file_location("child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    calls = []
    step = integrator.step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(integrator, "step", counted)  # restored after the test
    marks = {}
    child._first_entry_hook(integrator, ("step",), marks)
    built = []
    for name in ("_PlanBlock", "_ReadWindow"):
        base = getattr(integrator, name)

        def init(self, *args, _base=base):
            built.append("first_entry" in marks)
            _base.__init__(self, *args)

        monkeypatch.setattr(integrator, name, type(name, (base,), {"__init__": init}))
    compose = integrator._compose

    def marked_compose(*args):
        built.append("first_entry" in marks)
        return compose(*args)

    monkeypatch.setattr(integrator, "_compose", marked_compose)
    evaluated = []
    coeffs = compartment._BalanceTerms.coeffs

    def counted_coeffs(self, thetas):
        evaluated.append("first_entry" in marks)
        return coeffs(self, thetas)

    monkeypatch.setattr(compartment._BalanceTerms, "coeffs", counted_coeffs)
    cfg = {
        "system": {
            "kind": "neutral_diag",
            "m": 1,
            "c": [{"constant": 0.3, "terms": [{"k": [1], "sin": 0.2}]}],
            "alpha": [0.5],
            "rho": [[0.5]],
            "gains": [[1.0]],
        },
        "sim": {"h": 0.01, "t_end": 2.0, "log_stride": 10},
        "z_init": {"kind": "constant", "value": [2.0]},
        **extra,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([task, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    return built, evaluated, len(calls)


def test_setup_mark_comes_before_stage_plan_work(tmp_path, monkeypatch):
    # perfbench/child.py ends `setup_s` at the first call of integrator.step;
    # the stage plan's blocks and read windows must be built, their step
    # maps composed, and the balance law's coefficient columns evaluated,
    # after it, and step must run once per step
    built, evaluated, steps = _stage_plan_marks(tmp_path, monkeypatch, "mass-audit", {})
    assert len(built) > 2 and all(built)
    assert evaluated and all(evaluated)
    assert steps == 200


def test_setup_mark_comes_before_stage_plan_work_in_pair(tmp_path, monkeypatch):
    # the same for a pair, which steps each of its two members 200 times;
    # no member may build its stage plan before the first step of either
    extra = {
        "cone": {"a_diag": [-2.0], "horizon": 1.0},
        "z_init_y": {"kind": "ordered_offset", "lam": 0.2},
    }
    built, evaluated, steps = _stage_plan_marks(tmp_path, monkeypatch, "pair", extra)
    assert len(built) > 2 and all(built)
    assert evaluated and all(evaluated)
    assert steps == 2 * 200


# Functions whose float sums must run in an explicit left-to-right order:
# the float result of the built-in `sum` changed in Python 3.12, and
# `math.fsum` rounds once for the whole sum.
ORDERED_SUMS = [
    ("integrator.py", "step"),
    ("integrator.py", "_apply"),
    ("integrator.py", "_Stage.z"),
    ("compartment.py", "_BalanceTerms.balance"),
]


def test_linear_runs_compose_and_nonlinear_runs_balance(monkeypatch):
    # the path follows the system's shapes alone: a law whose active shapes
    # are all the identity steps by composed affine maps and never sums the
    # balance law term by term; a nonlinear one (a saturating transport)
    # never composes a map
    import numpy as np

    from nfde_lab import GOLDEN_FREQ, SimConfig, TorusFlow, TorusPoint, constant_history, run
    from nfde_lab import compartment, integrator
    from nfde_lab.integrator import required_z_horizon

    from .conftest import s1_system
    from .test_integrator import three_compartment_system

    counts = {}
    for name, owner in (("balance", compartment._BalanceTerms), ("_compose", integrator)):

        def counted(*args, _original=getattr(owner, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    flow2 = TorusFlow([GOLDEN_FREQ, np.sqrt(2.0) - 1.0])
    cases = (
        (s1_system(TorusFlow([GOLDEN_FREQ])), TorusPoint([0.2]), {"_compose"}),
        (three_compartment_system(flow2), TorusPoint([0.2, 0.6]), {"balance"}),
    )
    cfg = SimConfig(h=0.02, t_end=3.0)
    for sys, p0, called in cases:
        counts.clear()
        z0 = constant_history([1.0] * sys.m, cfg.h, required_z_horizon(sys, cfg) + 0.1)
        run(sys, p0, z0, cfg)
        assert set(counts) == called
    assert counts["balance"] == 4 * cfg.nsteps


def _function(tree, qualname):
    node = tree
    for name in qualname.split("."):
        node = next(
            n
            for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name
        )
    return node


@pytest.mark.parametrize("module, qualname", ORDERED_SUMS)
def test_stage_arithmetic_calls_no_sum(module, qualname):
    source = (ROOT / "src" / "nfde_lab" / module).read_text()
    body = _function(ast.parse(source), qualname)
    calls = [n.func for n in ast.walk(body) if isinstance(n, ast.Call)]
    names = [f.id if isinstance(f, ast.Name) else getattr(f, "attr", None) for f in calls]
    assert calls and "sum" not in names and "fsum" not in names


def _names(node):
    """Every name a tree refers to or imports, attributes included."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    ]


def test_one_interpolation_rule():
    # cubic_stencil is the only code that knows how to read a sampled
    # history: only it uses the Lagrange weights, and no module keeps a
    # row-shift reader of its own
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    uses = sum(_names(tree).count("_cubic_weights") for tree in trees)
    history = ast.parse((ROOT / "src" / "nfde_lab" / "history.py").read_text())
    inside = _names(_function(history, "cubic_stencil")).count("_cubic_weights")
    assert inside >= 1 and uses == inside
    funcs = [n.name for tree in trees for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert "_shift_rows" not in funcs


def test_one_read_rule():
    # history._read_back is the one causal reader of stored rows: the lift
    # and the mass read through it, the lift's inverse builds its stencils
    # by the same _back_stencil, and only the integrator's stage plan
    # builds cubic stencils of its own
    src = ROOT / "src" / "nfde_lab"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defs = [
        name
        for name, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "_read_back"
    ]
    assert defs == ["history.py"]
    callers = sorted(name for name, tree in trees.items() if _called(tree, "cubic_stencil"))
    assert callers == ["history.py", "integrator.py"]


def _linalg_inv(tree):
    """The reads of numpy.linalg.inv in a tree, and its imports by name."""
    return [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and n.attr == "inv"
        and getattr(n.value, "attr", None) == "linalg"
        or isinstance(n, ast.ImportFrom)
        and n.module == "numpy.linalg"
        and any(a.name == "inv" for a in n.names)
    ]


def test_one_method_of_steps():
    # d_operator.StepPlan is the one method-of-steps kernel: the lift's
    # inverse and the integrator's stages pass it their stencils and take
    # B^-1, the atom weights and the windowed delayed reads from it, and B
    # is inverted by the checked batched inverse alone, the only use of
    # np.linalg.inv
    src = ROOT / "src" / "nfde_lab"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = sum(len(_linalg_inv(tree)) for tree in trees.values())
    inside = len(_linalg_inv(_function(trees["d_operator.py"], "_batch_inverse")))
    assert inside >= 1 and uses == inside
    users = (
        ("d_operator.py", "invert_Dhat"),
        ("integrator.py", "_PlanBlock"),
        ("integrator.py", "_ReadWindow"),
        ("integrator.py", "SimState"),
    )
    kernel_work = ("eval_poly_matrix_many", "weights", "_batch_inverse", "gather", "add_into")
    for name, qualname in users:
        fn = _function(trees[name], qualname)
        assert not [w for w in kernel_work if _called(fn, w)], qualname
    assert _called(_function(trees["d_operator.py"], "invert_Dhat"), "StepPlan")


def _reads_measure_layout(node):
    """An attribute read of the measure's density or its midpoints, or of
    the atoms of the family `nu` (a pipe's atoms are its own)."""
    if not isinstance(node, ast.Attribute):
        return False
    if node.attr in ("density", "midpoints"):
        return True
    owner = node.value
    owner_name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
    return node.attr == "atoms" and owner_name == "nu"


def test_one_delayed_part_and_one_gather():
    # d_operator alone knows how the delayed part is laid out, and
    # history.gather alone sums the four taps of a stencil
    src = ROOT / "src" / "nfde_lab"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    for name, tree in trees.items():
        if name != "d_operator.py":
            reads = [n.lineno for n in ast.walk(tree) if _reads_measure_layout(n)]
            assert not reads, f"{name} reads the measure's layout at lines {reads}"
    uses = sum(_names(tree).count("taps") for tree in trees.values())
    inside = _names(_function(trees["history.py"], "gather")).count("taps")
    assert inside >= 1 and uses == inside


def _called(tree, name):
    """The calls in a tree of a function or class by that name."""
    return [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and (n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)) == name
    ]


def test_one_sampling_plan():
    # base_flow defines the plan and cli parses it onto the flow; no other
    # module builds one or its phases, sample_thetas reads the flow alone,
    # and no frozen dataclass is written to after __post_init__ (a cache on
    # one included). Every sup over the plan, the condition checkers' too,
    # streams its phases by plan_blocks; no function outside base_flow
    # takes the whole plan
    src = ROOT / "src" / "nfde_lab"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defs = [
        (name, n.name)
        for name, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name in ("plan_blocks", "sample_thetas")
    ]
    assert defs == [("base_flow.py", "plan_blocks"), ("base_flow.py", "sample_thetas")]
    streamed = (
        ("d_operator.py", "stability_margin"),
        ("compartment.py", "CompartmentalSystem._check_gains"),
        ("compartment.py", "NeutralDiagSystem.__post_init__"),
        ("compartment.py", "_canonical_a"),
        ("compartment.py", "_scan"),
    )
    for name, qualname in streamed:
        fn = _function(trees[name], qualname)
        assert _called(fn, "plan_blocks") and not _called(fn, "sample_thetas"), qualname
    whole = [
        (name, fn.name)
        for name, tree in trees.items()
        if name != "base_flow.py"
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and _called(fn, "sample_thetas")
    ]
    assert whole == []
    for name, tree in trees.items():
        if name != "base_flow.py":
            phases = _called(tree, "meshgrid") + _called(tree, "unravel_index")
            assert not phases, f"{name} builds plan phases"
        if name not in ("base_flow.py", "cli.py"):
            assert not _called(tree, "SamplingConfig"), f"{name} builds a SamplingConfig"
        for call in _called(tree, "sample_thetas") + _called(tree, "plan_blocks"):
            assert len(call.args) + len(call.keywords) == 1, f"{name}:{call.lineno}"
        setup = {
            id(n)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for n in ast.walk(fn)
        }
        writes = [
            call.lineno
            for call in _called(tree, "__setattr__")
            if isinstance(call.func.value, ast.Name) and call.func.value.id == "object"
            and id(call) not in setup
        ]
        assert not writes, f"{name} sets attributes outside __post_init__ at {writes}"


def test_one_mass_kernel_and_one_cone_margin():
    # compartment._total_mass_many is the one mass kernel: it alone calls
    # np.trapezoid in src/. ordering alone defines the decay slack, and the
    # per-pipe walker and the integrator's copies of the margin are gone
    src = ROOT / "src" / "nfde_lab"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = sum(len(_called(tree, "trapezoid")) for tree in trees.values())
    inside = len(_called(_function(trees["compartment.py"], "_total_mass_many"), "trapezoid"))
    assert inside >= 1 and uses == inside
    defs = [
        (name, n.name)
        for name, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef)
    ]
    assert [name for name, fn in defs if fn == "_decay_slack"] == ["ordering.py"]
    gone = {"_transit_integral", "_margin_witness", "_cone_window"}
    assert not [(name, fn) for name, fn in defs if fn in gone]


def test_one_config_table():
    # cli reads every config key through one table, _TABLE: no per-block
    # defaults or key sets are left beside it, no task reads a number from
    # the config itself, and the README's key table lists exactly the
    # table's keys and defaults
    from nfde_lab import cli

    left = [n for n in vars(cli) if n == "_KEYS" or re.fullmatch(r"_\w+_DEFAULTS", n)]
    assert not left, f"cli keeps {left} beside _TABLE"
    tree = ast.parse((ROOT / "src" / "nfde_lab" / "cli.py").read_text())
    readers = ("_num", "_finite", "_whole", "_flag", "_vector", "_point", "_rates", "_positive")
    tasks = [
        fn
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith(("cmd_", "_sim_setup"))
    ]
    for fn in tasks:
        assert not [r for r in readers if _called(fn, r)], f"{fn.name} parses a key"
    want = {
        (block, key): "—" if default is cli._NONE else f"`{json.dumps(default)}`"
        for block, fields in cli._TABLE.items()
        for key, (_, default) in fields.items()
    }
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| block | key | type | default | bounds |")
    got = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        block, key, _, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        got["" if block == "(top level)" else block.strip("`"), key.strip("`")] = default
    assert got == want


def test_one_system_type():
    # a NeutralDiagSystem is a CompartmentalSystem: every integration, mass
    # and operator function takes the system it is given, with no helper
    # that unwraps it or a copy of its network beside it, and only cmd_check
    # asks for the neutral-diagonal kind
    from nfde_lab.compartment import CompartmentalSystem, NeutralDiagSystem

    assert issubclass(NeutralDiagSystem, CompartmentalSystem)
    src = ROOT / "src" / "nfde_lab"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    asks = []
    for name, tree in trees.items():
        defs = [n for n in ast.walk(tree) if getattr(n, "name", None) == "_general"]
        assert not defs and "_general" not in _names(tree), name
        reads = [n.lineno for n in ast.walk(tree) if getattr(n, "attr", None) == "compartmental"]
        assert not reads, f"{name} reads .compartmental at lines {reads}"
        for top in tree.body:
            for call in _called(top, "isinstance"):
                if "NeutralDiagSystem" in _names(call.args[1]):
                    asks.append((name, getattr(top, "name", None)))
    assert asks == [("cli.py", "cmd_check")]


def test_one_rotation_rule():
    # (theta + t * freqs) mod 1 is written once, in base_flow._rotate: no
    # other module reads the frequencies to move a phase by hand
    src = ROOT / "src" / "nfde_lab"
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    reads = {
        name: [n.lineno for n in ast.walk(tree) if getattr(n, "attr", None) == "freqs"]
        for name, tree in trees.items()
        if name != "base_flow.py"
    }
    assert reads and not any(reads.values()), reads


# (module, class or None, name) of each one-point twin that only tests called;
# tests/oracles.py holds each one, as one row of its array form where it has one
REMOVED = [
    (mod, None, name)
    for mod in ("", "base_flow")
    for name in ("advance", "eval_trig", "derivative_along_flow", "torus_distance")
] + [
    ("d_operator", None, "const_poly_matrix"),
    ("history", "HistoryGrid", "sample_at"),
]


@pytest.mark.parametrize("mod, cls, name", REMOVED)
def test_removed_twins_stay_gone(mod, cls, name):
    owner = importlib.import_module("nfde_lab" + (f".{mod}" if mod else ""))
    if cls is not None:
        owner = getattr(owner, cls)
    assert not hasattr(owner, name), f"{owner.__name__}.{name} is back"


def test_one_history_extension():
    # a history continues past its grid as its oldest sample, the one
    # extension that stays in BU: no tail policy to pick, on the grid or in
    # the functions that build or pass on a grid
    import nfde_lab
    from nfde_lab import history

    assert not hasattr(nfde_lab, "TailPolicy") and not hasattr(history, "TailPolicy")
    assert [f.name for f in dataclasses.fields(history.HistoryGrid)] == ["step", "samples"]
    for fn in (
        history.from_function,
        history.constant_history,
        history.resample,
        history.import_csv,
        history._read_back,
    ):
        assert "tail" not in inspect.signature(fn).parameters, fn.__name__


def test_one_history_representation():
    # every history the package reads is a HistoryGrid: no wrapper of a
    # callable beside it, and no duck-typed probe for what a history has
    import nfde_lab
    from nfde_lab import history

    assert not hasattr(nfde_lab, "FunctionHistory")
    assert not hasattr(history, "FunctionHistory")
    src = ROOT / "src" / "nfde_lab"
    probes = [
        (path.name, n.lineno)
        for path in sorted(src.glob("*.py"))
        for n in _called(ast.parse(path.read_text()), "hasattr")
    ]
    assert not probes, probes
