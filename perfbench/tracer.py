"""Span recording around nfde-lab's public functions, installed from outside.

The package imports functions by name (`from .history import cubic_rows`),
so one function object is reachable under several module globals. `install`
replaces every such reference in every traced module with one wrapper, so a
call is recorded whichever module makes it. Spans stay in memory and are
written once, when the run ends.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

MODULES = ("cli", "integrator", "d_operator", "history", "base_flow", "compartment", "ordering")

# Public functions traced per defining module. A size function, where given,
# records how much work one call was asked to do (rows returned, points
# evaluated), from the call's arguments and result.
TRACED = {
    "cli": {"main": None},
    "integrator": {
        "run": None,
        "run_ordered_pair": None,
        "step": None,
        "init_from_z": None,
        "required_z_horizon": None,
        "reconstruct_z": None,
        "covering_diagnostic": None,
        "trajectory_to_csv": None,
        "pair_to_csv": None,
    },
    "d_operator": {
        "invert_Dhat": lambda args, kw, res: res.samples.shape[0],
        "eval_Dhat_segment": None,
        "eval_D": None,
        "stability_margin": None,
        "sample_thetas": None,
    },
    "history": {
        "cubic_rows": lambda args, kw, res: np.size(args[1]),
        "resample": None,
        "from_function": None,
        "export_csv": None,
    },
    "base_flow": {
        "eval_trig_many": lambda args, kw, res: np.shape(res)[0],
        "advance_many": None,
    },
    "compartment": {
        "eval_F": None,
        "total_mass": None,
        "mass_balance_residual": None,
        "check_condition": None,
        "condition_margins": None,
        "suggest_a": None,
    },
    "ordering": {"make_comparison_upper": None, "matrix_exp": None},
}


class Tracer:
    """In-memory span store: name id, start, end, parent index, size."""

    def __init__(self):
        self.names = []
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self.size = []
        self._stack = [-1]

    def _wrap(self, qualname: str, fn, size_fn):
        nid = len(self.names)
        self.names.append(qualname)
        name_of, start, end, parent, size = self.name_of, self.start, self.end, self.parent, self.size
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            size.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if size_fn is not None:
                size[idx] = int(size_fn(args, kwargs, res))
            return res

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"nfde_lab.{m}") for m in MODULES}
        mods["nfde_lab"] = importlib.import_module("nfde_lab")
        for home, funcs in TRACED.items():
            for fname, size_fn in funcs.items():
                fn = getattr(mods[home], fname)
                wrapper = self._wrap(f"{home}.{fname}", fn, size_fn)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_of=np.array(self.name_of, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            size=np.array(self.size, dtype=np.int64),
        )


def layer_stats(path: str) -> dict:
    """Per function: calls, total and self seconds, summed size, durations.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it on one thread.
    """
    with np.load(path) as z:
        names = list(z["names"])
        name_of, start, end = z["name_of"], z["start"], z["end"]
        parent, size = z["parent"], z["size"]
    dur = end - start
    child_time = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    stats = {}
    for nid, name in enumerate(names):
        sel = name_of == nid
        stats[name] = {
            "calls": int(np.count_nonzero(sel)),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_time[sel].sum()),
            "size": int(size[sel].sum()),
            "durations": dur[sel],
        }
    # time inside run/run_ordered_pair spent outside stepping and set-up
    run_ids = [names.index(n) for n in ("integrator.run", "integrator.run_ordered_pair")]
    inner_ids = [names.index(n) for n in ("integrator.step", "integrator.init_from_z")]
    in_run = np.isin(name_of, run_ids)
    inner = np.isin(name_of, inner_ids) & np.isin(parent, np.nonzero(in_run)[0])
    stats["integrator.log_s"] = float(dur[in_run].sum() - dur[inner].sum())
    return stats
