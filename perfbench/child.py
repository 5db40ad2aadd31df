"""One measured process: import nfde-lab, run a workload's CLI tasks, report.

Usage: python3 perfbench/child.py <plan.json>

The plan names the tasks (task, config path, output directory), whether to
trace, and where to write the report. Each task runs through
`nfde_lab.cli.main` in this process, so the process covers interpreter
start, the package import and every task, as a user's batch would. An
exception escaping a task is recorded with its traceback and the next task
still runs. Timestamps use time.monotonic, which every process on the
machine shares, so the parent can subtract its own spawn time.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _first_entry_hook(module, names, marks):
    """Record the first call of any of `names` in `module`, then unhook."""
    originals = {n: getattr(module, n) for n in names}

    def make(name):
        orig = originals[name]

        def hooked(*args, **kwargs):
            marks.setdefault("first_entry", time.monotonic())
            for n, f in originals.items():
                setattr(module, n, f)
            return orig(*args, **kwargs)

        return hooked

    for n in names:
        setattr(module, n, make(n))


def _timed(module, name, sink):
    orig = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    setattr(module, name, timed)


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    import nfde_lab.cli as cli
    import nfde_lab.integrator as integrator

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    marks = {}
    run_seconds = []
    # set-up ends at the first integration step, or at the first checker call
    _first_entry_hook(integrator, ("step",), marks)
    _first_entry_hook(cli, ("suggest_a", "check_condition"), marks)
    _timed(cli, "run", run_seconds)
    _timed(cli, "run_ordered_pair", run_seconds)

    tasks = []
    for t in plan["tasks"]:
        rec = {"task": t["task"], "exit": None, "error": None}
        t0 = time.perf_counter()
        try:
            with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
                rec["exit"] = cli.main([t["task"], "--config", t["config"], "--out", t["out"]])
        except (Exception, SystemExit):
            rec["error"] = traceback.format_exc()
        rec["seconds"] = time.perf_counter() - t0
        tasks.append(rec)
    if tracer is not None:
        tracer.save(plan["spans"])
    report = {
        "first_entry": marks.get("first_entry"),
        "run_seconds": run_seconds,
        "tasks": tasks,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(plan["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
