"""nfde-lab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in workloads.py. A run generates the workload's
configs from the seed, then for `--seconds` seconds starts one process per
repetition (child.py), which imports nfde_lab from `src/` and runs the
workload's CLI tasks, one after another, with BLAS and OpenMP pinned to one
thread. Every task run passes through the correctness gate (gate.py); a
failed one counts in `failed`. Timings are medians over the repetitions.

With `--trace 0` the last line reports the end-to-end metrics. With
`--trace 1` the run alternates untraced and traced repetitions; the traced
ones wrap the package's public functions (tracer.py) and the last line
reports the per-layer metrics, including the tracing overhead. Lines before
it print every metric with its unit, the sample count and the machine.

Run records are written under `.perfbench_out/` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_stats  # noqa: E402

DEFAULT_SEED = 0
MIN_REPEATS = 5  # repetitions per untraced run, at least
MIN_TRACED = 2  # traced and untraced repetitions each per traced run, at least
# A run must end within 180 s: no repetition starts after RUN_BUDGET_S, and
# one that overruns CHILD_TIMEOUT_S (several times its normal length) is
# killed and counted as failed.
CHILD_TIMEOUT_S = 30.0
RUN_BUDGET_S = 120.0

# Units of the end-to-end metrics. Every run prints all that apply: wall_s,
# setup_s, peak_rss_mb and failed_frac always, steps_per_s on integrating
# workloads, mass_residual on those that run mass-audit. The last line
# carries the ones BENCHMARK.json lists, which apply to every workload.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "steps_per_s": "1/s",
    "mass_residual": "mass",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict:
    """Machine and software the numbers were measured on."""
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "machine": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(cmd: list, env: dict, stderr_path: Path) -> tuple:
    """Run one process to completion; returns (exit code, wall seconds, t0).

    The wait blocks instead of polling (Popen.wait with a timeout sleeps in
    steps of up to 50 ms, which would quantize the wall time); a timer kills
    a process that overruns, and its negative exit code marks it failed.
    """
    with open(stderr_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    return code, wall, t0


class Run:
    """One benchmark run of one workload: repetitions and their gate results."""

    def __init__(self, tasks: list, trace: bool, workdir: Path, reference=None):
        self.tasks = tasks
        self.trace = trace
        self.workdir = workdir
        self.reference = reference  # one digest per task, or None
        self.env = child_env()
        self.configs = []
        for i, t in enumerate(self.tasks):
            path = workdir / f"config{i}_{t.task}.json"
            path.write_text(json.dumps(t.config, indent=1))
            self.configs.append(path)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.untraced = []  # per repetition: wall, setup, rss, run seconds, error figures
        self.traced = []  # per repetition: wall and layer statistics

    def warm_up(self) -> None:
        """Import once so byte-code caches exist before anything is timed."""
        spawn([sys.executable, "-c", "import nfde_lab.cli"], self.env, self.workdir / "warmup.err")

    def repeat(self, k: int, traced: bool) -> None:
        rdir = self.workdir / f"rep{k}"
        rdir.mkdir()
        plan = {
            "trace": traced,
            "report": str(rdir / "report.json"),
            "spans": str(rdir / "spans.npz"),
            "tasks": [
                {"task": t.task, "config": str(c), "out": str(rdir / f"out{i}")}
                for i, (t, c) in enumerate(zip(self.tasks, self.configs))
            ],
        }
        (rdir / "plan.json").write_text(json.dumps(plan))
        cmd = [sys.executable, str(HERE / "child.py"), str(rdir / "plan.json")]
        code, wall, t0 = spawn(cmd, self.env, rdir / "stderr.txt")
        self.attempted += len(self.tasks)
        try:
            report = json.loads((rdir / "report.json").read_text())
        except (OSError, ValueError):
            report = None
        if code != 0 or report is None:
            err = (rdir / "stderr.txt").read_text().strip().splitlines()[-1:] or [""]
            self.failed += len(self.tasks)
            self.problems.append(f"rep {k}: process exit {code}: {err[0]}")
            shutil.rmtree(rdir)
            return
        figures = {}
        for i, (t, rec) in enumerate(zip(self.tasks, report["tasks"])):
            out = rdir / f"out{i}"
            ref = self.reference[i] if self.reference is not None else None
            probs = gate.task_problems(t, rec, str(out), ref)
            if probs:
                self.failed += 1
                self.problems.append(f"rep {k} {t.task}: " + "; ".join(probs))
            elif t.task == "mass-audit":
                text = (out / "summary.txt").read_text()
                figures["mass_residual"] = float(gate.summary_fields(text)["max_abs_residual"][0])
        # A repetition that reached the computation is timed even when the
        # gate fails it: the run then reports its numbers with correct=false.
        if report["first_entry"] is not None:
            sample = {
                "wall_s": wall,
                "setup_s": report["first_entry"] - t0,
                "peak_rss_mb": report["maxrss_kb"] / 1024.0,
                "run_s": sum(report["run_seconds"]),
                **figures,
            }
            if traced:
                sample["layers"] = layer_stats(plan["spans"])
                self.traced.append(sample)
            else:
                self.untraced.append(sample)
        shutil.rmtree(rdir)

    def execute(self, seconds: float) -> None:
        self.warm_up()
        start = time.monotonic()
        k = 0
        while True:
            elapsed = time.monotonic() - start
            if self.trace:
                enough = min(len(self.untraced), len(self.traced)) >= MIN_TRACED
            else:
                enough = len(self.untraced) >= MIN_REPEATS
            if (elapsed >= seconds and enough) or elapsed >= RUN_BUDGET_S:
                break
            if k >= 4 * MIN_REPEATS and not (self.untraced or self.traced):
                break  # nothing succeeds; stop early
            self.repeat(k, traced=self.trace and k % 2 == 1)
            k += 1

    # --- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict:
        reps = self.untraced
        out = {
            key: statistics.median(r[key] for r in reps)
            for key in ("wall_s", "setup_s", "peak_rss_mb")
        }
        out["failed_frac"] = self.failed / self.attempted
        steps = sum(t.steps for t in self.tasks)
        if steps:
            out["steps_per_s"] = statistics.median(steps / r["run_s"] for r in reps)
        residuals = [r["mass_residual"] for r in reps if "mass_residual" in r]
        if residuals:
            out["mass_residual"] = max(residuals)
        return out

    def per_layer(self, names) -> dict:
        """Per-layer metrics by name: <module>.<function>.<field>, or derived
        from the spans (log_s, csv_s, step percentiles, tracing overhead)."""
        layers = [r["layers"] for r in self.traced]

        def med(fn):
            return statistics.median(fn(L) for L in layers)

        steps = layers[0]["integrator.step"]["calls"]
        step_us = np.concatenate([L["integrator.step"]["durations"] for L in layers]) * 1e6
        out = {
            "integrator.step.p50_us": float(np.percentile(step_us, 50)) if steps else 0.0,
            "integrator.step.p99_us": float(np.percentile(step_us, 99)) if steps else 0.0,
            "integrator.log_s": med(lambda L: L["integrator.log_s"]),
            "integrator.csv_s": med(
                lambda L: L["integrator.trajectory_to_csv"]["total_s"]
                + L["integrator.pair_to_csv"]["total_s"]
            ),
            "trace.overhead_s": statistics.median(r["wall_s"] for r in self.traced)
            - statistics.median(r["wall_s"] for r in self.untraced),
        }
        for metric in names:
            if metric in out:
                continue
            name, field = metric.rsplit(".", 1)
            first = layers[0][name]  # counts repeat exactly across repetitions
            if field == "calls_per_step":
                out[metric] = first["calls"] / steps if steps else 0.0
            elif field in ("calls", "rows", "points"):
                out[metric] = first["calls" if field == "calls" else "size"]
            else:
                out[metric] = med(lambda L: L[name][field])
        return {k: out[k] for k in names}


def print_table(title: str, values: dict, units: dict, count: int) -> None:
    print(f"{title} (median over {count} repetitions where timed)")
    for key, val in values.items():
        print(f"  {key:<44} {val:>16.6g} {units[key]}")


def bench(name: str, seed: int, seconds: float, trace: bool, outroot: Path, spec: dict) -> dict:
    workdir = outroot / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[name]
    run = Run(workloads.generate(name, seed), trace, workdir, reference)
    try:
        run.execute(seconds)
    finally:
        shutil.rmtree(workdir)
    if not run.untraced or (trace and not run.traced):
        for p in run.problems[:5]:
            print(f"  problem: {p}", file=sys.stderr)
        raise SystemExit(f"{name}: no repetition completed; nothing to report")
    e2e = run.end_to_end()
    print(f"workload {name} seed {seed}: {workloads.WORKLOADS[name].why}")
    print_table("end to end", e2e, END_TO_END, len(run.untraced))
    print(f"  attempted task runs {run.attempted}, failed {run.failed}")
    for p in run.problems:
        print(f"  problem: {p}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {},
    }
    record = {"workload": name, "seed": seed, "trace": trace, "end_to_end": e2e}
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = run.per_layer(units)
        print_table("per layer (traced)", layers, units, len(run.traced))
        record["per_layer"] = layers
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        result["metrics"] = {
            m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
    record.update(result, repetitions=len(run.untraced), traced_repetitions=len(run.traced))
    record["samples"] = [
        {k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "run_s")} for r in run.untraced
    ]
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nfde_lab" / "__init__.py").is_file():
        print(f"nfde_lab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outroot = ROOT / ".perfbench_out"
    env = environment()
    print("environment: " + json.dumps(env))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [bench(n, args.seed, args.seconds, bool(args.trace), outroot, spec) for n in names]
    for r in records:
        r["environment"] = env
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outroot / f"{tag}.json").write_text(json.dumps(records, indent=1) + "\n")
    if len(records) == 1:
        r = records[0]
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    else:
        print(json.dumps({r["workload"]: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")} for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
