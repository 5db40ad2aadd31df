"""Correctness gate for one CLI task run.

A run passes when it exited with the expected code, raised nothing, wrote
`summary.txt` and `result.csv`, and meets the task's seed-independent
invariants. For the default seed its outputs must also match the reference
digest recorded at the commit that defined the benchmark. `config.echo.json`
is never compared: it echoes the environment.
"""

from __future__ import annotations

import csv
import math
import os
import re

from workloads import MIN_RETURNS

# Reference agreement: |x - ref| <= ATOL + RTOL * |ref|. The absolute part
# covers margins that are exactly 0 or ~1e-37; both parts are loose enough
# for a method change at the ~1e-7 level and tight enough to catch a wrong
# answer on O(1) states, masses and margins.
ATOL = 1e-6
RTOL = 1e-6

_NUM = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\binf\b|\bnan\b")


def summary_fields(summary: str) -> dict:
    """key=value pairs of a summary, one or more per line."""
    out = {}
    for line in summary.splitlines():
        for part in line.split():
            key, sep, val = part.partition("=")
            if sep:
                out.setdefault(key, []).append(val)
    return out


def invariant_problems(task, summary: str) -> list:
    f = summary_fields(summary)
    if task.task == "mass-audit":
        worst = float(f["max_abs_residual"][0])
        if not worst <= task.limit:
            return [f"mass residual {worst:.3g} above {task.limit:.3g}"]
    elif task.task == "pair":
        margin = float(f["min_cone_margin"][0])
        tol = task.config["sim"].get("tol_cone", 1e-9)
        if not margin >= -tol:
            return [f"min cone margin {margin:.3g} below -{tol:.3g}"]
    elif task.task == "covering":
        probs = []
        if f.get("e_max_trend_monotone_decreasing") != ["yes"]:
            probs.append("e_max trend not monotone")
        returns = [int(v) for v in f.get("returns", [])]
        if len(returns) != len(task.config["covering"]["return_tols"]):
            probs.append("missing return tolerance lines")
        elif min(returns) < MIN_RETURNS:
            probs.append(f"fewer than {MIN_RETURNS} returns for some tolerance")
        return probs
    elif task.task == "invert":
        resid = float(f["roundtrip_residual"][0])
        if not resid <= task.limit:
            return [f"round-trip residual {resid:.3g} above {task.limit:.3g}"]
    elif task.task == "check":
        if f.get("overall") != ["PASS"]:
            return ["check did not give overall=PASS"]
    return []


def digest(outdir: str) -> dict:
    """What a reference comparison looks at: summary numbers and text, and
    the header, row count and per-column sum and max |x| of result.csv."""
    with open(os.path.join(outdir, "summary.txt")) as fh:
        summary = fh.read()
    with open(os.path.join(outdir, "result.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = {}
    for j, name in enumerate(header):
        try:
            vals = [float(r[j]) for r in body]
        except ValueError:
            continue  # text columns such as verdicts and witness phases
        columns[name] = [math.fsum(vals), max((abs(v) for v in vals), default=0.0)]
    return {
        "summary_text": _NUM.sub("#", summary),
        "summary_numbers": [float(v) for v in _NUM.findall(summary)],
        "csv_header": header,
        "csv_rows": len(body),
        "csv_columns": columns,
    }


def _close(x: float, ref: float) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return x == ref or (math.isnan(x) and math.isnan(ref))
    return abs(x - ref) <= ATOL + RTOL * abs(ref)


def reference_problems(got: dict, ref: dict) -> list:
    probs = []
    for key in ("summary_text", "csv_header", "csv_rows"):
        if got[key] != ref[key]:
            probs.append(f"{key} differs from reference")
    a, b = got["summary_numbers"], ref["summary_numbers"]
    if len(a) != len(b) or not all(_close(x, y) for x, y in zip(a, b)):
        probs.append("summary numbers differ from reference")
    if set(got["csv_columns"]) != set(ref["csv_columns"]):
        probs.append("numeric result columns differ from reference")
    else:
        for name, (s, mx) in ref["csv_columns"].items():
            gs, gmx = got["csv_columns"][name]
            # a column sum may cancel, so scale its tolerance by the rows
            if not (_close(gmx, mx) and abs(gs - s) <= ATOL * max(1, got["csv_rows"]) + RTOL * abs(s)):
                probs.append(f"result column {name!r} differs from reference")
    return probs


def task_problems(task, rec: dict, outdir: str, ref=None) -> list:
    """Why one task run fails the gate; an empty list means it passed."""
    if rec["error"] is not None:
        last = rec["error"].strip().splitlines()[-1]
        return [f"uncaught exception: {last}"]
    if rec["exit"] != 0:
        return [f"exit code {rec['exit']}, expected 0"]
    try:
        with open(os.path.join(outdir, "summary.txt")) as fh:
            summary = fh.read()
        probs = invariant_problems(task, summary)
        if ref is not None:
            probs += reference_problems(digest(outdir), ref)
    except (OSError, KeyError, ValueError, IndexError) as e:
        return [f"unreadable output: {e!r}"]
    return probs
