"""Record the reference digests that the correctness gate compares against.

Usage: python3 perfbench/reference.py

Runs every workload's tasks for the default seed in this process and writes
perfbench/reference.json. Run it only on the commit whose outputs are the
reference; a later commit that changes the numerical method must still
match the recorded digests within gate.ATOL and gate.RTOL.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def main() -> int:
    from nfde_lab.cli import main as cli_main

    refs = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name in workloads.WORKLOADS:
            digests = []
            for i, t in enumerate(workloads.generate(name, DEFAULT_SEED)):
                cfg = os.path.join(tmp, f"{name}{i}.json")
                out = os.path.join(tmp, f"{name}{i}")
                with open(cfg, "w") as fh:
                    json.dump(t.config, fh)
                with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
                    code = cli_main([t.task, "--config", cfg, "--out", out])
                rec = {"exit": code, "error": None}
                probs = gate.task_problems(t, rec, out)
                if probs:
                    raise SystemExit(f"{name} {t.task}: {probs}")
                digests.append(gate.digest(out))
            refs[name] = digests
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
