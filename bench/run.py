"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload {requests,search,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh worker
process (``worker.py``) that imports chern3 from the checkout's ``src/``.
The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, with the
end-to-end metrics when --trace is 0 and the per-layer metrics when it is 1.
A copy goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
RESULTS = ROOT / "bench" / "results"
TIMEOUT = 170  # seconds; a run must end within 180


def main() -> int:
    parser = argparse.ArgumentParser(description="chern3 benchmark")
    parser.add_argument("--workload", choices=("requests", "search", "verify"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "chern3" / "cli.py").is_file():
        print(f"no chern3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Its own process group, so that a timeout also ends the worker's children.
    worker = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              preexec_fn=os.setpgrp)
    try:
        stdout, _ = worker.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        print(f"worker did not finish within {TIMEOUT} s", file=sys.stderr)
        return 3
    if worker.returncode != 0:
        print(f"worker exited with {worker.returncode}", file=sys.stderr)
        return worker.returncode if worker.returncode > 0 else 1
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("worker printed no result", file=sys.stderr)
        return 4
    line = json.dumps(result)
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
