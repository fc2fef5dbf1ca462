"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/steady.py [--workloads requests search verify] [--seeds 1-10] [--trace 0]

Runs the command from BENCHMARK.json once per (workload, seed), one run at a
time, and prints for every metric the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and,
for end-to-end metrics, the bound from BENCHMARK.json.  Raw results are
written to bench/results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = elapsed
            raw.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}", flush=True)

    for workload, results in raw.items():
        print(f"\n{workload}  (runs: {len(results)}, wall {sum(r['wall_s'] for r in results):.0f} s)")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f"{bound:6.2f}" + ("" if spread < bound / 3 else "  WIDE")
            print(f"  {name:28s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {flag}")

    out = ROOT / "bench" / "results" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
