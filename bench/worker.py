"""Runs one workload in a fresh process and prints its result as JSON.

Started by ``run.py``; imports chern3 from the checkout's ``src/`` only.
One client drives ``chern3.cli.run`` and ``response_json``/``response_table``
in a closed loop over the workload's operation list, in whole passes after
one untimed warm-up pass.  Between passes it times fresh interpreters
(``setup_s``) and fresh ``python -m chern3.cli`` requests
(``cold_request_ms``), spread through the run because the host's speed
drifts over minutes.  Every output, including the fresh requests', is
checked against ``oracle`` outside the timed region.

With ``--trace 1`` the passes run under ``tracing.Tracer`` and the fresh
processes are ``probe.py`` children run with ``-X importtime``; only
per-layer metrics are reported then.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"

N_SETUP = 9  # fresh interpreters importing chern3.cli
N_COLD = 7  # fresh CLI requests
N_PROBE = 5  # traced runs: fresh first-main() probes
REFERENCES_AROUND_FRESH = 3  # reference timings on each side of a fresh process
MIN_OPS = 110  # so that at least ten timed operations lie beyond the 90th percentile
FRESH_TIMEOUT = 120

# This host's speed drifts by up to a third between minutes, and every
# timing of a run moves with it.  Each run therefore times a fixed reference
# workload about every CALIBRATE_EVERY_S seconds and reports its timings at
# the speed where the reference takes NOMINAL_REFERENCE_S; raw values go to
# the run's detail file.  The speed switches between two levels within
# seconds, so the run's reference time is a trimmed mean, not a median.
CALIBRATE_EVERY_S = 0.1
NOMINAL_REFERENCE_S = 0.005


def reference() -> float:
    """Seconds for a fixed stdlib-only workload of the kinds chern3 does:
    exact rational arithmetic, string building, dicts and JSON encoding."""
    start = time.perf_counter()
    total = Fraction(0)
    rows = {}
    for i in range(1, 400):
        total += Fraction(i, 7) * Fraction(3, i + 2) - Fraction(1, i)
        rows[f"row{i}"] = [str(total.numerator % 1000), i * i]
    json.dumps(rows)
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["CHERN3_MAX_ENUM"] = str(workloads.SEARCH_CAP)
    return env


ENV = child_env()


def fresh(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of one fresh interpreter running ``args``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=FRESH_TIMEOUT)
    return time.perf_counter() - start, proc


class Checker:
    """Checks outputs against ``oracle``; an output identical to one already
    verified for the same operation is accepted by that equality."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.verified: dict[object, str] = {}
        self.dzero: dict[object, oracle.DZeroExpectation] = {}
        self._claims: list[oracle.DZeroExpectation] | None = None

    def claims(self) -> list[oracle.DZeroExpectation]:
        if self._claims is None:
            self._claims = oracle.claims_expectation()
        return self._claims

    def _program(self, command: str, payload: dict) -> dict:
        """The program's answer to a round-trip request made by a check."""
        try:
            return self.cli.run(self.cli.Request(command, payload, "json")).data
        except Exception as exc:  # failing its own round trip is a wrong answer
            raise oracle.Mismatch(f"{command} round trip: {type(exc).__name__}: {exc}") from exc

    def _target(self, op: workloads.Op) -> dict:
        return {k: op.payload[k] for k in ("preset", "threefold") if k in op.payload}

    def check(self, key: object, op: workloads.Op, rendered: str) -> None:
        if self.verified.get(key) == rendered:
            return
        self.check_flat(key, op, oracle.parse_output(op.command, op.mode, rendered))
        self.verified[key] = rendered

    def check_flat(self, key: object, op: workloads.Op, flat: dict[str, str]) -> None:
        X, meta = op.target, op.meta
        if op.command == "threefold":
            oracle.check_threefold(X.preset, flat)
        elif op.command == "chi":
            oracle.check_chi(X, meta["roots"], flat)
        elif op.command == "moduli-dim":
            oracle.check_moduli_dim(X, meta["roots"], flat)
        elif op.command == "chern":
            oracle.check_chern(X, op.payload["op"], meta, flat)
            if op.payload["op"] == "dual":
                self._dual_twice(op, flat)
        elif op.command == "serre":
            oracle.check_serre(X, meta, flat)
            self._serre_round_trip(op, flat)
        elif op.command == "ledger":
            oracle.check_ledger(meta, flat)
        elif op.command == "dzero" and meta.get("verify_paper"):
            oracle.expect(flat, "ok", "true")
            oracle.check_claims(self.claims(), flat, "claims")
        elif op.command == "dzero":
            k_range, c_range = op.payload["k_range"], op.payload["c_range"]
            if key not in self.dzero:
                self.dzero[key] = oracle.dzero_expectation(X, k_range, c_range)
            oracle.check_dzero(k_range, c_range, self.dzero[key], flat)
        elif op.command == "verify":
            oracle.check_verify(meta, flat, self.claims())
        else:
            raise oracle.Mismatch(f"no check for {op.command}")

    def _dual_twice(self, op: workloads.Op, flat: dict[str, str]) -> None:
        m = op.target.m
        once = {"rank": int(flat["result.rank"]),
                "c1": [flat[f"result.c1[{i}]"] for i in range(m)],
                "c2": [flat[f"result.c2[{i}]"] for i in range(m)],
                "c3": flat["result.c3"]}
        twice = self._program("chern", {"op": "dual", "F": once, **self._target(op)})["result"]
        if twice != op.payload["F"]:
            raise oracle.Mismatch(f"dual of the dual is {twice}, not {op.payload['F']}")

    def _serre_round_trip(self, op: workloads.Op, flat: dict[str, str]) -> None:
        base = {k: op.payload[k] for k in ("det", "c2")} | self._target(op)
        if op.meta["direction"] == "to-c3":
            back = self._program("serre", {**base, "direction": "to-genus", "c3": flat["c3"]})
            oracle.expect(back, "genus", op.meta["genus"])
        else:
            back = self._program("serre", {**base, "direction": "to-c3", "genus": flat["genus"]})
            oracle.expect(back, "c3", op.meta["c3"])


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, traced: bool) -> None:
        sys.path.insert(0, str(SRC))
        os.environ["CHERN3_MAX_ENUM"] = ENV["CHERN3_MAX_ENUM"]
        import chern3.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"chern3 imported from {cli.__file__}, not from {SRC}")
        self.cli = cli
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.ops = workloads.build(workload, seed)
        self.cold_argv, self.cold_op = workloads.cold_request(workload, seed)
        self.checker = Checker(cli)
        self.tracer = Tracer() if traced else None
        if self.tracer:
            self.tracer.install()
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []
        self.samples: dict[str, list[float]] = {"setup": [], "cold": []}  # seconds
        self.probes: list[dict] = []
        self.reference_times: list[float] = []

    # ------------------------------------------------------------ operations

    def verify_output(self, key: object, op: workloads.Op, rendered: str | None) -> None:
        self.attempted += 1
        if rendered is None:
            self.failed += 1
            return
        try:
            self.checker.check(key, op, rendered)
        except (oracle.Mismatch, KeyError, ValueError) as exc:
            self.mismatches.append(f"{op.command} {key}: {type(exc).__name__}: {exc}")

    def one_pass(self, timed: bool = True) -> tuple[float, list[float], int]:
        """Run every operation once; returns busy time, per-op times, bytes.

        Between operations of a timed pass the reference workload is timed
        when it is due; busy time is the sum of the operations' times.
        """
        cli, Request = self.cli, self.cli.Request
        tracer = self.tracer if timed else None
        times, outputs = [], []
        if tracer:
            tracer.active = True
        last_reference = time.perf_counter()
        for i, op in enumerate(self.ops):
            if timed and time.perf_counter() - last_reference >= CALIBRATE_EVERY_S:
                if tracer:
                    tracer.active = False
                self.reference_times.append(reference())
                last_reference = time.perf_counter()
                if tracer:
                    tracer.active = True
            if tracer:
                tracer.op_id = i
            t0 = time.perf_counter()
            try:
                response = cli.run(Request(op.command, op.payload, op.mode))
                rendered = (cli.response_json(response) if op.mode == "json"
                            else cli.response_table(response))
            except Exception as exc:  # a failed operation is counted, not fatal
                print(f"operation {i} ({op.command}) failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                rendered = None
            times.append(time.perf_counter() - t0)
            outputs.append(rendered)
        if tracer:
            tracer.active = False
        for i, (op, rendered) in enumerate(zip(self.ops, outputs)):
            self.verify_output(i, op, rendered)
        return sum(times), times, sum(len(r.encode()) for r in outputs if r is not None)

    # ------------------------------------------------------- fresh processes

    def sample(self, kind: str) -> None:
        """One fresh process, with reference timings on both sides of it."""
        self.reference_times += [reference() for _ in range(REFERENCES_AROUND_FRESH)]
        if kind == "setup":
            elapsed, proc = fresh(["-c", "import chern3.cli"])
            if proc.returncode != 0:
                raise SystemExit(f"fresh import failed: {proc.stderr[-500:]}")
        elif kind == "cold":
            elapsed, proc = fresh(["-m", "chern3.cli", *self.cold_argv])
            rendered = proc.stdout.rstrip("\n")
        else:
            elapsed, proc = fresh(["-X", "importtime", str(ROOT / "bench" / "probe.py"),
                                   *self.cold_argv])
            probe = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            probe["jsonschema_ms"] = _importtime_ms(proc.stderr, "jsonschema")
            rendered = probe.pop("output", "").rstrip("\n")
        self.reference_times += [reference() for _ in range(REFERENCES_AROUND_FRESH)]
        if kind == "probe":
            self.probes.append(probe)
        else:
            self.samples[kind].append(elapsed)
        if kind != "setup":
            ok = proc.returncode == 0 and rendered
            self.verify_output("cold", self.cold_op, rendered if ok else None)

    def warm_up_process(self) -> None:
        _, proc = fresh(["-c", "import chern3.cli; print(chern3.cli.__file__)"])
        where = Path(proc.stdout.strip()).resolve() if proc.returncode == 0 else None
        if where is None or not where.is_relative_to(SRC.resolve()):
            raise SystemExit(f"fresh interpreters do not import chern3 from {SRC}: {proc.stderr[-500:]}")

    # --------------------------------------------------------------- the run

    def execute(self) -> dict:
        self.warm_up_process()
        warm_busy, _, _ = self.one_pass(timed=False)
        kinds = {"probe": N_PROBE} if self.traced else {"setup": N_SETUP, "cold": N_COLD}
        min_ops = 1 if self.traced else MIN_OPS
        planned = max(math.ceil(self.seconds / warm_busy), math.ceil(min_ops / len(self.ops)))
        schedule = _spread(kinds, planned + 1)

        busy: list[float] = []
        times: list[float] = []
        render_bytes = 0
        while True:
            for kind in schedule.pop(len(busy), []):
                self.sample(kind)
            spent, op_times, nbytes = self.one_pass()
            busy.append(spent)
            times += op_times
            render_bytes += nbytes
            if sum(busy) >= self.seconds and len(times) >= min_ops:
                break
        for gap in sorted(schedule):
            for kind in schedule[gap]:
                self.sample(kind)

        speed = NOMINAL_REFERENCE_S / _trimmed_mean(self.reference_times)
        if self.traced:
            measured = [(name, value, unit) for name, (value, unit)
                        in self.tracer.per_layer(len(times), len(busy), render_bytes).items()]
            for name, key in (("import.jsonschema_ms", "jsonschema_ms"), ("import.cli_ms", "import_ms"),
                              ("cli.first_main_ms", "first_main_ms")):
                values = [p[key] for p in self.probes if key in p]
                measured.append((name, statistics.median(values) if values else 0.0, "ms"))
        else:
            deciles = statistics.quantiles(times, n=10)
            measured = [
                ("setup_s", statistics.median(self.samples["setup"]), "s"),
                ("cold_request_ms", 1000.0 * statistics.median(self.samples["cold"]), "ms"),
                ("latency_p50_ms", 1000.0 * deciles[4], "ms"),
                ("latency_p90_ms", 1000.0 * deciles[8], "ms"),
                ("throughput_ops_s", statistics.median(len(self.ops) / b for b in busy), "1/s"),
                ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            ]
        rows = [(name, value, _at_nominal_speed(value, unit, speed), unit)
                for name, value, unit in measured]
        metrics = {name: (value, unit) for name, _, value, unit in rows}
        raw = {name: value for name, value, _, _ in rows}
        for line in self.mismatches[:20]:
            print("MISMATCH", line, file=sys.stderr)
        print(f"{self.workload} seed={self.seed} passes={len(busy)} timed_ops={len(times)} "
              f"busy_s={sum(busy):.2f} speed={speed:.3f}", file=sys.stderr)
        self.write_detail(raw, speed, busy, times)
        return {
            "correct": not self.mismatches,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def write_detail(self, raw: dict, speed: float, busy: list[float], times: list[float]) -> None:
        """Raw metrics, the speed factor and the run's shape, beside the result."""
        RESULTS.mkdir(parents=True, exist_ok=True)
        detail = {
            "workload": self.workload, "seed": self.seed, "traced": self.traced,
            "passes": len(busy), "ops": len(times), "busy_s": sum(busy),
            "speed": speed, "reference_ms": [1000.0 * t for t in self.reference_times],
            "raw_metrics": raw,
            "fresh_samples": self.samples, "probes": self.probes,
        }
        name = f"{self.workload}-seed{self.seed}-trace{int(self.traced)}.detail.json"
        (RESULTS / name).write_text(json.dumps(detail), encoding="utf-8")
        if self.traced:
            print(f"traced throughput {len(times) / sum(busy):.3f} ops/s (raw)", file=sys.stderr)
            self.tracer.dump(RESULTS / f"trace-{self.workload}-{self.seed}.json", detail)


def _trimmed_mean(values: list[float]) -> float:
    """Mean of the values without the lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.mean(ordered[cut:len(ordered) - cut])


def _at_nominal_speed(value: float, unit: str, speed: float) -> float:
    """A timing as it would read at the nominal reference speed."""
    if unit in ("s", "ms"):
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def _spread(counts: dict[str, int], gaps: int) -> dict[int, list[str]]:
    """Spread the fresh-process samples evenly over the gaps between passes."""
    tasks = sorted(((j + 0.5) / n, kind) for kind, n in counts.items() for j in range(n))
    schedule: dict[int, list[str]] = {}
    for position, kind in tasks:
        schedule.setdefault(min(gaps - 1, int(position * gaps)), []).append(kind)
    return schedule


def _importtime_ms(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                return int(parts[1]) / 1000.0
    return 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
