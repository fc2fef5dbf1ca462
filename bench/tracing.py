"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each public function listed in ``LAYERS`` with a
timing wrapper, under every name a chern3 module holds it by (``solve_dzero``
lives in both ``chern3.dzero`` and ``chern3.cli``, for example), so calls
are seen whichever module makes them.  Functions called once per request
record a span (name, start, end, parent span, operation id); functions
called once per lattice point, witness or oracle check record only a call
count and aggregate time.  Spans stay in memory until ``dump``.

A group's time counts only its outermost call, so a group whose functions
call each other (``rr_terms`` calls ``rr_intersections``) is not counted
twice.  Every wrapped call also adds its duration to its caller's child
time, which gives each function's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# (module, function) -> (group, records spans)
LAYERS: dict[tuple[str, str], tuple[str, bool]] = {
    ("chern3.cli", "run"): ("cli.run", True),
    ("chern3.cli", "validate_payload"): ("cli.validate", True),
    ("chern3.cli", "response_json"): ("cli.render", True),
    ("chern3.cli", "response_table"): ("cli.render", True),
    ("chern3.ci", "build_ci"): ("ci.build", True),
    ("chern3.chow", "make_threefold"): ("chow.make_threefold", True),
    ("chern3.chow", "mul_div_div"): ("chow.intersection", False),
    ("chern3.chow", "pair_div_curve"): ("chow.intersection", False),
    ("chern3.chow", "triple"): ("chow.intersection", False),
    ("chern3.sheaf", "rr_intersections"): ("sheaf.rr", True),
    ("chern3.sheaf", "rr_terms"): ("sheaf.rr", True),
    ("chern3.sheaf", "euler_char"): ("sheaf.rr", True),
    ("chern3.sheaf", "to_character"): ("sheaf.ops", False),
    ("chern3.sheaf", "from_character"): ("sheaf.ops", False),
    ("chern3.sheaf", "tensor"): ("sheaf.ops", False),
    ("chern3.sheaf", "dual"): ("sheaf.ops", False),
    ("chern3.sheaf", "twist"): ("sheaf.ops", False),
    ("chern3.sheaf", "discriminant"): ("sheaf.ops", False),
    ("chern3.moduli", "expected_dim"): ("moduli.expected_dim", False),
    ("chern3.dzero", "solve_dzero"): ("dzero.solve", True),
    ("chern3.dzero", "dzero_condition"): ("dzero.condition", True),
    ("chern3.dzero", "verify_paper_claims"): ("dzero.claims", True),
    ("chern3.splitting", "verify_tensor_formulas"): ("splitting.verify", True),
    ("chern3.splitting", "tensor_closed_form"): ("splitting.closed_form", False),
    ("chern3.splitting", "chern_from_roots"): ("splitting.roots", False),
    ("chern3.splitting", "tensor_from_roots"): ("splitting.roots", False),
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.spans: list[list[Any]] = []  # [name, start, end, parent, op]
        self.group_time: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.lattice_points = 0
        self.witnesses = 0
        self._depth: Counter[str] = Counter()
        self._frames: list[list[float]] = []  # child time of each open call
        self._open_spans: list[int] = []

    def install(self) -> None:
        """Wrap every listed function under every name chern3 holds it by."""
        for (module_name, attr), (group, spans) in LAYERS.items():
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue  # absent in this version of the program: reads as 0
            wrapper = self._wrap(original, attr, group, spans)
            for name, mod in list(sys.modules.items()):
                if name == "chern3" or name.startswith("chern3."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, fn: Callable, name: str, group: str, spans: bool) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._frames.append(frame)
            outermost = tracer._depth[group] == 0
            tracer._depth[group] += 1
            span = None
            if spans:
                parent = tracer._open_spans[-1] if tracer._open_spans else None
                span = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.op_id])
                tracer._open_spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._depth[group] -= 1
                tracer._frames.pop()
                duration = end - start
                if tracer._frames:
                    tracer._frames[-1][0] += duration
                if outermost:
                    tracer.group_time[group] += duration
                tracer.self_time[name] += duration - frame[0]
                tracer.calls[name] += 1
                if span is not None:
                    tracer._open_spans.pop()
                    tracer.spans[span][1:3] = [start, end]
            if name == "solve_dzero":
                (k_lo, k_hi), (c_lo, c_hi) = args[0].k_range, args[0].c_range
                tracer.lattice_points += (k_hi - k_lo + 1) * (c_hi - c_lo + 1)
                tracer.witnesses += len(result.witnesses)
            return result

        return wrapper

    def per_layer(self, n_ops: int, passes: int, render_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: times in ms per operation, counts per pass."""
        g, c = self.group_time, self.calls

        def ms(seconds: float) -> float:
            return 1000.0 * seconds / n_ops

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        checks = c["tensor_closed_form"]
        return {
            "cli.validate_ms": (ms(g["cli.validate"]), "ms"),
            "cli.validate_calls": (c["validate_payload"] / passes, "count"),
            "cli.handle_ms": (ms(g["cli.run"] - g["cli.validate"]), "ms"),
            "cli.render_ms": (ms(g["cli.render"]), "ms"),
            "cli.render_bytes": (render_bytes / passes, "B"),
            "ci.build_ms": (ms(g["ci.build"]), "ms"),
            "ci.build_calls": (c["build_ci"] / passes, "count"),
            "chow.make_threefold_ms": (ms(g["chow.make_threefold"]), "ms"),
            "chow.make_threefold_calls": (c["make_threefold"] / passes, "count"),
            "chow.intersection_calls": (
                (c["mul_div_div"] + c["pair_div_curve"] + c["triple"]) / passes, "count"),
            "sheaf.rr_ms": (ms(g["sheaf.rr"]), "ms"),
            "sheaf.rr_calls": (c["rr_intersections"] / passes, "count"),
            "sheaf.ops_ms": (ms(g["sheaf.ops"]), "ms"),
            "moduli.expected_dim_ms": (ms(g["moduli.expected_dim"]), "ms"),
            "moduli.expected_dim_calls": (c["expected_dim"] / passes, "count"),
            "dzero.solve_ms": (ms(g["dzero.solve"]), "ms"),
            "dzero.condition_ms": (ms(g["dzero.condition"]), "ms"),
            "dzero.grid_ms": (ms(self.self_time["solve_dzero"]), "ms"),
            "dzero.lattice_points": (self.lattice_points / passes, "count"),
            "dzero.witnesses": (self.witnesses / passes, "count"),
            "dzero.points_per_s": (rate(self.lattice_points, self.self_time["solve_dzero"]), "1/s"),
            "dzero.claims_ms": (ms(g["dzero.claims"]), "ms"),
            "splitting.verify_ms": (ms(g["splitting.verify"]), "ms"),
            "splitting.checks": (checks / passes, "count"),
            "splitting.closed_form_ms": (ms(g["splitting.closed_form"]), "ms"),
            "splitting.roots_ms": (ms(g["splitting.roots"]), "ms"),
            "splitting.checks_per_s": (rate(checks, g["splitting.verify"]), "1/s"),
        }

    def dump(self, path, summary: dict) -> None:
        doc = {
            "summary": summary,
            "calls": dict(self.calls),
            "self_ms": {k: 1000.0 * v for k, v in self.self_time.items()},
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
