"""Seeded operation lists for the three workloads.

Each workload is a fixed skeleton of operation slots: which command, which
kind of target, how large a search rectangle, which render mode.  The seed
fills the slots (which preset or custom threefold, which sheaf, where the
rectangle sits, which oracle seed) and shuffles their order, so every seed
does the same mix of heavy and light work and only the inputs differ.  A
pass runs the whole list once; runs are made of whole passes.

Every operation carries, besides the request payload, the description the
independent checks in ``oracle`` need; nothing here imports chern3.

    python3 bench/workloads.py --describe [--seed N]

prints the make-up of each workload for the given seed.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import Model, Preset, chern_of_roots, text

WORKLOADS = ("requests", "search", "verify")

# The search workload runs with this CHERN3_MAX_ENUM, so that a rectangle at
# the cap costs seconds rather than most of a run.
SEARCH_CAP = 200_000

FANO = tuple(Preset(n, d) for n, d in (
    (3, ()), (4, (1,)), (4, (2,)), (4, (3,)), (4, (4,)), (5, (2, 2)), (5, (2, 3)), (6, (2, 2, 2)),
))
CALABI_YAU = tuple(Preset(n, d) for n, d in (
    (4, (5,)), (5, (2, 4)), (5, (3, 3)), (6, (2, 2, 3)), (7, (2, 2, 2, 2)),
))
GENERAL = tuple(Preset(n, d) for n, d in (
    (4, (6,)), (4, (7,)), (5, (3, 4)), (5, (2, 5)), (6, (3, 3, 3)),
))
P3 = FANO[0]

F = Fraction


def _model(T: dict, m: int, c1, c2, lattice=None) -> Model:
    """Model from the nonzero entries of a symmetric trilinear form."""
    form = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    for (i, j, k), v in T.items():
        for p, q, r in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
            form[p][q][r] = F(v)
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in form)
    lat = None if lattice is None else tuple(tuple(F(x) for x in g) for g in lattice)
    return Model(frozen, tuple(F(x) for x in c1), tuple(F(x) for x in c2), lat)


# Threefolds written out as documents: P3, P1 x P2 and (P1)^3.
GEOMETRIC = {
    1: _model({(0, 0, 0): 1}, 1, (4,), (6,), ((1,),)),
    2: _model({(0, 1, 1): 1}, 2, (2, 3), (3, 6)),
    3: _model({(0, 1, 2): 1}, 3, (2, 2, 2), (4, 4, 4)),
}


def random_model(rng: random.Random, m: int) -> Model:
    """A numerical threefold with m generators and nonzero c1(X)."""
    if m == 1:
        c1 = rng.choice((-2, -1, 1, 2, 3, 4))
        c2 = F(rng.randint(1, 60), rng.choice((1, 1, 2, 3)))
        g = rng.choice((F(1), F(1), F(2), F(1, 2)))
        return _model({(0, 0, 0): rng.randint(1, 8)}, 1, (c1,), (c2,), ((g,),))
    T = {}
    for i in range(m):
        for j in range(i, m):
            for k in range(j, m):
                T[(i, j, k)] = rng.randint(0, 3)
    T[(0, 0, 0)] = rng.randint(1, 3)
    c1 = [rng.randint(-1, 3) for _ in range(m)]
    c1[0] = rng.randint(1, 3)
    return _model(T, m, c1, [rng.randint(0, 30) for _ in range(m)])


@dataclass
class Op:
    """One request, the render mode, and what the checks need to know."""

    command: str
    payload: dict
    mode: str
    target: Model | None = None
    target_key: str | None = None
    meta: dict = field(default_factory=dict)
    points: int = 0


def _target_payload(op: Op, key: str, X: Model) -> None:
    if X.preset is not None:
        op.payload["preset"] = X.preset.name
    else:
        op.payload["threefold"] = X.doc()
    op.target, op.target_key = X, key


def _roots(rng: random.Random, X: Model, rank: int) -> tuple[tuple[Fraction, ...], ...]:
    span = 3 if X.m == 1 else 2
    return tuple(tuple(F(rng.randint(-span, span)) for _ in range(X.m)) for _ in range(rank))


PRESETS = {p.name: p for p in FANO + CALABI_YAU + GENERAL}


class _Targets:
    """Hands out the targets of a class in a fixed rotation.

    The rotation does not depend on the seed, so every seed searches and
    resolves the same presets; only the custom models' numbers are seeded.
    """

    def __init__(self, rng: random.Random):
        self.pools: dict[str, list[tuple[str, Model]]] = {
            name: [(p.name, p.model()) for p in pool]
            for name, pool in (("fano", FANO), ("cy", CALABI_YAU), ("general", GENERAL))
        }
        for m in (1, 2, 3):
            self.pools[f"custom{m}"] = [(f"custom{m}:geometric", GEOMETRIC[m])] + [
                (f"custom{m}:random{i}", random_model(rng, m)) for i in range(2)]
        self.used: dict[str, int] = {}

    def pick(self, cls: str) -> tuple[str, Model]:
        """Next target of a class, or the preset of that name."""
        if cls in PRESETS:
            return cls, PRESETS[cls].model()
        pool = self.pools[cls]
        i = self.used.get(cls, 0)
        self.used[cls] = i + 1
        return pool[i % len(pool)]


_CLASSES = ("fano", "cy", "general", "custom1", "custom2", "custom3")

# (command, variant, count) per pass of the requests workload.
_REQUESTS = (
    ("threefold", None, 6),
    ("chern", "tensor", 4), ("chern", "dual", 4), ("chern", "twist", 4), ("chern", "delta", 4),
    ("chi", None, 8),
    ("moduli-dim", None, 6),
    ("serre", "to-c3", 4), ("serre", "to-genus", 4),
    ("ledger", None, 4),
)


def _requests(seed: int) -> list[Op]:
    rng = random.Random(seed)
    targets = _Targets(rng)
    ops: list[Op] = []
    slot = 0
    for command, variant, count in _REQUESTS:
        for i in range(count):
            mode = "json" if i % 2 == 0 else "table"
            op = Op(command, {}, mode)
            if command == "threefold":
                key, X = targets.pick(("fano", "cy", "general")[i // 2])
                op.payload = {"ambient": X.preset.ambient, "degrees": list(X.preset.degrees)}
                op.target, op.target_key = X, key
            elif command == "ledger":
                h0_n, h0_f = rng.randint(0, 12), rng.randint(0, 6)
                op.payload = {"h0_N": h0_n + h0_f, "h0_F": h0_f}
                if i % 2:
                    op.payload["h1_IC_zero"] = True
                else:
                    op.payload["h0_IF"] = rng.randint(0, 5)
                op.meta = dict(op.payload)
            else:
                cls = _CLASSES[slot % len(_CLASSES)]
                if command == "serre" and i == 0:
                    cls = P3.name
                slot += 1
                key, X = targets.pick(cls)
                _fill_target_op(rng, op, variant, X, i)
                _target_payload(op, key, X)
            ops.append(op)
    rng.shuffle(ops)
    return ops


def _fill_target_op(rng: random.Random, op: Op, variant: str | None, X: Model, i: int) -> None:
    """Seeded sheaf data for the i-th slot of a command; ranks follow the slot."""
    if op.command in ("chi", "moduli-dim"):
        rank = 2 if op.command == "moduli-dim" else 1 + i % 3
        roots = _roots(rng, X, rank)
        op.payload = chern_of_roots(X, roots).doc()
        op.meta = {"roots": roots}
    elif op.command == "chern":
        roots = _roots(rng, X, 1 + i % 3)
        op.meta = {"F": roots}
        op.payload = {"op": variant, "F": chern_of_roots(X, roots).doc()}
        if variant == "tensor":
            op.meta["E"] = _roots(rng, X, 1 + (i + 1) % 3)
            op.payload["E"] = chern_of_roots(X, op.meta["E"]).doc()
        elif variant == "twist":
            op.meta["L"] = _roots(rng, X, 1)[0]
            op.payload["L"] = [text(x) for x in op.meta["L"]]
        elif variant == "delta" and i % 2:
            # Hand the program a twist of F; its discriminant must be F's.
            shift = _roots(rng, X, 1)[0]
            twisted = tuple(tuple(a + b for a, b in zip(D, shift)) for D in roots)
            op.payload["F"] = chern_of_roots(X, twisted).doc()
    else:  # serre
        det = tuple(F(rng.randint(-2, 3)) for _ in range(X.m))
        c2 = tuple(F(rng.randint(1, 20)) for _ in range(X.m))
        op.meta = {"direction": variant, "det": det, "c2": c2}
        op.payload = {"direction": variant, "det": [text(x) for x in det],
                      "c2": [text(x) for x in c2]}
        if variant == "to-c3":
            op.meta["genus"] = F(rng.randint(0, 12))
            op.payload["genus"] = text(op.meta["genus"])
        else:
            base = 2 * rng.randint(0, 12) - 2 + X.pair(
                tuple(a - b for a, b in zip(X.c1X, det)), c2)
            op.meta["c3"] = base + (i == 3)  # one in four gives no curve: a half-integral genus
            op.payload["c3"] = text(op.meta["c3"])


# Search rectangles per pass: (count, lattice points, targets cycled).  As
# many operations lie below the 5k class as above it, so the median falls
# inside that class; the 90th percentile falls inside the top class of
# 20k-point searches and 5k-point Calabi-Yau searches, whose times agree.
# Targets are fixed per slot, because the cost per point differs by target;
# the seeded custom models sit in the 10k class, away from both percentiles.
_SEARCH = (
    (13, 1_000, tuple(p.name for p in FANO + GENERAL)),
    (8, 5_000, ("[2] in P4", "[2,3] in P5", "[3] in P4", "[2,2] in P5", "[7] in P4",
                "[3,4] in P5", "[] in P3", "[1] in P4")),
    (5, 10_000, ("custom1", "custom1", "custom1", "[2,2,2] in P6", "[6] in P4")),
    (4, 20_000, ("[2] in P4", "[2,3] in P5", "[3,3,3] in P6", "[2,5] in P5")),
    (3, 5_000, ("[5] in P4", "[3,3] in P5", "[2,2,2,2] in P7")),
    (1, SEARCH_CAP, ("[2,3] in P5",)),
)


def _rectangle(rng: random.Random, points: int) -> tuple[list[int], list[int]]:
    if points == SEARCH_CAP:
        wk = rng.choice([d for d in range(250, 801) if SEARCH_CAP % d == 0])
        wc = SEARCH_CAP // wk
    else:
        wk = max(3, round((points * 2 ** rng.uniform(-1.5, 1.5)) ** 0.5))
        wc = max(3, round(points / wk))
    k_lo = -(wk // 2) + rng.randint(-(wk // 4), wk // 4)
    c_lo = -(wc // 2) + rng.randint(-(wc // 4), wc // 4)
    return [k_lo, k_lo + wk - 1], [c_lo, c_lo + wc - 1]


def _search(seed: int) -> list[Op]:
    rng = random.Random(seed)
    targets = _Targets(rng)
    ops = []
    for count, points, classes in _SEARCH:
        for i in range(count):
            key, X = targets.pick(classes[i % len(classes)])
            k_range, c_range = _rectangle(rng, points)
            op = Op("dzero", {"k_range": k_range, "c_range": c_range},
                    "json" if len(ops) % 2 == 0 else "table")
            op.points = (k_range[1] - k_range[0] + 1) * (c_range[1] - c_range[0] + 1)
            _target_payload(op, key, X)
            ops.append(op)
    rng.shuffle(ops)
    return ops


# Tensor-formula checks per pass: (max_rank, trials for each op).
# With 31 operations the 90th percentile falls on the third to fifth
# heaviest: the three rank-6 checks, which cost the same, not a boundary
# between two kinds of check.
_TENSOR = (
    (1, (10, 15, 20, 25, 30, 35, 40, 45, 50)),
    (2, (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)),
    (3, (5, 10, 15, 20)),
    (4, (4, 8)),
    (5, (2,)),
    (6, (2, 2, 2)),
)


def _verify(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    suite_seed = rng.randint(0, 10**6)
    ops.append(Op("verify", {"suite": "paper", "seed": suite_seed}, "json",
                  meta={"suite": True, "max_rank": 4, "trials": 100, "seed": suite_seed}))
    ops.append(Op("dzero", {"verify_paper": True}, "table", meta={"verify_paper": True}))
    for max_rank, trial_list in _TENSOR:
        for trials in trial_list:
            s = rng.randint(0, 10**6)
            ops.append(Op("verify", {"tensor_formulas": True, "max_rank": max_rank,
                                     "trials": trials, "seed": s},
                          "json" if len(ops) % 2 == 0 else "table",
                          meta={"max_rank": max_rank, "trials": trials, "seed": s}))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int) -> list[Op]:
    return {"requests": _requests, "search": _search, "verify": _verify}[workload](seed)


def cold_request(workload: str, seed: int) -> tuple[list[str], Op]:
    """The representative CLI request timed in fresh processes, and its op."""
    rng = random.Random(seed ^ 0x5EED)
    if workload == "requests":
        preset = rng.choice(FANO)
        X = preset.model()
        roots = _roots(rng, X, 2)
        ch = chern_of_roots(X, roots)
        argv = ["chi", "--preset", preset.name, "--rank", "2",
                f"--c1={text(ch.c1[0])}", f"--c2={text(ch.c2[0])}", f"--c3={text(ch.c3)}"]
        op = Op("chi", {"preset": preset.name, "rank": 2, "c1": [text(ch.c1[0])],
                        "c2": [text(ch.c2[0])], "c3": text(ch.c3)},
                "json", X, preset.name, {"roots": roots})
    elif workload == "search":
        preset = rng.choice(FANO[1:] + GENERAL)
        argv = ["dzero", "--preset", preset.name]
        op = Op("dzero", {"preset": preset.name, "k_range": [-50, 50], "c_range": [-50, 50]}, "json",
                preset.model(), preset.name)
    else:
        s = rng.randint(0, 10**6)
        argv = ["verify", "--suite", "paper", "--seed", str(s)]
        op = Op("verify", {"suite": "paper", "seed": s}, "json",
                meta={"suite": True, "max_rank": 4, "trials": 100, "seed": s})
    return argv + ["--json"], op


def describe(workload: str, seed: int) -> dict:
    """Make-up figures of one pass, as recorded in the README."""
    ops = build(workload, seed)
    out: dict = {"ops_per_pass": len(ops),
                 "json_share": sum(op.mode == "json" for op in ops) / len(ops)}
    if workload == "requests":
        seen: set[str] = set()
        repeats = with_target = 0
        for op in ops:
            if op.target_key is None:
                continue
            with_target += 1
            repeats += op.target_key in seen
            seen.add(op.target_key)
        out["threefold_repeat_share"] = repeats / with_target
        out["distinct_threefolds"] = len(seen)
    if workload == "search":
        total = sum(op.points for op in ops)
        cy = sum(op.points for op in ops if op.target.preset and op.target.preset.c1 == 0)
        cap = sum(op.points for op in ops if op.points == SEARCH_CAP)
        out.update(lattice_points=total, calabi_yau_point_share=cy / total,
                   at_cap_point_share=cap / total,
                   calabi_yau_op_share=sum(op.target.preset is not None
                                           and op.target.preset.c1 == 0 for op in ops) / len(ops))
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--describe", action="store_true", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for name in WORKLOADS:
        print(name, describe(name, args.seed))
