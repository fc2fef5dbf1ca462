"""Independent expectations for every benchmark operation.

Nothing here imports chern3.  Each check recomputes what an output must be
from the workload's own description of its input (a complete intersection
given by its degrees, or a numerical threefold model, and sheaves given by
their Chern roots), by routes that differ from the program's:

* chi(O_X(a)) on a complete intersection comes from the Koszul resolution,
  sum over subsets S of the degrees of (-1)^|S| binom(n + a - sum(S), n);
  on a numerical model it comes from Hirzebruch-Riemann-Roch for a line
  bundle.  Split bundles are sums of line bundles, so chi and ext_euler
  follow by additivity.
* Chern classes of split bundles, their tensor products, twists and duals
  are elementary symmetric functions of the roots.
* The expected-dimension-zero witness set is an exhaustive integer scan of
  1 - 4 chi(O_X) + c1(X)(4 c g - k^2 H^3)/2, which is 0 when c1(X) = 0.
* The Serre conversion reduces on P3 to Hartshorne's c3 = 2g - 2 + c2(4 - c1)
  (Hartshorne, "Stable reflexive sheaves", Math. Ann. 254, 1980).

Outputs arrive flattened to ``{path: text}`` (see ``flatten`` and
``parse_table``), so JSON and table renderings are checked by one code path.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence


class Mismatch(Exception):
    """An output disagrees with the independent expectation."""


def text(value: Fraction | int) -> str:
    """Canonical "p/q" (or "n") rendering of an exact rational."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def expect(flat: dict[str, str], key: str, want: Any) -> None:
    want_text = want if isinstance(want, str) else text(want)
    got = flat.get(key)
    if got != want_text:
        raise Mismatch(f"{key}: got {got!r}, want {want_text!r}")


# ----------------------------------------------------------------- outputs


def _scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


def flatten(value: Any, prefix: str = "", out: dict[str, str] | None = None) -> dict[str, str]:
    """Flatten parsed JSON data to the row names a table rendering uses."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = _scalar(value)
    return out


def parse_json(command: str, rendered: str) -> dict[str, str]:
    doc = json.loads(rendered)
    if doc.get("schema") != "1" or doc.get("status") != "ok" or doc.get("command") != command:
        raise Mismatch(f"envelope {doc.get('schema')!r}/{doc.get('status')!r}/{doc.get('command')!r}")
    return flatten(doc["data"])


def parse_table(command: str, rendered: str) -> dict[str, str]:
    lines = rendered.split("\n")
    if lines[0] != f"{command}: ok":
        raise Mismatch(f"table header {lines[0]!r}")
    flat: dict[str, str] = {}
    for line in lines[1:]:
        if line == "audit:":
            break
        if not line.startswith("  "):
            raise Mismatch(f"table row {line!r}")
        name, _, value = line[2:].partition(" ")
        flat[name] = value.lstrip(" ")
    return flat


def parse_output(command: str, mode: str, rendered: str) -> dict[str, str]:
    return parse_json(command, rendered) if mode == "json" else parse_table(command, rendered)


# ------------------------------------------------------------ threefolds


def binom_poly(x: int, n: int) -> Fraction:
    """binom(x, n) as the degree-n polynomial in x, valid for negative x."""
    value = Fraction(1)
    for i in range(n):
        value *= x - i
    return value / math.factorial(n)


def complete_homogeneous(degrees: Sequence[int], k: int) -> int:
    """h_k(degrees), the sum of all degree-k monomials (1 for k = 0)."""
    return sum(math.prod(c) for c in itertools.combinations_with_replacement(degrees, k))


@dataclass(frozen=True)
class Preset:
    """Complete intersection of hypersurfaces of the given degrees in P^n."""

    ambient: int
    degrees: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"[{','.join(str(d) for d in self.degrees)}] in P{self.ambient}"

    @property
    def volume(self) -> int:
        return math.prod(self.degrees)

    @property
    def c1(self) -> int:
        return self.ambient + 1 - sum(self.degrees)

    def tangent_class(self, i: int) -> int:
        """Coefficient of H^i in (1 + H)^(n+1) / prod(1 + d H)."""
        n1 = self.ambient + 1
        return sum(
            math.comb(n1, i - k) * (-1) ** k * complete_homogeneous(self.degrees, k)
            for k in range(i + 1)
        )

    def chi_line(self, a: int) -> Fraction:
        """chi(O_X(a)) from the Koszul resolution of X in P^n."""
        n = self.ambient
        total = Fraction(0)
        for size in range(len(self.degrees) + 1):
            for subset in itertools.combinations(self.degrees, size):
                total += (-1) ** size * binom_poly(n + a - sum(subset), n)
        return total

    def classification(self) -> str:
        return "Fano" if self.c1 > 0 else ("CalabiYau" if self.c1 == 0 else "GeneralType")

    def model(self) -> Model:
        d = self.volume
        return Model(
            (((Fraction(d),),),),
            (Fraction(self.c1),),
            (Fraction(self.tangent_class(2) * d),),
            ((Fraction(1),),),
            preset=self,
        )


@dataclass(frozen=True)
class Model:
    """Numerical threefold: trilinear form, c1(X), c2(X) pairings, curve lattice."""

    T: tuple[tuple[tuple[Fraction, ...], ...], ...]
    c1X: tuple[Fraction, ...]
    c2X: tuple[Fraction, ...]
    lattice: tuple[tuple[Fraction, ...], ...] | None = None
    preset: Preset | None = None

    @property
    def m(self) -> int:
        return len(self.c1X)

    def doc(self) -> dict:
        """The threefold JSON document the program reads."""
        doc: dict = {
            "schema": "1",
            "generators": [f"g{i}" for i in range(self.m)] if self.m > 1 else ["H"],
            "T": [[[text(x) for x in row] for row in plane] for plane in self.T],
            "c1X": [text(x) for x in self.c1X],
            "c2X": [text(x) for x in self.c2X],
        }
        if self.lattice is not None:
            doc["curve_lattice"] = [[text(x) for x in g] for g in self.lattice]
        return doc

    def tri(self, a: Sequence[Fraction], b: Sequence[Fraction], c: Sequence[Fraction]) -> Fraction:
        m = self.m
        return sum(
            (a[i] * b[j] * c[k] * self.T[i][j][k]
             for i in range(m) for j in range(m) for k in range(m)),
            Fraction(0),
        )

    def pair(self, div: Sequence[Fraction], curve: Sequence[Fraction]) -> Fraction:
        return sum((x * y for x, y in zip(div, curve)), Fraction(0))

    def unit(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(int(i == j)) for j in range(self.m))

    def curve_of(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Pairing vector of the curve class a.b."""
        return tuple(self.tri(a, b, self.unit(i)) for i in range(self.m))

    def chi_O(self) -> Fraction:
        if self.preset is not None:
            return self.preset.chi_line(0)
        return self.pair(self.c1X, self.c2X) / 24

    def chi_line(self, D: Sequence[Fraction]) -> Fraction:
        """chi(O_X(D)): Koszul on a complete intersection, HRR otherwise."""
        if self.preset is not None:
            return self.preset.chi_line(int(D[0]))
        c1 = self.c1X
        return (
            self.tri(D, D, D) / 6
            + self.tri(c1, D, D) / 4
            + (self.tri(c1, c1, D) + self.pair(D, self.c2X)) / 12
            + self.pair(c1, self.c2X) / 24
        )


# ------------------------------------------------------------ split sheaves


Roots = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Chern:
    rank: int
    c1: tuple[Fraction, ...]
    c2: tuple[Fraction, ...]
    c3: Fraction

    def doc(self) -> dict:
        return {
            "rank": self.rank,
            "c1": [text(x) for x in self.c1],
            "c2": [text(x) for x in self.c2],
            "c3": text(self.c3),
        }


def chern_of_roots(X: Model, roots: Roots) -> Chern:
    """Chern classes of the split bundle O(D_1) + ... + O(D_r)."""
    m = X.m
    c1 = tuple(sum((D[i] for D in roots), Fraction(0)) for i in range(m))
    c2 = [Fraction(0)] * m
    for a, b in itertools.combinations(roots, 2):
        c2 = [x + y for x, y in zip(c2, X.curve_of(a, b))]
    c3 = sum((X.tri(a, b, c) for a, b, c in itertools.combinations(roots, 3)), Fraction(0))
    return Chern(len(roots), c1, tuple(c2), c3)


def add_div(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(x + y for x, y in zip(a, b))


def neg_div(a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(-x for x in a)


def discriminant(X: Model, F: Chern) -> tuple[Fraction, ...]:
    r = F.rank
    sq = X.curve_of(F.c1, F.c1)
    return tuple(2 * r * c - (r - 1) * s for c, s in zip(F.c2, sq))


def expect_chern(flat: dict[str, str], prefix: str, F: Chern) -> None:
    expect(flat, f"{prefix}.rank", str(F.rank))
    for i, x in enumerate(F.c1):
        expect(flat, f"{prefix}.c1[{i}]", x)
    for i, x in enumerate(F.c2):
        expect(flat, f"{prefix}.c2[{i}]", x)
    expect(flat, f"{prefix}.c3", F.c3)


# ------------------------------------------------------- per-command checks


def check_threefold(preset: Preset, flat: dict[str, str]) -> None:
    d = preset.volume
    expect(flat, "preset", preset.name)
    expect(flat, "classification", preset.classification())
    for i in (1, 2, 3):
        expect(flat, f"tangent_chern.c{i}", preset.tangent_class(i))
    expect(flat, "threefold.T[0][0][0]", d)
    expect(flat, "threefold.c1X[0]", preset.c1)
    expect(flat, "threefold.c2X[0]", preset.tangent_class(2) * d)
    # Todd: c1.c2/24 is chi(O_X), which the Koszul resolution gives independently.
    if Fraction(preset.c1 * preset.tangent_class(2) * d, 24) != preset.chi_line(0):
        raise Mismatch(f"{preset.name}: Todd genus disagrees with the Koszul resolution")


def check_chi(X: Model, roots: Roots, flat: dict[str, str]) -> None:
    want = sum((X.chi_line(D) for D in roots), Fraction(0))
    expect(flat, "chi", want)
    expect_chern(flat, "sheaf", chern_of_roots(X, roots))
    terms = [Fraction(v) for k, v in flat.items() if k.startswith("terms.")]
    if len(terms) != 8 or sum(terms) != want:
        raise Mismatch(f"{len(terms)} Riemann-Roch terms summing to {sum(terms)}, want {want}")


def ext_euler_of_roots(X: Model, roots: Roots) -> Fraction:
    return sum(
        (X.chi_line(add_div(a, neg_div(b))) for a in roots for b in roots), Fraction(0)
    )


def check_moduli_dim(X: Model, roots: Roots, flat: dict[str, str]) -> None:
    chi_ext = ext_euler_of_roots(X, roots)
    expect(flat, "ext_euler", chi_ext)
    zero_c1 = all(x == 0 for x in X.c1X)
    expect(flat, "expected_dim", 0 if zero_c1 else 1 - chi_ext)
    expect_chern(flat, "sheaf", chern_of_roots(X, roots))


def check_chern(X: Model, op: str, meta: dict, flat: dict[str, str]) -> None:
    F = meta["F"]
    expect(flat, "op", op)
    if op == "tensor":
        roots = tuple(add_div(a, b) for a in meta["E"] for b in F)
        expect_chern(flat, "result", chern_of_roots(X, roots))
    elif op == "dual":
        G = chern_of_roots(X, F)  # c_i of the dual picks up (-1)^i
        expect_chern(flat, "result", Chern(G.rank, neg_div(G.c1), G.c2, -G.c3))
    elif op == "twist":
        roots = tuple(add_div(a, meta["L"]) for a in F)
        expect_chern(flat, "result", chern_of_roots(X, roots))
    else:
        # The input may be F or a twist of F; the discriminant must be that of F.
        delta = discriminant(X, chern_of_roots(X, F))
        for i, x in enumerate(delta):
            expect(flat, f"delta[{i}]", x)


def serre_c3(X: Model, det: Sequence[Fraction], c2: Sequence[Fraction], genus: Fraction) -> Fraction:
    if X.preset is not None and X.preset.ambient == 3:
        # Hartshorne on P3: c3 = 2g - 2 + c2 (4 - c1), with c2 the curve degree.
        return 2 * genus - 2 + c2[0] * (4 - det[0])
    return 2 * genus - 2 + X.pair(add_div(X.c1X, neg_div(det)), c2)


def check_serre(X: Model, meta: dict, flat: dict[str, str]) -> None:
    det, c2 = meta["det"], meta["c2"]
    if meta["direction"] == "to-c3":
        expect(flat, "c3", serre_c3(X, det, c2, meta["genus"]))
        return
    # c3 is 2g plus a term free of g, so g = (c3 - c3 at g = 0) / 2.
    base = serre_c3(X, det, c2, Fraction(0))
    genus = (meta["c3"] - base) / 2
    expect(flat, "genus", genus)
    warned = any("genus" in v for k, v in flat.items() if k.startswith("warnings"))
    if warned != (genus.denominator != 1 or genus < 0):
        raise Mismatch(f"genus {text(genus)}: warning present = {warned}")


def check_ledger(meta: dict, flat: dict[str, str]) -> None:
    h0_if = 1 if meta.get("h1_IC_zero") else meta["h0_IF"]
    expect(flat, "ext1", meta["h0_N"] - meta["h0_F"] + h0_if)


# ------------------------------------------------------- expected dimension


@dataclass(frozen=True)
class DZeroExpectation:
    """Integer form alpha c + beta k^2 + eps = 0 and its zero set in a rectangle."""

    alpha: int
    beta: int
    eps: int
    condition: tuple[Fraction, Fraction, Fraction]
    witnesses: tuple[tuple[int, int], ...] | None  # None: every point


def dzero_expectation(X: Model, k_range: Sequence[int], c_range: Sequence[int]) -> DZeroExpectation:
    """Brute-force zero set of 1 - 4 chi(O_X) + c1(X)(4 c g - k^2 H^3)/2."""
    s, g, vol = X.c1X[0], X.lattice[0][0], X.T[0][0][0]
    a = 2 * s * g
    b = -s * vol / 2
    e = 1 - 4 * X.chi_O() if s != 0 else Fraction(0)
    scale = math.lcm(a.denominator, b.denominator, e.denominator)
    alpha, beta, eps = int(a * scale), int(b * scale), int(e * scale)
    if s == 0:
        return DZeroExpectation(0, 0, 0, (a, b, e), None)
    found = []
    c_lo, c_hi = c_range
    for k in range(k_range[0], k_range[1] + 1):
        rest = beta * k * k + eps
        for c in range(c_lo, c_hi + 1):
            if alpha * c + rest == 0:
                found.append((k, c))
    return DZeroExpectation(alpha, beta, eps, (a, b, e), tuple(found))


def _witness_list(flat: dict[str, str], prefix: str) -> list[tuple[int, int]]:
    out = []
    i = 0
    while f"{prefix}[{i}][0]" in flat:
        out.append((int(flat[f"{prefix}[{i}][0]"]), int(flat[f"{prefix}[{i}][1]"])))
        i += 1
    return out


def check_dzero(k_range: Sequence[int], c_range: Sequence[int], want: DZeroExpectation,
                flat: dict[str, str]) -> None:
    a, b, e = want.condition
    expect(flat, "condition.a", a)
    expect(flat, "condition.b", b)
    expect(flat, "condition.e", e)
    expect(flat, "k_range[0]", k_range[0])
    expect(flat, "k_range[1]", k_range[1])
    expect(flat, "c_range[0]", c_range[0])
    expect(flat, "c_range[1]", c_range[1])
    expect(flat, "grid_checked", "true")
    A, B, E = (int(flat[f"normalized.{x}"]) for x in "ABE")
    if (A * want.beta != B * want.alpha or A * want.eps != E * want.alpha
            or B * want.eps != E * want.beta):
        raise Mismatch(f"normalized {(A, B, E)} is not a multiple of {(want.alpha, want.beta, want.eps)}")
    if (A, B, E) != (0, 0, 0) and math.gcd(A, B, E) != 1:
        raise Mismatch(f"normalized {(A, B, E)} has a common factor")
    got = _witness_list(flat, "witnesses")
    if want.witnesses is None:
        expected = [(k, c) for k in range(k_range[0], k_range[1] + 1)
                    for c in range(c_range[0], c_range[1] + 1)]
    else:
        expected = list(want.witnesses)
    if got != expected:
        raise Mismatch(f"{len(got)} witnesses, brute force finds {len(expected)}")
    solvable = flat.get("solvable") == "true"
    if expected and not solvable:
        raise Mismatch("in-range zeros exist but the report says unsolvable")
    if solvable:
        expect(flat, "obstruction", "null")
        modulus = int(flat["modulus"])
        i = 0
        while f"residues[{i}]" in flat:
            r = int(flat[f"residues[{i}]"])
            if (B * r * r + E) % modulus:
                raise Mismatch(f"residue {r} does not solve {B}k^2 + {E} = 0 (mod {modulus})")
            i += 1
        return
    if flat.get("obstruction.modulus", "null") == "null":
        if A != 0:
            raise Mismatch("unsolvable with a != 0 must carry a congruence certificate")
        return
    q = int(flat["obstruction.modulus"])
    if A % q:
        raise Mismatch(f"certificate modulus {q} does not divide {A}")
    bad = [k for k in range(q) if (B * k * k + E) % q == 0]
    if bad:
        raise Mismatch(f"certificate modulus {q} admits residues {bad[:3]}")


# The certified case analysis of the paper: the seven Fano presets, searched
# over the rectangle [-50, 50]^2.
CLAIM_PRESETS = (
    Preset(4, (1,)), Preset(4, (2,)), Preset(4, (3,)), Preset(4, (4,)),
    Preset(5, (2, 2)), Preset(5, (2, 3)), Preset(6, (2, 2, 2)),
)
CLAIM_RANGE = (-50, 50)


def claims_expectation() -> list[DZeroExpectation]:
    return [dzero_expectation(p.model(), CLAIM_RANGE, CLAIM_RANGE) for p in CLAIM_PRESETS]


def check_claims(want: list[DZeroExpectation], flat: dict[str, str], prefix: str) -> None:
    solvable = 0
    for i, (preset, exp) in enumerate(zip(CLAIM_PRESETS, want)):
        p = f"{prefix}.presets[{i}]"
        expect(flat, f"{p}.preset", preset.name)
        has = bool(exp.witnesses)
        solvable += has
        expect(flat, f"{p}.solvable", "true" if has else "false")
        if has == (flat.get(f"{p}.obstruction") != "null"):
            raise Mismatch(f"{preset.name}: obstruction {flat.get(f'{p}.obstruction')!r}")
        if _witness_list(flat, f"{p}.witnesses") != list(exp.witnesses[:8]):
            raise Mismatch(f"{preset.name}: first witnesses differ from brute force")
    if f"{prefix}.presets[{len(CLAIM_PRESETS)}].preset" in flat:
        raise Mismatch("more claims than presets")
    expect(flat, f"{prefix}.solvable_count", solvable)
    expect(flat, f"{prefix}.certificate_count", len(CLAIM_PRESETS) - solvable)


def check_tensor_report(flat: dict[str, str], prefix: str, max_rank: int, trials: int, seed: int) -> None:
    expect(flat, f"{prefix}.ok", "true")
    expect(flat, f"{prefix}.max_rank", max_rank)
    expect(flat, f"{prefix}.trials", trials)
    expect(flat, f"{prefix}.seed", seed)
    for i, (r1, r2) in enumerate(itertools.product(range(1, max_rank + 1), repeat=2)):
        p = f"{prefix}.pairs[{i}]"
        expect(flat, f"{p}.r1", r1)
        expect(flat, f"{p}.r2", r2)
        expect(flat, f"{p}.passed", "true")
        expect(flat, f"{p}.grid_checks", 36)
        expect(flat, f"{p}.counterexample", "null")
    if f"{prefix}.pairs[{max_rank * max_rank}].r1" in flat:
        raise Mismatch("more rank pairs than requested")


def check_verify(meta: dict, flat: dict[str, str], claims: list[DZeroExpectation]) -> None:
    expect(flat, "ok", "true")
    if meta.get("suite"):
        expect(flat, "suite", "paper")
        check_claims(claims, flat, "claims")
    check_tensor_report(flat, "tensor_formulas", meta["max_rank"], meta["trials"], meta["seed"])
