"""Exact graded intersection arithmetic on a numerically presented threefold.

A smooth projective threefold is modelled by its divisor lattice: generator
names, the symmetric trilinear intersection form ``T[i][j][k] = g_i.g_j.g_k``,
and the tangent classes c1(X) and c2(X).  Cycle classes live in three graded
pieces:

* ``DivClass``    codimension 1, a coefficient vector over the generators;
* ``CurveClass``  codimension 2, identified with its vector of intersection
  numbers against the generators (numerical equivalence);
* ``Fraction``    codimension 3, a point class as its rational degree;
  ``pair_div_curve`` and ``triple`` return plain rationals.

All coefficients are exact rationals and every value is immutable, so the
operations below are pure functions that can be shared freely between
threads.  Integrality of classes is never enforced here; where it matters
(the optional curve lattice) a warning is emitted instead.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, TypeVar

from .errors import AsymmetricForm, DimensionMismatch, IntegralityWarning, InvalidInput
from .rationals import SCHEMA_VERSION, rat, rats


def _check_len(label: str, got: int, want: int) -> None:
    if got != want:
        raise DimensionMismatch(f"{label} has length {got}, expected {want}")


@dataclass(frozen=True)
class _ClassVector:
    """An exact rational vector indexed by the divisor generators.

    Shared by ``DivClass`` and ``CurveClass``; arithmetic keeps the operand
    type, and combining the two types is an error rather than a silent sum.
    """

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = self.coords
        if type(coords) is not tuple:  # a string would be split into digits, "12" into (1, 2)
            if isinstance(coords, (str, bytes, bytearray)) or not hasattr(coords, "__iter__"):
                raise InvalidInput(f"{type(self).__name__}: expected a sequence of rationals, got {coords!r}")
        object.__setattr__(self, "coords", rats(coords))

    @classmethod
    def zero(cls: type[V], m: int) -> V:
        return cls((Fraction(0),) * m)

    @classmethod
    def of(cls: type[V], value: V | Sequence[int | str | Fraction]) -> V:
        """``value`` itself if it is a ``cls`` already, else a ``cls`` with its coordinates.

        A class of the other codimension is an error, as it is for ``+``.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, _ClassVector):
            raise InvalidInput(f"cannot use {type(value).__name__} as {cls.__name__}")
        return cls(value)

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def _check_operand(self, other: _ClassVector) -> None:
        if type(other) is not type(self):
            raise InvalidInput(f"cannot add {type(other).__name__} to {type(self).__name__}")
        _check_len(type(self).__name__, len(other), len(self))

    def __add__(self: V, other: V) -> V:
        self._check_operand(other)
        return type(self)(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self: V, other: V) -> V:
        self._check_operand(other)
        return type(self)(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self: V) -> V:
        return type(self)(tuple(-a for a in self.coords))

    def __mul__(self: V, scalar: int | str | Fraction) -> V:
        s = scalar if type(scalar) in (int, Fraction) else rat(scalar)
        return type(self)(tuple(a * s for a in self.coords))

    __rmul__ = __mul__


V = TypeVar("V", bound=_ClassVector)


class DivClass(_ClassVector):
    """Codimension-1 class: coefficients over the divisor generators."""


class CurveClass(_ClassVector):
    """Codimension-2 class: intersection numbers against the generators."""


@dataclass(frozen=True)
class Threefold:
    """Numerical model of a smooth projective threefold.

    ``T`` is the dense m*m*m trilinear intersection form on the divisor
    generators; it must be symmetric under all six index permutations
    (asymmetric input is an error, never silently symmetrized).  The
    optional ``curve_lattice`` lists integral generators of the allowed
    codimension-2 classes; consistency of c2(X) with that lattice is
    checked with a warning, not an error, since intermediate classes are
    genuinely fractional.

    Three fields are derived in ``__post_init__`` and are not constructor
    arguments: ``m``, the number of generators, ``c1X_is_zero``, whether
    c1(X) vanishes, and ``chi_O``, the ``todd_genus`` chi(O_X).  They take no
    part in ``==``, ``hash`` or ``repr``, and ``dataclasses.replace``
    recomputes them.
    """

    generator_names: tuple[str, ...]
    T: tuple[tuple[tuple[Fraction, ...], ...], ...]
    c1X: DivClass
    c2X: CurveClass
    curve_lattice: tuple[CurveClass, ...] | None = None
    m: int = field(init=False, repr=False, compare=False)
    c1X_is_zero: bool = field(init=False, repr=False, compare=False)
    chi_O: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", len(self.generator_names))
        object.__setattr__(self, "c1X_is_zero", self.c1X.is_zero)
        object.__setattr__(self, "chi_O", todd_genus(self))


def make_threefold(
    generators: Sequence[str],
    T: Sequence[Sequence[Sequence[int | str | Fraction]]],
    c1X: Sequence[int | str | Fraction] | DivClass,
    c2X: Sequence[int | str | Fraction] | CurveClass,
    curve_lattice: Sequence[Sequence[int | str | Fraction] | CurveClass] | None = None,
) -> Threefold:
    """Validate and build a Threefold from raw vectors and a dense form."""
    names = tuple(str(g) for g in generators)
    for name in names:  # a lone surrogate, such as the byte 0xff in argv, cannot be written
        if any("\ud800" <= ch <= "\udfff" for ch in name):
            raise InvalidInput(f"generator name {name!r} is not UTF-8 text")
    m = len(names)
    if m < 1:
        raise DimensionMismatch("a threefold model needs at least one divisor generator")

    _check_len("trilinear form", len(T), m)
    rows: list[tuple[tuple[Fraction, ...], ...]] = []
    for plane in T:
        _check_len("trilinear form", len(plane), m)
        cols = []
        for row in plane:
            _check_len("trilinear form", len(row), m)
            cols.append(rats(row))
        rows.append(tuple(cols))
    form = tuple(rows)

    for i, j, k in itertools.product(range(m), repeat=3):
        base = form[i][j][k]
        for p, q, r in itertools.permutations((i, j, k)):
            if form[p][q][r] != base:
                raise AsymmetricForm(
                    f"T[{i}][{j}][{k}] = {base} but "
                    f"T[{p}][{q}][{r}] = {form[p][q][r]}"
                )

    div = DivClass.of(c1X)
    curve = CurveClass.of(c2X)
    _check_len("c1X", len(div), m)
    _check_len("c2X", len(curve), m)

    lattice = None if curve_lattice is None else tuple(CurveClass.of(g) for g in curve_lattice)
    for gen in lattice or ():
        _check_len("curve lattice generator", len(gen), m)

    X = Threefold(names, form, div, curve, lattice)
    _warn_if_c2X_outside_lattice(X)
    return X


def _solve_rational_system(
    columns: Sequence[tuple[Fraction, ...]], target: tuple[Fraction, ...]
) -> tuple[Fraction, ...] | bool | None:
    """Solve sum_r x_r * columns[r] = target over the rationals.

    Returns the unique solution vector, ``False`` when the system is
    inconsistent, or ``None`` when it is underdetermined.
    """
    m, k = len(target), len(columns)
    aug = [[columns[r][i] for r in range(k)] + [target[i]] for i in range(m)]
    pivot_cols: list[int] = []
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        lead = aug[row][col]
        aug[row] = [x / lead for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
    for r in range(m):
        if all(aug[r][c] == 0 for c in range(k)) and aug[r][k] != 0:
            return False
    if len(pivot_cols) < k:
        return None
    solution = [Fraction(0)] * k
    for j, col in enumerate(pivot_cols):
        solution[col] = aug[j][k]
    return tuple(solution)


def _warn_if_c2X_outside_lattice(X: Threefold) -> None:
    if X.curve_lattice is None:
        return
    coords = _solve_rational_system([g.coords for g in X.curve_lattice], X.c2X.coords)
    # None means dependent generators: membership is not decided here.
    if coords is False or (coords and any(x.denominator != 1 for x in coords)):
        kind = "a rational" if coords is False else "an integral"
        warnings.warn(
            f"c2X is not {kind} combination of the declared curve lattice",
            IntegralityWarning,
            stacklevel=3,
        )


def mul_div_div(X: Threefold, a: DivClass, b: DivClass) -> CurveClass:
    """Intersection product of two divisor classes, as a curve class."""
    _check_len("divisor class", len(a), X.m)
    _check_len("divisor class", len(b), X.m)
    pairings = []
    for i in range(X.m):
        total = Fraction(0)
        for j in range(X.m):
            if a.coords[j] == 0:
                continue
            for k in range(X.m):
                total += a.coords[j] * b.coords[k] * X.T[j][k][i]
        pairings.append(total)
    return CurveClass(tuple(pairings))


def pair_div_curve(X: Threefold, a: DivClass, q: CurveClass) -> Fraction:
    """Intersection number of a divisor class with a curve class."""
    _check_len("divisor class", len(a), X.m)
    _check_len("curve class", len(q), X.m)
    return sum((ai * qi for ai, qi in zip(a.coords, q.coords)), Fraction(0))


def triple(X: Threefold, a: DivClass, b: DivClass, c: DivClass) -> Fraction:
    """Triple intersection number of three divisor classes."""
    return pair_div_curve(X, a, mul_div_div(X, b, c))


def todd_genus(X: Threefold) -> Fraction:
    """Euler characteristic of the structure sheaf: c1(X).c2(X) / 24."""
    return pair_div_curve(X, X.c1X, X.c2X) / 24


def threefold_to_json(X: Threefold) -> dict:
    """Serialize to the documented JSON form, rationals as "p/q" strings."""
    doc: dict = {
        "schema": SCHEMA_VERSION,
        "generators": list(X.generator_names),
        "T": [[[str(x) for x in row] for row in plane] for plane in X.T],
        "c1X": [str(c) for c in X.c1X.coords],
        "c2X": [str(c) for c in X.c2X.coords],
    }
    if X.curve_lattice is not None:
        doc["curve_lattice"] = [[str(c) for c in g.coords] for g in X.curve_lattice]
    return doc


def threefold_from_json(doc: dict) -> Threefold:
    """Inverse of ``threefold_to_json``; the round trip is bit exact."""
    for key in ("generators", "T", "c1X", "c2X"):
        if key not in doc:
            raise InvalidInput(f"threefold document is missing {key!r}")
    return make_threefold(
        doc["generators"],
        doc["T"],
        doc["c1X"],
        doc["c2X"],
        doc.get("curve_lattice"),
    )
