"""Exact-arithmetic characteristic-class engine for sheaves on smooth
projective threefolds: intersection theory on a numerical divisor lattice,
Riemann-Roch Euler characteristics, discriminants, expected moduli
dimensions, Serre-correspondence genus conversions, and certified searches
for vanishing expected dimension over integer twist lattices.

Records are ``typing.NamedTuple``s; ``ChernData`` and ``ScalarChern`` are
named tuples whose ``__new__`` validates and coerces.  A class is a frozen
dataclass only where its ``__post_init__`` validates or derives fields, or
where ``dataclasses.replace`` rebuilds it (``DZeroReport``).
"""

from .chow import (
    CurveClass,
    DivClass,
    Threefold,
    make_threefold,
    mul_div_div,
    pair_div_curve,
    threefold_from_json,
    threefold_to_json,
    todd_genus,
    triple,
)
from .ci import (
    CanonicalType,
    CIPreset,
    build_ci,
    classify,
    format_preset,
    parse_preset,
    tangent_chern,
)
from .dzero import (
    DZeroProblem,
    DZeroReport,
    WitnessRectangle,
    dzero_condition,
    solve_dzero,
    verify_paper_claims,
)
from .errors import (
    AsymmetricForm,
    Chern3Error,
    ClaimViolation,
    DegenerateLine,
    DimensionMismatch,
    EmptyRoots,
    InsufficientLedger,
    IntegralityWarning,
    InvalidInput,
    LimitExceeded,
    MissingCurveLattice,
    NegativeDimension,
    NonIntegralRank,
    RankUnsupported,
    RedundantDegreeWarning,
    SchemaError,
    UnsupportedPicardRank,
)
from .moduli import (
    CohomologyLedger,
    expected_dim,
    ext1_ledger,
    ext_euler,
    serre_c3,
    serre_genus,
)
from .rationals import rat
from .sheaf import (
    CharacterData,
    ChernData,
    chern_from_json,
    chern_to_json,
    discriminant,
    dual,
    euler_char,
    from_character,
    rr_terms,
    slope,
    tensor,
    to_character,
    twist,
)
from .splitting import (
    RootSpec,
    ScalarChern,
    chern_from_roots,
    tensor_closed_form,
    tensor_from_roots,
    verify_tensor_formulas,
)

__version__ = "0.1.0"
