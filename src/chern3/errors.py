"""Exception and warning types shared across the package.

Every failure a caller can trigger through the public API is a subclass of
``Chern3Error``; the class name is part of the contract (the CLI surfaces it
verbatim and maps the whole family to exit code 1).  ``SchemaError`` is kept
outside the family: it marks a malformed request rather than a domain
failure and maps to exit code 2.
"""

from __future__ import annotations


class Chern3Error(Exception):
    """Base class for all domain errors."""


class DimensionMismatch(Chern3Error):
    """A cycle-class vector does not match the threefold's generator count."""


class AsymmetricForm(Chern3Error):
    """The trilinear intersection form is not symmetric in its three indices."""


class NonIntegralRank(Chern3Error):
    """Chern-character data whose degree-0 part is not a positive integer."""


class DegenerateLine(Chern3Error):
    """Slope is undefined against a divisor class with vanishing triple self-intersection."""


class RankUnsupported(Chern3Error):
    """The expected-dimension formula is stated for rank 2 only."""


class InsufficientLedger(Chern3Error):
    """The cohomology ledger fixes neither h0(I_C (x) F) nor H1(I_C) = 0."""


class NegativeDimension(Chern3Error):
    """A ledger dimension count came out negative, so the inputs are inconsistent."""


class UnsupportedPicardRank(Chern3Error):
    """The twist/second-Chern search requires a single divisor generator."""


class MissingCurveLattice(Chern3Error):
    """The threefold declares no usable single-generator curve lattice."""


class ClaimViolation(Chern3Error):
    """A certified case-analysis entry disagreed with the computed report.

    By construction this indicates a bug in the build, never in the inputs.
    """

    def __init__(self, preset: str, message: str):
        super().__init__(f"{preset}: {message}")
        self.preset = preset


class SelfCheckFailed(ClaimViolation):
    """An internal self-check disagreed with the result it checks.

    Like every ClaimViolation this is a bug in the build, never in the
    inputs; ``check`` names the self-check and ``preset`` is None.
    """

    def __init__(self, check: str, message: str):
        Chern3Error.__init__(self, f"{check}: {message}")
        self.check = check
        self.preset = None


class EmptyRoots(Chern3Error):
    """Chern roots were requested for an empty root list."""


class InvalidInput(Chern3Error):
    """A value violates a documented invariant not expressible in the JSON schema."""


class LimitExceeded(Chern3Error):
    """An enumeration or rank cap was exceeded."""


class SchemaError(Exception):
    """A request payload failed schema validation (CLI exit code 2)."""


class ModelWarning(UserWarning):
    """Base class for non-fatal modelling warnings."""


class IntegralityWarning(ModelWarning):
    """A quantity expected to be a (nonnegative) integer is not."""


class RedundantDegreeWarning(ModelWarning):
    """A complete-intersection preset contains degree-1 hypersurfaces."""
