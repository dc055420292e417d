"""Exception types raised across the oproj package."""

from __future__ import annotations


class OprojError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(OprojError):
    """Vector or matrix shapes do not line up."""


class FeatureLookupError(OprojError):
    """A feature name does not exist in the matrix."""


class DegenerateFeatureError(OprojError):
    """A feature cannot be audited: it is constant, or its companions or
    metric overflow float64."""


class DegenerateSubspaceError(OprojError):
    """Every removal candidate was dropped; no subspace to project against."""


class DataError(OprojError):
    """CSV or schema problem. Carries the offending row/column when known."""

    def __init__(self, message: str, *, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class SyntheticSpecError(OprojError):
    """Invalid synthetic dataset specification."""


class SingularSystemError(OprojError):
    """Normal equations are singular; a positive ridge penalty is required."""


class NonFiniteFitError(OprojError):
    """A surrogate's normal equations, fit or held-out r² overflow float64."""


class AdapterError(OprojError):
    """Base class for black-box query failures. ``row`` is the offending
    zero-based data row where that is meaningful."""

    def __init__(self, message: str, *, row: int | None = None):
        super().__init__(message)
        self.row = row


class ModelTimeoutError(AdapterError):
    """The model process exceeded its time budget."""


class ModelExitError(AdapterError):
    """The model process exited with a nonzero status."""


class MalformedOutputError(AdapterError):
    """A prediction line could not be parsed as a number, or the reply
    was over its size cap."""


class NonFinitePredictionError(AdapterError):
    """The model emitted NaN or infinity."""


class RowCountMismatchError(AdapterError):
    """The model returned a different number of predictions than rows sent."""


class AuditFailedError(OprojError):
    """Every feature audit errored; no report can be produced."""
