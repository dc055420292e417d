"""oproj: rank a black-box model's dependence on each input feature by
iterative orthogonal projection."""

from .adapters import InProcessModel, LinearModel, ModelHandle, SubprocessModel
from .dataio import (
    ColumnSpec,
    DatasetSchema,
    NonlinearTerm,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    parse_schema_file,
    parse_synthetic_spec,
    save_csv,
    standardize,
)
from .errors import (
    AdapterError,
    AuditFailedError,
    DataError,
    DegenerateFeatureError,
    DegenerateSubspaceError,
    DimensionError,
    FeatureLookupError,
    MalformedOutputError,
    ModelExitError,
    ModelTimeoutError,
    NonFiniteFitError,
    NonFinitePredictionError,
    OprojError,
    RowCountMismatchError,
    SingularSystemError,
    SyntheticSpecError,
)
from .linalg import (
    FeatureMatrix,
    ProjectionBasis,
    orthonormalize,
    transform_against_feature,
    transform_against_vector,
)
from .oracle import loco_refit_importances, spearman_rank_correlation
from .ranking import (
    AuditConfig,
    DependenceReport,
    FeatureResult,
    PerformanceMetric,
    compute_metric,
    rank_all,
)
from .report import (
    aggregate_categorical_groups,
    build_document,
    render_svg,
    write_csv,
    write_json,
    write_svg,
)
from .surrogate import (
    FidelityScore,
    LogisticModel,
    SurrogateFit,
    fit_logistic,
    fit_ridge,
    train_surrogate,
)
from .transforms import TransformSet, build_removal_candidates

__version__ = "0.1.0"
