"""Expected persistence measures as learning features.

Turns sampled metric measure spaces into persistence diagrams, estimates
expected persistence measures by kernel density estimation, computes
template-function feature vectors and the partial infinity-optimal-transport
distance, and trains polynomial softmax classifiers end to end.
"""
from ._version import __version__
from .measure import (
    DIAGONAL,
    BirthDeathPoint,
    MetricConfig,
    PersistenceDiagram,
    PersistenceMeasure,
    Rectangle,
    diag_distance,
    ground_distance,
    integrate,
    mass_above,
    pers_infinity,
    truncate,
)
from .transport import (
    Coupling,
    TransportResult,
    bottleneck,
    cost_infinity,
    feasible_at,
    ot_infinity,
    verify_coupling,
)
from .compactness import (
    FamilyReport,
    build_report,
    counterexample_family,
    diameter_bound,
    odut_profile,
    uodf_profile,
)
from .persistence import (
    DistanceMatrix,
    FiltrationOptions,
    GrayImage,
    image_sublevel_h0,
    vr_persistence,
)
from .samplers import (
    PointCloud,
    ShapeSpec,
    eccentricity,
    inverse_transform_sample,
    knn_geodesic,
    pairwise_distances,
    sample_patches,
    sample_shape,
)
from .features import (
    FeatureVector,
    StepKernel,
    TemplateFunction,
    TemplateSystem,
    convolve_step,
    drop_zero_columns,
    feature_vector,
    kde_eval,
    template_grid,
)
from .learn import (
    Dataset,
    LogisticModel,
    PolynomialMap,
    TrainConfig,
    accuracy,
    polynomial_expand,
    predict,
    train_logistic,
    train_test_split,
)

__all__ = [name for name in dir() if not name.startswith("_")]
