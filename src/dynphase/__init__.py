"""dynphase: dynamical frames and phase retrieval from phaseless samples.

The package constructs orbits ``{A^l phi}`` of an operator acting on a
generator vector, decides when they span (via eigenvalue distinctness and
generator dependence, one criterion for diagonalizable and Jordan-structured
operators alike), certifies the full-spark property through classical and
confluent Vandermonde matrices and determinants, and recovers complex
signals up to a global phase from the magnitudes of their frame
coefficients by chaining relative phases obtained through polarization.
"""

__version__ = "0.1.0"

from .exceptions import (
    BudgetExceededError,
    ConvergenceError,
    DefectiveMatrixError,
    DimensionMismatchError,
    InconsistentDataError,
    SchemaError,
    SingularMatrixError,
    ZeroMagnitudeError,
)
from .frames import (
    DynamicalFrame,
    FrameAnalysis,
    analyze,
    build,
    circulant,
    circulant_frame,
    dft_matrix,
    frame_criterion,
    full_spark_criterion,
    harmonic_frame,
)
from .polarization import (
    PolarizationAngles,
    recover_product_roots_of_unity,
)
from .retrieval import (
    MeasurementConfig,
    MeasurementSet,
    RecoveryResult,
    RecoveryStatus,
    global_phase_distance,
    measure,
    min_length,
    recover_full_spark,
)
from .spectral import (
    JordanSpec,
    assemble,
    eigendecompose,
    generator_coordinates,
    hankel_of,
    jordan_matrix,
    jordan_power,
)
from .vandermonde import (
    SparkCertificate,
    classical,
    det_product_classical,
    det_product_second_kind,
    first_kind,
    full_spark,
    schur_value,
    second_kind,
)

__all__ = [
    "__version__",
    # exceptions
    "BudgetExceededError",
    "ConvergenceError",
    "DefectiveMatrixError",
    "DimensionMismatchError",
    "InconsistentDataError",
    "SchemaError",
    "SingularMatrixError",
    "ZeroMagnitudeError",
    # spectral
    "JordanSpec",
    "assemble",
    "eigendecompose",
    "generator_coordinates",
    "hankel_of",
    "jordan_matrix",
    "jordan_power",
    # vandermonde
    "SparkCertificate",
    "classical",
    "det_product_classical",
    "det_product_second_kind",
    "first_kind",
    "full_spark",
    "schur_value",
    "second_kind",
    # frames
    "DynamicalFrame",
    "FrameAnalysis",
    "analyze",
    "build",
    "circulant",
    "circulant_frame",
    "dft_matrix",
    "frame_criterion",
    "full_spark_criterion",
    "harmonic_frame",
    # polarization
    "PolarizationAngles",
    "recover_product_roots_of_unity",
    # retrieval
    "MeasurementConfig",
    "MeasurementSet",
    "RecoveryResult",
    "RecoveryStatus",
    "global_phase_distance",
    "measure",
    "min_length",
    "recover_full_spark",
]
