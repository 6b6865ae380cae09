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
from .polarization import PolarizationAngles
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
    generator_coordinates,
    jordan_matrix,
)
from .vandermonde import (
    SparkCertificate,
    classical,
    full_spark,
    second_kind,
)

__all__ = [
    "__version__",
    # exceptions
    "BudgetExceededError",
    "DimensionMismatchError",
    "InconsistentDataError",
    "SchemaError",
    "SingularMatrixError",
    "ZeroMagnitudeError",
    # spectral
    "JordanSpec",
    "assemble",
    "generator_coordinates",
    "jordan_matrix",
    # vandermonde
    "SparkCertificate",
    "classical",
    "full_spark",
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
