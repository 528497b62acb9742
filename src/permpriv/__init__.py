"""Permutation-based analysis of microdata anonymization.

Any anonymization of numeric microdata can be rewritten as a permutation of
the original records plus rank-neutral residual noise.  This package makes
that view operational: reverse mapping, residual decomposition, permutation
distances with rank-window variance certification, maximum-knowledge intruder
linkage, and random-record plausibility baselines, all reproducible under
explicit seeds.
"""

from ._version import __version__
from .baseline import (
    AssessmentReport,
    BaselineSpec,
    DistanceDistribution,
    DivergenceSummary,
    SubjectSafety,
    assess_tables,
    distance_distribution,
    divergence,
    generate_baseline,
    plausibility,
    subject_safety_check,
)
from .decompose import (
    NoiseSummary,
    ResidualDecomposition,
    decompose,
    noise_magnitude_summary,
    spearman_rho,
)
from .demo import run_demo
from .errors import (
    CapExceededError,
    EmptyInputError,
    EmptyReportError,
    InsufficientDataError,
    InvalidSpecError,
    InvalidTruthMappingError,
    InvalidValueError,
    ParseError,
    PermprivError,
    RaggedRowError,
    RankOutOfRangeError,
    ShapeMismatchError,
)
from .io_report import (
    RunConfig,
    emit_histogram,
    load_csv,
    read_report,
    write_csv,
    write_report,
)
from .linkage import LinkageResult, LinkageScore, link_records, score_linkage
from .masking import (
    NoiseSpec,
    SynthSpec,
    gaussian_mask,
    synth_original,
)
from .privacy import (
    PrivacyCertificate,
    RecordDistanceResult,
    RecordPrivacy,
    RecordVerification,
    Release,
    batch_permutation_distances,
    certify_dataset,
    permutation_distance,
    verify_record,
    window_variance,
)
from .reverse_map import reverse_map_column, reverse_map_table
from .table import (
    DEFAULT_TIE_SEED,
    MicrodataTable,
    RankProfile,
    Role,
    compute_ranks,
    derive_column_seed,
)

__all__ = [
    "__version__",
    "AssessmentReport",
    "BaselineSpec",
    "CapExceededError",
    "DEFAULT_TIE_SEED",
    "DistanceDistribution",
    "DivergenceSummary",
    "EmptyInputError",
    "EmptyReportError",
    "InsufficientDataError",
    "InvalidSpecError",
    "InvalidTruthMappingError",
    "InvalidValueError",
    "LinkageResult",
    "LinkageScore",
    "MicrodataTable",
    "NoiseSpec",
    "NoiseSummary",
    "ParseError",
    "PermprivError",
    "PrivacyCertificate",
    "RaggedRowError",
    "RankOutOfRangeError",
    "RankProfile",
    "RecordDistanceResult",
    "RecordPrivacy",
    "RecordVerification",
    "Release",
    "ResidualDecomposition",
    "Role",
    "RunConfig",
    "ShapeMismatchError",
    "SubjectSafety",
    "SynthSpec",
    "assess_tables",
    "batch_permutation_distances",
    "certify_dataset",
    "compute_ranks",
    "decompose",
    "derive_column_seed",
    "distance_distribution",
    "divergence",
    "emit_histogram",
    "gaussian_mask",
    "generate_baseline",
    "link_records",
    "load_csv",
    "noise_magnitude_summary",
    "permutation_distance",
    "plausibility",
    "read_report",
    "reverse_map_column",
    "reverse_map_table",
    "run_demo",
    "score_linkage",
    "spearman_rho",
    "subject_safety_check",
    "synth_original",
    "verify_record",
    "window_variance",
    "write_csv",
    "write_report",
]
