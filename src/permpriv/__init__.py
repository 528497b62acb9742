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
    baseline_distribution,
    distance_distribution,
    divergence,
    generate_baseline,
    plausibility,
    subject_safety_check,
)
from .decompose import ResidualDecomposition, decompose, spearman_rho
from .demo import run_demo
from .errors import (
    CapExceededError,
    EmptyInputError,
    EmptyReportError,
    EncodingError,
    InsufficientDataError,
    InvalidSpecError,
    InvalidTruthMappingError,
    InvalidValueError,
    MalformedCsvError,
    ParseError,
    PermprivError,
    RaggedRowError,
    RankOutOfRangeError,
    ShapeMismatchError,
)
from .io_report import emit_histogram, load_csv, write_csv, write_report
from .linkage import LinkageResult, LinkageScore, link_records, score_linkage
from .masking import (
    NoiseSpec,
    SynthSpec,
    gaussian_mask,
    synth_original,
)
from .privacy import (
    Evidence,
    PrivacyCertificate,
    RecordDistanceResult,
    RecordVerification,
    Release,
    batch_permutation_distances,
    certify_dataset,
    permutation_distance,
    verify_record,
    window_variance,
)
from .reverse_map import reverse_map_table
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
    "EncodingError",
    "Evidence",
    "InsufficientDataError",
    "InvalidSpecError",
    "InvalidTruthMappingError",
    "InvalidValueError",
    "LinkageResult",
    "LinkageScore",
    "MalformedCsvError",
    "MicrodataTable",
    "NoiseSpec",
    "ParseError",
    "PermprivError",
    "PrivacyCertificate",
    "RaggedRowError",
    "RankOutOfRangeError",
    "RankProfile",
    "RecordDistanceResult",
    "RecordVerification",
    "Release",
    "ResidualDecomposition",
    "Role",
    "ShapeMismatchError",
    "SubjectSafety",
    "SynthSpec",
    "assess_tables",
    "baseline_distribution",
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
    "permutation_distance",
    "plausibility",
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
