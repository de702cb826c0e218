"""Exact counting, uniform generation, and spaced-seed sensitivity for
score-constrained gapless alignments."""

from .alignments import (
    Alignment,
    DetectionStrategy,
    ScoringScheme,
    Seed,
    enumerate_homogeneous,
    is_homogeneous,
    is_homogeneous_segments,
    score,
    seed_detects,
    strategy_detects,
)
from .counting import (
    Composition,
    InfeasibleScore,
    count_homogeneous,
    count_unconstrained,
    feasible_composition,
)
from .sampling import (
    RandomStream,
    sample_fixed,
    sample_free,
)
from .search import RankedSeed, RankedSeeds, SearchSpec, enumerate_seeds, find_optimal, seed_count
from .sensitivity import (
    HOMOGENEOUS,
    UNIFORM,
    McEstimate,
    SensitivityQuery,
    SensitivityReport,
    decimal_ratio,
    hit_probability,
    hit_probability_profile,
    mc_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "Composition",
    "DetectionStrategy",
    "HOMOGENEOUS",
    "InfeasibleScore",
    "McEstimate",
    "RandomStream",
    "RankedSeed",
    "RankedSeeds",
    "ScoringScheme",
    "SearchSpec",
    "Seed",
    "SensitivityQuery",
    "SensitivityReport",
    "UNIFORM",
    "count_homogeneous",
    "count_unconstrained",
    "decimal_ratio",
    "enumerate_homogeneous",
    "enumerate_seeds",
    "feasible_composition",
    "find_optimal",
    "hit_probability",
    "hit_probability_profile",
    "is_homogeneous",
    "is_homogeneous_segments",
    "mc_estimate",
    "sample_fixed",
    "sample_free",
    "score",
    "seed_count",
    "seed_detects",
    "strategy_detects",
]
