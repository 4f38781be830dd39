"""MinHash sketches for probability distributions.

The sampler draws one exponential key per nonzero element from a seeded
uniform hash and keeps the argmin; two distributions hashed under the same
seed collide with probability equal to a scale-invariant generalization of
the Jaccard index (``jp``).  The package computes that similarity exactly,
provides sparse and dense/continuous samplers that achieve it, and includes
a banded-retrieval evaluation harness plus a CLI.
"""

from .harness import (
    DEFAULT_GRID,
    BandingScheme,
    Document,
    InvertedIndex,
    PairSample,
    PairScore,
    PRPoint,
    Task,
    amplify,
    band_keys,
    check_jsd_tv_direction,
    divergence_summary,
    eval_curves,
    index_build,
    ingest_text,
    query,
    synth_pairs,
)
from .hashing import derive_seed, fin64, uniform_hash
from .minhash import (
    Signature,
    WeightTree,
    collision_estimate,
    pminhash,
    pminhash_many,
    signature,
    tree_pminhash,
    tree_pminhash_many,
)
from .similarity import (
    PerTermDecomposition,
    SimilarityReport,
    adversarial_z,
    bound_curves,
    construct_lower_pair,
    construct_upper_pair,
    jp,
    jp_naive,
    jp_terms,
    jsd,
    jw,
    similarity_report,
    support_jaccard,
    total_variation,
)
from .sparse import Partition, SparseDistribution, SparseVector, coarsen, normalize

__version__ = "0.1.0"

# The dense searches load on first use (PEP 562): no CLI command but
# ``verify`` runs them, and an import compiles every line it loads.
_DENSE_NAMES = frozenset({"AStarResult", "FiniteMeasure", "PiecewiseDensity", "astar_collision",
                          "astar_pminhash", "global_bound", "proposal_stream"})


def __getattr__(name: str):
    if name in _DENSE_NAMES:
        from . import dense

        return getattr(dense, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AStarResult",
    "BandingScheme",
    "DEFAULT_GRID",
    "Document",
    "FiniteMeasure",
    "InvertedIndex",
    "PairSample",
    "PairScore",
    "PRPoint",
    "Partition",
    "PerTermDecomposition",
    "PiecewiseDensity",
    "Signature",
    "SimilarityReport",
    "SparseDistribution",
    "SparseVector",
    "Task",
    "WeightTree",
    "adversarial_z",
    "amplify",
    "astar_collision",
    "astar_pminhash",
    "band_keys",
    "bound_curves",
    "check_jsd_tv_direction",
    "coarsen",
    "collision_estimate",
    "construct_lower_pair",
    "construct_upper_pair",
    "derive_seed",
    "divergence_summary",
    "eval_curves",
    "fin64",
    "global_bound",
    "index_build",
    "ingest_text",
    "jp",
    "jp_naive",
    "jp_terms",
    "jsd",
    "jw",
    "normalize",
    "pminhash",
    "pminhash_many",
    "proposal_stream",
    "query",
    "signature",
    "similarity_report",
    "support_jaccard",
    "synth_pairs",
    "total_variation",
    "tree_pminhash",
    "tree_pminhash_many",
    "uniform_hash",
]
