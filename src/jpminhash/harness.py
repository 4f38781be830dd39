"""Desk-scale retrieval harness: corpora, synthetic pairs, banding, curves.

Retrieval with a key-value store combines ``a`` signature samples into one
band key (an AND) and emits ``o`` independent band keys (an OR), so a pair
colliding with probability p per hash is retrieved with probability
``1 - (1 - p**a)**o``.  This module builds banded inverted indexes over
signatures, generates labeled synthetic pairs spanning the similarity range,
and turns both into analytic or empirical precision/recall curves, plus the
divergence scatter summaries used by the verification suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hashing import derive_seed, derive_seed_vec, fin64, fin64_vec
from .minhash import batch_signatures, pminhash_many, signature
from .similarity import SimilarityReport, similarity_report
from .sparse import SparseDistribution, SparseVector, normalize

__all__ = [
    "Document",
    "BandingScheme",
    "InvertedIndex",
    "PairScore",
    "PairSample",
    "PRPoint",
    "Task",
    "DEFAULT_GRID",
    "ingest_text",
    "token_element_id",
    "corpus_from_records",
    "synth_pairs",
    "score_pair",
    "amplify",
    "band_keys",
    "index_build",
    "query",
    "eval_curves",
    "empirical_retrieval_runs",
    "banded_collision_frequency",
    "DirectionCheck",
    "check_jsd_tv_direction",
    "DivergenceSummary",
    "divergence_summary",
]

# a in {1,2,3,4,6,8} crossed with o in powers of two up to 128
DEFAULT_GRID: tuple[tuple[int, int], ...] = tuple(
    (a, o) for a in (1, 2, 3, 4, 6, 8) for o in (1, 2, 4, 8, 16, 32, 64, 128)
)


@dataclass(frozen=True)
class Document:
    """One corpus entry: id and normalized term distribution."""

    doc_id: str
    dist: SparseDistribution


def token_element_id(token: str) -> int:
    """Stable 64-bit id for a token: UTF-8 bytes folded 8 at a time."""
    h = 0
    data = token.encode("utf-8")
    for off in range(0, len(data), 8):
        h = fin64(h ^ int.from_bytes(data[off : off + 8], "little"))
    return h


def _tokenize(text: str) -> list[str]:
    # lowercase, split on any non-alphanumeric codepoint, drop empties
    out: list[str] = []
    cur: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            cur.append(ch)
        elif cur:
            out.append("".join(cur))
            cur = []
    if cur:
        out.append("".join(cur))
    return out


def ingest_text(documents: Iterable[tuple[str, str]]) -> tuple[list[Document], int]:
    """Turn (doc_id, text) records into term distributions.

    Returns (corpus, skipped) where skipped counts documents with no tokens.
    """
    corpus: list[Document] = []
    skipped = 0
    for doc_id, text in documents:
        tokens = _tokenize(text)
        if not tokens:
            skipped += 1
            continue
        counts = Counter(tokens)
        dist = normalize(
            SparseVector.from_pairs((token_element_id(t), float(c)) for t, c in counts.items())
        )
        corpus.append(Document(doc_id=doc_id, dist=dist))
    return corpus, skipped


def corpus_from_records(records: Iterable[dict]) -> tuple[list[Document], int]:
    """Build Documents from parsed corpus records ({'id','text'} or {'id','weights'}).

    Input order is preserved; empty documents are skipped and counted.
    """
    corpus: list[Document] = []
    skipped = 0
    for rec in records:
        if "text" in rec:
            ingested, text_skipped = ingest_text([(rec["id"], rec["text"])])
            corpus.extend(ingested)
            skipped += text_skipped
            continue
        weights = rec["weights"]
        pairs = [(token_element_id(t), float(w)) for t, w in weights.items() if float(w) != 0.0]
        if not pairs:
            skipped += 1
            continue
        dist = normalize(SparseVector.from_pairs(pairs))
        corpus.append(Document(doc_id=rec["id"], dist=dist))
    return corpus, skipped


@dataclass(frozen=True)
class PairScore:
    """One labeled pair with all five similarity scores and a weight."""

    id_a: str
    id_b: str
    jp: float
    jw: float
    jsd: float
    tv: float
    support_jaccard: float
    weight: float = 1.0


@dataclass(frozen=True)
class PairSample:
    """A collection of scored pairs, optionally with their distributions."""

    scores: tuple[PairScore, ...]
    dists: dict[str, SparseDistribution] | None = None

    def __len__(self) -> int:
        return len(self.scores)


def score_pair(
    id_a: str, id_b: str, x: SparseDistribution, y: SparseDistribution, weight: float = 1.0
) -> PairScore:
    """Score one labeled pair with all five measures."""
    rep: SimilarityReport = similarity_report(x, y)
    return PairScore(
        id_a=id_a,
        id_b=id_b,
        jp=rep.jp,
        jw=rep.jw,
        jsd=rep.jsd,
        tv=rep.tv,
        support_jaccard=rep.support_jaccard,
        weight=weight,
    )


def _exp_dist(rng: np.random.Generator, ids: np.ndarray) -> SparseDistribution:
    masses = rng.exponential(size=ids.shape[0])
    masses = np.maximum(masses, 1e-12)  # exponential draws of exactly 0 are void
    return normalize(SparseVector.from_pairs(zip(ids.tolist(), masses.tolist())))


def synth_pairs(
    count: int,
    seed: int,
    mode: str = "sweep",
    corpus: Sequence[Document] | None = None,
) -> PairSample:
    """Deterministic labeled pairs for curve evaluation.

    ``sweep`` draws a base distribution z over 10..200 elements from
    normalized exponential variates and mixes it with two fresh noise
    distributions at a uniform level t: x = normalize((1-t) z + t n1) and
    y likewise with n2.  The noise supports are windows shifted by random
    offsets, so pairs range from identical to disjoint.  ``corpus`` draws
    random document pairs from an ingested corpus.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if mode not in ("sweep", "corpus"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    scores: list[PairScore] = []
    dists: dict[str, SparseDistribution] = {}
    if mode == "corpus":
        if not corpus or len(corpus) < 2:
            raise ValueError("corpus mode needs at least two documents")
        by_id = {d.doc_id: d.dist for d in corpus}
        n = len(corpus)
        for _ in range(count):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n - 1))
            if j >= i:
                j += 1
            a, b = corpus[i], corpus[j]
            scores.append(score_pair(a.doc_id, b.doc_id, a.dist, b.dist))
        return PairSample(tuple(scores), dists=by_id)
    for k in range(count):
        dim = int(rng.integers(10, 201))
        base_ids = np.arange(dim, dtype=np.uint64)
        z = _exp_dist(rng, base_ids)
        t = float(rng.uniform())
        off1 = int(rng.integers(0, 2 * dim))
        off2 = int(rng.integers(0, 2 * dim))
        n1 = _exp_dist(rng, np.arange(off1, off1 + dim, dtype=np.uint64))
        n2 = _exp_dist(rng, np.arange(off2, off2 + dim, dtype=np.uint64))
        x = _mix(z, n1, t)
        y = _mix(z, n2, t)
        id_a = f"sweep-{k}-a"
        id_b = f"sweep-{k}-b"
        dists[id_a] = x
        dists[id_b] = y
        scores.append(score_pair(id_a, id_b, x, y))
    return PairSample(tuple(scores), dists=dists)


def _mix(z: SparseDistribution, noise: SparseDistribution, t: float) -> SparseDistribution:
    pairs = [(eid, (1.0 - t) * m) for eid, m in z.entries]
    pairs.extend((eid, t * m) for eid, m in noise.entries)
    return normalize(SparseVector.from_pairs(pairs))


def amplify(p: float, a: int, o: int) -> float:
    """Retrieval probability of (a, o) banding: ``1 - (1 - p**a)**o``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if a < 1 or o < 1:
        raise ValueError("a and o must be positive")
    return _amplify(p, a, o)


def _amplify(p, a: int, o: int):
    """``1 - (1 - p**a)**o`` on a float or elementwise on an array, unchecked."""
    return 1.0 - (1.0 - p**a) ** o


@dataclass(frozen=True)
class BandingScheme:
    """o independent band keys, each folding a signature samples."""

    a: int
    o: int
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.a < 1 or self.o < 1:
            raise ValueError("a and o must be positive")

    @property
    def k(self) -> int:
        return self.a * self.o


def band_keys(samples: Sequence[int], scheme: BandingScheme) -> tuple[int, ...]:
    """Fold samples into o band keys; band b consumes positions b*a..b*a+a-1."""
    if len(samples) != scheme.k:
        raise ValueError("signature length does not match scheme")
    row = np.array([samples], dtype=np.uint64)
    return tuple(_band_keys_matrix(row, scheme.a, scheme.o, scheme.base_seed)[0].tolist())


def _band_keys_matrix(samples: np.ndarray, a: int, o: int, base_seeds) -> np.ndarray:
    """(n, o) band keys of an (n, a*o) uint64 sample matrix.

    Band b of a row starts from derive_seed(base, b) and folds the row's
    samples b*a..b*a+a-1 in order through fin64.  ``base_seeds`` is one seed
    for every row or one seed per row.
    """
    bases = np.asarray(base_seeds, dtype=np.uint64).reshape(-1, 1)
    h = derive_seed_vec(bases, np.arange(o))  # (1, o) for a shared seed, else (n, o)
    bands = samples.reshape(samples.shape[0], o, a)
    for t in range(a):
        h = fin64_vec(h ^ bands[:, :, t])
    return h


@dataclass(frozen=True)
class InvertedIndex:
    """Map from (band index, band key) to the documents posted there."""

    buckets: dict[tuple[int, int], tuple[str, ...]]
    scheme: BandingScheme


def index_build(corpus: Sequence[Document], scheme: BandingScheme) -> InvertedIndex:
    """Deterministically index a corpus under a banding scheme."""
    if not corpus:
        raise ValueError("corpus is empty")
    samples = batch_signatures([d.dist for d in corpus], scheme.base_seed, scheme.k)
    keys = _band_keys_matrix(samples, scheme.a, scheme.o, scheme.base_seed)
    buckets: dict[tuple[int, int], list[str]] = {}
    for doc, row in zip(corpus, keys.tolist()):
        for b, key in enumerate(row):
            buckets.setdefault((b, key), []).append(doc.doc_id)
    return InvertedIndex({k: tuple(v) for k, v in buckets.items()}, scheme)


def query(index: InvertedIndex, dist: SparseDistribution) -> set[str]:
    """All documents sharing at least one band key with the query distribution."""
    scheme = index.scheme
    sig = signature(dist, scheme.base_seed, scheme.k)
    out: set[str] = set()
    for b, key in enumerate(band_keys(sig.samples, scheme)):
        out.update(index.buckets.get((b, key), ()))
    return out


@dataclass(frozen=True)
class Task:
    """Positive-pair criterion over a score field, e.g. jsd < 0.25."""

    field: str
    op: str
    threshold: float

    _FIELDS = ("jp", "jw", "jsd", "tv", "jaccard")

    @classmethod
    def parse(cls, text: str) -> "Task":
        for op in ("<", ">"):
            if op in text:
                field, _, rest = text.partition(op)
                field = field.strip().lower()
                if field not in cls._FIELDS:
                    raise ValueError(f"unknown task field {field!r}")
                return cls(field=field, op=op, threshold=float(rest))
        raise ValueError(f"cannot parse task {text!r}; expected e.g. 'jsd<0.25'")

    def is_positive(self, score: PairScore) -> bool:
        value = score.support_jaccard if self.field == "jaccard" else getattr(score, self.field)
        return value < self.threshold if self.op == "<" else value > self.threshold

    def __str__(self) -> str:
        return f"{self.field}{self.op}{self.threshold:g}"


@dataclass(frozen=True)
class PRPoint:
    """One precision/recall point; lookup cost is dominated by o."""

    method: str  # "JP" or "JW"
    a: int
    o: int
    cost: int
    precision: float
    recall: float
    mode: str  # "analytic" or "empirical"


def _weighted_pr(weights: np.ndarray, positives: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    wq = weights * q
    retrieved = float(wq.sum())
    hit = float(wq[positives].sum())
    pos_mass = float(weights[positives].sum())
    precision = hit / retrieved if retrieved > 0.0 else 0.0
    recall = hit / pos_mass
    return precision, recall


def eval_curves(
    pairs: PairSample,
    grid: Sequence[tuple[int, int]] = DEFAULT_GRID,
    task: Task | str = "jsd<0.25",
    mode: str = "analytic",
    *,
    replicates: int = 50,
    seed: int = 0,
) -> list[PRPoint]:
    """Precision/recall points over a banding grid.

    Analytic mode computes expected precision/recall from each pair's
    retrieval probability amplify(p, a, o), with p = jp for method JP and
    p = jw for method JW.  Empirical mode (JP only) runs real signatures
    through index build and query over ``replicates`` derived seeds and
    averages the measured precision/recall.
    """
    if isinstance(task, str):
        task = Task.parse(task)
    if mode not in ("analytic", "empirical"):
        raise ValueError(f"unknown mode {mode!r}")
    positives = np.array([task.is_positive(s) for s in pairs.scores])
    if not positives.any():
        raise ValueError("degenerate task")
    for a, o in grid:
        BandingScheme(a, o)  # validates a, o
    weights = np.array([s.weight for s in pairs.scores])
    points: list[PRPoint] = []
    if mode == "analytic":
        for method, p_vals in (
            ("JP", np.array([s.jp for s in pairs.scores])),
            ("JW", np.array([s.jw for s in pairs.scores])),
        ):
            for a, o in grid:
                precision, recall = _weighted_pr(weights, positives, _amplify(p_vals, a, o))
                points.append(PRPoint(method, a, o, o, precision, recall, "analytic"))
        return points
    for a, o in grid:
        runs = empirical_retrieval_runs(pairs, task, a, o, replicates=replicates, seed=seed)
        precision = float(np.mean([r[0] for r in runs]))
        recall = float(np.mean([r[1] for r in runs]))
        points.append(PRPoint("JP", a, o, o, precision, recall, "empirical"))
    return points


def empirical_retrieval_runs(
    pairs: PairSample, task: Task | str, a: int, o: int, *, replicates: int, seed: int
) -> list[tuple[float, float]]:
    """Per-replicate (precision, recall) of banded retrieval under real signatures.

    Each replicate draws a fresh derived scheme seed and counts a pair as
    retrieved when its two documents share a band key.  That is exactly when
    an index over the first documents, queried with the second, returns the
    first: documents with equal ids carry equal distributions, so they post
    under equal keys.
    """
    if isinstance(task, str):
        task = Task.parse(task)
    if replicates < 1:
        raise ValueError("replicates must be positive")
    if pairs.dists is None:
        raise ValueError("empirical mode needs pair distributions")
    positives = np.array([task.is_positive(s) for s in pairs.scores])
    if not positives.any():
        raise ValueError("degenerate task")
    weights = np.array([s.weight for s in pairs.scores])
    dists_a = [pairs.dists[s.id_a] for s in pairs.scores]
    dists_b = [pairs.dists[s.id_b] for s in pairs.scores]
    runs: list[tuple[float, float]] = []
    for r in range(replicates):
        scheme = BandingScheme(a, o, base_seed=derive_seed(seed, r))
        keys_a, keys_b = (
            _band_keys_matrix(batch_signatures(d, scheme.base_seed, scheme.k), a, o, scheme.base_seed)
            for d in (dists_a, dists_b)
        )
        retrieved = (keys_a == keys_b).any(axis=1)
        runs.append(_weighted_pr(weights, positives, retrieved.astype(float)))
    return runs


def banded_collision_frequency(
    x: SparseVector, y: SparseVector, a: int, o: int, seed: int, replicates: int
) -> float:
    """Fraction of replicate seeds on which x and y share at least one band key."""
    if replicates < 1:
        raise ValueError("replicates must be positive")
    k = BandingScheme(a, o).k  # validates a, o
    rep_seeds = derive_seed_vec(seed, np.arange(replicates))
    # all signature seeds at once: row r holds derive(rep_seeds[r], 0..k-1)
    sig_seeds = derive_seed_vec(rep_seeds[:, None], np.arange(k)).reshape(-1)
    kx, ky = (
        _band_keys_matrix(pminhash_many(v, sig_seeds).reshape(replicates, k), a, o, rep_seeds)
        for v in (x, y)
    )
    return float((kx == ky).any(axis=1).mean())


@dataclass(frozen=True)
class DirectionCheck:
    """Brute-force check of how JSD sits between the tv bound curves.

    ``lower_holds``: d(tv) <= jsd everywhere on the grid of two-element
    distribution pairs; ``upper_holds``: jsd <= tv everywhere;
    ``transposed_holds``: the reverse sandwich d(tv) >= jsd >= tv.
    """

    lower_holds: bool
    upper_holds: bool
    transposed_holds: bool
    grid_pairs: int
    max_below_lower: float
    max_above_upper: float


def check_jsd_tv_direction(steps: int = 200) -> DirectionCheck:
    """Evaluate jsd and tv on a dense grid of two-element distributions.

    Uses the entropy identity jsd = H((q+r)/2) - (H(q) + H(r))/2, an
    independent route from the divergence code, to settle which direction of
    the d-curve sandwich actually holds.
    """
    qs = np.linspace(0.0, 1.0, steps + 1)
    q, r = np.meshgrid(qs, qs)
    tv = np.abs(q - r)
    jsd_vals = _binary_entropy((q + r) / 2.0) - 0.5 * (_binary_entropy(q) + _binary_entropy(r))
    d = _d_curve(tv)
    below_lower = d - jsd_vals
    above_upper = jsd_vals - tv
    tol = 1e-12
    lower_holds = bool(np.all(below_lower <= tol))
    upper_holds = bool(np.all(above_upper <= tol))
    transposed = bool(np.all(jsd_vals - d <= tol) and np.all(tv - jsd_vals <= tol))
    return DirectionCheck(
        lower_holds=lower_holds,
        upper_holds=upper_holds,
        transposed_holds=transposed,
        grid_pairs=int(q.size),
        max_below_lower=float(below_lower.max()),
        max_above_upper=float(above_upper.max()),
    )


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    for w in (p, 1.0 - p):
        pos = w > 0.0
        out[pos] -= w[pos] * np.log2(w[pos])
    return out


def _d_curve(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    for w in (1.0 - p, 1.0 + p):
        pos = w > 0.0
        out[pos] += 0.5 * w[pos] * np.log2(w[pos])
    return out


@dataclass(frozen=True)
class DivergenceSummary:
    """Violation fractions of the d-curves on a pair sample (reported, never asserted).

    The exact bounds d(tv) <= jsd <= tv are checked as given; the jp curve
    d(1 - jp) is only an empirical lower bound for jsd and its violation
    fraction is the interesting number.
    """

    n: int
    frac_jsd_below_jp_curve: float
    max_jsd_below_jp_curve: float
    frac_jsd_below_jw_curve: float
    frac_jsd_above_tv: float
    frac_jsd_below_d_of_tv: float


def divergence_summary(pairs: PairSample, tol: float = 1e-9) -> DivergenceSummary:
    """Compare each pair's jsd against the bound curves in jp, jw and tv."""
    jp_vals = np.array([s.jp for s in pairs.scores])
    jw_vals = np.array([s.jw for s in pairs.scores])
    jsd_vals = np.array([s.jsd for s in pairs.scores])
    tv_vals = np.array([s.tv for s in pairs.scores])
    jp_curve = _d_curve(1.0 - jp_vals)
    jw_curve = _d_curve((1.0 - jw_vals) / (1.0 + jw_vals))
    d_tv = _d_curve(tv_vals)
    below_jp = jp_curve - jsd_vals
    return DivergenceSummary(
        n=len(pairs.scores),
        frac_jsd_below_jp_curve=float(np.mean(below_jp > tol)),
        max_jsd_below_jp_curve=float(max(0.0, below_jp.max())),
        frac_jsd_below_jw_curve=float(np.mean(jw_curve - jsd_vals > tol)),
        frac_jsd_above_tv=float(np.mean(jsd_vals - tv_vals > tol)),
        frac_jsd_below_d_of_tv=float(np.mean(d_tv - jsd_vals > tol)),
    )
