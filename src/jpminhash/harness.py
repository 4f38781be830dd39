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

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .hashing import derive_seed, derive_seed_vec, fin64, fin64_vec
from .minhash import batch_signatures, pminhash_many, signature
# similarity_report and normalize are not called here; perfbench/tracer.py
# patches both names in this module, so they must exist here.
from .similarity import _aligned_rows, _report_rows, similarity_report  # noqa: F401
from .sparse import (  # noqa: F401
    SparseDistribution,
    SparseVector,
    _check_masses,
    _kept_bounds,
    _normalize_rows,
    normalize,
)

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
    "score_pairs",
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


_TOKEN = re.compile(r"[^\W_]+")  # runs of code points where str.isalnum() holds


def _tokenize(text: str) -> list[str]:
    """Lowercase, split on any non-alphanumeric code point, drop empties."""
    return _TOKEN.findall(text.lower())


def _corpus(weighted: Iterable[tuple[str, Mapping[str, float]]]) -> tuple[list[Document], int]:
    """Documents from (doc_id, token weights) records, skipping and counting empty ones.

    One pass lays every record's entries end to end and hashes each distinct
    token once.  One stable sort by (record, id) puts repeated ids of a
    record next to each other in input order, so they add as in
    :meth:`SparseVector.from_arrays`; each row is then scaled and divided by
    the ``math.fsum`` of its masses, as :func:`normalize` scales and divides.
    The masses are checked once for the whole batch, with the message
    :meth:`SparseVector.from_arrays` gives; a row of positive finite masses
    divided by their ``fsum`` sums to one within rounding, so no row is
    summed again.
    """
    doc_ids: list[str] = []
    tokens: list[str] = []
    weights: list[float] = []
    row_len: list[int] = []
    for doc_id, w in weighted:
        doc_ids.append(doc_id)
        tokens.extend(w)
        weights.extend(w.values())
        row_len.append(len(w))
    element = {t: token_element_id(t) for t in set(tokens)}
    ids = np.fromiter(map(element.__getitem__, tokens), dtype=np.uint64, count=len(tokens))
    rows = np.repeat(np.arange(len(doc_ids)), row_len)
    order = np.lexsort((ids, rows))
    ids, rows, masses = ids[order], rows[order], np.array(weights, dtype=np.float64)[order]
    first = np.ones(ids.shape[0], dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (rows[1:] != rows[:-1])
    masses = np.bincount(np.cumsum(first) - 1, weights=masses, minlength=int(first.sum()))
    ids, rows = ids[first], rows[first]
    keep = masses != 0.0
    ids, rows, masses = ids[keep], rows[keep], masses[keep]
    if (masses < 0.0).any():  # an all-negative row would otherwise normalize to positive
        raise ValueError(f"mass for element {ids[masses < 0.0][0]} must be positive and finite")
    lengths = np.bincount(rows, minlength=len(doc_ids))
    nonempty = np.flatnonzero(lengths)
    bounds = np.zeros(nonempty.shape[0] + 1, dtype=np.intp)
    np.cumsum(lengths[nonempty], out=bounds[1:])
    masses = _normalize_rows(masses, bounds)  # scaled rows sum without overflow near 1e308
    keep = masses != 0.0  # a mass far below its row's largest can round to zero
    _check_masses(ids[keep], masses[keep])
    bounds = _kept_bounds(keep, bounds)
    dists = SparseDistribution._rows(ids[keep], masses[keep], bounds)
    corpus = [Document(doc_ids[r], dist) for r, dist in zip(nonempty.tolist(), dists)]
    return corpus, len(doc_ids) - len(corpus)


def ingest_text(documents: Iterable[tuple[str, str]]) -> tuple[list[Document], int]:
    """Turn (doc_id, text) records into term distributions.

    Returns (corpus, skipped) where skipped counts documents with no tokens.
    """
    return _corpus((doc_id, Counter(_tokenize(text))) for doc_id, text in documents)


def corpus_from_records(records: Iterable[dict]) -> tuple[list[Document], int]:
    """Build Documents from parsed corpus records ({'id','text'} or {'id','weights'}).

    Input order is preserved; empty documents are skipped and counted.
    """
    return _corpus(
        (rec["id"], Counter(_tokenize(rec["text"])) if "text" in rec else rec["weights"])
        for rec in records
    )


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


def score_pairs(
    labels: Sequence[tuple[str, str]],
    xs: Sequence[SparseDistribution],
    ys: Sequence[SparseDistribution],
) -> tuple[PairScore, ...]:
    """Score the labeled pairs ``(xs[r], ys[r])`` with all five measures, all at once."""
    return _scores(labels, *_aligned_rows(xs, ys))


def _scores(labels, ux: np.ndarray, uy: np.ndarray, bounds: np.ndarray) -> tuple[PairScore, ...]:
    """PairScores of aligned packed rows: row r is the pair labeled ``labels[r]``."""
    jp, jw, jaccard, tv, jsd = (v.tolist() for v in _report_rows(ux, uy, bounds))
    return tuple(
        PairScore(a, b, *values) for (a, b), *values in zip(labels, jp, jw, jsd, tv, jaccard)
    )


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

    The random draws are made pair by pair; everything after them is done
    for all pairs at once, bit for bit as :func:`normalize` and
    :func:`similarity_report` do it for one.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if mode not in ("sweep", "corpus"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    if mode == "corpus":
        if not corpus or len(corpus) < 2:
            raise ValueError("corpus mode needs at least two documents")
        n = len(corpus)
        picks = []
        for _ in range(count):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n - 1))
            picks.append((corpus[i], corpus[j + (j >= i)]))
        scores = score_pairs(
            [(a.doc_id, b.doc_id) for a, b in picks], [a.dist for a, _ in picks], [b.dist for _, b in picks]
        )
        return PairSample(scores, dists={d.doc_id: d.dist for d in corpus})
    x, y, window = _sweep_windows(rng, count)
    labels = [(f"sweep-{k}-a", f"sweep-{k}-b") for k in range(count)]
    union = (x != 0.0) | (y != 0.0)
    scores = _scores(labels, x[union], y[union], _kept_bounds(union, window))
    ids = (np.arange(window[-1]) - np.repeat(window[:-1], np.diff(window))).astype(np.uint64)
    sides = []
    for v in (x, y):
        keep = v != 0.0
        sides.append(SparseDistribution._rows(ids[keep], v[keep], _kept_bounds(keep, window)))
    dists: dict[str, SparseDistribution] = {}
    for (id_a, id_b), xd, yd in zip(labels, *sides):
        dists[id_a] = xd
        dists[id_b] = yd
    return PairSample(scores, dists=dists)


def _sweep_windows(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, y, window)`` of ``count`` sweep pairs, drawn pair by pair, built all at once.

    Pair k lives in the window of ids ``[0, dim + max(off1, off2))``, and
    the windows lie end to end, pair k's at ``window[k]:window[k + 1]``;
    ``x`` and ``y`` hold both sides' masses there, 0 where an id is absent.
    """
    dims, t, offsets, draws = [], [], [], []
    for _ in range(count):
        dim = int(rng.integers(10, 201))
        draws.append(rng.exponential(size=dim))  # z
        t.append(float(rng.uniform()))
        offsets.append((0, int(rng.integers(0, 2 * dim)), int(rng.integers(0, 2 * dim))))
        draws.append(rng.exponential(size=dim))  # n1
        draws.append(rng.exponential(size=dim))  # n2
        dims.append(dim)
    # z, n1 and n2 of pair k are rows 3k, 3k + 1 and 3k + 2, each normalized
    row_len = np.repeat(dims, 3)
    bounds = np.zeros(row_len.shape[0] + 1, dtype=np.intp)
    np.cumsum(row_len, out=bounds[1:])
    parts = np.maximum(np.concatenate(draws), 1e-12)  # exponential draws of exactly 0 are void
    parts = _normalize_rows(parts, bounds)
    offsets = np.array(offsets)
    window = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.array(dims) + offsets.max(axis=1), out=window[1:])
    # element i of row 3k + j goes to position offsets[k, j] + i of pair k's window
    pair, part = np.divmod(np.arange(row_len.shape[0]), 3)
    at = np.arange(parts.shape[0]) + np.repeat(window[pair] + offsets[pair, part] - bounds[:-1], row_len)
    t = np.array(t)[pair]
    parts *= np.repeat(np.where(part == 0, 1.0 - t, t), row_len)
    # mixed as from_arrays adds a repeated id: 0 + (1-t) z, then + t n
    z, n1, n2 = (np.repeat(part == j, row_len) for j in range(3))
    x, y = np.zeros(window[-1]), np.zeros(window[-1])
    x[at[z]] = y[at[z]] = parts[z]
    x[at[n1]] += parts[n1]
    y[at[n2]] += parts[n2]
    return _normalize_rows(x, window), _normalize_rows(y, window), window


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
    """Map from (band index, band key) to the documents posted there.

    ``index_build`` makes ``buckets`` a dict; ``io.read_index_jsonl`` may
    make it a read-only mapping that decodes a bucket when it is looked up.
    """

    buckets: Mapping[tuple[int, int], tuple[str, ...]]
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
    n = len(pairs.scores)
    # both sides in one batch: an id shared by any two documents is hashed once
    dists = [pairs.dists[s.id_a] for s in pairs.scores] + [pairs.dists[s.id_b] for s in pairs.scores]
    runs: list[tuple[float, float]] = []
    for r in range(replicates):
        scheme = BandingScheme(a, o, base_seed=derive_seed(seed, r))
        samples = batch_signatures(dists, scheme.base_seed, scheme.k)
        keys = _band_keys_matrix(samples, a, o, scheme.base_seed)
        retrieved = (keys[:n] == keys[n:]).any(axis=1)
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
