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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .hashing import derive_seed_vec, fin64, fin64_vec
from .minhash import _PackedVectors, batch_signatures, signature
# similarity_report and normalize are not called here; perfbench/tracer.py
# patches both names in this module, so they must exist here.
from .similarity import _aligned_rows, _d_curve, _report_rows, similarity_report  # noqa: F401
from .sparse import (  # noqa: F401
    SparseDistribution,
    SparseVector,
    _distributions,
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


# Live tokens below which a word column costs more as one fin64_vec call
# than folded token by token as Python ints.
_FOLD_ROWS = 16


def _token_ids(tokens: Sequence[str]) -> np.ndarray:
    """:func:`token_element_id` of every token, as one uint64 array.

    The tokens' UTF-8 bytes lie end to end, each zero-padded to whole 8-byte
    little-endian words, and one fold runs word column by word column over
    the tokens that still have a word there; sorted longest first, those
    are a prefix.  Once fewer than ``_FOLD_ROWS`` tokens are left, their
    remaining words are folded as Python ints, so a very long token costs
    about what :func:`token_element_id` takes.
    """
    data = [b.ljust((len(b) + 7) & -8, b"\0") for b in map(str.encode, tokens)]
    words = np.frombuffer(b"".join(data), dtype="<u8")
    n_words = np.fromiter(map(len, data), dtype=np.intp, count=len(data)) // 8
    first = np.cumsum(n_words) - n_words  # each token's first word
    order = np.argsort(-n_words, kind="stable")
    first, n_words = first[order], n_words[order]
    # live[j]: how many tokens have a word j, which never grows with j
    live = np.searchsorted(-n_words, -np.arange(n_words[0] if n_words.size else 0), side="left")
    cols = int(np.count_nonzero(live >= _FOLD_ROWS))
    h = np.zeros(len(data), dtype=np.uint64)
    for j, n in enumerate(live[:cols].tolist()):
        h[:n] = fin64_vec(h[:n] ^ words[first[:n] + j])
    for i in range(int(live[cols]) if cols < live.shape[0] else 0):
        z = int(h[i])
        for w in words[first[i] + cols : first[i] + n_words[i]].tolist():
            z = fin64(z ^ w)
        h[i] = z
    out = np.empty_like(h)
    out[order] = h
    return out


_TOKEN = re.compile(r"[^\W_]+")  # runs of code points where str.isalnum() holds

# ASCII bytes the pattern does not match, mapped to a space
_ASCII_SEPARATORS = bytes(c if c < 128 and _TOKEN.match(chr(c)) else 32 for c in range(256))


def _tokenize(text: str) -> list[str]:
    """Lowercase, split on any non-alphanumeric code point, drop empties.

    The tokens are ``_TOKEN.findall(text.lower())``.  Lowercased text that
    is all ASCII is split by a byte translation instead, which finds the
    same runs; ASCII is checked after lowercasing because some non-ASCII
    letters, such as the Kelvin sign, lowercase to ASCII.
    """
    low = text.lower()
    if low.isascii():
        return low.encode("ascii").translate(_ASCII_SEPARATORS).decode("ascii").split()
    return _TOKEN.findall(low)


def ingest_text(documents: Iterable[tuple[str, str]]) -> tuple[list[Document], int]:
    """:func:`corpus_from_records` of (doc_id, text) records."""
    return corpus_from_records({"id": doc_id, "text": text} for doc_id, text in documents)


def corpus_from_records(records: Iterable[dict]) -> tuple[list[Document], int]:
    """Build Documents from parsed corpus records ({'id','text'} or {'id','weights'}).

    A text record adds one entry of weight 1.0 per token occurrence, a
    weights record its own entries.  One pass lays every record's entries
    end to end and hashes each distinct token once; one
    :func:`sparse._distributions` call then merges, normalizes and checks
    every record.  Repeats of a token add in input order, and sums of ones
    are exact, so a text's masses are its token counts.  Input order is
    preserved; empty documents are skipped and counted.
    """
    doc_ids: list[str] = []
    tokens: list[str] = []
    weights: list[float] = []
    row_len: list[int] = []
    for rec in records:
        doc_ids.append(rec["id"])
        if "text" in rec:
            row = _tokenize(rec["text"])
            weights += [1.0] * len(row)
        else:
            row = rec["weights"]
            weights.extend(row.values())
        tokens.extend(row)
        row_len.append(len(row))
    distinct = list(set(tokens))
    element = dict(zip(distinct, _token_ids(distinct).tolist()))
    ids = np.fromiter(map(element.__getitem__, tokens), dtype=np.uint64, count=len(tokens))
    dists, kept = _distributions(ids, np.array(weights, dtype=np.float64), row_len)
    corpus = [Document(doc_ids[r], dist) for r, dist in zip(kept.tolist(), dists)]
    return corpus, len(doc_ids) - len(corpus)


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


def synth_pairs(count: int, seed: int) -> PairSample:
    """Deterministic labeled pairs for curve evaluation, spanning identical to disjoint.

    Each pair draws a base distribution z over 10..200 elements from
    normalized exponential variates and mixes it with two fresh noise
    distributions at a uniform level t: x = normalize((1-t) z + t n1) and
    y likewise with n2.  The noise supports are windows shifted by random
    offsets, so pairs range from identical to disjoint.

    The random draws are made pair by pair; everything after them is done
    for all pairs at once, bit for bit as :func:`normalize` and
    :func:`similarity_report` do it for one.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
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
    """Deterministically index a corpus under a banding scheme.

    Buckets come in (band, key) order, each listing its documents in corpus
    order: one stable sort of every band's keys groups them.
    """
    order, bands, keys, bounds = _buckets(corpus, scheme)
    doc_ids = [d.doc_id for d in corpus]
    docs = tuple(map(doc_ids.__getitem__, order.tolist()))
    bounds = bounds.tolist()
    buckets = {
        (b, key): docs[lo:hi]
        for b, key, lo, hi in zip(bands.tolist(), keys.tolist(), bounds, bounds[1:])
    }
    return InvertedIndex(buckets, scheme)


def _buckets(corpus: Sequence[Document], scheme: BandingScheme) -> tuple[np.ndarray, ...]:
    """``(order, bands, keys, bounds)``: the buckets of :func:`index_build` as arrays, in file order.

    Bucket i is band ``bands[i]``, key ``keys[i]``, and holds the corpus
    positions ``order[bounds[i]:bounds[i + 1]]``, increasing.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    samples = batch_signatures([d.dist for d in corpus], scheme.base_seed, scheme.k)
    keys = _band_keys_matrix(samples, scheme.a, scheme.o, scheme.base_seed).T  # (o, n)
    order = np.argsort(keys, axis=1, kind="stable")
    keys = np.take_along_axis(keys, order, axis=1).ravel()
    starts = np.ones(keys.shape[0] + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:-1])
    starts[:: len(corpus)] = True  # each band starts a bucket, and the end closes the last
    bounds = np.flatnonzero(starts)
    return order.ravel(), bounds[:-1] // len(corpus), keys[bounds[:-1]], bounds


def query(index: InvertedIndex, dist: SparseDistribution) -> set[str]:
    """All documents sharing at least one band key with the query distribution."""
    scheme = index.scheme
    sig = signature(dist, scheme.base_seed, scheme.k)
    out: set[str] = set()
    for b, key in enumerate(band_keys(sig.samples, scheme)):
        out.update(index.buckets.get((b, key), ()))
    return out


def _number(convert, field: str):
    """``convert(field)`` for a CSV number field or a task threshold, in the forms the writers print.

    ``convert`` also reads ``_``, non-ASCII digits, whitespace around the
    number and a leading ``+``; each of those is refused.
    """
    if "_" in field or not field.isascii():
        raise ValueError(f"number field {field!r} holds '_' or a non-ASCII character")
    if field != field.strip():
        raise ValueError(f"number field {field!r} has whitespace around it")
    if field.startswith("+"):
        raise ValueError(f"number field {field!r} starts with '+'")
    return convert(field)


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
                return cls(field=field, op=op, threshold=_number(float, rest))
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


def _labels(pairs: PairSample, task: Task) -> tuple[np.ndarray, np.ndarray]:
    """``(positives, weights)`` of the pairs; raises unless some positive pair carries weight."""
    positives = np.array([task.is_positive(s) for s in pairs.scores])
    if not positives.any():
        raise ValueError("degenerate task")
    weights = np.array([s.weight for s in pairs.scores])
    if not weights[positives].sum() > 0.0:
        raise ValueError("the positive pairs carry no weight, so recall is undefined")
    return positives, weights


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
    averages the measured precision/recall; each point equals the mean of
    :func:`empirical_retrieval_runs` at that point, but the pairs are packed
    once and each replicate is raced once for the whole grid.
    """
    if isinstance(task, str):
        task = Task.parse(task)
    if mode not in ("analytic", "empirical"):
        raise ValueError(f"unknown mode {mode!r}")
    positives, weights = _labels(pairs, task)
    for a, o in grid:
        BandingScheme(a, o)  # validates a, o
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
    if not len(grid):
        return points
    for (a, o), runs in zip(grid, _retrieval_runs(pairs, task, grid, replicates, seed)):
        precision = float(np.mean([r[0] for r in runs]))
        recall = float(np.mean([r[1] for r in runs]))
        points.append(PRPoint("JP", a, o, o, precision, recall, "empirical"))
    return points


def empirical_retrieval_runs(
    pairs: PairSample, task: Task | str, a: int, o: int, *, replicates: int, seed: int
) -> list[tuple[float, float]]:
    """Per-replicate (precision, recall) of banded retrieval under real signatures.

    Each replicate draws a fresh derived scheme seed and counts a pair as
    retrieved when its two documents share a band key.
    """
    if isinstance(task, str):
        task = Task.parse(task)
    return _retrieval_runs(pairs, task, [(a, o)], replicates, seed)[0]


def _replicate_seeds(seed: int, replicates: int) -> np.ndarray:
    """Replicate r's seed ``derive_seed(seed, r)`` for each r below ``replicates``, as uint64."""
    if replicates < 1:
        raise ValueError("replicates must be positive")
    return derive_seed_vec(seed, np.arange(replicates))


def _retrieval_runs(
    pairs: PairSample, task: Task, grid: Sequence[tuple[int, int]], replicates: int, seed: int
) -> list[list[tuple[float, float]]]:
    """:func:`empirical_retrieval_runs` at every point of a non-empty grid, from one race."""
    rep_seeds = _replicate_seeds(seed, replicates)
    if pairs.dists is None:
        raise ValueError("empirical mode needs pair distributions")
    positives, weights = _labels(pairs, task)
    # both sides in one batch, packed once: an id shared by any two documents is hashed once
    packed = _PackedVectors(
        [pairs.dists[s.id_a] for s in pairs.scores] + [pairs.dists[s.id_b] for s in pairs.scores]
    )
    return [
        [_weighted_pr(weights, positives, retrieved.astype(float)) for retrieved in hits]
        for hits in _band_hits(packed, grid, rep_seeds)
    ]


def banded_collision_frequency(
    x: SparseVector, y: SparseVector, a: int, o: int, seed: int, replicates: int
) -> float:
    """Fraction of replicate seeds on which x and y share at least one band key."""
    (hits,) = _band_hits(_PackedVectors([x, y]), [(a, o)], _replicate_seeds(seed, replicates))
    return float(hits[:, 0].mean())


# (row, signature position) samples that _band_hits keeps at a time: 8 MB of uint64
_BAND_CELLS = 1 << 20


def _band_hits(
    packed: _PackedVectors, grid: Sequence[tuple[int, int]], rep_seeds: np.ndarray
) -> list[np.ndarray]:
    """Per grid point, whether rows i and n + i of a 2n-row batch share a band key.

    The grid is not empty, and each point's matrix is (replicates, n).
    Replicate r signs every row under the seeds ``derive(rep_seeds[r], j)``
    and bands under ``(a, o, rep_seeds[r])``.  Neither depends on ``o``, and
    band b only reads samples ``b*a..b*a+a-1``, so one race at ``K =
    max(a*o)`` serves the whole grid: the band keys are folded once per
    distinct ``a`` over its first ``a * max(o)`` samples, and a pair is hit
    at (a, o) when any of its first ``o`` band keys match.  Replicates are
    raced together, as many at a time as keep their K samples per row
    within ``_BAND_CELLS``.
    """
    k = max(BandingScheme(a, o).k for a, o in grid)  # validates every (a, o)
    widest: dict[int, int] = {}  # a -> its largest o
    for a, o in grid:
        widest[a] = max(o, widest.get(a, 0))
    n_rows = packed.row_len.shape[0]
    step = max(1, _BAND_CELLS // (n_rows * k))
    chunks: list[list[np.ndarray]] = [[] for _ in grid]
    for reps in np.split(rep_seeds, range(step, rep_seeds.shape[0], step)):
        samples = packed.sample(derive_seed_vec(reps[:, None], np.arange(k)).reshape(-1))
        # row d * len(reps) + j of the reshaped samples is row d under replicate j
        samples = samples.reshape(-1, k)
        bases = np.tile(reps, n_rows)
        # [pair, replicate, o - 1]: whether any of the pair's first o band keys match
        any_match = {}
        for a, o_max in widest.items():
            keys = _band_keys_matrix(samples[:, : a * o_max], a, o_max, bases)
            keys = keys.reshape(2, n_rows // 2, reps.shape[0], o_max)
            any_match[a] = np.logical_or.accumulate(keys[0] == keys[1], axis=2)
        for hits, (a, o) in zip(chunks, grid):
            hits.append(any_match[a][:, :, o - 1].T)
    return [np.concatenate(hits) for hits in chunks]


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
