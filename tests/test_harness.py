"""Corpus ingestion, synthetic pairs, banding, curves, divergence reports."""

import math
import tracemalloc
from collections import Counter
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jpminhash import harness, minhash
from jpminhash.harness import (
    DEFAULT_GRID,
    BandingScheme,
    Document,
    PairSample,
    PairScore,
    PRPoint,
    Task,
    amplify,
    band_keys,
    banded_collision_frequency,
    check_jsd_tv_direction,
    corpus_from_records,
    divergence_summary,
    empirical_retrieval_runs,
    eval_curves,
    index_build,
    ingest_text,
    query,
    score_pairs,
    synth_pairs,
    token_element_id,
    _tokenize,
)
from jpminhash.hashing import fin64_vec
from jpminhash.minhash import batch_signatures, signature
from jpminhash.similarity import jp, jsd, jw, similarity_report, total_variation
from jpminhash.sparse import SparseDistribution, SparseVector, _distributions, normalize
from jpminhash.verify import REF_JP, REF_X, REF_Y, rand_dist, sigma_band


# --- ingestion ----------------------------------------------------------------

def test_ingest_counts_and_normalizes():
    corpus, skipped = ingest_text([("d", "a b a")])
    assert skipped == 0
    (doc,) = corpus
    assert doc.dist.mass_of(token_element_id("a")) == pytest.approx(2.0 / 3.0)
    assert doc.dist.mass_of(token_element_id("b")) == pytest.approx(1.0 / 3.0)


def test_ingest_normalization_rules():
    one, _ = ingest_text([("d", "a b a")])
    two, _ = ingest_text([("d", "A,b!A")])
    assert one[0].dist.entries == two[0].dist.entries
    # "_" splits; digits, accented letters and CJK are token characters
    three, _ = ingest_text([("d", "Ab_12 ÉTÉ,東京 ab")])
    want, _ = corpus_from_records([{"id": "d", "weights": {"ab": 2, "12": 1, "été": 1, "東京": 1}}])
    assert three[0].dist.entries == want[0].dist.entries


def test_one_pass_ingest_matches_per_record_normalize():
    records = [
        {"id": "t1", "text": "b a b, c a b"},
        {"id": "w1", "weights": {"x": 2.0, "y": 0.0, "b": 0.5}},
        {"id": "w0", "weights": {"x": 0.0, "y": 0}},
        {"id": "t0", "text": ""},
        {"id": "t2", "text": "Café naïve 東京 café b"},
        {"id": "w2", "weights": {"café": 1e-300, "b": 3, "東京": 0.1}},
    ]
    want = []
    for rec in records:
        weights = Counter(_tokenize(rec["text"])) if "text" in rec else rec["weights"]
        v = SparseVector.from_arrays(
            [token_element_id(t) for t in weights], [float(w) for w in weights.values()]
        )
        if len(v):
            want.append(Document(rec["id"], normalize(v)))
    corpus, skipped = corpus_from_records(records)
    assert corpus == want
    assert skipped == len(records) - len(want) == 2
    # dividing by a negative total must not turn negative weights positive
    with pytest.raises(ValueError, match="positive"):
        corpus_from_records([{"id": "n", "weights": {"x": -1.0, "y": -2.0}}])


# Words, one that lowercases to another's letters, non-ASCII and long ones
_WORDS = ["a", "b", "ab", "Ab", "café", "CAFÉ", "naïve", "東京", "\u212a", "x" * 40, "ℌ𝔢𝔩𝔩𝔬"]
# ASCII and non-ASCII separators, each of which splits tokens
_SEPARATORS = [" ", ",", "_", "!", "\t\n", "—", "、", "\u2028"]


@st.composite
def _text_record_text(draw):
    """Words and separators, with one word repeated up to 10**5 times."""
    parts = draw(st.lists(st.sampled_from(_WORDS + _SEPARATORS), max_size=30))
    text = " ".join(parts)
    heavy = draw(st.sampled_from(_WORDS))
    repeats = draw(st.sampled_from([0, 1, 2, 1000, 10**5]) | st.integers(0, 10**5))
    return text + (draw(st.sampled_from(_SEPARATORS)) + heavy) * repeats


_MIXED_RECORD = st.one_of(
    _text_record_text().map(lambda text: {"text": text}),
    st.lists(st.sampled_from(_SEPARATORS), max_size=6).map(lambda seps: {"text": "".join(seps)}),
    st.dictionaries(
        st.sampled_from([w.lower() for w in _WORDS]),
        st.integers(0, 1000) | st.floats(0.0, 1e6) | st.sampled_from([1e-300, 5e-324]),
        max_size=6,
    ).map(lambda weights: {"weights": weights}),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_MIXED_RECORD, max_size=8))
def test_ingest_of_mixed_records_equals_per_record_counts(bodies):
    records = [{"id": f"r{i}", **body} for i, body in enumerate(bodies)]
    want = []
    for rec in records:
        weights = Counter(_tokenize(rec["text"])) if "text" in rec else rec["weights"]
        v = SparseVector.from_arrays(
            [token_element_id(t) for t in weights], [float(w) for w in weights.values()]
        )
        if len(v):
            want.append(Document(rec["id"], normalize(v)))
    corpus, skipped = corpus_from_records(records)
    assert [d.doc_id for d in corpus] == [d.doc_id for d in want]
    for got, ref in zip(corpus, want):  # bit for bit
        assert got.dist.ids.tobytes() == ref.dist.ids.tobytes()
        assert got.dist.masses.tobytes() == ref.dist.masses.tobytes()
    assert skipped == len(records) - len(want)
    texts = [(rec["id"], rec["text"]) for rec in records if "text" in rec]
    assert ingest_text(texts) == corpus_from_records({"id": i, "text": t} for i, t in texts)


_BATCH_ROWS = {
    "end-ids": ([2**64 - 1, 0, 5], [0.25, 0.5, 0.25]),
    "repeats": ([7, 3, 7, 3, 7], [0.1, 0.2, 0.3, 0.4, 0.5]),
    "zeros": ([4, 9, 2, 8], [0.0, 1.0, 0.0, 3.0]),
    "cancel-to-empty": ([6, 6], [1.0, -1.0]),
    "subnormal": ([1, 2, 3], [1e-310, 3e-310, 2.5e-310]),
    "huge": ([1, 2, 3], [1e300, 1.7e308, 1e300]),
    "underflow": ([3, 1, 2], [1e300, 1e-310, 5.0]),
    "empty": ([], []),
}


@pytest.mark.parametrize(
    "names", [[name] for name in _BATCH_ROWS] + [list(_BATCH_ROWS)], ids=list(_BATCH_ROWS) + ["all"]
)
def test_batch_constructor_matches_per_row_normalize(names):
    rows = [_BATCH_ROWS[name] for name in names]
    dists, kept = _distributions(
        np.array([i for ids, _ in rows for i in ids], dtype=np.uint64),
        np.array([m for _, masses in rows for m in masses], dtype=np.float64),
        [len(ids) for ids, _ in rows],
    )
    vectors = [SparseVector.from_arrays(ids, masses) for ids, masses in rows]
    assert kept.tolist() == [r for r, v in enumerate(vectors) if len(v)]
    assert dists == [normalize(v) for v in vectors if len(v)]  # bit for bit, ids and masses
    assert all(d.ids.dtype == np.uint64 for d in dists)


def test_ingest_checks_the_batch_with_the_per_record_message():
    records = [
        {"id": "ok", "weights": {"a": 1.0}},
        {"id": "inf", "weights": {"y": 1.0, "x": math.inf}},  # x becomes inf / inf
        {"id": "nan", "weights": {"z": math.nan}},
    ]
    want = f"mass for element {token_element_id('x')} must be positive and finite"
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=want):
        corpus_from_records(records)
    # a mass far below its document's largest rounds to zero and drops, as in normalize
    (doc,), _ = corpus_from_records([{"id": "t", "weights": {"a": 1e300, "b": 1e-300}}])
    assert doc.dist.entries == ((token_element_id("a"), 1.0),)
    assert doc.dist == normalize(SparseVector.from_pairs([(token_element_id("a"), 1e300),
                                                          (token_element_id("b"), 1e-300)]))


def test_ingest_skips_empty_documents():
    corpus, skipped = ingest_text([("d1", ""), ("d2", "---"), ("d3", "ok")])
    assert skipped == 2
    assert [d.doc_id for d in corpus] == ["d3"]


def test_corpus_from_weight_records():
    corpus, skipped = corpus_from_records(
        [{"id": "w", "weights": {"a": 3.0, "b": 1.0}}, {"id": "z", "weights": {}}]
    )
    assert skipped == 1
    assert corpus[0].dist.mass_of(token_element_id("a")) == pytest.approx(0.75)


def test_token_ids_stable_and_distinct():
    assert token_element_id("alpha") == token_element_id("alpha")
    words = ["a", "b", "ab", "ba", "alphabetical", "alphabetically"]
    assert len({token_element_id(w) for w in words}) == len(words)


# ASCII with every punctuation mark, "_", digits and control characters
_ASCII_TEXT = st.text(st.characters(max_codepoint=127) | st.sampled_from("_ \t\n\x00\x1f\x7fAz09"))


@settings(max_examples=300, deadline=None)
@given(_ASCII_TEXT)
@example("\u212a")  # the Kelvin sign lowercases to ASCII "k"
@example("\u0130stanbul")  # "\u0130" lowercases to "i" and a combining dot
@example("Stra\xdfe_\u0391\u03b8\u03ae\u03bd\u03b1 MOSKVA-\u041c\u043e\u0441\u043a\u0432\u0430 x2 \u65e5\u672c\u8a9e\ud800y")
def test_tokenize_equals_the_pattern(text):
    assert _tokenize(text) == harness._TOKEN.findall(text.lower())


def test_vector_token_ids_equal_the_scalar_fold(monkeypatch):
    long = ["l" * n for n in (1000, 333, 200)]  # folded past the vector columns
    tokens = ["", "a", "abcdefg", "abcdefgh", "abcdefghi", "x" * 16, "y" * 17, "h\xe9llo",
              "\u65e5\u672c\u8a9e\u30c6\u30ad\u30b9\u30c8", "\U0001f600" * 5, *long]
    tokens += ["".join("ab\xe9"[(i * j) % 3] for j in range(i)) for i in range(60)]
    calls = []
    monkeypatch.setattr(harness, "fin64_vec", lambda z: calls.append(z.size) or fin64_vec(z))
    assert harness._token_ids(tokens).tolist() == [token_element_id(t) for t in tokens]
    assert harness._token_ids([]).tolist() == []
    assert calls and min(calls) >= harness._FOLD_ROWS
    # a 1 MB token is folded word by word, not a vector column per word
    huge = "\u65e5" + "q" * (1 << 20)
    calls.clear()
    ids = harness._token_ids([huge, *tokens])
    assert ids.tolist() == [token_element_id(huge)] + [token_element_id(t) for t in tokens]
    assert 0 < len(calls) < 100
    # memory grows with the bytes, not with the longest token times the tokens
    tracemalloc.start()
    try:
        harness._token_ids([huge[: 1 << 16], *tokens])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 16


def _index_oracle(corpus, scheme):
    """Buckets of index_build as one setdefault per (doc, band) cell built them."""
    samples = batch_signatures([d.dist for d in corpus], scheme.base_seed, scheme.k)
    keys = harness._band_keys_matrix(samples, scheme.a, scheme.o, scheme.base_seed)
    buckets = {}
    for doc, row in zip(corpus, keys.tolist()):
        for b, key in enumerate(row):
            buckets.setdefault((b, key), []).append(doc.doc_id)
    return {k: tuple(v) for k, v in buckets.items()}


@pytest.mark.parametrize("coarse", [False, True])
def test_index_build_groups_like_the_cell_loop(monkeypatch, coarse):
    texts = ["apple banana cherry", "apple banana date", "xylem phloem", "apple"]
    corpus, _ = ingest_text((f"d{i}", texts[i % 7 % 4]) for i in range(90))
    if coarse:  # keys from {0, 1, 2}: many shared in a band and across bands
        band_keys_matrix = harness._band_keys_matrix
        monkeypatch.setattr(harness, "_band_keys_matrix", lambda *args: band_keys_matrix(*args) % 3)
    scheme = BandingScheme(2, 5, base_seed=4)
    buckets = index_build(corpus, scheme).buckets
    assert buckets == _index_oracle(corpus, scheme)
    assert list(buckets) == sorted(buckets)
    assert max(map(len, buckets.values())) > 20


# --- synthetic pairs ------------------------------------------------------------

def test_synth_pairs_deterministic_and_sane():
    first = synth_pairs(50, seed=5)
    second = synth_pairs(50, seed=5)
    assert first.scores == second.scores
    for s in first.scores:
        assert s.jw - 1e-12 <= s.jp <= 2.0 * s.jw / (1.0 + s.jw) + 1e-9
        assert 0.0 <= s.jsd <= 1.0
        assert s.weight == 1.0
        x = first.dists[s.id_a]
        y = first.dists[s.id_b]
        assert s.jp == pytest.approx(jp(x, y), abs=1e-9)
        assert s.jw == pytest.approx(jw(x, y), abs=1e-9)


def test_synth_pairs_cover_similarity_range():
    pairs = synth_pairs(300, seed=6)
    jps = [s.jp for s in pairs.scores]
    assert min(jps) < 0.15
    assert max(jps) > 0.85


def test_synth_pairs_validation():
    with pytest.raises(ValueError, match="positive"):
        synth_pairs(0, seed=1)


def test_mix_endpoints():
    rng = np.random.default_rng(40)
    z = rand_dist(rng, np.arange(12, dtype=np.uint64))
    n1 = rand_dist(rng, np.arange(100, 112, dtype=np.uint64))
    n2 = rand_dist(rng, np.arange(200, 212, dtype=np.uint64))
    # no noise: both sides collapse to the base, all scores are trivial
    x0, y0 = _mix(z, n1, 0.0), _mix(z, n2, 0.0)
    assert x0.entries == y0.entries
    assert jp(x0, y0) == pytest.approx(1.0, abs=1e-12)
    assert jsd(x0, y0) == 0.0
    # pure disjoint noise: nothing shared at all
    x1, y1 = _mix(z, n1, 1.0), _mix(z, n2, 1.0)
    assert jp(x1, y1) == 0.0
    assert jw(x1, y1) == 0.0


# The per-pair synthesis that synth_pairs replaced, kept as its reference: the
# same draws in the same order, each vector built and normalized on its own.

def _mix(z: SparseDistribution, noise: SparseDistribution, t: float) -> SparseDistribution:
    ids = np.concatenate([z.ids, noise.ids])
    masses = np.concatenate([(1.0 - t) * z.masses, t * noise.masses])
    return normalize(SparseVector.from_arrays(ids, masses))


def _sweep_pairs(count: int, seed: int) -> list[tuple[str, str, SparseDistribution, SparseDistribution]]:
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(count):
        dim = int(rng.integers(10, 201))
        z = rand_dist(rng, np.arange(dim, dtype=np.uint64))
        t = float(rng.uniform())
        off1 = int(rng.integers(0, 2 * dim))
        off2 = int(rng.integers(0, 2 * dim))
        n1 = rand_dist(rng, np.arange(off1, off1 + dim, dtype=np.uint64))
        n2 = rand_dist(rng, np.arange(off2, off2 + dim, dtype=np.uint64))
        pairs.append((f"sweep-{k}-a", f"sweep-{k}-b", _mix(z, n1, t), _mix(z, n2, t)))
    return pairs


def _assert_scores_exact(score: PairScore, x: SparseDistribution, y: SparseDistribution) -> None:
    got = (score.jp, score.jw, score.support_jaccard, score.tv, score.jsd)
    assert got == astuple(similarity_report(x, y))


@pytest.mark.parametrize("count,seed", [(5000, 3), (300, 6)])
def test_synth_pairs_equal_per_pair_synthesis(count, seed):
    sample = synth_pairs(count, seed)
    want = _sweep_pairs(count, seed)
    assert [(s.id_a, s.id_b) for s in sample.scores] == [(a, b) for a, b, _, _ in want]
    assert list(sample.dists) == [i for a, b, _, _ in want for i in (a, b)]
    for score, (id_a, id_b, x, y) in zip(sample.scores, want):
        for got, ref in ((sample.dists[id_a], x), (sample.dists[id_b], y)):
            assert type(got) is SparseDistribution
            assert got.ids.dtype == ref.ids.dtype and np.array_equal(got.ids, ref.ids)
            assert np.array_equal(got.masses, ref.masses)
            assert not got.ids.flags.writeable and not got.masses.flags.writeable
        _assert_scores_exact(score, x, y)


# --- amplification ----------------------------------------------------------------

def test_amplify_exact_value():
    assert amplify(0.5, 2, 3) == 0.578125


def test_amplify_identity_and_endpoints():
    for p in (0.0, 0.123, 0.9, 1.0):
        assert amplify(p, 1, 1) == p
    assert amplify(1.0, 4, 7) == 1.0
    assert amplify(0.0, 4, 7) == 0.0
    with pytest.raises(ValueError):
        amplify(1.5, 1, 1)
    with pytest.raises(ValueError):
        amplify(0.5, 0, 1)


def test_banded_frequency_tracks_amplify():
    reps = 10_000
    freq = banded_collision_frequency(REF_X, REF_Y, 2, 8, seed=3, replicates=reps)
    target = amplify(REF_JP, 2, 8)
    assert abs(freq - target) <= sigma_band(target, reps)


def test_single_band_collision_is_jp():
    reps = 20_000
    freq = banded_collision_frequency(REF_X, REF_Y, 1, 1, seed=4, replicates=reps)
    assert abs(freq - REF_JP) <= sigma_band(REF_JP, reps)


def test_banded_frequency_matches_scalar_band_keys():
    from jpminhash.hashing import derive_seed

    a, o, seed = 2, 3, 77
    for r in range(10):
        scheme = BandingScheme(a, o, base_seed=derive_seed(seed, r))
        kx = band_keys(signature(REF_X, scheme.base_seed, scheme.k).samples, scheme)
        ky = band_keys(signature(REF_Y, scheme.base_seed, scheme.k).samples, scheme)
        expected = float(any(p == q for p, q in zip(kx, ky)))
        got = banded_collision_frequency(REF_X, REF_Y, a, o, seed=seed, replicates=r + 1)
        if r == 0:
            assert got == expected
        # running mean over replicates stays consistent with the scalar path
        prev = banded_collision_frequency(REF_X, REF_Y, a, o, seed=seed, replicates=r) if r else 0.0
        assert got * (r + 1) - prev * r == pytest.approx(expected)


@pytest.mark.parametrize("a, o, seed, reps", [(2, 8, 3, 300), (1, 1, 4, 500), (3, 2, 11, 200)])
def test_empirical_recall_of_one_pair_is_its_banded_frequency(a, o, seed, reps):
    # one positive pair: each replicate's recall is 1 if the pair shares a band key, else 0
    report = similarity_report(REF_X, REF_Y)
    score = PairScore("x", "y", report.jp, report.jw, report.jsd, report.tv, report.support_jaccard)
    pairs = PairSample((score,), dists={"x": REF_X, "y": REF_Y})
    runs = empirical_retrieval_runs(pairs, "jp>0", a, o, replicates=reps, seed=seed)
    recall = float(np.mean([r[1] for r in runs]))
    assert recall == banded_collision_frequency(REF_X, REF_Y, a, o, seed=seed, replicates=reps)


# --- banding and index ----------------------------------------------------------

def test_band_keys_consume_disjoint_positions():
    scheme = BandingScheme(2, 2, base_seed=1)
    sig = signature(REF_X, scheme.base_seed, scheme.k)
    keys = band_keys(sig.samples, scheme)
    assert len(keys) == 2
    # band 0 depends only on positions 0..1, band 1 only on 2..3
    altered = list(sig.samples)
    altered[3] ^= 0xFF
    assert band_keys(tuple(altered), scheme)[0] == keys[0]
    assert band_keys(tuple(altered), scheme)[1] != keys[1]


def test_band_keys_length_check():
    with pytest.raises(ValueError, match="length"):
        band_keys((1, 2, 3), BandingScheme(2, 2))


def test_identical_documents_share_every_band():
    scheme = BandingScheme(3, 4, base_seed=9)
    a = signature(REF_X, scheme.base_seed, scheme.k).samples
    b = signature(SparseDistribution(REF_X.entries), scheme.base_seed, scheme.k).samples
    assert band_keys(a, scheme) == band_keys(b, scheme)


def test_index_build_and_query_roundtrip():
    corpus, _ = ingest_text(
        [("d1", "apple banana cherry"), ("d2", "apple banana date"), ("d3", "xylem phloem root")]
    )
    scheme = BandingScheme(2, 4, base_seed=11)
    index = index_build(corpus, scheme)
    for doc in corpus:
        assert doc.doc_id in query(index, doc.dist)
    rebuilt = index_build(corpus, scheme)
    assert rebuilt.buckets == index.buckets
    for (band, _key), docs in index.buckets.items():
        assert band < scheme.o
        assert len(docs) == len(set(docs))  # once per band per document


@pytest.mark.parametrize("a, o", [(1, 2), (2, 4)])
def test_empirical_retrieval_agrees_with_index_and_query(a, o):
    from jpminhash.harness import Document
    from jpminhash.hashing import derive_seed

    pairs = synth_pairs(60, seed=8)
    task = Task.parse("jsd<0.25")
    positives = [task.is_positive(s) for s in pairs.scores]
    runs = empirical_retrieval_runs(pairs, task, a, o, replicates=3, seed=5)
    corpus = [Document(s.id_a, pairs.dists[s.id_a]) for s in pairs.scores]
    for r, got in enumerate(runs):
        scheme = BandingScheme(a, o, base_seed=derive_seed(5, r))
        index = index_build(corpus, scheme)
        for doc in corpus:
            keys = band_keys(signature(doc.dist, scheme.base_seed, scheme.k).samples, scheme)
            posted = {bk for bk, docs in index.buckets.items() if doc.doc_id in docs}
            assert posted == set(enumerate(keys))
        retrieved = [s.id_a in query(index, pairs.dists[s.id_b]) for s in pairs.scores]
        hits = sum(q and p for q, p in zip(retrieved, positives))
        n_retrieved = sum(retrieved)
        assert 0 < n_retrieved < len(retrieved)
        assert got == (hits / n_retrieved, hits / sum(positives))


def test_index_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        index_build([], BandingScheme(1, 1))


def test_query_disjoint_document_finds_nothing():
    corpus, _ = ingest_text([("d1", "aa bb cc dd"), ("d2", "aa bb cc ee")])
    scheme = BandingScheme(1, 2, base_seed=13)
    index = index_build(corpus, scheme)
    probe, _ = ingest_text([("q", "zz yy xx ww")])
    hits = query(index, probe[0].dist)
    # disjoint supports cannot share samples; any hit would need a fold collision
    sig_q = set(signature(probe[0].dist, scheme.base_seed, scheme.k).samples)
    for doc in corpus:
        sig_d = set(signature(doc.dist, scheme.base_seed, scheme.k).samples)
        assert not (sig_q & sig_d)
    assert hits == set()


# --- tasks and curves -------------------------------------------------------------

def test_task_parse_and_match():
    t = Task.parse("jsd<0.25")
    assert (t.field, t.op, t.threshold) == ("jsd", "<", 0.25)
    t2 = Task.parse("jw>0.5")
    score = PairScore("a", "b", jp=0.9, jw=0.6, jsd=0.1, tv=0.2, support_jaccard=0.5)
    assert t.is_positive(score) and t2.is_positive(score)
    with pytest.raises(ValueError, match="task"):
        Task.parse("nonsense")
    with pytest.raises(ValueError, match="field"):
        Task.parse("zz<1")


def test_task_prints_as_it_parses():
    assert str(Task.parse("jsd<0.25")) == "jsd<0.25"


# A threshold follows the rule of a CSV number field: no '_', ASCII only, no
# whitespace around it and no leading '+'.
@pytest.mark.parametrize("text", ["jsd<1_0", "jsd<\u0660.\u0662\u0665", "JSD < 0.25 ", "jsd<+0.25"])
def test_task_threshold_follows_the_number_field_rule(text):
    with pytest.raises(ValueError, match="number field"):
        Task.parse(text)


def test_score_pairs_of_no_pairs_is_empty():
    assert score_pairs([], [], []) == ()


def test_eval_curves_unknown_mode_rejected():
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        eval_curves(synth_pairs(4, seed=0), [(1, 1)], mode="bogus")


def test_eval_curves_all_positive_gives_unit_precision():
    scores = tuple(
        PairScore(f"a{i}", f"b{i}", jp=0.5 + 0.1 * i, jw=0.4, jsd=0.1, tv=0.2, support_jaccard=0.5)
        for i in range(4)
    )
    points = eval_curves(PairSample(scores), grid=[(1, 1), (2, 4)], task="jsd<0.25")
    assert all(p.precision == pytest.approx(1.0) for p in points)


def test_eval_curves_single_pair_recall_is_amplify():
    scores = (PairScore("a", "b", jp=0.5, jw=0.5, jsd=0.1, tv=0.0, support_jaccard=1.0),)
    (jp_point, jw_point) = eval_curves(PairSample(scores), grid=[(2, 3)], task="jsd<0.25")
    assert jp_point.recall == pytest.approx(0.578125)
    assert jw_point.recall == pytest.approx(0.578125)


def test_eval_curves_degenerate_task():
    scores = (PairScore("a", "b", jp=0.5, jw=0.5, jsd=0.9, tv=0.0, support_jaccard=1.0),)
    with pytest.raises(ValueError, match="degenerate task"):
        eval_curves(PairSample(scores), grid=[(1, 1)], task="jsd<0.25")


def test_eval_curves_monotonicity_on_default_grid():
    pairs = synth_pairs(300, seed=8)
    points = eval_curves(pairs, grid=DEFAULT_GRID, task="jw>0.5")
    by_method: dict[tuple[str, int], list] = {}
    for p in points:
        by_method.setdefault((p.method, p.a), []).append(p)
    for (_, _), pts in by_method.items():
        pts.sort(key=lambda p: p.o)
        recalls = [p.recall for p in pts]
        assert all(r1 <= r2 + 1e-12 for r1, r2 in zip(recalls, recalls[1:]))
    by_o: dict[tuple[str, int], list] = {}
    for p in points:
        by_o.setdefault((p.method, p.o), []).append(p)
    for (_, _), pts in by_o.items():
        pts.sort(key=lambda p: p.a)
        recalls = [p.recall for p in pts]
        assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(recalls, recalls[1:]))


def test_weight_doubling_moves_pr_as_predicted():
    base = (
        PairScore("a", "b", jp=0.8, jw=0.7, jsd=0.1, tv=0.1, support_jaccard=0.9, weight=1.0),
        PairScore("c", "d", jp=0.3, jw=0.2, jsd=0.6, tv=0.5, support_jaccard=0.4, weight=1.0),
    )
    doubled = (base[0], PairScore("c", "d", 0.3, 0.2, 0.6, 0.5, 0.4, weight=2.0))
    a, o = 2, 4
    q_pos = amplify(0.8, a, o)
    q_neg = amplify(0.3, a, o)
    (pt,) = [p for p in eval_curves(PairSample(doubled), [(a, o)], "jsd<0.25") if p.method == "JP"]
    assert pt.precision == pytest.approx(q_pos / (q_pos + 2.0 * q_neg))
    assert pt.recall == pytest.approx(q_pos)


def test_empirical_runs_agree_with_analytic():
    pairs = synth_pairs(400, seed=9)
    task = Task.parse("jsd<0.25")
    (jp_point,) = [
        p for p in eval_curves(pairs, [(2, 4)], task, mode="analytic") if p.method == "JP"
    ]
    runs = empirical_retrieval_runs(pairs, task, 2, 4, replicates=12, seed=10)
    recalls = np.array([r[1] for r in runs])
    se = recalls.std(ddof=1) / math.sqrt(len(runs))
    assert abs(recalls.mean() - jp_point.recall) <= 3.0 * se + 1e-9


def test_eval_curves_empirical_mode_smoke():
    pairs = synth_pairs(120, seed=11)
    points = eval_curves(pairs, grid=[(1, 2)], task="jsd<0.25", mode="empirical", replicates=5, seed=1)
    assert len(points) == 1
    assert points[0].mode == "empirical"
    assert 0.0 <= points[0].precision <= 1.0
    assert 0.0 <= points[0].recall <= 1.0


def test_empirical_needs_distributions():
    scores = (PairScore("a", "b", jp=0.5, jw=0.5, jsd=0.1, tv=0.0, support_jaccard=1.0),)
    with pytest.raises(ValueError, match="distributions"):
        empirical_retrieval_runs(PairSample(scores), "jsd<0.25", 1, 1, replicates=1, seed=0)


_GRID_PAIRS = synth_pairs(12, seed=3)


@pytest.mark.parametrize("split", [False, True])
@settings(max_examples=40, deadline=None)
@given(
    grid=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 9)), min_size=1, max_size=6),
    replicates=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
@example(grid=[(2, 8), (1, 3), (2, 8), (2, 5), (3, 1), (2, 1)], replicates=5, seed=7)
def test_empirical_grid_equals_its_points_one_by_one(split, grid, replicates, seed):
    # a repeated point, unsorted points, several o per a, o not a power of two
    rows = 2 * len(_GRID_PAIRS)
    k = max(a * o for a, o in grid)
    # split: two replicates per race at K = max(a*o), more for a single point's smaller K
    cells = 2 * rows * k if split else harness._BAND_CELLS
    with mock.patch.object(harness, "_BAND_CELLS", cells):
        points = eval_curves(_GRID_PAIRS, grid, "jsd<0.25", mode="empirical",
                             replicates=replicates, seed=seed)
        expected = []
        for a, o in grid:
            runs = empirical_retrieval_runs(_GRID_PAIRS, "jsd<0.25", a, o, replicates=replicates, seed=seed)
            precision = float(np.mean([r[0] for r in runs]))
            recall = float(np.mean([r[1] for r in runs]))
            expected.append(PRPoint("JP", a, o, o, precision, recall, "empirical"))
    assert points == expected


@pytest.mark.parametrize("a, o, seed, reps, freq", [
    (1, 1, 0, 7, 0.8571428571428571),
    (2, 3, 77, 200, 0.77),
    (3, 5, 9, 640, 0.6828125),
    (8, 2, 4, 300, 0.05),
    (1, 9, 123, 33, 1.0),
])
def test_banded_frequency_pinned(a, o, seed, reps, freq):
    assert banded_collision_frequency(REF_X, REF_Y, a, o, seed=seed, replicates=reps) == freq


def test_empirical_errors_and_empty_grid():
    scores = (PairScore("a", "b", jp=0.5, jw=0.5, jsd=0.1, tv=0.0, support_jaccard=1.0),)
    no_dists, pairs = PairSample(scores), PairSample(scores, dists={"a": REF_X, "b": REF_Y})
    for sample in (no_dists, pairs):
        assert eval_curves(sample, [], mode="empirical", replicates=0) == []
    # checked in this order: replicates, distributions, then the task
    for sample, task, replicates, message in [
        (no_dists, "jsd>0.5", 0, "replicates must be positive"),
        (no_dists, "jsd>0.5", 1, "empirical mode needs pair distributions"),
        (pairs, "jsd>0.5", 1, "degenerate task"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            empirical_retrieval_runs(sample, task, 1, 1, replicates=replicates, seed=0)
    # eval_curves checks the task first
    with pytest.raises(ValueError, match="^degenerate task$"):
        eval_curves(no_dists, [(1, 1)], "jsd>0.5", mode="empirical", replicates=0)
    with pytest.raises(ValueError, match="^replicates must be positive$"):
        eval_curves(no_dists, [(1, 1)], mode="empirical", replicates=0)
    with pytest.raises(ValueError, match="^empirical mode needs pair distributions$"):
        eval_curves(no_dists, [(1, 1)], mode="empirical", replicates=1)
    with pytest.raises(ValueError, match="^replicates must be positive$"):
        banded_collision_frequency(REF_X, REF_Y, 1, 1, seed=0, replicates=0)


# K = 128 on 80 rows: the default chunk races all 5 replicates at once, 25,000
# cells two at a time, and 5,000 cells (below one replicate's K samples) one
@pytest.mark.parametrize("cells, n_races", [(None, 1), (25_000, 3), (5_000, 5)])
def test_grid_race_holds_no_more_samples_than_the_largest_point(monkeypatch, cells, n_races):
    if cells is not None:
        monkeypatch.setattr(harness, "_BAND_CELLS", cells)
    races = []
    sample = minhash._PackedVectors.sample

    def recording(packed, seeds):
        races.append((packed.row_len.shape[0], len(seeds)))
        return sample(packed, seeds)

    monkeypatch.setattr(minhash._PackedVectors, "sample", recording)
    pairs, grid, replicates = synth_pairs(40, seed=2), [(2, 3), (8, 16), (1, 100), (8, 5)], 5
    eval_curves(pairs, grid, mode="empirical", replicates=replicates, seed=1)
    k = 8 * 16
    assert len(races) == n_races
    assert sum(seeds for _, seeds in races) == replicates * k  # each replicate raced once
    for rows, seeds in races:
        assert rows == 80 and seeds % k == 0
        assert rows * seeds <= max(harness._BAND_CELLS, rows * k)


# --- divergence direction ------------------------------------------------------

def test_direction_check_resolves_the_sandwich():
    check = check_jsd_tv_direction(steps=120)
    assert check.lower_holds and check.upper_holds
    assert not check.transposed_holds
    assert check.max_below_lower <= 1e-12


def test_direction_check_agrees_with_divergence_code():
    # the grid uses the entropy identity; spot-check it against jsd()
    for q, r in [(0.3, 0.7), (0.05, 0.9), (0.5, 0.5), (1.0, 0.2)]:
        x = SparseDistribution(tuple(p for p in ((0, q), (1, 1.0 - q)) if p[1] > 0))
        y = SparseDistribution(tuple(p for p in ((0, r), (1, 1.0 - r)) if p[1] > 0))
        tv = total_variation(x, y)
        direct = jsd(x, y)
        entropy_form = _h2((q + r) / 2.0) - 0.5 * (_h2(q) + _h2(r))
        assert direct == pytest.approx(entropy_form, abs=1e-12)
        assert tv == pytest.approx(abs(q - r), abs=1e-12)


def _h2(p: float) -> float:
    out = 0.0
    for w in (p, 1.0 - p):
        if w > 0.0:
            out -= w * math.log2(w)
    return out


def test_divergence_summary_reports_fractions():
    pairs = synth_pairs(500, seed=12)
    summary = divergence_summary(pairs)
    assert summary.n == 500
    assert summary.frac_jsd_above_tv == 0.0
    assert summary.frac_jsd_below_d_of_tv == 0.0
    assert 0.0 <= summary.frac_jsd_below_jp_curve <= 1.0
