"""Corpus ingestion, synthetic pairs, banding, curves, divergence reports."""

import math
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from jpminhash.harness import (
    DEFAULT_GRID,
    BandingScheme,
    Document,
    PairSample,
    PairScore,
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
    synth_pairs,
    token_element_id,
    _tokenize,
)
from jpminhash.minhash import signature
from jpminhash.similarity import jp, jsd, jw, similarity_report, total_variation
from jpminhash.sparse import SparseDistribution, SparseVector, normalize
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
    with pytest.raises(ValueError, match="mode"):
        synth_pairs(5, seed=1, mode="bogus")
    with pytest.raises(ValueError, match="corpus"):
        synth_pairs(5, seed=1, mode="corpus")
    one, _ = ingest_text([("solo", "a b")])
    with pytest.raises(ValueError, match="two documents"):
        synth_pairs(5, seed=1, mode="corpus", corpus=one)


def test_synth_pairs_corpus_mode():
    corpus, _ = ingest_text([("a", "x y z"), ("b", "x y w"), ("c", "p q r")])
    pairs = synth_pairs(20, seed=7, mode="corpus", corpus=corpus)
    ids = {d.doc_id for d in corpus}
    for s in pairs.scores:
        assert s.id_a in ids and s.id_b in ids and s.id_a != s.id_b


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


def test_synth_pairs_corpus_mode_equal_per_pair_scoring():
    rng = np.random.default_rng(41)
    words = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 400)))) for _ in range(40)]
    corpus, _ = ingest_text([(f"d{i}", text) for i, text in enumerate(texts)])
    sample = synth_pairs(500, seed=42, mode="corpus", corpus=corpus)
    rng = np.random.default_rng(42)
    for score in sample.scores:
        i = int(rng.integers(0, len(corpus)))
        j = int(rng.integers(0, len(corpus) - 1))
        a, b = corpus[i], corpus[j + (j >= i)]
        assert (score.id_a, score.id_b) == (a.doc_id, b.doc_id)
        _assert_scores_exact(score, a.dist, b.dist)
    assert sample.dists == {d.doc_id: d.dist for d in corpus}


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
