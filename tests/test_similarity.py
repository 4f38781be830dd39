"""Oracle-backed tests for the exact similarity measures.

Expected values marked as frozen were computed by evaluating the defining
double sum (or the closed-form definitions) directly, independently of the
sorted fast path.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpminhash.similarity import (
    _aligned,
    _aligned_rows,
    _d_curve,
    _jp_terms,
    _jsd_rows,
    _kept_bounds,
    _report_rows,
    _row_sums,
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
from jpminhash.sparse import Partition, SparseDistribution, SparseVector, normalize
from jpminhash.verify import REF_JP, REF_JW, REF_TV, REF_X, REF_Y, rand_pair, uniform_on


# --- strategies -----------------------------------------------------------

_masses = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def distributions(draw, max_size=12):
    n = draw(st.integers(min_value=1, max_value=max_size))
    ids = draw(st.lists(st.integers(min_value=0, max_value=50), min_size=n, max_size=n, unique=True))
    masses = draw(st.lists(_masses, min_size=n, max_size=n))
    return normalize(SparseVector.from_pairs(zip(ids, masses)))


# --- jp and its oracle ----------------------------------------------------

def test_jp_reference_pair():
    assert jp_naive(REF_X, REF_Y) == pytest.approx(REF_JP, abs=1e-12)
    assert jp(REF_X, REF_Y) == pytest.approx(REF_JP, abs=1e-12)


def test_jp_identity_and_disjoint():
    assert jp_naive(REF_X, REF_X) == pytest.approx(1.0, abs=1e-12)
    a = SparseDistribution(((0, 1.0),))
    b = SparseDistribution(((1, 1.0),))
    assert jp_naive(a, b) == 0.0
    assert jp(a, b) == 0.0


def test_jp_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(10)
    for _ in range(300):
        x, y = rand_pair(rng, max_side=40)
        assert abs(jp(x, y) - jp_naive(x, y)) <= 1e-9


def test_jp_uniform_pair_is_set_jaccard():
    x = uniform_on([1, 2, 3])
    y = uniform_on([2, 3, 4])
    assert jp(x, y) == pytest.approx(0.5, abs=1e-12)
    assert jp_naive(x, y) == pytest.approx(0.5, abs=1e-12)


def test_jp_shifted_overlap_value():
    # jp((0, 1-p, p), (p, 1-p, 0)) = (1-p)/(1+p); here p = 0.5 gives 1/3
    x = SparseDistribution(((1, 0.5), (2, 0.5)))
    y = SparseDistribution(((0, 0.5), (1, 0.5)))
    assert jp(x, y) == pytest.approx(1.0 / 3.0, abs=1e-12)


@given(distributions(), distributions(), st.sampled_from([0.5, 2.0, 8.0, 1234.5]))
@settings(max_examples=40, deadline=None)
def test_jp_scale_invariance(x, y, alpha):
    scaled = normalize(SparseVector(tuple((i, alpha * m) for i, m in x.entries)))
    assert jp(scaled, y) == pytest.approx(jp(x, y), abs=1e-9)


@given(distributions(), distributions())
@settings(max_examples=60, deadline=None)
def test_sandwich_and_tv_identity(x, y):
    jp_val = jp(x, y)
    jw_val = jw(x, y)
    tv_val = total_variation(x, y)
    # left side needs rounding slack: pairs at the lower bound have jp == jw
    assert jw_val - 1e-12 <= jp_val <= 2.0 * jw_val / (1.0 + jw_val) + 1e-9
    assert jw_val == pytest.approx((1.0 - tv_val) / (1.0 + tv_val), abs=1e-9)


@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
@settings(max_examples=60, deadline=None)
def test_two_element_jp_is_one_minus_tv(q, r):
    x = SparseDistribution(((0, q), (1, 1.0 - q)))
    y = SparseDistribution(((0, r), (1, 1.0 - r)))
    assert jp(x, y) == pytest.approx(1.0 - total_variation(x, y), abs=1e-12)
    assert jp_naive(x, y) == pytest.approx(1.0 - abs(q - r), abs=1e-12)


def test_metric_triangle_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        pool = rng.choice(1000, size=15, replace=False).astype(np.uint64)
        picks = [pool[rng.random(15) < 0.7] for _ in range(3)]
        picks = [p if p.size else pool[:1] for p in picks]
        from jpminhash.verify import rand_dist

        x, y, z = (rand_dist(rng, p) for p in picks)
        assert 1.0 - jp(x, y) <= (1.0 - jp(x, z)) + (1.0 - jp(y, z)) + 1e-12


def test_disjoint_support_combination():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        blocks = []
        for k in range(m):
            ids = np.arange(100 * k, 100 * k + rng.integers(1, 6), dtype=np.uint64)
            from jpminhash.verify import rand_dist

            blocks.append(rand_dist(rng, ids))
        alpha = np.maximum(rng.exponential(size=m), 1e-9)
        beta = np.maximum(rng.exponential(size=m), 1e-9)
        alpha /= alpha.sum()
        beta /= beta.sum()
        x = normalize(SparseVector.from_pairs(
            (eid, alpha[k] * mass) for k, w in enumerate(blocks) for eid, mass in w.entries
        ))
        y = normalize(SparseVector.from_pairs(
            (eid, beta[k] * mass) for k, w in enumerate(blocks) for eid, mass in w.entries
        ))
        coeff_x = normalize(SparseVector.from_pairs(enumerate(alpha)))
        coeff_y = normalize(SparseVector.from_pairs(enumerate(beta)))
        assert jp(x, y) == pytest.approx(jp(coeff_x, coeff_y), abs=1e-9)


# --- per-term decomposition -----------------------------------------------

def test_terms_reference_pair():
    terms = jp_terms(REF_X, REF_Y)
    assert terms.term_of(0) == pytest.approx(0.2, abs=1e-12)
    assert terms.term_of(1) == pytest.approx(4.0 / 13.0, abs=1e-12)
    assert terms.term_of(2) == pytest.approx(0.1, abs=1e-12)
    assert terms.total == pytest.approx(jp(REF_X, REF_Y), abs=1e-12)


def test_term_of_an_absent_id_raises_key_error():
    with pytest.raises(KeyError, match="^12345$"):
        jp_terms(REF_X, REF_Y).term_of(12345)


def test_terms_identity_uniform():
    d = uniform_on([0, 1])
    assert jp_terms(d, d).terms == ((0, 0.5), (1, 0.5))


def test_terms_capped_and_saturated():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x, y = rand_pair(rng, max_side=10)
        terms = jp_terms(x, y)
        saturated = 0
        for eid, t in terms.terms:
            cap = min(x.mass_of(eid), y.mass_of(eid))
            assert t <= cap + 1e-12
            if abs(t - cap) <= 1e-12:
                saturated += 1
        if len(terms.terms) >= 2:
            assert saturated >= 2


# --- companion measures -----------------------------------------------------

def test_jw_values():
    assert jw(REF_X, REF_Y) == pytest.approx(REF_JW, abs=1e-12)
    assert jw(REF_X, REF_X) == 1.0
    # normalized indicator vectors with |X| = 4 > |Y| = 2: jw drops to
    # |X∩Y| / (|X\Y| + |X|) = 2/6
    x = uniform_on([1, 2, 3, 4])
    y = uniform_on([1, 2])
    assert jw(x, y) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert support_jaccard(x, y) == 0.5


def test_jw_unnormalized_inputs():
    x = SparseVector(((0, 2.0), (1, 2.0)))
    y = SparseVector(((0, 1.0), (1, 1.0)))
    assert jw(x, y) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="empty"):
        jw(SparseVector(()), SparseVector(()))
    # both sums, 2e308 and 3e308, are past the float range
    x = SparseVector(((0, 1e308), (1, 1.5e308)))
    y = SparseVector(((0, 1.5e308), (1, 1e308)))
    assert jw(x, y) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_support_jaccard_basics():
    assert support_jaccard(uniform_on([1, 2, 3]), uniform_on([2, 3, 4])) == 0.5
    assert support_jaccard(REF_X, REF_X) == 1.0
    assert support_jaccard(uniform_on([1]), uniform_on([2])) == 0.0
    with pytest.raises(ValueError, match="empty"):
        support_jaccard(SparseVector(()), SparseVector(()))


def test_total_variation_values():
    a = SparseDistribution(((0, 1.0),))
    b = SparseDistribution(((1, 1.0),))
    assert total_variation(a, b) == 1.0
    assert total_variation(REF_X, REF_Y) == pytest.approx(REF_TV, abs=1e-12)
    assert total_variation(REF_X, REF_X) == 0.0


def test_jsd_values():
    a = SparseDistribution(((0, 1.0),))
    b = SparseDistribution(((1, 1.0),))
    half = SparseDistribution(((0, 0.5), (1, 0.5)))
    assert jsd(REF_X, REF_X) == 0.0
    assert jsd(a, b) == pytest.approx(1.0, abs=1e-12)
    # frozen: 0.5*log2(4/3) + 0.25*log2(2/3) + 0.25
    assert jsd(a, half) == pytest.approx(0.31127812445913283, abs=1e-12)


@given(distributions(), distributions())
@settings(max_examples=40, deadline=None)
def test_jsd_range_and_symmetry(x, y):
    v = jsd(x, y)
    assert 0.0 <= v <= 1.0
    assert v == pytest.approx(jsd(y, x), abs=1e-12)


def _jsd_rows_of_the_mean(ux, uy, bounds):
    """Row JSD with the mean ``m = 0.5 * (ux + uy)`` formed first, as the textbook formula reads."""
    m = 0.5 * (ux + uy)
    acc = np.zeros(bounds.shape[0] - 1)
    for v in (ux, uy):
        pos = v > 0.0
        acc = acc + 0.5 * _row_sums(v[pos] * np.log2(v[pos] / m[pos]), _kept_bounds(pos, bounds))
    acc = np.where(acc > 0.0, acc, 0.0)
    return np.where(acc < 1.0, acc, 1.0)


@st.composite
def _wide_distributions(draw):
    """A distribution on ids 0-20 whose masses span 300 orders of magnitude, all normal."""
    ids = draw(st.lists(st.integers(0, 20), min_size=1, max_size=12, unique=True))
    masses = draw(st.lists(st.floats(1e-300, 1.0), min_size=len(ids), max_size=len(ids)))
    return normalize(SparseVector.from_pairs(zip(ids, masses)))


@given(st.lists(st.tuples(_wide_distributions(), _wide_distributions()), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_jsd_rows_equal_the_mean_formula_on_normal_masses(pairs):
    # where 0.5 * (ux + uy) is exact, 2v / (ux + uy) is v / m correctly rounded
    ux, uy, bounds = _aligned_rows(*zip(*pairs))
    assert _jsd_rows(ux, uy, bounds).tobytes() == _jsd_rows_of_the_mean(ux, uy, bounds).tobytes()


def test_bound_curves_endpoints():
    assert bound_curves(0.0) == (0.0, 1.0, 1.0)
    d1, lo1, hi1 = bound_curves(1.0)
    assert (d1, lo1, hi1) == (1.0, 0.0, 0.0)
    d, lo, hi = bound_curves(0.5)
    assert lo == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert hi == 0.5
    assert d == pytest.approx(0.18872187554086717, abs=1e-12)
    with pytest.raises(ValueError):
        bound_curves(1.5)
    with pytest.raises(ValueError):
        bound_curves(-0.1)


def test_bound_curves_bracket_and_share_the_d_curve():
    ps = np.linspace(0.0, 1.0, 1001)
    d, lo, hi = np.array([bound_curves(float(p)) for p in ps]).T
    assert (lo <= hi).all()
    assert lo[[0, -1]].tolist() == hi[[0, -1]].tolist() == [1.0, 0.0]
    assert d == pytest.approx(_d_curve(ps), rel=1e-15, abs=0.0)
    assert ((0.0 <= d) & (d <= 1.0)).all()


# --- bound constructions -----------------------------------------------------

def test_lower_pair_no_excess_is_identity_valued():
    x = SparseDistribution(((0, 0.5), (1, 0.5)))
    xl, yl = construct_lower_pair(x, x)
    assert xl.entries == yl.entries
    assert jp(xl, yl) == pytest.approx(1.0, abs=1e-12)


def test_lower_pair_reaches_jw():
    xl, yl = construct_lower_pair(REF_X, REF_Y)
    assert jp(xl, yl) == pytest.approx(REF_JW, abs=1e-9)
    assert jp_naive(xl, yl) == pytest.approx(REF_JW, abs=1e-9)
    assert jw(xl, yl) == pytest.approx(REF_JW, abs=1e-9)


def test_lower_pair_disjoint():
    a = SparseDistribution(((0, 1.0),))
    b = SparseDistribution(((1, 1.0),))
    xl, yl = construct_lower_pair(a, b)
    assert jp(xl, yl) == 0.0


def test_upper_pair_worked_example():
    shared = SparseVector(((1, 0.3), (2, 0.2)))
    xu, yu = construct_upper_pair(shared, 0.5, Partition.of([1], [2]))
    assert xu.entries == ((1, 0.8), (2, 0.2))
    assert yu.entries == ((1, 0.3), (2, 0.7))
    assert jp(xu, yu) == pytest.approx(0.5, abs=1e-9)
    assert jw(xu, yu) == pytest.approx((1.0 - 0.5) / (1.0 + 0.5), abs=1e-9)


def test_upper_pair_zero_extra_mass():
    shared = SparseVector(((1, 0.4), (2, 0.6)))
    xu, yu = construct_upper_pair(shared, 0.0, Partition.of([1], [2]))
    assert xu.entries == shared.entries
    assert yu.entries == shared.entries
    assert jp(xu, yu) == pytest.approx(1.0, abs=1e-12)


def test_upper_pair_split_independence():
    rng = np.random.default_rng(14)
    p = 0.3
    masses = rng.exponential(size=6)
    masses = masses / masses.sum() * (1.0 - p)
    shared = SparseVector(tuple(zip(range(6), masses.tolist())))
    first = construct_upper_pair(shared, p, Partition.of([0], [1, 2, 3, 4, 5]))
    second = construct_upper_pair(shared, p, Partition.of([0, 3, 5], [1, 2, 4]))
    assert jp(*first) == pytest.approx(jp(*second), abs=1e-9)
    assert jp(*first) == pytest.approx(1.0 - p, abs=1e-9)


def test_upper_pair_errors():
    shared = SparseVector(((1, 0.5), (2, 0.5)))
    with pytest.raises(ValueError, match="sum"):
        construct_upper_pair(shared, 0.5, Partition.of([1], [2]))
    bad = SparseVector(((1, 0.25), (2, 0.25)))
    with pytest.raises(ValueError, match="empty group"):
        construct_upper_pair(bad, 0.5, Partition.of([1, 2], [99]))
    with pytest.raises(ValueError, match="two groups"):
        construct_upper_pair(bad, 0.5, Partition.of([1], [2], [3]))


@pytest.mark.parametrize(
    "shared,p,split,message",
    [
        (SparseVector(()), 0.5, Partition.of([1], [2]), "^shared base must be non-empty$"),
        (SparseVector(((1, 0.5), (2, 0.5))), 1.0, Partition.of([1], [2]), r"^p must lie in \[0, 1\)$"),
        (SparseVector(((1, 0.25), (2, 0.25))), 0.5, Partition.of([1], [3]),
         "^split does not cover shared element 2$"),
    ],
    ids=["empty-base", "p-one", "uncovered-element"],
)
def test_upper_pair_input_checks(shared, p, split, message):
    with pytest.raises(ValueError, match=message):
        construct_upper_pair(shared, p, split)


# --- adversarial reallocation ------------------------------------------------

def test_adversarial_z_worked_example():
    z = adversarial_z(REF_X, REF_Y, 1)
    assert z.mass_of(0) == pytest.approx(5.0 / 13.0, abs=1e-12)
    assert z.mass_of(1) == pytest.approx(4.0 / 13.0, abs=1e-12)
    assert z.mass_of(2) == pytest.approx(4.0 / 13.0, abs=1e-12)


def test_adversarial_z_identity():
    z = adversarial_z(REF_X, REF_X, 0)
    for eid, m in REF_X.entries:
        assert z.mass_of(eid) == pytest.approx(m, abs=1e-12)


def test_adversarial_z_dominates_and_matches_term():
    rng = np.random.default_rng(15)
    for _ in range(100):
        x, y = rand_pair(rng, max_side=8)
        base = jp(x, y)
        terms = jp_terms(x, y)
        for a in sorted(x.support & y.support):
            z = adversarial_z(x, y, a)
            assert jp(x, z) >= base - 1e-9
            assert jp(y, z) >= base - 1e-9
            assert z.mass_of(a) == pytest.approx(terms.term_of(a), abs=1e-12)


def test_adversarial_z_outside_intersection_errors():
    with pytest.raises(ValueError, match="both supports"):
        adversarial_z(REF_X, REF_Y, 99)


# --- report -------------------------------------------------------------------

def test_similarity_report_consistent_with_parts():
    rng = np.random.default_rng(16)
    for _ in range(50):
        x, y = rand_pair(rng)
        rep = similarity_report(x, y)
        assert rep.jp == pytest.approx(jp(x, y), abs=1e-12)
        assert rep.jw == pytest.approx(jw(x, y), abs=1e-12)
        assert rep.tv == pytest.approx(total_variation(x, y), abs=1e-12)
        assert rep.jsd == pytest.approx(jsd(x, y), abs=1e-12)
        assert rep.support_jaccard == pytest.approx(support_jaccard(x, y), abs=1e-12)


def _report_per_pair(x, y) -> tuple[float, float, float, float, float]:
    """(jp, jw, support Jaccard, tv, jsd) as the per-pair scorer computed them before row batches."""
    ids = np.union1d(x.ids, y.ids)
    ux, uy = np.zeros(ids.shape[0]), np.zeros(ids.shape[0])
    ux[np.searchsorted(ids, x.ids)] = x.masses
    uy[np.searchsorted(ids, y.ids)] = y.masses
    with np.errstate(divide="ignore"):
        ratio = ux / uy
    order = np.lexsort((ids, -ratio))
    sx, sy = ux[order], uy[order]
    cx, cy = np.cumsum(sx), np.cumsum(sy)
    inter = (sx > 0.0) & (sy > 0.0)
    terms_sorted = np.zeros(ids.shape[0])
    terms_sorted[inter] = 1.0 / (cx[inter] / sx[inter] + (cy[-1] - cy[inter]) / sy[inter])
    terms = np.empty_like(terms_sorted)
    terms[order] = terms_sorted
    m = 0.5 * (ux + uy)
    acc = 0.0
    for v in (ux, uy):
        pos = v > 0.0
        acc += 0.5 * float((v[pos] * np.log2(v[pos] / m[pos])).sum())
    return (
        float(terms.sum()),
        float(np.minimum(ux, uy).sum() / np.maximum(ux, uy).sum()),
        float(((ux > 0.0) & (uy > 0.0)).sum()) / ids.shape[0],
        float(0.5 * np.abs(ux - uy).sum()),
        min(1.0, max(0.0, acc)),
    )


def test_row_batch_equals_each_pair_exactly():
    # Union lengths 1..300 cross the 8- and 128-element block edges of numpy's
    # pairwise sum; masses of 1, 2 or 3 units tie many ratios.
    rng = np.random.default_rng(24)
    xs, ys = [], []
    for n in range(1, 301):
        ids = np.sort(rng.choice(5 * n, size=n, replace=False)).astype(np.uint64)
        side = rng.integers(0, 3, size=n)  # 0: both, 1: x only, 2: y only
        side[rng.integers(0, n)] = 0
        masses = rng.integers(1, 4, size=(2, n)).astype(float) * rng.choice([1.0, 1e-3], size=(2, n))
        xs.append(normalize(SparseVector.from_arrays(ids[side != 2], masses[0][side != 2])))
        ys.append(normalize(SparseVector.from_arrays(ids[side != 1], masses[1][side != 1])))
    ux, uy, bounds = _aligned_rows(xs, ys)
    assert np.diff(bounds).tolist() == list(range(1, 301))
    rows = list(zip(*(v.tolist() for v in _report_rows(ux, uy, bounds))))
    for x, y, row in zip(xs, ys, rows):
        assert row == _report_per_pair(x, y)
        assert row == astuple(similarity_report(x, y))
        assert row[2] == support_jaccard(x, y)
    # the same rows in another order, so each sits in another padded block
    back = _report_rows(*_aligned_rows(xs[::-1], ys[::-1]))
    assert list(zip(*(v.tolist() for v in back))) == rows[::-1]
    assert _jp_terms(ux, uy, bounds).tolist() == [
        t for x, y in zip(xs, ys) for _, t in jp_terms(x, y).terms
    ]


def test_aligned_rows_equal_each_pair_alignment():
    # the batch groups both sides' entries by (row, id) in one sort; each row
    # must be the per-pair alignment, at the extreme ids, on disjoint and
    # identical supports, and with an empty side
    top = 2**64 - 1
    rng = np.random.default_rng(12)
    pairs = [([0], [top]), ([0, top], [0, top]), ([0, 5], [5, top]), ([1, 2, 3], [4, 5]),
             ([top], [top]), ([7], [0, 7, top]), ([], [3, top]), ([0], [])]
    for _ in range(200):
        pool = np.array([0, 1, 2, 9, 2**63, top - 1, top], dtype=np.uint64)
        pairs.append(tuple(pool[rng.random(7) < 0.5].tolist() for _ in range(2)))
    xs, ys = (
        [SparseVector.from_arrays(np.array(ids, dtype=np.uint64), rng.uniform(0.5, 2.0, len(ids)))
         for ids in side]
        for side in zip(*pairs)
    )
    ux, uy, bounds = _aligned_rows(xs, ys)
    assert bounds[0] == 0 and bounds[-1] == ux.shape[0] == uy.shape[0]
    assert ux.dtype == uy.dtype == np.float64 and bounds.dtype == np.intp
    for r, (x, y) in enumerate(zip(xs, ys)):
        _, ex, ey = _aligned(x, y)
        lo, hi = bounds[r], bounds[r + 1]
        assert np.array_equal(ux[lo:hi], ex) and np.array_equal(uy[lo:hi], ey)


def test_aligned_rows_of_no_pairs_are_empty():
    ux, uy, bounds = _aligned_rows([], [])
    assert ux.shape == uy.shape == (0,) and ux.dtype == uy.dtype == np.float64
    assert bounds.tolist() == [0] and bounds.dtype == np.intp


def test_coarsening_never_decreases_jp():
    from jpminhash.sparse import coarsen

    rng = np.random.default_rng(17)
    for _ in range(100):
        x, y = rand_pair(rng, max_side=10)
        union = sorted(x.support | y.support)
        labels = rng.integers(0, max(1, len(union) // 2), size=len(union))
        groups: dict[int, set[int]] = {}
        for eid, lab in zip(union, labels):
            groups.setdefault(int(lab), set()).add(eid)
        part = Partition(tuple(frozenset(g) for g in groups.values()))
        assert jp(coarsen(x, part), coarsen(y, part)) >= jp(x, y) - 1e-9
