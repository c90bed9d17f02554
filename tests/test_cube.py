import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcon import cube
from maxcon.cube import (
    BernoulliMeasure,
    TabulatedFunction,
    as_mask,
    estimate_influence_bernoulli,
    estimate_influence_hamming,
    exact_fourier_first_order,
    exact_weighted_influence,
    flip_profile,
    level_table,
    level_weights,
    mask_from_string,
    mask_string,
    sample_bernoulli,
    sample_level,
    sample_level_rows,
    truth_table,
    upward_closure_table,
)
from maxcon.errors import BudgetError
from maxcon.theory import StructureSpec, make_structured_bf

from util import random_monotone_function


class Dictator:
    """f(b) = bit 0 of b."""

    def __init__(self, n=5):
        self.n = n

    def __call__(self, bits):
        return bits & 1


class Zero:
    def __init__(self, n=6):
        self.n = n

    def __call__(self, bits):
        return 0


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------


def test_mask_string_roundtrip():
    mask = mask_from_string("10001101", 8)
    assert mask == (1 << 0) | (1 << 4) | (1 << 5) | (1 << 7)
    assert mask_string(mask, 8) == "10001101"
    assert mask_string(0, 0) == "" and mask_from_string("", 0) == 0


@pytest.mark.parametrize("s", ["1000110", "100011010", "1000110x", "1000 101", "+0001101"])
def test_mask_from_string_rejects_wrong_length_and_non_binary(s):
    with pytest.raises(ValueError):
        mask_from_string(s, 8)


def test_as_mask_rejects_out_of_range():
    assert as_mask(7, 3) == 7 and as_mask([0, 2], 3) == 5
    for bad in (8, -1, np.int64(8)):
        with pytest.raises(ValueError):
            as_mask(bad, 3)
    for bad in ([3], [-1], np.array([0, 3])):
        with pytest.raises(IndexError):
            as_mask(bad, 3)
    with pytest.raises(TypeError):
        as_mask([0.5], 3)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def test_measure_examples():
    assert level_weights(3, 0.5)[2] == pytest.approx(0.125)
    assert level_weights(3, 0.25)[2] == pytest.approx(0.046875)
    assert level_weights(3, 0.3)[0] == pytest.approx(0.343)


def test_measure_rejects_bad_q():
    for q in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            level_weights(2, q)


@pytest.mark.parametrize("n", [1, 5, 12, 20])
@pytest.mark.parametrize("q", [0.1, 0.5, 0.62])
def test_measure_normalisation(n, q):
    levels = level_table(n)
    counts = np.bincount(levels, minlength=n + 1)
    weights = cube.level_weights(n, q)
    total = sum(int(c) * w for c, w in zip(counts, weights))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_measure_exact_fraction():
    # a mask with two of three bits set, such as "110"
    assert level_weights(3, Fraction(1, 4))[2] == Fraction(3, 64)


def test_bernoulli_measure_constants():
    m = BernoulliMeasure(0.25)
    assert m.q_minus * m.q_plus == pytest.approx(-1.0)
    u = BernoulliMeasure(0.5)
    assert u.q_minus == pytest.approx(-1.0)
    assert u.q_plus == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def test_sample_bernoulli_determinism():
    a = [sample_bernoulli(12, 0.3, np.random.default_rng(7)) for _ in range(5)]
    b = [sample_bernoulli(12, 0.3, np.random.default_rng(7)) for _ in range(5)]
    # a fresh generator restarts the stream; a shared one continues it
    assert a[0] == b[0]
    gen = np.random.default_rng(7)
    c = [sample_bernoulli(12, 0.3, gen) for _ in range(5)]
    gen = np.random.default_rng(7)
    d = [sample_bernoulli(12, 0.3, gen) for _ in range(5)]
    assert c == d


def test_sample_bernoulli_mean_level():
    rng = np.random.default_rng(0)
    n, q, draws = 10, 0.2, 100_000
    total = sum(sample_bernoulli(n, q, rng).bit_count() for _ in range(draws))
    mean = total / (draws * n)
    sigma = math.sqrt(q * (1 - q) / (draws * n))
    assert abs(mean - q) < 3 * sigma


def test_sample_bernoulli_fair_coin():
    rng = np.random.default_rng(1)
    draws = 100_000
    ones = sum(sample_bernoulli(1, 0.5, rng) for _ in range(draws))
    sigma = math.sqrt(0.25 / draws)
    assert abs(ones / draws - 0.5) < 3 * sigma


def test_sample_level_extremes():
    rng = np.random.default_rng(2)
    assert sample_level(6, 0, rng) == 0
    assert sample_level(6, 6, rng) == (1 << 6) - 1
    with pytest.raises(ValueError):
        sample_level(6, 7, rng)


def test_sample_level_uniformity():
    rng = np.random.default_rng(3)
    n, k, draws = 5, 2, 100_000
    counts = {}
    for _ in range(draws):
        v = sample_level(n, k, rng)
        counts[v] = counts.get(v, 0) + 1
    assert len(counts) == 10
    sigma = math.sqrt(0.1 * 0.9 / draws)
    for c in counts.values():
        assert abs(c / draws - 0.1) < 3 * sigma


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize(
    "n, k",
    # k = 0, 1, p = 8 and n; numpy's Floyd branch up to n = 10000, its tail
    # shuffle from n = 10001 when k > n // 50
    [(12, 0), (12, 1), (12, 8), (12, 12), (200, 8), (10000, 201), (10001, 201), (20001, 401)],
)
def test_sample_level_rows_equal_per_row_choice(monkeypatch, bitgen, n, k):
    for cells in (cube.FLOYD_TABLE_CELLS, 1):  # one table, and one per row
        monkeypatch.setattr(cube, "FLOYD_TABLE_CELLS", cells)
        for count in (1, 127, 128):
            got_gen, want_gen = np.random.Generator(bitgen(count)), np.random.Generator(bitgen(count))
            # leave half of a buffered 64-bit output for the next 32-bit draw
            assert got_gen.integers(0, 7, dtype=np.uint32) == want_gen.integers(0, 7, dtype=np.uint32)
            got = sample_level_rows(n, k, count, got_gen)
            want = [want_gen.choice(n, size=k, replace=False) for _ in range(count)]
            assert got.dtype == np.int64 and got.shape == (count, k)
            assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(count, k))
            assert _same_state(got_gen.bit_generator.state, want_gen.bit_generator.state)
            assert got_gen.random() == want_gen.random()
            assert got_gen.integers(0, 1 << 40) == want_gen.integers(0, 1 << 40)


def test_sample_level_rows_validation():
    rng = np.random.default_rng(0)
    assert sample_level_rows(5, 2, 0, rng).shape == (0, 2)
    with pytest.raises(ValueError):
        sample_level_rows(5, 6, 1, rng)
    with pytest.raises(ValueError):
        sample_level_rows(5, 2, -1, rng)


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------


def test_truth_table_matches_calls():
    f = Dictator(4)
    tbl = truth_table(f)
    assert [f(b) for b in range(16)] == list(tbl)
    tf = TabulatedFunction(tbl, 4)
    assert all(tf(b) == f(b) for b in range(16))


def test_truth_table_cap():
    with pytest.raises(BudgetError):
        truth_table(Zero(23))


@given(st.integers(2, 10), st.data())
@settings(max_examples=50)
def test_upward_closure_is_monotone(n, data):
    gens = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    tbl = upward_closure_table(n, gens)
    a = data.draw(st.integers(0, (1 << n) - 1))
    b = a | data.draw(st.integers(0, (1 << n) - 1))
    assert tbl[a] <= tbl[b]
    for g in gens:
        assert tbl[g] == 1


def test_masks_from_numpy_indices_keep_high_bits():
    idx = np.array([0, 70, 150])
    want = (1 << 0) | (1 << 70) | (1 << 150)
    assert as_mask(idx, 200) == want
    assert cube.mask_rows(want, 200).tolist() == [0, 70, 150]
    assert cube.flags_mask(np.isin(np.arange(200), idx)) == want


# ---------------------------------------------------------------------------
# Exact influence and Fourier coefficients
# ---------------------------------------------------------------------------


def test_dictator_influence_is_one():
    f = Dictator(5)
    for q in (0.1, 0.3, 0.5, 0.7):
        assert exact_weighted_influence(f, 0, q) == pytest.approx(1.0)


def test_zero_function_influence():
    f = Zero(6)
    assert all(exact_weighted_influence(f, i, 0.4) == 0 for i in range(6))
    assert exact_fourier_first_order(f, 2, 0.4) == 0


def test_single_structure_influences_at_half():
    spec = StructureSpec(n=8, p=2, upper_zeros=(as_mask(range(6), 8),))
    f = make_structured_bf(spec)
    q = Fraction(1, 2)
    inlier = exact_weighted_influence(f, 0, q)
    outlier = exact_weighted_influence(f, 7, q)
    assert inlier == Fraction(11, 128)
    assert outlier == Fraction(63, 128)


def test_dictator_fourier_closed_form():
    f = Dictator(5)
    for q in (0.2, 0.5, 0.8):
        got = exact_fourier_first_order(f, 0, q)
        assert got == pytest.approx(-math.sqrt(q * (1 - q)), abs=1e-14)


def test_influence_fourier_identity_random_monotone():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        f = random_monotone_function(n, rng)
        tbl = f.truth_table()
        for q in (0.1, 0.3, 0.5, 0.7):
            for i in range(n):
                inf = exact_weighted_influence(f, i, q, tbl)
                fc = exact_fourier_first_order(f, i, q, tbl)
                assert abs(inf + fc / math.sqrt(q * (1 - q))) <= 1e-12


def test_uniform_influence_equals_flip_fraction():
    rng = np.random.default_rng(5)
    f = random_monotone_function(9, rng)
    for i in range(9):
        inf = exact_weighted_influence(f, i, 0.5)
        flips = int(flip_profile(f, i).sum())
        assert inf == pytest.approx(flips / 2**9)


# ---------------------------------------------------------------------------
# Sampled estimators
# ---------------------------------------------------------------------------


def test_estimator_zero_function_is_exactly_zero():
    f = Zero(8)
    for mode in ("paper", "unbiased"):
        rep = estimate_influence_bernoulli(f, [0, 3], 0.3, 100, seed=0, mode=mode)
        assert rep.scores == {0: 0.0, 3: 0.0}
    rep = estimate_influence_hamming(f, [1, 2], 3, 50, seed=0)
    assert rep.scores == {1: 0.0, 2: 0.0}


def test_estimator_dictator_unbiased():
    f = Dictator(5)
    rep = estimate_influence_bernoulli(f, [0], 0.5, 2000, seed=1, mode="unbiased")
    assert abs(rep.scores[0] - 1.0) < 0.1


def test_estimator_validation():
    f = Dictator(4)
    with pytest.raises(ValueError):
        estimate_influence_bernoulli(f, [0], 0.5, 1, seed=0)
    with pytest.raises(ValueError):
        estimate_influence_bernoulli(f, [0], 1.2, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_influence_bernoulli(f, [0], 0.5, 10, seed=0, mode="other")
    with pytest.raises(ValueError):
        estimate_influence_hamming(f, [0], 5, 10, seed=0)


def test_paper_mode_is_scaled_unbiased_at_half():
    rng = np.random.default_rng(9)
    f = random_monotone_function(7, rng)
    paper = estimate_influence_bernoulli(f, range(7), 0.5, 200, seed=4, mode="paper")
    unbiased = estimate_influence_bernoulli(f, range(7), 0.5, 200, seed=4, mode="unbiased")
    for i in range(7):
        assert paper.scores[i] == unbiased.scores[i] * 2.0**-7
    assert paper.ranked_indices() == unbiased.ranked_indices()


def _reference_bernoulli(f, i, q, h, seed, mode):
    """Shortcut-free re-implementation of the paired-flip estimator."""
    m = BernoulliMeasure(q)
    gen = cube.substream(seed, i)
    rows = gen.random((h // 2, f.n)) < q
    acc = 0.0
    for row in rows:
        bits = sum(1 << int(j) for j in np.flatnonzero(row))
        for b in (bits, bits ^ (1 << i)):
            chi = m.q_minus if (b >> i) & 1 else m.q_plus
            weight = level_weights(f.n, q)[b.bit_count()] if mode == "paper" else 1.0
            acc += f(b) * chi * weight
    denom = h if mode == "paper" else 2 * (h // 2)
    return -acc / (denom * math.sqrt(q * (1 - q)))


@pytest.mark.parametrize("mode", ["paper", "unbiased"])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_estimator_matches_shortcut_free_reference(mode, q):
    rng = np.random.default_rng(13)
    f = random_monotone_function(8, rng)
    rep = estimate_influence_bernoulli(f, range(8), q, 64, seed=21, mode=mode)
    for i in range(8):
        ref = _reference_bernoulli(f, i, q, 64, 21, mode)
        assert rep.scores[i] == pytest.approx(ref, abs=1e-12)


def test_unbiased_estimator_converges():
    rng = np.random.default_rng(3)
    f = random_monotone_function(8, rng, generators=3)
    tbl = f.truth_table()
    q = 0.5
    exact = {i: float(exact_weighted_influence(f, i, q, tbl)) for i in range(8)}
    medians = []
    for h in (100, 1000, 10_000):
        errs = []
        for trial in range(50):
            rep = estimate_influence_bernoulli(f, range(8), q, h, seed=(trial, h), mode="unbiased")
            errs.append(max(abs(rep.scores[i] - exact[i]) for i in range(8)))
        medians.append(float(np.median(errs)))
    assert medians[0] >= medians[1] >= medians[2]


def test_hamming_estimator_matches_exhaustive_counts():
    spec = StructureSpec(n=8, p=2, upper_zeros=(as_mask(range(6), 8),))
    f = make_structured_bf(spec)
    # level-4 sampling: inliers flip nowhere, outliers flip somewhere
    for i in range(6):
        assert flip_profile(f, i)[4] == 0
        for h in (1, 16, 64):
            rep = estimate_influence_hamming(f, [i], 4, h, seed=5)
            assert rep.scores[i] == 0.0
    for i in (6, 7):
        assert flip_profile(f, i)[4] > 0
        rep = estimate_influence_hamming(f, [i], 4, 64, seed=5)
        assert rep.scores[i] > 0.0


def reference_hamming(f, indices, k, h, seed, support=None):
    """One ``gen.choice`` per sample: the loop that batched level draws replaced."""
    sup = list(range(f.n)) if support is None else list(support)
    scores = {}
    for i in indices:
        gen = cube.substream(seed, sup.index(i))
        flips = 0
        for _ in range(h):
            bits = as_mask([sup[j] for j in gen.choice(len(sup), size=k, replace=False)], f.n)
            flips += f(bits) != f(bits ^ (1 << i))
        scores[i] = flips / h
    return scores


@pytest.mark.parametrize("support", [None, (0, 2, 3, 5, 6, 8)])
def test_hamming_estimator_matches_sequential_reference(support):
    f = random_monotone_function(9, np.random.default_rng(34), generators=4)
    indices = range(9) if support is None else support
    flips = 0.0
    for k in (1, 3, 5):
        rep = estimate_influence_hamming(f, indices, k, 50, seed=12, support=support)
        assert rep.scores == reference_hamming(f, indices, k, 50, 12, support)
        flips += sum(rep.scores.values())
    assert flips > 0


class _Restriction:
    """Reference restriction of f to the sub-cube of ``support``, in its own coordinates.

    Component j of the restricted cube is parent index ``support[j]``; every
    other parent component is fixed to 0.
    """

    def __init__(self, f, support):
        self.f, self.support, self.n = f, support, len(support)

    def __call__(self, bits):
        expanded = 0
        rest = bits
        while rest:
            low = rest & -rest
            expanded |= 1 << self.support[low.bit_length() - 1]
            rest ^= low
        return self.f(expanded)


def test_support_matches_reference_restriction():
    # minimal 1-sets {1,2,4}, {4,6,7}, {2,6} inside the support, {0,3} outside it
    f = TabulatedFunction(upward_closure_table(9, [0b10110, 0b11010000, 0b1000100, 0b1001]), 9)
    support = (1, 2, 4, 6, 7)
    sub = _Restriction(f, support)
    local = range(len(support))

    def parent_keys(report):
        return {support[j]: v for j, v in report.scores.items()}

    for mode in ("paper", "unbiased"):
        got = estimate_influence_bernoulli(f, support, 0.3, 80, seed=11, mode=mode, support=support)
        ref = estimate_influence_bernoulli(sub, local, 0.3, 80, seed=11, mode=mode)
        assert got.scores == parent_keys(ref)
        assert any(ref.scores.values())
    got = estimate_influence_hamming(f, support, 3, 60, seed=11, support=support)
    ref = estimate_influence_hamming(sub, local, 3, 60, seed=11)
    assert got.scores == parent_keys(ref)
    assert any(ref.scores.values())
    with pytest.raises(IndexError):
        estimate_influence_bernoulli(f, [3], 0.3, 80, seed=11, support=support)
    with pytest.raises(IndexError):
        estimate_influence_hamming(f, [3], 3, 60, seed=11, support=support)
    with pytest.raises(ValueError):
        estimate_influence_bernoulli(f, [2], 0.3, 80, seed=11, support=(2, 1))


class _CallOnly:
    """A feasibility oracle seen as a plain Boolean function: ``n`` and calls only."""

    def __init__(self, oracle):
        self.oracle, self.n = oracle, oracle.n

    def __call__(self, bits):
        return self.oracle(bits)


@pytest.mark.parametrize("n, dim, outliers, q", [(20, 2, 6, 0.3), (80, 8, 10, 0.15)])
def test_batched_estimators_match_one_query_at_a_time(n, dim, outliers, q):
    from maxcon.datagen import GenSpec, gen_hyperplane_data
    from maxcon.models import FeasibilityOracle

    ds = gen_hyperplane_data(GenSpec(n=n, dim=dim, seed=4, outlier_count=outliers)).dataset
    batched = FeasibilityOracle(ds, 0.1)
    plain = _CallOnly(FeasibilityOracle(ds, 0.1))
    support = tuple(range(1, n))
    indices = support[: 2 * dim + 2]
    for mode in ("paper", "unbiased"):
        got = estimate_influence_bernoulli(batched, indices, q, 60, 3, mode=mode, support=support)
        want = estimate_influence_bernoulli(plain, indices, q, 60, 3, mode=mode, support=support)
        assert got.scores == want.scores
    got = estimate_influence_hamming(batched, indices, dim + 2, 60, 3, support=support)
    want = estimate_influence_hamming(plain, indices, dim + 2, 60, 3, support=support)
    assert got.scores == want.scores
    assert any(want.scores.values())
    assert batched.evaluations == plain.oracle.evaluations
    assert batched.core_tests > 0 and plain.oracle.core_tests > 0


def test_estimated_ranking_matches_exact_on_toy_line_data():
    # eight 2d points, two planted outliers: with q = 1/2 and a modest h the
    # normalised estimates already rank the outliers on top, like the exact
    # influences do
    from maxcon.datagen import GenSpec, gen_hyperplane_data
    from maxcon.models import FeasibilityOracle

    data = gen_hyperplane_data(GenSpec(n=8, dim=2, outlier_count=2, seed=12))
    outliers = set(range(8)) - set(data.inliers)
    oracle = FeasibilityOracle(data.dataset, 0.1)
    f = TabulatedFunction(oracle.truth_table(), 8)
    exact = {i: exact_weighted_influence(f, i, 0.5) for i in range(8)}
    est = estimate_influence_bernoulli(f, range(8), 0.5, 100, seed=2)
    exact_top = sorted(exact, key=lambda i: (-exact[i], i))[:2]
    est_top = est.ranked_indices()[:2]
    assert set(exact_top) == outliers
    assert est_top == exact_top
    peak = max(est.scores.values())
    normalised = {i: est.scores[i] / peak for i in est.scores}
    assert all(normalised[o] > max(normalised[i] for i in data.inliers) for o in outliers)


def test_influence_report_json_roundtrip():
    rep = estimate_influence_bernoulli(Dictator(4), [0, 2], 0.4, 20, seed=3)
    d = rep.to_json_dict()
    assert set(d) == {"measure", "q_or_level", "h", "seed", "scores", "mode"}
    back = cube.InfluenceReport.from_json_dict(d, n=4)
    assert back.scores == rep.scores
    assert back.measure == "bernoulli"
