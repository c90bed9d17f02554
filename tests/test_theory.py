from fractions import Fraction

import numpy as np
import pytest

from maxcon.cube import as_mask, exact_weighted_influence, mask_from_string, mask_string, truth_table
from maxcon.errors import ContractError
from maxcon.theory import (
    StructureSpec,
    class_influence,
    default_verification_grid,
    detect_pseudo_upper_zeros,
    enumerate_upper_zeros,
    influence_ideal_multi,
    influence_ideal_single,
    influence_nonideal,
    make_structured_bf,
    ordering_check,
    verify_spec,
)

HALF = Fraction(1, 2)


def asymmetric_two_structure_spec():
    return StructureSpec(
        n=8,
        p=2,
        upper_zeros=(mask_from_string("10001101", 8), mask_from_string("00111111", 8)),
    )


# ---------------------------------------------------------------------------
# Spec construction and pseudo zeros
# ---------------------------------------------------------------------------


def test_detect_pseudo_example():
    a = mask_from_string("10001101", 8)
    b = mask_from_string("00111111", 8)
    (pz,) = detect_pseudo_upper_zeros([a, b], 2)
    assert mask_string(pz, 8) == "00001101"
    assert pz.bit_count() == 3


def test_detect_pseudo_disjoint_and_boundary():
    a = as_mask(range(0, 4), 10)
    b = as_mask(range(4, 9), 10)
    assert detect_pseudo_upper_zeros([a, b], 2) == ()
    c = as_mask(range(2, 7), 10)  # overlap with a of exactly p
    assert detect_pseudo_upper_zeros([a, c], 2) == ()


def test_spec_validation():
    with pytest.raises(ValueError):
        StructureSpec(n=8, p=2, upper_zeros=(as_mask(range(2), 8),))
    nested = (as_mask(range(4), 8), as_mask(range(6), 8))
    with pytest.raises(ValueError, match="11110000 is contained in 11111100"):
        StructureSpec(n=8, p=2, upper_zeros=nested)
    # a zero must be an int mask of width n
    for bad in (1 << 8, -1, "11110000", as_mask(range(4), 8) + 0.0):
        with pytest.raises(ValueError, match="not a mask of width n=8"):
            StructureSpec(n=8, p=2, upper_zeros=(bad,))


def test_membership_patterns():
    spec = asymmetric_two_structure_spec()
    # data point 4 sits in both structures, hence inside the pseudo zero
    assert spec.membership(4) == (1, 1, 0)
    # data point 1 is in neither structure and outside the pseudo zero
    assert spec.membership(1) == (0, 0, 1)
    with pytest.raises(ContractError):
        spec.validate_membership((1, 1, 1))


# ---------------------------------------------------------------------------
# Constructed functions
# ---------------------------------------------------------------------------


def test_structured_function_no_zeros():
    spec = StructureSpec(n=6, p=2, upper_zeros=())
    f = make_structured_bf(spec)
    for bits in range(1 << 6):
        assert f(bits) == (1 if bin(bits).count("1") > 2 else 0)


def test_structured_function_full_zero():
    spec = StructureSpec(n=6, p=2, upper_zeros=(as_mask(range(6), 6),))
    f = make_structured_bf(spec)
    assert not truth_table(f).any()


def test_structured_function_monotone():
    f = make_structured_bf(asymmetric_two_structure_spec())
    tbl = truth_table(f)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 8, size=5000)
    b = a | rng.integers(0, 1 << 8, size=5000)
    assert np.all(tbl[a] <= tbl[b])


def test_upper_zero_recovery():
    spec = StructureSpec(
        n=9,
        p=2,
        upper_zeros=(as_mask(range(5), 9), as_mask(range(5, 9), 9)),
    )
    f = make_structured_bf(spec)
    found = set(enumerate_upper_zeros(f))
    planted = set(spec.upper_zeros)
    assert planted <= found
    # the rest are exactly the level-p vertices not under any planted zero
    for v in found - planted:
        assert v.bit_count() == 2
        assert not any(v & ~z == 0 for z in spec.upper_zeros)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_ideal_single_landmark_values():
    assert influence_ideal_single(8, 2, 6, HALF, "inlier") == Fraction(11, 128)
    assert influence_ideal_single(8, 2, 6, HALF, "outlier") == Fraction(63, 128)


def test_ideal_single_full_structure():
    assert influence_ideal_single(9, 2, 9, 0.37, "inlier") == 0


def test_ideal_single_outlier_exceeds_inlier():
    for q in (Fraction(1, 5), HALF, Fraction(9, 10)):
        for n, p, k1 in ((8, 2, 6), (12, 3, 7), (10, 1, 5)):
            lo = influence_ideal_single(n, p, k1, q, "inlier")
            hi = influence_ideal_single(n, p, k1, q, "outlier")
            assert hi > lo


def test_ideal_multi_landmark_value():
    got = influence_ideal_multi(12, 2, (5, 6), HALF, (1, 0))
    assert got == Fraction(91, 2048)


def test_ideal_multi_reduces_to_single():
    for q in (Fraction(1, 5), HALF):
        for role, bit in (("inlier", 1), ("outlier", 0)):
            a = influence_ideal_single(10, 2, 7, q, role)
            b = influence_ideal_multi(10, 2, (7,), q, (bit,))
            assert a == b


def test_nonideal_reduces_to_multi_without_pseudos():
    a = influence_ideal_multi(12, 2, (5, 6), Fraction(1, 3), (1, 0))
    b = influence_nonideal(12, 2, (5, 6), (), Fraction(1, 3), (1, 0))
    assert a == b


def test_nonideal_landmark_value():
    spec = asymmetric_two_structure_spec()
    got = class_influence(spec, (1, 1, 0), HALF)
    assert got == Fraction(9, 128)
    # (21 - 3 - 10 + 1) / 128 by direct counting
    assert got == Fraction(21 - 3 - 10 + 1, 128)


def test_closed_forms_reject_structure_levels_outside_the_range():
    # levels must lie in [p+1, n] = [3, 8], for structures as for pseudo zeros
    for ks, alphas in (((2, 6), ()), ((4, 9), ()), ((4, 6), (2,))):
        with pytest.raises(ValueError, match="structure level"):
            influence_nonideal(8, 2, ks, alphas, HALF, (1,) * (len(ks) + len(alphas)))
    with pytest.raises(ValueError, match="structure level"):
        influence_ideal_multi(8, 2, (4, 9), HALF, (1, 0))
    with pytest.raises(ValueError, match="structure level"):
        influence_ideal_single(8, 2, 2, HALF, "inlier")


def test_nonideal_membership_consistency_checked():
    spec = asymmetric_two_structure_spec()
    with pytest.raises(ContractError):
        influence_nonideal(8, 2, (4, 6), (3,), HALF, (1, 1, 1), spec=spec)


def test_class_influence_rejects_empty_class():
    spec = asymmetric_two_structure_spec()
    with pytest.raises(ContractError):
        class_influence(spec, (1, 0, 0), HALF)


def test_four_expression_inequalities():
    # two overlapping structures, one pseudo zero: classes outlier to one
    # parent sit strictly below the all-outlier class
    for n, p, k1, k2, a1 in ((10, 2, 5, 6, 3), (12, 2, 6, 7, 4), (14, 3, 7, 8, 5)):
        for q in (Fraction(1, 5), HALF, Fraction(7, 10)):
            ks, alphas = (k1, k2), (a1,)
            v101 = influence_nonideal(n, p, ks, alphas, q, (1, 0, 1))
            v011 = influence_nonideal(n, p, ks, alphas, q, (0, 1, 1))
            v001 = influence_nonideal(n, p, ks, alphas, q, (0, 0, 1))
            assert v101 < v001
            assert v011 < v001


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


def test_ordering_two_disjoint_structures():
    spec = StructureSpec(
        n=12,
        p=2,
        upper_zeros=(as_mask(range(5), 12), as_mask(range(5, 11), 12)),
    )
    report = ordering_check(spec, 0.3)
    assert report.ok
    vals = report.classes
    assert vals[(1, 0)] < vals[(0, 0)]
    assert vals[(0, 1)] < vals[(0, 0)]


def test_ordering_single_structure():
    spec = StructureSpec(n=8, p=2, upper_zeros=(as_mask(range(6), 8),))
    report = ordering_check(spec, Fraction(2, 5))
    assert report.ok
    assert report.comparisons == 1


def test_ordering_rejects_nonideal():
    with pytest.raises(ContractError):
        ordering_check(asymmetric_two_structure_spec(), 0.5)


# ---------------------------------------------------------------------------
# Brute-force verification
# ---------------------------------------------------------------------------


def test_verify_spec_rows_exact():
    rows = verify_spec(asymmetric_two_structure_spec(), HALF)
    assert {tuple(r["class"]) for r in rows} == {(1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 1)}
    for row in rows:
        assert row["abs_diff"] == 0


def test_grid_specs_are_well_formed():
    grid = default_verification_grid()
    assert len(grid) >= 20
    assert any(not s.is_ideal for s in grid)
    assert any(s.n0 == 3 for s in grid)
    for spec in grid:
        assert spec.n <= 16 and spec.p in (1, 2, 3) and spec.n0 <= 3
        # pairwise overlaps only: triple intersections stay at or below p and
        # distinct pseudo zeros do not overlap above p
        zs = spec.upper_zeros
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                for k in range(j + 1, len(zs)):
                    assert (zs[i] & zs[j] & zs[k]).bit_count() <= spec.p
        pz = spec.pseudo_zeros
        for i in range(len(pz)):
            for j in range(i + 1, len(pz)):
                assert (pz[i] & pz[j]).bit_count() <= spec.p


def test_grid_closed_forms_match_brute_force_single_q():
    # one rational q here; the full grid sweep runs in the acceptance suite
    for spec in default_verification_grid()[:8]:
        for row in verify_spec(spec, Fraction(1, 5)):
            assert row["abs_diff"] == 0


def test_every_index_influence_matches_formula():
    spec = asymmetric_two_structure_spec()
    f = make_structured_bf(spec)
    tbl = truth_table(f)
    for q in (Fraction(1, 5), HALF):
        for i in range(spec.n):
            brute = exact_weighted_influence(f, i, q, tbl)
            closed = class_influence(spec, spec.membership(i), q)
            assert brute == closed
