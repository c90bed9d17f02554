"""Synthetic monotone functions with prescribed upper zeros, and the
closed-form influences of their variables.

An upper zero of a monotone Boolean function is a feasible vertex all of
whose strict supersets are infeasible.  Given a dimension n, a model
dimension p and a family of upper zeros b^{k_1}, ..., b^{k_n0} (levels
p+1 <= k_1 <= ... <= k_n0 <= n), the constructed function is

    f(b) = 0  iff  |b| <= p  or  b is a subset of some b^{k_s},

so each prescribed vertex really is an upper zero and every vertex at level
at most p is feasible.

The family is *ideal* when every pairwise intersection of upper zeros has at
most p elements.  Otherwise each pairwise intersection with more than p
elements is a *pseudo upper zero*; the closed forms gain correction terms
for them.  The influence of index i depends only on its membership pattern:
bit s is 1 when i lies in upper zero s, and for pseudo zeros the convention
is inverted (bit n0+s is 0 when i lies in pseudo zero s).

Upper zeros and pseudo upper zeros are int bitmasks over the n data indices,
as every subset is in ``maxcon.cube``, and are ordered by (level, mask).
Error messages print them as bitstrings through ``cube.mask_string``.

All binomial coefficients are exact integers and the formulas evaluate to
exact rationals when q is a ``Fraction``, so brute-force comparisons can be
made with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Sequence

import numpy as np

from . import cube
from .cube import _check_q, as_mask, mask_from_string, mask_string
from .errors import ContractError


# --------------------------------------------------------------------------
# Structure specifications
# --------------------------------------------------------------------------


def _by_level(mask: int) -> tuple[int, int]:
    return mask.bit_count(), mask


def detect_pseudo_upper_zeros(upper_zeros: Sequence[int], p: int) -> tuple[int, ...]:
    """Pairwise intersections of upper zero masks with level > p, deduplicated."""
    found = {a & b for i, a in enumerate(upper_zeros) for b in upper_zeros[i + 1 :]}
    return tuple(sorted((m for m in found if m.bit_count() > p), key=_by_level))


@dataclass(frozen=True)
class StructureSpec:
    """Abstract description of a structured monotone function."""

    n: int
    p: int
    upper_zeros: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 1 or self.n < self.p + 1:
            raise ValueError(f"need 1 <= p and p + 1 <= n, got p={self.p}, n={self.n}")
        for z in self.upper_zeros:
            if not isinstance(z, int) or not 0 <= z < (1 << self.n):
                raise ValueError(f"upper zero {z!r} is not a mask of width n={self.n}")
        zeros = tuple(sorted(set(self.upper_zeros), key=_by_level))
        for z in zeros:
            if not self.p + 1 <= z.bit_count() <= self.n:
                raise ValueError(
                    f"upper zero level {z.bit_count()} outside [{self.p + 1}, {self.n}]"
                )
        for a in zeros:
            for b in zeros:
                if a != b and a & ~b == 0:
                    raise ValueError(
                        "upper zeros must form an antichain; "
                        f"{mask_string(a, self.n)} is contained in {mask_string(b, self.n)}"
                    )
        object.__setattr__(self, "upper_zeros", zeros)

    @cached_property
    def pseudo_zeros(self) -> tuple[int, ...]:
        return detect_pseudo_upper_zeros(self.upper_zeros, self.p)

    @cached_property
    def pseudo_parents(self) -> tuple[tuple[int, int], ...]:
        """For each pseudo zero, the first (s, t) pair of parent upper zeros."""
        zs = self.upper_zeros
        pairs = [(s, t) for s in range(len(zs)) for t in range(s + 1, len(zs))]
        return tuple(
            next((s, t) for s, t in pairs if zs[s] & zs[t] == pz) for pz in self.pseudo_zeros
        )

    @property
    def ks(self) -> tuple[int, ...]:
        return tuple(z.bit_count() for z in self.upper_zeros)

    @property
    def alphas(self) -> tuple[int, ...]:
        return tuple(z.bit_count() for z in self.pseudo_zeros)

    @property
    def n0(self) -> int:
        return len(self.upper_zeros)

    @property
    def m0(self) -> int:
        return len(self.pseudo_zeros)

    @property
    def is_ideal(self) -> bool:
        return self.m0 == 0

    def membership(self, index: int) -> tuple[int, ...]:
        """Membership pattern of a data index.

        Bit s is 1 iff the index lies in upper zero s; bit n0+s is 0 iff the
        index lies in pseudo zero s (inverted convention).
        """
        if not 0 <= index < self.n:
            raise IndexError(f"index {index} out of range for n={self.n}")
        ups = tuple((z >> index) & 1 for z in self.upper_zeros)
        pseudos = tuple(1 - ((z >> index) & 1) for z in self.pseudo_zeros)
        return ups + pseudos

    def membership_classes(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Nonempty membership patterns mapped to their data indices."""
        classes: dict[tuple[int, ...], list[int]] = {}
        for i in range(self.n):
            classes.setdefault(self.membership(i), []).append(i)
        return {pat: tuple(idx) for pat, idx in classes.items()}

    def validate_membership(self, membership: Sequence[int]) -> None:
        """Check length and the parent/pseudo implication."""
        bits = _membership_bits(membership, self.n0 + self.m0)
        for s, (a, b) in enumerate(self.pseudo_parents):
            inside = bits[a] == 1 and bits[b] == 1
            if inside != (bits[self.n0 + s] == 0):
                raise ContractError(
                    "inconsistent membership: inlier to a pseudo zero iff inlier "
                    "to both of its parent structures"
                )


# --------------------------------------------------------------------------
# Constructed functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuredFunction:
    """Monotone function that is 0 exactly below level p+1 or below a zero."""

    n: int
    p: int
    zero_masks: tuple[int, ...]

    def __call__(self, bits: int) -> int:
        if bits.bit_count() <= self.p:
            return 0
        for z in self.zero_masks:
            if bits & ~z == 0:
                return 0
        return 1

    def truth_table(self) -> np.ndarray:
        idx = np.arange(1 << self.n, dtype=np.int64)
        feasible = cube.level_table(self.n) <= self.p
        for z in self.zero_masks:
            feasible = feasible | ((idx & ~z) == 0)
        return (~feasible).astype(np.uint8)


def make_structured_bf(spec: StructureSpec) -> StructuredFunction:
    """Build the monotone function whose upper zeros include the prescribed ones."""
    return StructuredFunction(n=spec.n, p=spec.p, zero_masks=spec.upper_zeros)


def enumerate_upper_zeros(f) -> tuple[int, ...]:
    """All upper zero masks of a monotone function, ascending, by exhaustive scan."""
    table = cube.truth_table(f)
    n = f.n
    idx = np.arange(1 << n, dtype=np.int64)
    feasible = table == 0
    maximal = feasible.copy()
    for i in range(n):
        up = idx | (1 << i)
        maximal &= (up == idx) | ~feasible[up]
    return tuple(int(m) for m in np.flatnonzero(maximal))


# --------------------------------------------------------------------------
# Closed-form influences
# --------------------------------------------------------------------------


def _level_term(coef: int, n: int, p: int, q):
    return coef * q**p * (1 - q) ** (n - p - 1)


def _upper_sum(k: int, n: int, p: int, q):
    """Sum over levels l = p+1..k of C(k, l) q^l (1-q)^(n-l-1)."""
    return sum(comb(k, l) * q**l * (1 - q) ** (n - l - 1) for l in range(p + 1, k + 1))


def influence_ideal_single(n: int, p: int, k1: int, q, role: str):
    """Influence in the single-structure case, for an inlier or an outlier.

    Inlier:  (C(n-1, p) - C(k1-1, p)) q^p (1-q)^(n-p-1)
    Outlier: C(n-1, p) q^p (1-q)^(n-p-1) + sum_{l=p+1}^{k1} C(k1, l) q^l (1-q)^(n-l-1)

    The outlier value strictly exceeds the inlier value.
    """
    if role not in ("inlier", "outlier"):
        raise ValueError(f"role must be 'inlier' or 'outlier', got {role!r}")
    return influence_nonideal(n, p, (k1,), (), q, (int(role == "inlier"),))


def influence_ideal_multi(n: int, p: int, ks: Sequence[int], q, membership: Sequence[int]):
    """Influence for a membership pattern over several small-overlap structures.

    (C(n-1, p) - sum_{s: m_s=1} C(k_s-1, p)) q^p (1-q)^(n-p-1)
      + sum_{s: m_s=0} sum_{l=p+1}^{k_s} C(k_s, l) q^l (1-q)^(n-l-1)
    """
    return influence_nonideal(n, p, ks, (), q, membership)


def influence_nonideal(
    n: int,
    p: int,
    ks: Sequence[int],
    alphas: Sequence[int],
    q,
    membership: Sequence[int],
    spec: StructureSpec | None = None,
):
    """Influence for a membership pattern when structures overlap significantly.

    Extends the small-overlap formula with pseudo-zero corrections: patterns
    inside pseudo zero s gain C(alpha_s - 1, p) in the level-p coefficient,
    and patterns outside it lose sum_{l=p+1}^{alpha_s} C(alpha_s, l) terms.
    Pseudo membership uses the inverted convention (bit 0 = inside).

    When a spec is supplied the membership is checked for consistency with
    the parent/pseudo implication.
    """
    _check_q(q)
    n0, m0 = len(ks), len(alphas)
    bits = _membership_bits(membership, n0 + m0)
    if spec is not None:
        spec.validate_membership(bits)
    for level in (*ks, *alphas):
        if not p + 1 <= level <= n:
            raise ValueError(f"structure level {level} outside [{p + 1}, {n}]")
    up_bits, pz_bits = bits[:n0], bits[n0:]
    coef = comb(n - 1, p)
    coef -= sum(comb(k - 1, p) for k, b in zip(ks, up_bits) if b == 1)
    coef += sum(comb(a - 1, p) for a, b in zip(alphas, pz_bits) if b == 0)
    total = _level_term(coef, n, p, q)
    total += sum(_upper_sum(k, n, p, q) for k, b in zip(ks, up_bits) if b == 0)
    total -= sum(_upper_sum(a, n, p, q) for a, b in zip(alphas, pz_bits) if b == 1)
    return total


def _membership_bits(membership, expected: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in membership)
    if len(bits) != expected:
        raise ValueError(f"membership must have {expected} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("membership entries must be bits")
    return bits


def class_influence(spec: StructureSpec, membership: Sequence[int], q):
    """Closed-form influence of a membership class of a spec.

    Raises ``ContractError`` when no data index has the given pattern.
    """
    bits = _membership_bits(membership, spec.n0 + spec.m0)
    if bits not in spec.membership_classes():
        raise ContractError(f"membership class {bits} is empty for this spec")
    return influence_nonideal(spec.n, spec.p, spec.ks, spec.alphas, q, bits, spec=spec)


def all_class_influences(spec: StructureSpec, q) -> dict[tuple[int, ...], object]:
    """Closed-form influence of every nonempty membership class."""
    return {pat: class_influence(spec, pat, q) for pat in spec.membership_classes()}


# --------------------------------------------------------------------------
# Ordering check
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderingReport:
    """Strict-order comparison of influence values across membership classes."""

    classes: dict[tuple[int, ...], object]
    comparisons: int
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return a != b and all(x >= y for x, y in zip(a, b))


def ordering_check(spec: StructureSpec, q) -> OrderingReport:
    """Verify that dominating membership patterns have strictly smaller influence.

    Applies to ideal specs: for nonempty classes with patterns i > j
    componentwise, the class of i must have strictly smaller influence.
    """
    if not spec.is_ideal:
        raise ContractError("ordering_check applies to ideal specs only")
    values = all_class_influences(spec, q)
    patterns = sorted(values)
    comparisons = 0
    violations = []
    for a in patterns:
        for b in patterns:
            if _dominates(a, b):
                comparisons += 1
                if not values[a] < values[b]:
                    violations.append((a, b))
    return OrderingReport(
        classes=values, comparisons=comparisons, violations=tuple(violations)
    )


# --------------------------------------------------------------------------
# Verification grid and brute-force comparison
# --------------------------------------------------------------------------


def _range_zero(lo: int, hi: int, n: int) -> int:
    """Width-n mask with bits lo..hi-1 set."""
    return as_mask(range(lo, hi), n)


def default_verification_grid() -> list[StructureSpec]:
    """Fixed family of structure specs used for formula-vs-brute-force checks.

    Covers p in {1, 2, 3} with one to three structures at n <= 16.  Multi-
    structure entries include zero overlap, overlap at most p (still ideal)
    and overlap above p (pseudo zeros), always with pairwise overlaps only:
    triple intersections are empty and distinct pseudo zeros are disjoint.
    """
    specs: list[StructureSpec] = []

    def add(n: int, p: int, zeros: Iterable[int]) -> None:
        specs.append(StructureSpec(n=n, p=p, upper_zeros=tuple(zeros)))

    # single structures, smallest / middle / full level
    for p, n in ((1, 8), (2, 10), (3, 12)):
        for k1 in (p + 1, (p + 1 + n) // 2, n):
            add(n, p, [_range_zero(0, k1, n)])

    # two structures, disjoint
    add(9, 1, [_range_zero(0, 3, 9), _range_zero(3, 7, 9)])
    add(12, 2, [_range_zero(0, 5, 12), _range_zero(5, 11, 12)])
    add(14, 3, [_range_zero(0, 5, 14), _range_zero(5, 11, 14)])

    # two structures, overlap exactly p (ideal boundary)
    add(9, 1, [_range_zero(0, 4, 9), _range_zero(3, 8, 9)])
    add(12, 2, [_range_zero(0, 5, 12), _range_zero(3, 10, 12)])
    add(14, 3, [_range_zero(0, 6, 14), _range_zero(3, 11, 14)])

    # two structures, overlap above p (one pseudo zero)
    add(9, 1, [_range_zero(0, 4, 9), _range_zero(2, 7, 9)])
    add(12, 2, [_range_zero(0, 6, 12), _range_zero(3, 10, 12)])
    add(14, 3, [_range_zero(0, 7, 14), _range_zero(3, 11, 14)])

    # two overlapping structures with an asymmetric membership pattern
    add(8, 2, [mask_from_string("10001101", 8), mask_from_string("00111111", 8)])

    # three structures: all disjoint; chain with two disjoint pseudo zeros;
    # one overlapping pair plus a disjoint third
    add(15, 2, [_range_zero(0, 4, 15), _range_zero(4, 9, 15), _range_zero(9, 14, 15)])
    add(14, 2, [_range_zero(0, 6, 14), _range_zero(3, 10, 14), _range_zero(7, 14, 14)])
    add(16, 2, [_range_zero(0, 6, 16), _range_zero(3, 10, 16), _range_zero(10, 16, 16)])
    add(12, 1, [_range_zero(0, 4, 12), _range_zero(2, 7, 12), _range_zero(8, 12, 12)])

    return specs


# --------------------------------------------------------------------------
# Brute-force verification
# --------------------------------------------------------------------------


def verify_spec(spec: StructureSpec, q) -> list[dict]:
    """Compare closed forms against exhaustive influence for every class.

    Returns one row per nonempty membership class with the closed-form value,
    the brute-force value of each member index (they coincide), and their
    largest absolute difference.
    """
    f = make_structured_bf(spec)
    table = cube.truth_table(f)
    rows = []
    for pattern, members in sorted(spec.membership_classes().items()):
        closed = class_influence(spec, pattern, q)
        worst = 0
        brute_repr = None
        for i in members:
            brute = cube.exact_weighted_influence(f, i, q, table)
            if brute_repr is None:
                brute_repr = brute
            worst = max(worst, abs(closed - brute))
        rows.append(
            {
                "class": pattern,
                "members": members,
                "closed_form": closed,
                "brute_force": brute_repr,
                "abs_diff": worst,
            }
        )
    return rows
