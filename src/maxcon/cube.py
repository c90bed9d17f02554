"""Boolean-cube machinery: masks, biased measures, samplers and influences.

A vertex of the n-dimensional Boolean cube is a subset of n items, and it is
always held as a plain int bitmask: bit i is set when item i is in the
subset.  ``as_mask`` coerces an index iterable to that form.  The bitstring
form exists only at the edges, in ``mask_from_string`` and ``mask_string``:
character i is bit i, so ``mask_from_string("101", 3)`` has bits 0 and 2 set.

Boolean functions over the cube are represented by any callable object with
an ``n`` attribute that maps a bitmask to 0 or 1.  Functions that can produce
their full truth table cheaply may expose a ``truth_table()`` method; the
exact-influence routines use it when present.  Functions that answer many
vertices faster together may expose a ``resolve(masks)`` method returning
the value of each mask, which must equal what calling f on it returns; the
sampled estimators pass it every drawn vertex, then every flip monotonicity
leaves open, before they make their own calls of f.  The feasibility oracle
answers such a batch from its caches with array tests and decides the rest
in one stacked exchange, so the calls of f that follow are memo lookups and
count the evaluations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import BudgetError

# Exhaustive 2**n work is refused above this dimension.
ENUMERATION_CAP = 22
# Cells of one membership table in sample_level_rows (rows x n booleans).
FLOYD_TABLE_CELLS = 1 << 22

# --------------------------------------------------------------------------
# Masks
# --------------------------------------------------------------------------


def as_mask(subset: "int | Iterable[int]", n: int) -> int:
    """Coerce a bitmask or an index iterable to a bitmask of width n."""
    if isinstance(subset, (int, np.integer)):
        bits = int(subset)
        if not 0 <= bits < (1 << n):
            raise ValueError(f"mask {bits:#x} out of range for n={n}")
        return bits
    bits = 0
    for i in subset:
        i = operator.index(i)  # numpy integers would overflow the shift
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for n={n}")
        bits |= 1 << i
    return bits


def mask_from_string(s: str, n: int) -> int:
    """Parse an n-character bitstring of 0s and 1s; character i is bit i."""
    if len(s) != n or set(s) - {"0", "1"}:
        raise ValueError(f"not a bitstring of length {n}: {s!r}")
    return int(s[::-1] or "0", 2)


def mask_string(mask: int, n: int) -> str:
    """The n-character bitstring of a mask; the inverse of ``mask_from_string``."""
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(n))


def masks_flags(masks: Sequence[int], n: int) -> np.ndarray:
    """Row r, column j: bit j of ``masks[r]``, as a (len(masks), n) bool array."""
    nbytes = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
    bits = np.unpackbits(packed.reshape(len(masks), nbytes), axis=1, bitorder="little")
    return bits[:, :n].astype(bool)


def mask_rows(mask: int, n: int) -> np.ndarray:
    """Indices of the set bits of a width-n mask, ascending."""
    return np.flatnonzero(masks_flags((mask,), n)[0])


def flags_mask(flags: np.ndarray) -> int:
    """Bitmask whose bit j is ``flags[j]``; the inverse of ``mask_rows``."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def flags_masks(flags: np.ndarray) -> list[int]:
    """The bitmask of each row of a 2d bool array; the inverse of ``masks_flags``."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


# --------------------------------------------------------------------------
# Measures
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BernoulliMeasure:
    """Product measure on the cube where each bit is 1 with probability q."""

    q: float

    def __post_init__(self) -> None:
        _check_q(self.q)

    @property
    def q_minus(self) -> float:
        return -math.sqrt((1.0 - self.q) / self.q)

    @property
    def q_plus(self) -> float:
        return math.sqrt(self.q / (1.0 - self.q))


def _check_q(q) -> None:
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0, 1), got {q}")


def level_weights(n: int, q) -> list:
    """Per-level vertex weights q**l * (1-q)**(n-l) for l = 0..n.

    Entry l is the probability of any one mask with l set bits under the
    product measure with bit bias q, exact when q is a ``Fraction``.
    """
    _check_q(q)
    return [q**l * (1 - q) ** (n - l) for l in range(n + 1)]


# --------------------------------------------------------------------------
# Samplers
# --------------------------------------------------------------------------


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def substream(seed, key: int) -> np.random.Generator:
    """Deterministic child stream for (seed, key).

    Derivation depends only on the pair, not on the order in which keys are
    requested, so per-index estimation is reproducible under any schedule.
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (key,)
        )
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.default_rng(ss)


def sample_bernoulli(n: int, q: float, rng) -> int:
    """Draw a width-n mask with independent Bernoulli(q) bits."""
    _check_q(q)
    return flags_mask(_as_generator(rng).random(n) < q)


def sample_level_rows(n: int, k: int, count: int, rng) -> np.ndarray:
    """``count`` rows of k distinct indices below n, as a (count, k) int64 array.

    Row r equals the r-th of ``count`` successive ``gen.choice(n, size=k,
    replace=False)`` calls, and the generator is left in the same state.
    numpy's ``choice`` runs Floyd's algorithm, one bounded draw on [0, j] for
    j = n-k .. n-1, then shuffles the picks with one bounded draw on [0, i]
    for i = k-1 .. 1.  One ``gen.integers(0, bounds, endpoint=True)`` call
    over every row's bounds makes exactly those draws, and Floyd's rule (a
    draw already taken becomes j) and the swaps are then replayed column by
    column for all rows at once, with a membership table of at most
    ``FLOYD_TABLE_CELLS`` booleans per block of rows.  Where numpy shuffles
    the tail of the whole range instead (n > 10000 and k > n // 50), the rows
    are drawn by ``choice`` one at a time.
    """
    if not 0 <= k <= n:
        raise ValueError(f"level {k} out of range for n={n}")
    if count < 0:
        raise ValueError(f"row count must be nonnegative, got {count}")
    gen = _as_generator(rng)
    if n > 10000 and k > n // 50:
        rows = [gen.choice(n, size=k, replace=False) for _ in range(count)]
        return np.array(rows, dtype=np.int64).reshape(count, k)
    picks = np.empty((count, k), dtype=np.int64)
    if count == 0 or k == 0:
        return picks
    floyd = np.arange(n - k, n, dtype=np.int64)
    bounds = np.concatenate([floyd, np.arange(k - 1, 0, -1, dtype=np.int64)])
    draws = gen.integers(0, np.tile(bounds, count), endpoint=True).reshape(count, 2 * k - 1)
    rows = np.arange(count)
    block = max(1, FLOYD_TABLE_CELLS // n)
    for lo in range(0, count, block):
        d, out = draws[lo : lo + block], picks[lo : lo + block]
        r = rows[: len(d)]
        taken = np.zeros((len(d), n), dtype=bool)
        for c, j in enumerate(floyd):
            out[:, c] = np.where(taken[r, d[:, c]], j, d[:, c])
            taken[r, out[:, c]] = True
    for c, i in enumerate(range(k - 1, 0, -1), start=k):
        swap = draws[:, c]
        last = picks[:, i].copy()
        picks[:, i] = picks[rows, swap]
        picks[rows, swap] = last
    return picks


def sample_level(n: int, k: int, rng) -> int:
    """Draw a uniformly random width-n mask with exactly k set bits."""
    return as_mask(sample_level_rows(n, k, 1, rng)[0], n)


# --------------------------------------------------------------------------
# Boolean functions, truth tables
# --------------------------------------------------------------------------


@runtime_checkable
class BooleanFunction(Protocol):
    n: int

    def __call__(self, bits: int) -> int: ...


@dataclass(frozen=True)
class TabulatedFunction:
    """Boolean function backed by an explicit truth table."""

    table: np.ndarray
    n: int

    def __post_init__(self) -> None:
        if self.table.shape != (1 << self.n,):
            raise ValueError("table length must be 2**n")

    def __call__(self, bits: int) -> int:
        return int(self.table[bits])

    def truth_table(self) -> np.ndarray:
        return self.table


def _check_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise BudgetError(
            f"exhaustive enumeration over 2**{n} vertices exceeds the cap of "
            f"2**{ENUMERATION_CAP}"
        )


def truth_table(f: BooleanFunction) -> np.ndarray:
    """Full truth table of f as a uint8 array indexed by bitmask."""
    own = getattr(f, "truth_table", None)
    if own is not None:
        table = np.asarray(own(), dtype=np.uint8)
        return table
    _check_cap(f.n)
    return np.fromiter((f(bits) for bits in range(1 << f.n)), dtype=np.uint8)


@lru_cache(maxsize=8)
def level_table(n: int) -> np.ndarray:
    """levels[m] = popcount(m) for every mask m < 2**n."""
    _check_cap(n)
    lv = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        lv = np.concatenate([lv, lv + 1])
    return lv


def upward_closure_table(n: int, generators: Iterable[int]) -> np.ndarray:
    """Truth table of the monotone function generated by the given masks.

    f(b) = 1 iff some generator is a subset of b.
    """
    _check_cap(n)
    table = np.zeros(1 << n, dtype=np.uint8)
    for g in generators:
        table[int(g)] = 1
    for i in range(n):
        block = 1 << i
        view = table.reshape(-1, 2 * block)
        view[:, block:] |= view[:, :block]
    return table


# --------------------------------------------------------------------------
# Exact influences and first-order Fourier coefficients
# --------------------------------------------------------------------------


def flip_profile(f: BooleanFunction, i: int, table: np.ndarray | None = None) -> np.ndarray:
    """Per-level counts of vertices whose value changes when bit i is flipped.

    Entry l counts the vertices b at level l with f(b) != f(b ^ (1 << i)).
    These integer counts determine the exact influence under any level-based
    measure, so the biased and slice-uniform variants share this primitive.
    """
    tbl = table if table is not None else truth_table(f)
    n = f.n
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for n={n}")
    idx = np.arange(1 << n, dtype=np.int64)
    diff = tbl != tbl[idx ^ (1 << i)]
    return np.bincount(level_table(n)[diff], minlength=n + 1).astype(np.int64)


def exact_weighted_influence(
    f: BooleanFunction, i: int, q, table: np.ndarray | None = None
) -> "float | Fraction":
    """Measure of the flip-sensitive set of bit i under bit bias q.

    Exact rational output when q is a ``Fraction``.
    """
    _check_q(q)
    profile = flip_profile(f, i, table)
    weights = level_weights(f.n, q)
    total = sum(int(c) * w for c, w in zip(profile, weights))
    if isinstance(q, Fraction):
        return total
    return float(total)


def exact_fourier_first_order(
    f: BooleanFunction, i: int, q: float, table: np.ndarray | None = None
) -> float:
    """First-order Fourier coefficient of f on bit i in the biased parity basis."""
    _check_q(q)
    q = float(q)
    tbl = table if table is not None else truth_table(f)
    n = f.n
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for n={n}")
    idx = np.arange(1 << n, dtype=np.int64)
    ones = tbl != 0
    bit_set = (idx >> i) & 1 == 1
    levels = level_table(n)
    c_set = np.bincount(levels[ones & bit_set], minlength=n + 1)
    c_unset = np.bincount(levels[ones & ~bit_set], minlength=n + 1)
    weights = level_weights(n, q)
    m = BernoulliMeasure(q)
    s_set = sum(int(c) * w for c, w in zip(c_set, weights))
    s_unset = sum(int(c) * w for c, w in zip(c_unset, weights))
    return m.q_minus * s_set + m.q_plus * s_unset


# --------------------------------------------------------------------------
# Influence reports and sampled estimators
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InfluenceReport:
    """Per-index influence scores with their sampling provenance."""

    measure: str  # "bernoulli" | "hamming" | "exact"
    q_or_level: float | int
    h: int
    seed: int | None
    scores: Mapping[int, float]
    n: int
    mode: str | None = None

    def ranked_indices(self) -> list[int]:
        """Indices by decreasing score; ties broken by ascending index."""
        return sorted(self.scores, key=lambda i: (-self.scores[i], i))

    def to_json_dict(self) -> dict:
        out = {
            "measure": self.measure,
            "q_or_level": self.q_or_level,
            "h": self.h,
            "seed": self.seed,
            "scores": [
                {"index": int(i), "value": float(v)} for i, v in sorted(self.scores.items())
            ],
        }
        if self.mode is not None:
            out["mode"] = self.mode
        return out

    @classmethod
    def from_json_dict(cls, d: dict, n: int | None = None) -> "InfluenceReport":
        scores = {int(e["index"]): float(e["value"]) for e in d["scores"]}
        dim = n if n is not None else (max(scores) + 1 if scores else 0)
        return cls(
            measure=d["measure"],
            q_or_level=d["q_or_level"],
            h=int(d["h"]),
            seed=d.get("seed"),
            scores=scores,
            n=dim,
            mode=d.get("mode"),
        )


def exact_influence_report(
    f: BooleanFunction, q, indices: Sequence[int] | None = None
) -> InfluenceReport:
    """Exact influences for the given indices (all of them by default)."""
    tbl = truth_table(f)
    idx = range(f.n) if indices is None else indices
    scores = {int(i): float(exact_weighted_influence(f, int(i), q, tbl)) for i in idx}
    return InfluenceReport(
        measure="exact", q_or_level=float(q), h=0, seed=None, scores=scores, n=f.n
    )


def _sampled_scores(f, indices: Iterable[int], draw, score) -> dict:
    """Scores of the indices in order, from the samples ``draw`` makes for each.

    For each index and sample b, f(b) is called, then f at the i-flip of b
    unless monotonicity implies it: dropping a bit from a 0-vertex stays 0,
    and adding a bit to a 1-vertex stays 1.  ``score(i, samples, fb, fc)``
    turns the two value lists into the index's score.  Every index's samples
    are drawn first.  A function with a ``resolve(masks)`` method then
    receives every drawn base vertex in one call, and every open flip in a
    second, so that the calls of f find their answers ready: the samples of
    one estimate do not depend on each other.
    """
    idx = [operator.index(i) for i in indices]
    drawn = [draw(i) for i in idx]
    resolve = getattr(f, "resolve", None)
    if resolve is not None:
        values = iter(resolve([bits for samples in drawn for bits in samples]))
        resolve([
            bits ^ (1 << i)
            for i, samples in zip(idx, drawn)
            for bits in samples
            if next(values) == (bits >> i) & 1
        ])
    scores = {}
    for i, samples in zip(idx, drawn):
        fb, fc = [], []
        for bits in samples:
            b = f(bits)
            fb.append(b)
            # open: a 0-vertex gaining bit i, or a 1-vertex losing it
            fc.append(f(bits ^ (1 << i)) if b == (bits >> i) & 1 else b)
        scores[i] = score(i, samples, fb, fc)
    return scores


def _support_positions(n: int, support: Iterable[int] | None) -> tuple[list[int], dict]:
    """The support as a list of parent indices, and each one's position in it."""
    sup = list(range(n)) if support is None else [operator.index(j) for j in support]
    if any(not 0 <= j < n for j in sup) or any(a >= b for a, b in zip(sup, sup[1:])):
        raise ValueError(f"support must be ascending indices below n={n}")
    return sup, {j: pos for pos, j in enumerate(sup)}


def _position(positions: dict, i: int) -> int:
    pos = positions.get(i)
    if pos is None:
        raise IndexError(f"index {i} is not in the support")
    return pos


def estimate_influence_bernoulli(
    f: BooleanFunction,
    indices: Sequence[int],
    q: float,
    h: int,
    seed,
    mode: str = "paper",
    support: Iterable[int] | None = None,
) -> InfluenceReport:
    """Sampled influence under bit bias q from h/2 draws paired with their flips.

    Sampling is confined to the sub-cube of ``support`` (ascending parent
    indices, the whole cube by default): parent bits outside it stay 0, and
    ``indices`` and the score keys are parent indices within it.  For each
    index the base vertices are drawn from the product measure on the support
    and the second half of the sample is their i-flips.  In "paper" mode each
    term is additionally weighted by the drawn vertex's own measure on the
    support and the sum is divided by h; in "unbiased" mode the measure factor
    is dropped and the sum is divided by the actual sample count 2*(h//2), so
    at q = 1/2 the mean is an unbiased estimate of the first-order Fourier
    coefficient before the final -1/sqrt(q(1-q)) scaling.

    Each index consumes an independent substream derived from (seed, position
    of the index in the support), and on the whole cube the position is the
    index itself.  Indices are scored in order.
    """
    _check_q(q)
    if h < 2:
        raise ValueError(f"sample count h must be at least 2, got {h}")
    if mode not in ("paper", "unbiased"):
        raise ValueError(f"unknown estimator mode {mode!r}")
    n = f.n
    sup, positions = _support_positions(n, support)
    m = BernoulliMeasure(q)
    q_minus, q_plus = m.q_minus, m.q_plus
    weights = level_weights(len(sup), float(q)) if mode == "paper" else None
    half = h // 2
    denom = h if mode == "paper" else 2 * half
    scale = -1.0 / (denom * math.sqrt(q * (1.0 - q)))

    def draw(i: int) -> list[int]:
        gen = substream(seed, _position(positions, i))
        flags = np.zeros((half, n), dtype=bool)
        flags[:, sup] = gen.random((half, len(sup))) < q
        return flags_masks(flags)

    def score(i: int, samples: list[int], fb: list[int], fc: list[int]) -> float:
        acc = 0.0
        for bits, b, c in zip(samples, fb, fc):
            bit_i = (bits >> i) & 1
            chi_b = q_minus if bit_i else q_plus
            chi_c = q_plus if bit_i else q_minus
            if mode == "paper":
                acc += b * chi_b * weights[bits.bit_count()]
                acc += c * chi_c * weights[(bits ^ (1 << i)).bit_count()]
            else:
                acc += b * chi_b + c * chi_c
        return (scale * acc) + 0.0

    scores = _sampled_scores(f, indices, draw, score)
    base_seed = seed.entropy if isinstance(seed, np.random.SeedSequence) else seed
    return InfluenceReport(
        measure="bernoulli",
        q_or_level=float(q),
        h=h,
        seed=base_seed,
        scores=scores,
        n=n,
        mode=mode,
    )


def estimate_influence_hamming(
    f: BooleanFunction,
    indices: Sequence[int],
    k: int,
    h: int,
    seed,
    support: Iterable[int] | None = None,
) -> InfluenceReport:
    """Fraction of h uniform level-k vertices whose value flips with bit i.

    The vertices are drawn from level k of the sub-cube of ``support``
    (ascending parent indices, the whole cube by default), and ``indices`` and
    the score keys are parent indices within it.  Each index consumes the
    substream of (seed, position of the index in the support): its h samples
    are the rows of one ``sample_level_rows`` call, equal to h successive
    ``choice(len(support), size=k, replace=False)`` draws.  Scores are
    left unnormalised (fractions of h rather than slice measures) since only
    their relative order is consumed.  Flips cross to level k-1 or k+1
    depending on the sampled bit.  Indices are scored in order.
    """
    n = f.n
    sup, positions = _support_positions(n, support)
    if not 0 <= k <= len(sup):
        raise ValueError(f"level {k} out of range for a support of {len(sup)}")
    if h < 1:
        raise ValueError(f"sample count h must be at least 1, got {h}")

    cols = np.array(sup, dtype=np.intp)

    def draw(i: int) -> list[int]:
        gen = substream(seed, _position(positions, i))
        picks = sample_level_rows(len(sup), k, h, gen)
        flags = np.zeros((h, n), dtype=bool)
        flags[np.arange(h)[:, None], cols[picks]] = True
        return flags_masks(flags)

    def score(i: int, samples: list[int], fb: list[int], fc: list[int]) -> float:
        return sum(b != c for b, c in zip(fb, fc)) / h

    scores = _sampled_scores(f, indices, draw, score)
    base_seed = seed.entropy if isinstance(seed, np.random.SeedSequence) else seed
    return InfluenceReport(
        measure="hamming", q_or_level=int(k), h=h, seed=base_seed, scores=scores, n=n
    )
