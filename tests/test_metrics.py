import csv
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcon.metrics import (
    Ranking,
    consensus_error,
    sf_distance,
    top_k_ranking,
    write_batch_report,
)


def test_sf_unit_examples():
    assert sf_distance(["a", "b", "c"], ["a", "b", "c"]) == 0.0
    assert sf_distance(["a", "b", "c"], ["c", "b", "a"]) == pytest.approx(1 / 3)
    assert sf_distance(["a", "b", "c"], ["d", "e", "f"]) == pytest.approx(1.0)


def test_sf_symmetry_and_validation():
    assert sf_distance([1, 2], [2, 3]) == sf_distance([2, 3], [1, 2])
    with pytest.raises(ValueError):
        sf_distance([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        sf_distance([1, 2], [1, 2], k=3)
    with pytest.raises(ValueError):
        sf_distance((), ())
    with pytest.raises(ValueError):
        sf_distance([1, 1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        sf_distance([1, 2, 3], [3, 3, 1])


def test_sf_bound_exhaustive_small_k():
    for k in (1, 2, 3):
        universe = range(2 * k)
        worst = 0.0
        for a in itertools.permutations(universe, k):
            for b in itertools.permutations(universe, k):
                d = sf_distance(a, b)
                assert 0.0 <= d <= 1.0
                assert (d == 0.0) == (a == b)
                worst = max(worst, d)
        assert worst == pytest.approx(1.0)


@given(st.integers(1, 5), st.data())
@settings(max_examples=200)
def test_sf_bound_random_k5(k, data):
    universe = list(range(2 * k + 3))
    a = tuple(data.draw(st.permutations(universe))[:k])
    b = tuple(data.draw(st.permutations(universe))[:k])
    d = sf_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert (d == 0.0) == (a == b)


def test_ranking_validation():
    with pytest.raises(ValueError):
        Ranking(())
    with pytest.raises(ValueError):
        Ranking((1, 1))


def test_top_k_ranking_tie_break():
    scores = {0: 0.5, 1: 0.9, 2: 0.5, 3: 0.1}
    assert top_k_ranking(scores, 3).order == (1, 0, 2)
    with pytest.raises(ValueError):
        top_k_ranking(scores, 0)


def test_consensus_error():
    assert consensus_error(11, 11) == 0
    assert consensus_error(10, 11) == 1
    with pytest.raises(ValueError):
        consensus_error(12, 11)


def test_write_batch_report(tmp_path):
    rows = [
        {"run": 0, "method": "wi", "consensus": 10, "error": 0, "runtime_ms": 12.5},
        {"run": 1, "method": "ransac", "consensus": 8, "error": 2, "runtime_ms": 3.1},
    ]
    path = tmp_path / "report.csv"
    write_batch_report(rows, path)
    with open(path) as fh:
        got = list(csv.DictReader(fh))
    assert got[0]["method"] == "wi"
    assert got[1]["consensus"] == "8"
    assert set(got[0]) == {"run", "method", "consensus", "error", "runtime_ms"}
