"""Verdict logic of the comparison tool."""

import pytest

from perfbench.compare import (
    BETTER,
    UNRESOLVED,
    WITHIN,
    WORSE,
    compare,
    quartiles,
    verdict,
)

STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]


def shifted(values, factor):
    return [v * factor for v in values]


def judge(parent, change, better, bound):
    """Verdict with the runs paired in order, as if at seeds 0, 1, ..."""
    return verdict(parent, change, better, bound, list(zip(parent, change)))


def test_quartiles_match_statistics_module():
    q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_identical_runs_are_within_bound():
    assert judge(STEADY, list(STEADY), "lower", 0.1) == WITHIN


def test_small_slowdown_inside_bound_is_within_bound():
    assert judge(STEADY, shifted(STEADY, 1.05), "lower", 0.1) == WITHIN


def test_slowdown_past_bound_is_worse():
    assert judge(STEADY, shifted(STEADY, 1.2), "lower", 0.1) == WORSE


def test_direction_follows_better():
    # A 20% drop is a regression for a higher-is-better metric.
    assert judge(STEADY, shifted(STEADY, 0.8), "higher", 0.1) == WORSE
    assert judge(STEADY, shifted(STEADY, 0.8), "lower", 0.1) == BETTER


def test_clear_speedup_is_better():
    assert judge(STEADY, shifted(STEADY, 0.9), "lower", 0.1) == BETTER


def test_speedup_inside_parent_spread_is_not_better():
    parent = [9.0, 11.0, 9.5, 10.5, 10.0, 9.2, 10.8, 9.8, 10.2, 10.0]
    change = shifted(parent, 0.99)
    assert judge(parent, change, "lower", 0.25) == WITHIN


def test_speedup_needs_nine_wins_in_ten():
    parent = list(STEADY)
    change = shifted(STEADY, 0.95)
    change[0], change[1] = 20.0, 20.0  # two pairs lost
    assert judge(parent, change, "lower", 0.5) == WITHIN


def test_ties_count_for_neither_side():
    parent = list(STEADY)
    change = shifted(STEADY, 0.9)
    change[0] = parent[0]  # one tie: 9 wins of 10 pairs still suffices
    assert judge(parent, change, "lower", 0.1) == BETTER
    change[1] = parent[1]  # two ties: 8 of 10
    assert judge(parent, change, "lower", 0.1) == WITHIN


def test_spread_wider_than_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert judge(noisy, shifted(noisy, 1.02), "lower", 0.1) == UNRESOLVED
    # ...even when the medians moved by more than the bound.
    assert judge(noisy, shifted(noisy, 1.3), "lower", 0.1) == UNRESOLVED


def test_noisy_but_disjoint_runs_are_better():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [v / 10.0 for v in noisy]  # every change run beats every parent run
    assert judge(noisy, change, "lower", 0.1) == BETTER


def test_pairs_follow_seeds():
    parent = list(STEADY)
    change = shifted(STEADY, 0.9)
    # Zipped in order every pair is a win...
    assert judge(parent, change, "lower", 0.5) == BETTER
    # ...but pairs matched by seed decide, and here two are lost.
    by_seed = list(zip(parent, change))
    by_seed[0] = (8.0, change[0])
    by_seed[1] = (8.5, change[1])
    assert verdict(parent, change, "lower", 0.5, by_seed) == WITHIN


def test_fewer_than_ten_pairs_is_unresolved():
    parent, change = STEADY[:9], shifted(STEADY[:9], 0.5)
    assert judge(parent, change, "lower", 0.1) == UNRESOLVED
    # Without pairs even a regression past the bound stays unresolved.
    assert judge(parent, shifted(parent, 2.0), "lower", 0.1) == UNRESOLVED
    assert verdict(STEADY, change, "lower", 0.1, []) == UNRESOLVED


def _run(workload, seed, value):
    return {"provenance": {"workload": {"name": workload}, "seed": seed,
                           "trace": False},
            "metrics": {"serve_wall_s": value}}


SPEC = {"end_to_end": [{"name": "serve_wall_s", "unit": "s",
                        "better": "lower", "bound": 0.1}]}


def test_compare_pairs_runs_by_seed_and_counts_pairs():
    parent = [_run("w", s, v) for s, v in enumerate(STEADY)]
    change = [_run("w", s, v) for s, v in enumerate(shifted(STEADY, 0.9))]
    (row,) = compare(parent, change[::-1], SPEC)
    assert row["pairs"] == 10 and row["verdict"] == BETTER
    (row,) = compare(parent, change[:9], SPEC)
    assert row["pairs"] == 9 and row["verdict"] == UNRESOLVED


def test_compare_refuses_two_runs_at_one_seed():
    parent = [_run("w", s, v) for s, v in enumerate(STEADY)]
    change = parent + [_run("w", 3, 9.0)]
    with pytest.raises(ValueError, match="seed 3"):
        compare(parent, change, SPEC)


def test_empty_side_is_an_error():
    with pytest.raises(ValueError):
        verdict([], [1.0], "lower", 0.1, [])
