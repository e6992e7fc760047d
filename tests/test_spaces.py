"""Tests for patterns, splitting, and feasible-family evolution."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gks.core import (
    ContractViolationError,
    EmptyFamilyError,
    InvalidInputError,
    InvariantViolationError,
    satisfies,
)
from gks.spaces import (
    FeasibleFamily,
    contains,
    creation_bound,
    dimension,
    enumerate_members,
    has_infeasible,
    member,
    parse_pattern,
    pattern_str,
    split,
)

from helpers import NaiveFamily, all_configs, exhaustive_feasible


def test_dimension_examples():
    assert dimension((None, None, 5)) == 2
    assert dimension((1, 2, 3)) == 0
    assert dimension((None, None, None)) == 3


def test_contains_examples():
    assert contains((1, None), (1, 7))
    assert not contains((1, None), (2, 7))
    assert contains((None, None), (4, 9))
    with pytest.raises(InvalidInputError):
        contains((1, None), (1, 2, 3))


def test_has_infeasible_examples():
    assert has_infeasible((None, None, 5), (1, 2, 3))
    assert not has_infeasible((None, 1), (0, 1))


def test_has_infeasible_matches_member_scan():
    for k, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        patterns = itertools.product(*([[None] + list(range(n))] * k))
        for pat in patterns:
            for r in itertools.product(range(n), repeat=k):
                expected = any(not satisfies(c, r) for c in enumerate_members(pat, [n] * k))
                assert has_infeasible(pat, r) == expected


def test_split_examples():
    assert split((None, None, 5), (1, 2, 3)) == [(1, None, 5), (None, 2, 5)]
    assert split((1, 2, 3), (4, 5, 6)) == []
    with pytest.raises(ContractViolationError):
        split((None, 1), (0, 1))


def test_split_union_is_satisfying_subset():
    sizes = [3, 3, 3]
    pat = (None, None, 0)
    r = (1, 1, 1)
    children = split(pat, r)
    covered = set()
    for child in children:
        covered.update(enumerate_members(child, sizes))
    expected = {c for c in enumerate_members(pat, sizes) if satisfies(c, r)}
    assert covered == expected
    assert len(expected) < 9  # strictly below the 9 members of the parent


def test_split_child_count_and_dims():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randrange(1, 5)
        n = rng.randrange(2, 5)
        pat = tuple(rng.choice([None] + list(range(n))) for _ in range(k))
        r = tuple(rng.randrange(n) for _ in range(k))
        if not has_infeasible(pat, r):
            continue
        d = dimension(pat)
        children = split(pat, r)
        assert len(children) == d
        assert all(dimension(c) == d - 1 for c in children)
        assert len(set(children)) == len(children)


def test_family_init_examples():
    fam = FeasibleFamily.initial((0, 1))
    assert set(fam) == {(0, None), (None, 1)}
    fam1 = FeasibleFamily.initial((5,))
    assert set(fam1) == {(5,)}
    k = 4
    fam4 = FeasibleFamily.initial((1, 2, 0, 3))
    assert len(fam4) == k
    for pat in fam4:
        assert dimension(pat) == k - 1
        for c in itertools.islice(enumerate_members(pat, [4] * k), 20):
            assert satisfies(c, (1, 2, 0, 3))


def test_family_trace_example():
    fam = FeasibleFamily.initial((0, 1))
    snapshot = fam.copy()
    assert fam.update((1, 0))
    assert set(fam) == {(0, 0), (1, 1)}
    assert set(snapshot) == {(0, None), (None, 1)}  # a copy outlives updates
    assert fam.update((1, 1))
    assert set(fam) == {(1, 1)}
    assert fam.update((0, 0))
    assert len(fam) == 0  # the phase is exhausted on the 4th = 2^2-th request


def test_family_union_tracks_exhaustive_feasible_set():
    rng = random.Random(11)
    for trial in range(60):
        k = rng.randrange(1, 4)
        n = rng.randrange(2, 4)
        sizes = [n] * k
        fam = None
        phase_requests = []
        for _ in range(rng.randrange(2, 14)):
            r = tuple(rng.randrange(n) for _ in range(k))
            if fam is None:
                fam, phase_requests = FeasibleFamily.initial(r), [r]
            else:
                fam.update(r)
                if len(fam) == 0:
                    fam, phase_requests = FeasibleFamily.initial(r), [r]
                else:
                    phase_requests.append(r)
            assert fam.feasible_union(sizes) == exhaustive_feasible(sizes, phase_requests)


def test_update_changed_iff_union_shrinks():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randrange(1, 4)
        n = rng.randrange(2, 4)
        sizes = [n] * k
        fam = FeasibleFamily.initial(tuple(rng.randrange(n) for _ in range(k)))
        for _ in range(10):
            r = tuple(rng.randrange(n) for _ in range(k))
            before = fam.feasible_union(sizes)
            snapshot = fam.copy()
            changed = fam.update(r)
            if len(fam) == 0:
                assert changed
                break
            after = fam.feasible_union(sizes)
            assert changed == (after != before), (snapshot.spaces, r)
            assert after <= before


def test_max_dimension_set():
    fam = FeasibleFamily.initial((0, 1))
    fam.update((1, 0))
    m, top = fam.max_dimension_set()
    assert m == 0 and set(top) == {(0, 0), (1, 1)}
    fam2 = FeasibleFamily.initial((1, 2, 3))
    m2, top2 = fam2.max_dimension_set()
    assert m2 == 2 and len(top2) == 3
    fam2.spaces.clear()
    with pytest.raises(EmptyFamilyError):
        fam2.max_dimension_set()


def test_member_examples():
    assert member((1, None), (0, 7)) == (1, 7)
    assert member((None, None), (4, 2)) == (4, 2)
    rng = random.Random(1)
    for _ in range(100):
        k = rng.randrange(1, 5)
        pat = tuple(rng.choice([None, 0, 1, 2]) for _ in range(k))
        near = tuple(rng.randrange(3) for _ in range(k))
        got = member(pat, near)
        assert contains(pat, got)
        # minimal over the pattern: every member differs at least as much
        for other in enumerate_members(pat, [3] * k):
            assert sum(a != b for a, b in zip(near, got)) <= \
                sum(a != b for a, b in zip(near, other))


def test_pattern_text_form():
    assert pattern_str((1, None, 5)) == "1,*,5"
    assert parse_pattern("1,*,5") == (1, None, 5)
    assert parse_pattern("*") == (None,)
    with pytest.raises(InvalidInputError):
        parse_pattern("1,x")


def test_duplicate_creation_is_merged_and_counted():
    # A pattern can be re-created while its twin is still alive: after the
    # fourth request below, (*,0,2) splits into (1,0,2), which the family
    # already contains.  The family must keep one copy and count the event.
    fam = FeasibleFamily.initial((0, 0, 0))
    fam.update((1, 1, 2))
    fam.update((2, 2, 2))
    assert (1, 0, 2) in fam
    assert fam.duplicate_creations == 0
    fam.update((1, 3, 3))
    assert fam.duplicate_creations == 1
    assert (1, 0, 2) in fam
    assert len(set(fam.created)) == len(fam.created)


def test_recreating_a_destroyed_pattern_is_an_invariant_violation():
    # (0,None) splits into (0,0) on request (1,0); a log claiming (0,0) was
    # created earlier and is gone means a destroyed pattern came back
    fam = FeasibleFamily.initial((0, 1))
    fam.created.add(fam.mask((0, 0)))
    with pytest.raises(InvariantViolationError):
        fam.update((1, 0))
    honest = FeasibleFamily.initial((0, 1))
    honest.update((1, 0))
    assert set(honest) == {(0, 0), (1, 1)}


def test_created_counts_within_bounds_random_runs():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randrange(2, 5)
        n = rng.randrange(2, 5)
        fam = FeasibleFamily.initial(tuple(rng.randrange(n) for _ in range(k)))
        for _ in range(120):
            r = tuple(rng.randrange(n) for _ in range(k))
            fam.update(r)
            if len(fam) == 0:
                break
        for d, count in fam.created_by_dimension().items():
            assert count <= creation_bound(k, d)


def test_creation_bound_values():
    assert creation_bound(3, 2) == 3
    assert creation_bound(3, 0) == 6
    assert creation_bound(4, 1) == 24
    assert creation_bound(5, 5) == 1


def assert_same_family(fam, naive):
    assert set(fam) == naive.alive
    assert fam.duplicate_creations == naive.duplicate_creations
    assert fam.created_by_dimension() == naive.created_by_dimension()
    assert fam.max_dimension_set() == naive.max_dimension_set()


def run_against_naive(requests, currents):
    """Drive FeasibleFamily and the naive tuple-set family side by side,
    opening a fresh phase whenever the family empties."""
    fam = naive = None
    for r, current in zip(requests, currents):
        if fam is None:
            fam, naive = FeasibleFamily.initial(r), NaiveFamily(r)
        else:
            assert fam.update(r) == naive.update(r)
            if not naive.alive:
                assert len(fam) == 0
                fam = naive = None
                continue
        assert_same_family(fam, naive)
        assert fam.nearest_member(current) == naive.nearest_member(current)


@st.composite
def family_runs(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(2, 4))
    point = st.tuples(*[st.integers(0, n - 1)] * k)
    steps = draw(st.integers(1, 40))
    return (draw(st.lists(point, min_size=steps, max_size=steps)),
            draw(st.lists(point, min_size=steps, max_size=steps)))


@settings(max_examples=200, deadline=None)
@given(family_runs())
def test_family_matches_naive_tuple_family(run):
    run_against_naive(*run)


def test_family_matches_naive_beyond_31_coordinates():
    # the mask layout needs no per-coordinate cap
    rng = random.Random(33)
    k = 33
    requests = [tuple(rng.randrange(2) for _ in range(k)) for _ in range(4)]
    currents = [tuple(rng.randrange(2) for _ in range(k)) for _ in range(4)]
    run_against_naive(requests, currents)
    wide = FeasibleFamily.initial(tuple(range(40)))
    assert wide.update(tuple(range(1, 41)))
    assert len(wide) == 40 * 39 and wide.max_dimension_stats() == (38, 40 * 39)
