"""Tests for patterns, splitting, and feasible-family evolution."""

import enum
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gks import spaces
from gks.adversaries import evasive_next, random_sequence
from gks.algorithms import GenericAlgorithm, nearest_space, next_family
from gks.core import (
    EmptyFamilyError,
    Instance,
    InvalidInputError,
    InvariantViolationError,
    satisfies,
)
from gks.spaces import FeasibleFamily, creation_bound, pattern_str

from helpers import (
    NaiveFamily,
    canonical_key,
    dimension,
    exhaustive_feasible,
    family_patterns,
    family_union,
    loop_mask,
    members,
    opened,
    plant,
    scanned_max_dimension_set,
    walked_max_dimension_stats,
)


def test_dimension_examples():
    # a pattern's dimension is k minus its mask's popcount
    assert plant((None, None, 5), 6).max_dimension_stats() == (2, 1)
    assert plant((1, 2, 3), 4).max_dimension_stats() == (0, 1)
    assert FeasibleFamily.initial((2, 3, 2)).max_dimension_stats() == (3, 1)
    # a planted family answers both queries as the scans do, before and
    # after a request that splits it
    for k, n in [(1, 2), (2, 3), (3, 2), (3, 3)]:
        for pat in itertools.product(*([[None] + list(range(n))] * k)):
            fam = plant(pat, n)
            assert fam.max_dimension_stats() == walked_max_dimension_stats(fam)
            m, top = fam.max_dimension_set()
            assert (m, list(top)) == scanned_max_dimension_set(fam) == (dimension(pat), [
                loop_mask(pat, n)])
            fam.update((n - 1,) * k)
            if fam.spaces:
                assert fam.max_dimension_stats() == walked_max_dimension_stats(fam)
                m, top = fam.max_dimension_set()
                assert (m, list(top)) == scanned_max_dimension_set(fam)


def test_has_infeasible_examples():
    # update reports a change exactly when some member misses the request
    assert plant((None, None, 5), 6).update((1, 2, 3))
    assert not plant((None, 1), 2).update((0, 1))


def test_has_infeasible_matches_member_scan():
    for k, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for pat in itertools.product(*([[None] + list(range(n))] * k)):
            for r in itertools.product(range(n), repeat=k):
                expected = any(not satisfies(c, r) for c in members(pat, [n] * k))
                assert plant(pat, n).update(r) == expected


def test_split_examples():
    fam = plant((None, None, 5), 6)
    fam.update((1, 2, 3))
    assert family_patterns(fam) == [(1, None, 5), (None, 2, 5)]
    fixed = plant((1, 2, 3), 7)
    fixed.update((4, 5, 6))
    assert len(fixed) == 0  # a fully fixed pattern is simply removed
    kept = plant((None, 1), 2)
    kept.update((0, 1))
    assert family_patterns(kept) == [(None, 1)]


def test_split_union_is_satisfying_subset():
    sizes = [3, 3, 3]
    pat = (None, None, 0)
    r = (1, 1, 1)
    fam = plant(pat, 3)
    fam.update(r)
    expected = {c for c in members(pat, sizes) if satisfies(c, r)}
    assert family_union(fam, sizes) == expected
    assert len(expected) < 9  # strictly below the 9 members of the parent


def test_split_child_count_and_dims():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randrange(1, 5)
        n = rng.randrange(2, 5)
        pat = tuple(rng.choice([None] + list(range(n))) for _ in range(k))
        r = tuple(rng.randrange(n) for _ in range(k))
        fam = plant(pat, n + rng.randrange(3))
        if not fam.update(r):
            continue
        d = dimension(pat)
        assert len(fam) == d
        for child in family_patterns(fam):
            assert dimension(child) == d - 1
            assert all(v is None or v == w for v, w in zip(pat, child))


def test_family_init_examples():
    whole = FeasibleFamily.initial((2, 3))
    assert family_patterns(whole) == [(None, None)] and whole.width == 3
    assert whole.created == set()  # the whole space is where a phase starts, not a creation
    fam = opened((0, 1), (2, 2))
    assert set(family_patterns(fam)) == {(0, None), (None, 1)}
    assert family_patterns(opened((5,), (6,))) == [(5,)]
    k = 4
    fam4 = opened((1, 2, 0, 3), (4,) * k)
    assert len(fam4) == k
    for pat in family_patterns(fam4):
        assert dimension(pat) == k - 1
        for c in itertools.islice(members(pat, [4] * k), 20):
            assert satisfies(c, (1, 2, 0, 3))


def test_family_refuses_points_outside_width():
    fam = opened((0, 1, 2), (3, 2, 3))
    for bad in [(3, 0, 0), (0, -1, 0), (1.0, 0, 0), (0, 0, "1")]:
        with pytest.raises(InvalidInputError):
            fam.update(bad)
        with pytest.raises(InvalidInputError):
            fam.nearest_member(bad)
        with pytest.raises(InvalidInputError):
            fam.cheapest(bad)
    # a refused request leaves the family as it was
    assert fam.spaces == opened((0, 1, 2), (3, 2, 3)).spaces


def test_point_bits_match_the_loop_mask():
    rng = random.Random(14)
    for k in range(1, 9):
        for width in range(2, 6):
            fam = FeasibleFamily((width,) * k)
            for _ in range(40):
                point = tuple(rng.randrange(width) for _ in range(k))
                assert sum(fam.point_bits(point)) == loop_mask(point, width)
                assert fam.position_mask(point) == loop_mask(point, width)
                i = rng.randrange(k)
                for x in (width, width + rng.randrange(5), -1, -rng.randrange(1, width + 1)):
                    bad = point[:i] + (x,) + point[i + 1:]
                    for build in (lambda: sum(fam.point_bits(bad)),
                                  lambda: loop_mask(bad, width)):
                        with pytest.raises(InvalidInputError):
                            build()


def test_family_trace_example():
    fam = opened((0, 1), (2, 2))
    assert fam.update((1, 0))
    assert set(family_patterns(fam)) == {(0, 0), (1, 1)}
    assert fam.update((1, 1))
    assert family_patterns(fam) == [(1, 1)]
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
                fam, phase_requests = opened(r, sizes), [r]
            else:
                fam.update(r)
                if len(fam) == 0:
                    fam, phase_requests = opened(r, sizes), [r]
                else:
                    phase_requests.append(r)
            assert family_union(fam, sizes) == exhaustive_feasible(sizes, phase_requests)


def test_update_changed_iff_union_shrinks():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randrange(1, 4)
        n = rng.randrange(2, 4)
        sizes = [n] * k
        fam = opened(tuple(rng.randrange(n) for _ in range(k)), sizes)
        for _ in range(10):
            r = tuple(rng.randrange(n) for _ in range(k))
            before = family_union(fam, sizes)
            snapshot = dict(fam.spaces)
            changed = fam.update(r)
            if len(fam) == 0:
                assert changed
                break
            after = family_union(fam, sizes)
            assert changed == (after != before), (snapshot, r)
            assert after <= before


def test_max_dimension_set():
    fam = opened((0, 1), (2, 2))
    fam.update((1, 0))
    m, top = fam.max_dimension_set()
    assert m == 0 and [fam.pattern(x) for x in top] == [(0, 0), (1, 1)]
    fam2 = opened((1, 2, 3), (4, 4, 4))
    m2, top2 = fam2.max_dimension_set()
    assert m2 == 2 and [fam2.pattern(x) for x in top2] == [
        (None, None, 3), (None, 2, None), (1, None, None)]
    fam2.spaces.clear()
    with pytest.raises(EmptyFamilyError):
        fam2.max_dimension_set()


@st.composite
def query_runs(draw):
    """Random or evasive traffic over several phases, with the steps after
    which the two maximal-set queries are asked (often none, so that the
    top dimension can drop more than once between two queries)."""
    k = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(2, 4), min_size=k, max_size=k))
    steps = draw(st.integers(1, 150))
    asks = draw(st.lists(st.sampled_from(["", "", "", "stats", "set", "both"]),
                         min_size=steps, max_size=steps))
    return sizes, draw(st.booleans()), draw(st.integers(0, 2**32 - 1)), asks


def check_queries(sizes, evasive, seed, asks):
    """Serve the traffic to a bare family, ask the queries where `asks`
    says and once at the end, and compare every answer with the scans.
    Returns the number of phases and the most top-dimension drops that
    passed between two queries of the maximal set."""
    instance = Instance.make(sizes)
    rng = random.Random(seed)
    fam, current, phases = None, (0,) * len(sizes), 0
    last_m, most_drops = None, 0
    for ask in asks + ["both"]:
        if evasive:
            r = evasive_next(instance, current, rng)
        else:
            r = tuple(rng.randrange(n) for n in sizes)
        fam, phase_start, _ = next_family(fam, r, sizes)
        if phase_start:
            phases, last_m = phases + 1, None
        current = fam.nearest_member(current)
        if ask in ("stats", "both"):
            assert fam.max_dimension_stats() == walked_max_dimension_stats(fam)
        if ask in ("set", "both"):
            m, top = fam.max_dimension_set()
            assert (m, list(top)) == scanned_max_dimension_set(fam)
            if last_m is not None:
                most_drops = max(most_drops, last_m - m)
            last_m = m
    return phases, most_drops


@settings(max_examples=200, deadline=None)
@given(query_runs())
def test_kept_maximal_set_matches_the_scans(run):
    check_queries(*run)


def test_kept_maximal_set_survives_several_drops_between_queries():
    # asked every 9th request, the top dimension drops by 2 or more between
    # two asks, and the runs cross phases
    for sizes, evasive in [((2,) * 5, True), ((3, 3, 4, 2), False), ((3,) * 5, True)]:
        asks = ["" if i % 9 else "set" for i in range(400)]
        phases, most_drops = check_queries(list(sizes), evasive, 5, asks)
        assert phases > 1 and most_drops >= 2


def test_a_caller_cannot_change_a_later_maximal_set():
    rng = random.Random(27)
    mutations = [lambda t: t.append(0), lambda t: t.clear(), lambda t: t.reverse(),
                 lambda t: t.__setitem__(0, -1), lambda t: t.__delitem__(0)]
    for k, n in [(3, 3), (4, 2), (5, 3), (6, 4)]:
        fam = None
        for step in range(300):
            fam = next_family(fam, tuple(rng.randrange(n) for _ in range(k)), [n] * k)[0]
            _, top = fam.max_dimension_set()
            try:
                mutations[step % len(mutations)](top)
            except (TypeError, AttributeError):
                pass
            m, again = fam.max_dimension_set()
            assert (m, list(again)) == scanned_max_dimension_set(fam)


def test_mask_order_is_canonical_pattern_order():
    for k, sizes in [(1, (3,)), (2, (2, 4)), (3, (3, 2, 2)), (4, (2, 2, 2, 2))]:
        width = max(sizes) + 1
        fam = FeasibleFamily((width,) * k)
        patterns = list(itertools.product(*([None] + list(range(n)) for n in sizes)))
        masks = {p: loop_mask(p, width) for p in patterns}
        assert sorted(patterns, key=masks.get) == sorted(patterns, key=canonical_key)
        assert all(fam.pattern(m) == p for p, m in masks.items())


def test_pattern_text_form():
    assert pattern_str((1, None, 5)) == "1,*,5"
    assert pattern_str((None,)) == "*"


def test_duplicate_creation_is_merged_and_counted():
    # A pattern can be re-created while its twin is still alive: after the
    # fourth request below, (*,0,2) splits into (1,0,2), which the family
    # already contains.  The family must keep one copy and count the event.
    fam = opened((0, 0, 0), (4, 4, 4))
    fam.update((1, 1, 2))
    fam.update((2, 2, 2))
    twin = loop_mask((1, 0, 2), fam.width)
    assert twin in fam.spaces
    assert fam.duplicate_creations == 0
    fam.update((1, 3, 3))
    assert fam.duplicate_creations == 1
    assert twin in fam.spaces
    assert len(set(fam.created)) == len(fam.created)


def test_recreating_a_destroyed_pattern_is_an_invariant_violation():
    # (0,None) splits into (0,0) on request (1,0); a log claiming (0,0) was
    # created earlier and is gone means a destroyed pattern came back
    fam = opened((0, 1), (2, 2))
    fam.created.add(loop_mask((0, 0), fam.width))
    with pytest.raises(InvariantViolationError):
        fam.update((1, 0))
    honest = opened((0, 1), (2, 2))
    honest.update((1, 0))
    assert set(family_patterns(honest)) == {(0, 0), (1, 1)}


def test_created_counts_within_bounds_random_runs():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randrange(2, 5)
        n = rng.randrange(2, 5)
        fam = opened(tuple(rng.randrange(n) for _ in range(k)), [n] * k)
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


def assert_same_family(fam, naive, current):
    assert set(family_patterns(fam)) == naive.alive
    assert fam.duplicate_creations == naive.duplicate_creations
    assert fam.created_by_dimension() == naive.created_by_dimension()
    m, top = fam.max_dimension_set()
    assert (m, [fam.pattern(x) for x in top]) == naive.max_dimension_set()
    assert fam.nearest_member(current) == naive.nearest_member(current)
    assert fam.pattern(nearest_space(fam, current)) == naive.nearest_space(current)


def run_against_naive(requests, currents, sizes):
    """Drive FeasibleFamily and the naive tuple-set family side by side,
    opening a fresh phase whenever the family empties."""
    fam = naive = None
    for r, current in zip(requests, currents):
        if fam is None:
            fam, naive = opened(r, sizes), NaiveFamily(r)
        else:
            assert fam.update(r) == naive.update(r)
            if not naive.alive:
                assert len(fam) == 0
                fam = naive = None
                continue
        assert_same_family(fam, naive, current)


@st.composite
def family_runs(draw):
    """Requests and positions over one size per coordinate, so the widest
    axis sets W and the others leave the top of their blocks unused."""
    k = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(2, 4), min_size=k, max_size=k))
    point = st.tuples(*[st.integers(0, n - 1) for n in sizes])
    steps = draw(st.integers(1, 40))
    return (draw(st.lists(point, min_size=steps, max_size=steps)),
            draw(st.lists(point, min_size=steps, max_size=steps)),
            sizes)


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
    run_against_naive(requests, currents, [2] * k)
    wide = opened(tuple(range(40)), [41] * 40)
    assert wide.update(tuple(range(1, 41)))
    assert len(wide) == 40 * 39 and wide.max_dimension_stats() == (38, 40 * 39)


def test_only_the_bit_table_in_use_is_cached():
    # one table per `sizes`; serving other sizes drops it, even of the same
    # (k, width), since rows hold exactly nᵢ entries
    spaces._bit_table.cache_clear()
    for instance in (Instance.uniform(3, 3), Instance.make([2, 5]), Instance.make([5, 3])):
        GenericAlgorithm(instance, keep_transcript=False).run(random_sequence(instance, 30, 1))
    info = spaces._bit_table.cache_info()
    assert info.currsize == 1 and info.misses == 3 and info.hits > 0
    assert FeasibleFamily([5, 3])._bits is spaces._bit_table((5, 3))
    assert spaces._bit_table.cache_info().misses == 3
    assert [len(row) for row in spaces._bit_table((5, 3))] == [5, 3]


def test_point_bits_refuse_points_past_their_own_metric():
    # the layout's width is max(sizes), but coordinate i takes only nᵢ
    # points, and only entries of type exactly int: no bool, no IntEnum
    class Point(enum.IntEnum):
        ONE = 1

    fam = FeasibleFamily.initial((4, 2, 3))
    assert sum(fam.point_bits((3, 1, 2))) == loop_mask((3, 1, 2), 4)
    for bad in [(0, 2, 0), (0, 3, 0), (0, 0, 3), (True, 0, 0), (0, False, 0),
                (Point.ONE, 0, 0), (0, 0), (0, 0, 0, 0), (0, -1, 0), (0, 2 ** 70, 0)]:
        with pytest.raises(InvalidInputError):
            fam.point_bits(bad)
        with pytest.raises(InvalidInputError):
            fam.update(bad)
    assert fam.spaces == {0: 0b111} and fam.created == set()
