"""Tests for the three unit-weight algorithms and the distribution tracker."""

import enum
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gks.core import (
    MAX_POINT_BITS,
    Instance,
    InvalidInputError,
    InvariantViolationError,
    ResourceLimitError,
    satisfies,
)
from gks.algorithms import (
    ALGORITHMS,
    AlternativeAlgorithm,
    DistributionTracker,
    GenericAlgorithm,
    RandomizedAlgorithm,
    read_transcript,
    transcript_lines,
    write_transcript,
)
from gks.adversaries import evasive_next, random_sequence, run_evasive
from gks.spaces import FeasibleFamily
from gks.weighted import WeightedAlgorithm

from helpers import (
    NaiveFamily,
    contains,
    exhaustive_feasible,
    family_union,
    loop_mask,
    opened,
    replay_space_choices,
)


def make(alg_id, instance, seed=0, **kw):
    cls = ALGORITHMS[alg_id]
    if cls is RandomizedAlgorithm:
        return cls(instance, seed, **kw)
    return cls(instance, **kw)


def test_requires_unit_weights():
    weighted = Instance.make([2, 2], [1, 3])
    with pytest.raises(InvalidInputError):
        GenericAlgorithm(weighted)


@pytest.mark.parametrize("alg_id", ["det", "alt", "rand", "weighted"])
def test_constructors_refuse_sizes_past_the_point_bit_bound(alg_id):
    assert MAX_POINT_BITS == 2 ** 14

    def build(sizes):
        if alg_id == "weighted":
            return WeightedAlgorithm(Instance.make(sizes, [1, 7]))
        return make(alg_id, Instance.make(sizes))

    with pytest.raises(ResourceLimitError,
                       match=r"^k \* max\(sizes\) = 16386 exceeds the bound 16384$"):
        build([2, 8193])
    with pytest.raises(ResourceLimitError, match="exceeds the bound 16384$"):
        build([10 ** 20, 2])
    assert build([2, 8192]).current == (0, 0)


def test_generic_no_move_when_satisfied():
    inst = Instance.uniform(2, 2)
    alg = GenericAlgorithm(inst, start=(0, 0))
    step = alg.serve((0, 1))
    assert step.cost == 0 and step.post == (0, 0)


def test_generic_phase_trace():
    # verified by hand against the family evolution: the 4th = 2^2-th
    # request exhausts the phase and seeds the next one
    inst = Instance.uniform(2, 2)
    alg = GenericAlgorithm(inst, start=(1, 0))
    steps = [alg.serve(r) for r in [(0, 1), (1, 0), (1, 1), (0, 0)]]
    assert [(s.phase, s.post, s.cost) for s in steps] == [
        (1, (0, 0), 1), (1, (0, 0), 0), (1, (1, 1), 2), (2, (0, 1), 1)]
    assert steps[3].phase_start
    alg.finalize()
    assert alg.phase_summaries[0].complete
    assert alg.phase_summaries[0].shrinks <= 2 ** 2
    # the satisfied second request still reshaped the family (a strict
    # shrink of the feasible union happened without any move)
    assert steps[1].shrunk and steps[1].cost == 0


def test_post_serve_feasibility_all_algorithms():
    rng = random.Random(2)
    for alg_id in ["det", "alt", "rand"]:
        for trial in range(12):
            k = rng.randrange(1, 5)
            n = rng.randrange(2, 5)
            inst = Instance.uniform(k, n)
            alg = make(alg_id, inst, seed=trial)
            for r in random_sequence(inst, 120, seed=trial * 7 + 1):
                step = alg.serve(r)
                assert satisfies(step.post, r)
                assert step.cost == sum(a != b for a, b in zip(step.pre, step.post))


def test_generic_position_stays_in_feasible_union():
    rng = random.Random(4)
    for trial in range(10):
        k = rng.randrange(1, 4)
        n = rng.randrange(2, 4)
        inst = Instance.uniform(k, n)
        alg = GenericAlgorithm(inst)
        phase_requests = []
        for r in random_sequence(inst, 100, seed=trial):
            step = alg.serve(r)
            if step.phase_start:
                phase_requests = [r]
            else:
                phase_requests.append(r)
            feas = exhaustive_feasible(inst.sizes, phase_requests)
            assert step.post in feas
            assert family_union(alg.family, inst.sizes) == feas


def test_phase_shrink_bound_random_runs():
    rng = random.Random(9)
    for trial in range(15):
        k = rng.randrange(2, 6)
        n = rng.randrange(2, 5)
        inst = Instance.uniform(k, n)
        alg = GenericAlgorithm(inst, keep_transcript=False)
        for r in random_sequence(inst, 400, seed=trial):
            alg.serve(r)
        alg.finalize()
        for ps in alg.phase_summaries:
            if ps.complete:
                assert ps.shrinks <= 2 ** k


def test_alternative_keeps_surviving_space():
    inst = Instance.uniform(2, 3)
    alg = AlternativeAlgorithm(inst, start=(2, 2))
    alg.serve((0, 1))
    space = alg.space
    assert contains(space, alg.current)
    # a request matching the adopted space's fixed slot leaves it alone
    step = alg.serve(tuple(x if x is not None else 2 for x in space))
    assert alg.space == space and step.cost == 0


def test_alternative_reselects_even_if_position_feasible():
    inst = Instance.uniform(2, 2)
    alg = AlternativeAlgorithm(inst, start=(0, 0))
    alg.serve((0, 0))
    # both initial patterns cost 0; (*,0) comes first in canonical order
    assert alg.space == (None, 0)
    step = alg.serve((0, 1))
    # (*,0) is destroyed although the position (0,0) satisfies (0,1);
    # the algorithm re-selects (0,*) and here stays put at zero cost
    assert alg.space == (0, None)
    assert step.cost == 0 and step.post == (0, 0)


def test_alternative_adopted_spaces_bound():
    rng = random.Random(31)
    for trial in range(10):
        k = rng.randrange(2, 5)
        inst = Instance.uniform(k, 3)
        alg = AlternativeAlgorithm(inst, keep_transcript=False)
        for r in random_sequence(inst, 500, seed=trial):
            alg.serve(r)
        alg.finalize()
        bound = sum(math.factorial(k) // math.factorial(d) for d in range(k))
        for ps in alg.phase_summaries:
            assert ps.adopted_spaces <= bound <= 3 * math.factorial(k)


def test_run_without_transcript_keeps_no_steps():
    # `run` without a transcript peaks no higher than serving one request at
    # a time; a list of the run's steps would add over 100 bytes a request
    inst = Instance.uniform(3, 3)
    seq = random_sequence(inst, 5000, seed=12)

    def peak(drive):
        alg = GenericAlgorithm(inst, keep_transcript=False)
        tracemalloc.start()
        try:
            drive(alg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def serve_each(alg):
        for r in seq:
            alg.serve(r)
        alg.finalize()

    assert GenericAlgorithm(inst, keep_transcript=False).run(seq) is None
    assert peak(lambda alg: alg.run(seq)) < peak(serve_each) + 8 * len(seq)


def test_randomized_single_maximal_space_is_forced():
    inst = Instance.uniform(1, 4)
    alg = RandomizedAlgorithm(inst, seed=5)
    alg.serve((2,))
    assert alg.space == (2,) and alg.current == (2,)


def test_randomized_fixed_seed_bit_identical():
    inst = Instance.uniform(3, 3)
    seq = random_sequence(inst, 300, seed=42)
    runs = []
    for _ in range(2):
        alg = RandomizedAlgorithm(inst, seed=7)
        alg.run(seq)
        runs.append("\n".join(transcript_lines(alg.transcript)))
    assert runs[0] == runs[1]
    other = RandomizedAlgorithm(inst, seed=8)
    other.run(seq)
    assert "\n".join(transcript_lines(other.transcript)) != runs[0]


def test_randomized_space_always_maximal():
    inst = Instance.uniform(3, 3)
    alg = RandomizedAlgorithm(inst, seed=3)
    for r in random_sequence(inst, 200, seed=12):
        alg.serve(r)
        m, top = alg.family.max_dimension_set()
        assert alg.space in map(alg.family.pattern, top)
        assert contains(alg.space, alg.current)


def test_tracker_uniform_at_every_step():
    rng = random.Random(8)
    for trial in range(8):
        k = rng.randrange(2, 5)
        n = rng.randrange(2, 5)
        inst = Instance.uniform(k, n)
        tracker = DistributionTracker(inst)
        for r in random_sequence(inst, 200, seed=trial):
            rec = tracker.step(r)
            share = Fraction(1, rec.size_cur)
            assert sum(rec.masses.values()) == 1
            assert all(mass == share for mass in rec.masses.values())
            assert set(rec.masses) == set(rec.patterns)


def test_tracker_move_probability_is_destroyed_fraction():
    inst = Instance.uniform(2, 2)
    tracker = DistributionTracker(inst)
    tracker.step((0, 1))
    rec = tracker.step((1, 0))
    # both initial spaces split; m drops from 1 to 0, so everything moves
    assert rec.m_prev == 1 and rec.m_cur == 0 and rec.p_move == 1
    assert rec.masses == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    rec2 = tracker.step((1, 1))
    # one of the two point-spaces dies: b/|M| = 1/2
    assert rec2.p_move == Fraction(1, 2)
    assert rec2.destroyed_maximal == 1 and rec2.size_prev == 2
    rec3 = tracker.step((0, 0))
    assert rec3.phase_start and rec3.p_move == 1


def test_tracker_no_change_step():
    inst = Instance.uniform(3, 3)
    tracker = DistributionTracker(inst)
    tracker.step((0, 0, 0))
    before = tracker.steps[-1].masses
    rec = tracker.step((0, 0, 0))  # same request: nothing can shrink
    assert rec.p_move == 0 and rec.masses == before


def test_replay_matches_full_algorithm():
    inst = Instance.uniform(3, 3)
    seq = random_sequence(inst, 250, seed=19)
    tracker = DistributionTracker(inst)
    trace = tracker.run(seq)
    for seed in range(25):
        alg = RandomizedAlgorithm(inst, seed=seed, keep_transcript=False)
        expected = []
        for r in seq:
            alg.serve(r)
            expected.append((alg.space, alg.current))
        got = replay_space_choices(trace, seed, (0, 0, 0))
        assert [(s, q) for s, q, _ in got] == expected


def test_phases_are_numbered_by_their_summaries():
    inst = Instance.uniform(3, 3)
    seq = random_sequence(inst, 300, seed=4)
    tracker = DistributionTracker(inst)
    tracker.run(seq)
    for name, cls in ALGORITHMS.items():
        alg = cls(inst, *((1,) if cls.randomized else ()))
        alg.run(seq)
        summaries = alg.phase_summaries
        assert len(summaries) > 2, name
        assert [s.phase for s in summaries] == list(range(1, len(summaries) + 1)), name
        # rows come in phase order, each under its own summary
        assert [s.phase for s in alg.transcript] == \
            [s.phase for s in summaries for _ in range(s.requests)], name
        assert [s.phase for s in tracker.steps] == [s.phase for s in alg.transcript], name


def test_transcript_roundtrip(tmp_path):
    inst = Instance.uniform(2, 3)
    alg = GenericAlgorithm(inst)
    seq = random_sequence(inst, 50, seed=3)
    alg.run(seq)
    path = tmp_path / "t.tsv"
    write_transcript(path, inst, alg.transcript, meta={"alg": "det", "seed": 0})
    inst2, steps2 = read_transcript(path)
    assert inst2 == inst
    assert len(steps2) == len(alg.transcript)
    for a, b in zip(alg.transcript, steps2):
        assert (a.phase, a.request, a.pre, a.post, a.cost) == \
            (b.phase, b.request, b.pre, b.post, b.cost)
        assert (a.family_size, a.max_dim, a.max_count) == \
            (b.family_size, b.max_dim, b.max_count)
        assert a.phase_start == b.phase_start


def test_nearest_member_tie_break_is_lexicographic():
    # two patterns at equal cost: the lexicographically smaller member wins
    assert opened((0, 1), (3, 3)).nearest_member((2, 2)) == (0, 2)


def det_moves_against_naive(sizes, steps, seed, evasive):
    """Drive `det` and check every forced move against the naive family's
    nearest member over the same phase.  Returns a Counter of the paths the
    moves took: "lower" or "raise" for a distance-1 move, which the request
    index finds ("lower tie" and "raise tie" when more than one server could
    have moved), and "fallback" for a longer one."""
    inst = Instance.make(sizes)
    alg = GenericAlgorithm(inst, keep_transcript=False)
    rng = random.Random(seed)
    naive = None
    paths = Counter()
    for _ in range(steps):
        cur = alg.current
        r = evasive_next(inst, cur, rng) if evasive else \
            tuple(rng.randrange(n) for n in sizes)
        step = alg.serve(r)
        if step.phase_start:
            naive = NaiveFamily(r)
        else:
            naive.update(r)
        if satisfies(cur, r):
            continue
        assert step.post == naive.nearest_member(cur)
        near = [cur[:i] + (x,) + cur[i + 1:] for i, x in enumerate(r)]
        near = sorted(q for q in near if any(contains(p, q) for p in naive.alive))
        if not near:
            paths["fallback"] += 1
            continue
        way = "lower" if near[0] < cur else "raise"
        paths[way] += 1
        if len(near) > 1:
            paths[way + " tie"] += 1
    return paths


traffic = st.tuples(
    st.lists(st.integers(2, 4), min_size=1, max_size=6),
    st.integers(1, 80), st.integers(0, 2 ** 32 - 1), st.booleans())


@settings(max_examples=150, deadline=None)
@given(traffic)
def test_det_move_matches_naive_nearest_member(run):
    det_moves_against_naive(*run)


def test_det_move_differential_covers_every_path():
    # the same check on fixed draws, which take the index's lowering and
    # raising moves, ties both ways, and the fallback
    rng = random.Random(17)
    paths = Counter()
    for trial in range(40):
        sizes = [rng.randrange(2, 5) for _ in range(rng.randrange(2, 7))]
        paths += det_moves_against_naive(sizes, 60, trial, trial % 2 == 1)
    for path in ("lower", "raise", "lower tie", "raise tie", "fallback"):
        assert paths[path] > 0, path


@pytest.mark.parametrize("alg_id, query", [("alt", "cheapest"), ("det", "nearest_member")])
def test_kept_position_mask_matches_the_loop_mask(alg_id, query, monkeypatch):
    # every mask `alt`'s re-selection and `det`'s fallback hand the family
    # is the loop mask of the position they pass with it
    original = getattr(FeasibleFamily, query)
    calls = []

    def checked(fam, current, mask=None):
        assert mask == loop_mask(current, fam.width)
        calls.append(current)
        return original(fam, current, mask)

    monkeypatch.setattr(FeasibleFamily, query, checked)
    rng = random.Random(41)
    for trial in range(30):
        sizes = [rng.randrange(2, 5) for _ in range(rng.randrange(1, 7))]
        inst = Instance.make(sizes)
        start = tuple(rng.randrange(n) for n in sizes)
        alg = make(alg_id, inst, start=start, keep_transcript=False)
        if trial % 2:
            run_evasive(alg, 80, seed=trial)
        else:
            alg.run(random_sequence(inst, 80, seed=trial))
    assert len(calls) > 100 and len(set(calls)) > 50


@pytest.mark.parametrize("start, r, post", [
    ((0, 0), (1, 1), (0, 1)),   # raising moves go by descending coordinate
    ((2, 2), (1, 1), (1, 2)),   # lowering moves by ascending coordinate
    ((1, 1), (0, 2), (0, 1)),   # a lowering move before a raising one
])
def test_det_distance_one_ties_are_lexicographic(start, r, post):
    alg = GenericAlgorithm(Instance.uniform(2, 3), start=start)
    assert alg.serve(r).post == post


def test_det_index_width_is_the_phase_shrink_count():
    # 10,000 requests the family already satisfies leave the index as wide
    # as the phase's shrinking requests, not as long as the phase
    alg = GenericAlgorithm(Instance.uniform(2, 3), keep_transcript=False)
    for r in [(0, 0), (1, 1)] * 5000:
        alg.serve(r)
    summary, = alg.phase_summaries
    assert summary.requests == 10_000 and summary.shrinks == 2
    assert max(v.bit_length() for col in alg._cols for v in col) == summary.shrinks


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


@st.composite
def malformed_requests(draw):
    """An instance, valid requests to serve first, and one malformed request:
    a coordinate that is a bool, an IntEnum, negative, past its own metric
    but inside the mask layout's width, a float, a str or a list; a wrong
    length; or no iterable at all."""
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(2, 5), min_size=k, max_size=k))
    inst = Instance.make(sizes)
    point = st.tuples(*(st.integers(0, n - 1) for n in sizes))
    prefix = draw(st.lists(point, max_size=12))
    good = list(draw(point))
    i = draw(st.integers(0, k - 1))
    kind = draw(st.sampled_from(["bool", "enum", "negative", "past", "float", "str",
                                 "list", "short", "long", "scalar"]))
    if kind == "past" and sizes[i] == max(sizes):
        kind = "negative"
    bad = {
        "bool": lambda x: bool(x % 2),
        "enum": lambda x: Level(x % 2),
        "negative": lambda x: -1 - x,
        "past": lambda x: draw(st.integers(sizes[i], max(sizes) - 1)),
        "float": float,
        "str": str,
        "list": lambda x: [x],
    }
    if kind in bad:
        good[i] = bad[kind](good[i])
        request = tuple(good)
    elif kind == "short":
        request = tuple(good[:-1])
    elif kind == "long":
        request = tuple(good) + (0,)
    else:
        request = draw(st.sampled_from([good[0], None]))
    return inst, prefix, request


def served_state(alg):
    fam = alg.family
    return (alg.current, alg.total_cost, len(alg.transcript), repr(alg.phase_summaries),
            None if fam is None else (dict(fam.spaces), set(fam.created),
                                      fam.duplicate_creations, list(fam._dim_hist)),
            getattr(alg, "_space_mask", None), alg.rng.getstate() if alg.randomized else None)


def tracked_state(tracker):
    fam = tracker.family
    return (len(tracker.steps), dict(tracker._masses),
            None if fam is None else (dict(fam.spaces), set(fam.created)))


@settings(max_examples=150, deadline=None)
@given(malformed_requests(), st.sampled_from(["det", "alt", "rand", "tracker"]))
def test_malformed_requests_are_refused_as_check_coords_refuses_them(case, alg_id):
    # the family's bit lookup is the request check: a request it refuses
    # raises what `check_coords` raises for it, and changes nothing
    inst, prefix, request = case
    with pytest.raises(InvalidInputError) as expected:
        inst.check_coords(request)
    if alg_id == "tracker":
        alg = DistributionTracker(inst)
        alg.run(prefix)
        serve, state = alg.step, tracked_state
    else:
        alg = make(alg_id, inst, seed=3)
        alg.run(prefix)
        serve, state = alg.serve, served_state
    before = state(alg)
    with pytest.raises(InvalidInputError) as refused:
        serve(request)
    assert type(refused.value) is type(expected.value)
    assert str(refused.value) == str(expected.value)
    assert state(alg) == before


def test_a_request_the_family_alone_refuses_is_an_invariant_violation(monkeypatch):
    # `check_coords` names every fault the family refuses; one it accepts
    # means the family and the instance disagree
    inst = Instance.uniform(2, 3)
    for alg in (GenericAlgorithm(inst), DistributionTracker(inst)):
        serve = alg.serve if isinstance(alg, GenericAlgorithm) else alg.step
        serve((0, 1))
        monkeypatch.setattr(FeasibleFamily, "update", lambda fam, r: fam.point_bits(r[1:]))
        with pytest.raises(InvariantViolationError, match="refused request"):
            serve((1, 2))
        monkeypatch.undo()


def test_requests_of_any_sequence_type_serve_alike():
    # a list or a generator serves as its tuple; a generator that is refused
    # is named by the tuple it made, not by an emptied iterator
    inst = Instance.make([3, 2, 4])
    seq = random_sequence(inst, 40, seed=8)
    as_tuples, as_lists = GenericAlgorithm(inst), GenericAlgorithm(inst)
    as_tuples.run(seq)
    as_lists.run(list(r) for r in seq)
    assert as_tuples.transcript == as_lists.transcript
    with pytest.raises(InvalidInputError, match="^request coordinate 1 = 2 out of range"):
        as_lists.serve(x for x in (0, 2, 0))
