"""Tests for request generators and the closed-loop strategy."""

import itertools
import random

import pytest

from gks.core import Instance, InvalidInputError, ResourceLimitError, satisfies
from gks.algorithms import ALGORITHMS, GenericAlgorithm, RandomizedAlgorithm
from gks.adversaries import (
    antipodal_next,
    evasive_next,
    random_request,
    random_sequence,
    run_closed_loop,
    run_evasive,
)
from gks.offline import opt_cost

import helpers


def test_antipodal_examples():
    inst3 = Instance.uniform(3, 2)
    assert antipodal_next(inst3, (0, 0, 0)) == (1, 1, 1)
    inst2 = Instance.uniform(2, 2)
    assert antipodal_next(inst2, (0, 1)) == (1, 0)


def test_antipodal_unique_unsatisfied():
    inst = Instance.uniform(3, 2)
    for current in itertools.product((0, 1), repeat=3):
        r = antipodal_next(inst, current)
        assert not satisfies(current, r)
        for other in itertools.product((0, 1), repeat=3):
            if other != current:
                assert satisfies(other, r)


def test_antipodal_needs_two_point_metrics():
    with pytest.raises(InvalidInputError):
        antipodal_next(Instance.make([2, 3]), (0, 0))


def test_evasive_never_satisfied_and_reproducible():
    inst = Instance.make([2, 3, 5])
    for seed in range(5):
        rng1, rng2 = random.Random(seed), random.Random(seed)
        cur = (0, 1, 4)
        stream1 = [evasive_next(inst, cur, rng1) for _ in range(50)]
        stream2 = [evasive_next(inst, cur, rng2) for _ in range(50)]
        assert stream1 == stream2
        for r in stream1:
            assert not satisfies(cur, r)


def test_evasive_on_two_points_is_antipodal():
    inst = Instance.uniform(4, 2)
    rng = random.Random(0)
    for current in itertools.product((0, 1), repeat=4):
        assert evasive_next(inst, current, rng) == antipodal_next(inst, current)


def test_evasive_refuses_malformed_configurations():
    inst = Instance.uniform(2, 3)
    for current in ((-1, 0), (1.5, 0), (True, 0), ("a", 0), (0, -2), (0, None)):
        with pytest.raises(InvalidInputError, match="must hold ints >= 0"):
            evasive_next(inst, current, random.Random(0))
    with pytest.raises(InvalidInputError, match="expected 2"):
        evasive_next(inst, (0,), random.Random(0))
    # a virtual point (x >= n) is a configuration, and any request misses it
    for seed in range(5):
        r = evasive_next(inst, (3, 7), random.Random(seed))
        assert len(r) == 2 and all(0 <= x < 3 for x in r)


# (sizes, configurations to draw from): two-point metrics, where evasive
# traffic is the antipodal request, virtual points, and k up to 8
DRAW_CASES = [
    ((2, 2), [(0, 0), (1, 0), (0, 1), (1, 1)]),
    ((2,) * 5, [(0, 1, 0, 1, 1), (1,) * 5]),
    ((3, 4, 4), [(0, 1, 2), (2, 3, 0), (3, 4, 9), (0, 4, 3)]),
    ((3, 3), [(0, 0), (2, 1), (3, 3), (5, 0)]),
    ((5, 2, 7, 3, 17, 2), [(4, 1, 6, 0, 16, 0), (5, 2, 7, 3, 17, 2)]),
    ((3,) * 8, [(0,) * 8, (2, 1, 0, 3, 2, 1, 0, 4)]),
    ((4, 5, 6, 7, 8, 9, 10, 33), [(3, 4, 5, 6, 7, 8, 9, 32), (0, 9, 0, 9, 0, 9, 0, 40)]),
]


@pytest.mark.parametrize("sizes, configurations", DRAW_CASES)
def test_evasive_draws_match_the_randrange_oracle(sizes, configurations):
    inst = Instance.make(sizes)
    for seed in range(40):
        ours, theirs = random.Random(seed), random.Random(seed)
        for t in range(60):
            current = configurations[t % len(configurations)]
            r = evasive_next(inst, current, ours)
            assert r == helpers.evasive_next(inst, current, theirs)
            assert not satisfies(current, r)
            if set(sizes) == {2}:
                assert r == antipodal_next(inst, current)
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("sizes", [case[0] for case in DRAW_CASES])
def test_random_traffic_matches_the_randrange_oracle(sizes):
    inst = Instance.make(sizes)
    for seed in range(40):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [random_request(inst, ours) for _ in range(30)] == [
            helpers.random_request(inst, theirs) for _ in range(30)]
        assert ours.random() == theirs.random()
        oracle = random.Random(seed)
        assert random_sequence(inst, 30, seed) == [
            helpers.random_request(inst, oracle) for _ in range(30)]


def test_run_evasive_matches_the_randrange_oracle():
    # closed loop on a weighted run, whose tour parks servers on virtual points
    from gks.weighted import WeightedAlgorithm

    inst = Instance.make([3, 4, 4], [1, 6, 396])
    for seed in range(3):
        alg = WeightedAlgorithm(inst, keep_transcript=False, record_point_counts=False)
        seq = run_evasive(alg, 400, seed)
        replay = WeightedAlgorithm(inst, keep_transcript=False, record_point_counts=False)
        rng = random.Random(seed)
        parked = 0
        for r in seq:
            parked += any(map(int.__ge__, replay.current, inst.sizes))
            assert r == helpers.evasive_next(inst, replay.current, rng)
            replay.serve(r)
        assert replay.total_cost == alg.total_cost
        assert parked > 0


def test_run_evasive_forces_every_request():
    inst = Instance.uniform(2, 4)
    alg = GenericAlgorithm(inst)
    seq = run_evasive(alg, 100, seed=5)
    assert len(seq) == 100
    assert all(s.moved for s in alg.transcript)
    assert alg.total_cost >= 100


def test_closed_loop_single_server():
    inst = Instance.uniform(1, 2)
    alg = GenericAlgorithm(inst)
    result = run_closed_loop(alg, rounds=6)
    assert result.rounds_completed == 6
    # one move per round visits both points; a clairvoyant mover pays at
    # most one per round as well
    assert result.algorithm_cost >= 6
    assert opt_cost(inst, (0,), result.requests) <= 6


def test_closed_loop_terminates_and_pays_per_round():
    for alg_id in ["det", "alt", "rand"]:
        for k in [2, 3, 4]:
            inst = Instance.uniform(k, 2)
            cls = ALGORITHMS[alg_id]
            alg = cls(inst, 3) if cls is RandomizedAlgorithm else cls(inst)
            result = run_closed_loop(alg, rounds=3)
            assert result.adversary_model == (
                "oblivious-invalid" if alg_id == "rand" else "deterministic")
            # visiting 2^k configurations takes at least 2^k - 1 paid moves
            for length in result.round_lengths:
                assert length >= 2 ** k - 1
            assert result.algorithm_cost >= 3 * (2 ** k - 1)


def test_closed_loop_ratio_bound_small():
    inst = Instance.uniform(3, 2)
    alg = GenericAlgorithm(inst)
    result = run_closed_loop(alg, rounds=10)
    opt = opt_cost(inst, (0, 0, 0), result.requests)
    ratio = result.algorithm_cost / opt
    assert ratio >= 0.9 * (2 ** 3 - 1) / 3


def test_closed_loop_step_cap():
    # an algorithm that never moves visits one configuration, so the
    # round's cap of 2^(2k) = 16 steps at k = 2 ends it
    class Parked:
        instance = Instance.uniform(2, 2)
        current = (0, 0)

        def serve(self, r):
            pass

    with pytest.raises(ResourceLimitError,
                       match="^round exceeded step cap 16 with 1/4 configurations visited$"):
        run_closed_loop(Parked(), rounds=1)


def test_closed_loop_sequence_replayable(tmp_path):
    from gks.core import read_sequence, write_sequence

    inst = Instance.uniform(2, 2)
    alg = GenericAlgorithm(inst)
    result = run_closed_loop(alg, rounds=4)
    path = tmp_path / "duel.gks"
    write_sequence(path, inst, result.requests)
    inst2, seq2 = read_sequence(path)
    assert seq2 == result.requests
    replay = GenericAlgorithm(inst2)
    replay.run(seq2)
    assert replay.total_cost == result.algorithm_cost
