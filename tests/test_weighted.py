"""Tests for constants, weight rounding, and the recursive weighted algorithm."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gks.algorithms import ALGORITHMS, RandomizedAlgorithm
from gks.core import (
    Instance,
    InvalidInputError,
    InvariantViolationError,
    ResourceLimitError,
    satisfies,
)
from gks.adversaries import evasive_next, random_request, run_evasive
from gks.weighted import (
    MAX_REPORT_DIGITS,
    WeightedAlgorithm,
    default_tour_sizes,
    learning_topk,
    round_weights,
)

from helpers import ratio_targets


def run_weighted(alg, steps, seed, after_serve=None):
    """Feed never-satisfied requests so every one of them counts."""
    rng = random.Random(seed)
    inst = alg.instance
    for _ in range(steps):
        alg.serve(evasive_next(inst, tuple(p % n for p, n in zip(alg.current, inst.sizes)), rng))
        if after_serve is not None:
            after_serve(alg)
    alg.finalize()


def assert_current_is_level_positions(alg):
    # levels 2..k; the bottom server is the first coordinate itself
    assert len(alg.current) == alg.instance.k
    assert alg.current[1:] == tuple(level.pos for level in alg._levels)


def test_constant_values():
    assert default_tour_sizes(3) == (2, 32, 8192)
    assert default_tour_sizes(1) == (2,)
    assert ratio_targets(default_tour_sizes(2)) == [256, 65536]


def test_constant_identities():
    # R(i), the paper's per-level ratio target, is read by no program code;
    # its recurrence over the tour sizes is checked against its closed form
    c = default_tour_sizes(7)
    R = ratio_targets(c)
    for i in range(1, 7):
        c_i, r_i = c[i - 1], R[i - 1]
        assert 8 * c_i * c_i == c[i]
        assert 4 * (c_i + 1) * c_i <= c[i]
        if i >= 2:
            assert r_i == 8 * c_i * R[i - 2]
        assert c_i == 2 ** (2 ** (i + 1) - 3)
        assert r_i == 2 ** (2 ** (i + 2))


def test_scaled_table():
    # a scaled tuple of tour sizes replaces the paper's, one per level
    inst = Instance.make([3, 3, 3], [1, 6, 60])
    alg = WeightedAlgorithm(inst, tour_sizes=[2, 4, 8])
    assert alg.tour_sizes == (2, 4, 8) and [level.c for level in alg._levels] == [4, 8]
    assert alg.phase_len_1 == 6 and alg.phase_report()["constants_c"] == [2, 4, 8]
    for bad in ((2, 4), (2, 4, 8, 16), (), (2, 0, 8), (-1, 4, 8)):
        with pytest.raises(InvalidInputError, match="^need 3 tour sizes, each at least 1$"):
            WeightedAlgorithm(inst, tour_sizes=bad)
        with pytest.raises(InvalidInputError):
            round_weights(inst.weights, tour_sizes=bad)


def test_tour_sizes_past_the_printed_digits_are_refused():
    # c(12) has 2,466 digits and c(13) 4,932, past the 4,300 a report prints
    # by default; c(34) would take 4 GiB, so its exponent is checked first
    assert len(str(default_tour_sizes(12)[-1])) == 2466
    WeightedAlgorithm(Instance.uniform(12, 2), keep_transcript=False)
    limit = sys.get_int_max_str_digits()
    for k in (13, 34, 10 ** 6):
        with pytest.raises(ResourceLimitError, match=rf"^tour size c\({k}\) = 2\^\(2\^{k + 1} - 3\) "
                                                     rf"has more than {limit} digits"):
            default_tour_sizes(k)
    for k in (13, 34):
        with pytest.raises(ResourceLimitError):
            WeightedAlgorithm(Instance.uniform(k, 2))
        with pytest.raises(ResourceLimitError):
            round_weights([1] * k)


def test_tour_size_bound_follows_the_interpreter_digit_limit():
    # c(11) has 1,233 digits: a limit of 1,233 prints it, 1,232 does not;
    # with the limit switched off the fixed bound still applies
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1233)
        assert default_tour_sizes(11)[-1] == 2 ** 4093
        sys.set_int_max_str_digits(1232)
        with pytest.raises(ResourceLimitError, match="more than 1232 digits"):
            default_tour_sizes(11)
        sys.set_int_max_str_digits(0)
        assert len(str(default_tour_sizes(17)[-1])) <= MAX_REPORT_DIGITS
        with pytest.raises(ResourceLimitError, match=f"more than {MAX_REPORT_DIGITS} digits"):
            default_tour_sizes(18)
    finally:
        sys.set_int_max_str_digits(limit)


def test_rounded_weights_past_the_printed_digits_are_refused():
    # 1/70 then 10^4299 rounds to a multiple of 6 near 7 * 10^4300: 4,301
    # digits; 10^4298 rounds to 4,300, the most a report prints
    limit = sys.get_int_max_str_digits()
    fits = round_weights([Fraction(1, 70), 10 ** (limit - 2)])
    assert len(str(fits.rounded[1])) == limit
    with pytest.raises(ResourceLimitError,
                       match=f"^level 2's rounded weight has more than {limit} digits"):
        round_weights([Fraction(1, 70), 10 ** (limit - 1)])
    with pytest.raises(ResourceLimitError):
        WeightedAlgorithm(Instance.make([3, 3], [Fraction(1, 70), 10 ** (limit - 1)]))
    # at the unit 2 (1 + 49) = 100, 10^limit - 50 rounds up to 10^limit
    # itself, one digit too many
    fits = round_weights([1, 10 ** limit - 100], tour_sizes=(49, 49))
    assert fits.rounded[1] == 10 ** limit - 100
    with pytest.raises(ResourceLimitError):
        round_weights([1, 10 ** limit - 50], tour_sizes=(49, 49))


def test_round_weights_examples():
    rw = round_weights([1, 7])
    assert rw.rounded == (1, 12) and rw.multipliers == (2,)
    rw2 = round_weights([1, 6])
    assert rw2.rounded == (1, 6) and rw2.multipliers == (1,)
    rw3 = round_weights([2, 12])  # normalization: same as (1, 6)
    assert rw3.rounded == (1, 6) and rw3.multipliers == (1,)
    rw4 = round_weights([Fraction(1), Fraction(13, 2)])
    assert rw4.rounded == (1, 12) and rw4.multipliers == (2,)


def test_round_weights_orders():
    # an error prints the weights as written
    with pytest.raises(InvalidInputError, match="^weights must be ascending, got 7,1$"):
        round_weights([7, 1])
    with pytest.raises(InvalidInputError, match="^weights must be ascending, got 7/2,1$"):
        round_weights([Fraction(7, 2), 1])
    with pytest.raises(InvalidInputError):
        round_weights([])
    with pytest.raises(InvalidInputError, match="^weights must be positive, got 0,1$"):
        round_weights([0, 1])


def test_round_weights_never_undercuts():
    rng = random.Random(6)
    for _ in range(50):
        k = rng.randrange(1, 4)
        ws = sorted(Fraction(rng.randrange(1, 40), rng.randrange(1, 7)) for _ in range(k))
        rw = round_weights(ws)
        for orig, rounded in zip(ws, rw.rounded):
            assert rounded >= orig / ws[0]


def test_learning_topk():
    assert learning_topk({0: 5, 1: 3, 2: 3}, c=2, n_points=3) == [0, 1]
    assert learning_topk({}, c=2, n_points=2) == [0, 1]
    assert learning_topk({0: 1}, c=2, n_points=1) == [0, 1]  # index 1 is virtual
    assert learning_topk({2: 9, 1: 9, 0: 1}, c=2, n_points=3) == [1, 2]


def test_bottom_level_phase_length():
    # k = 1: 2 (c(1)+1) = 6 counted requests per phase, and every third
    # request is one the bottom server already meets, which counts for nothing
    inst = Instance.make([3], [1])
    alg = WeightedAlgorithm(inst)
    rng = random.Random(0)
    counted = 0
    for t in range(40):
        r = alg.current if t % 3 == 2 else evasive_next(inst, alg.current, rng)
        counted += not satisfies(alg.current, r)
        alg.serve(r)
        assert alg.counted == counted
        assert alg.phase == counted // 6 + 1
        summaries = alg.phase_summaries
        assert [s.phase for s in summaries] == list(range(1, len(summaries) + 1))
        assert [s.complete for s in summaries] == [s.phase <= counted // 6 for s in summaries]
        assert alg.phase_report()["levels"][0]["complete_phases"] == counted // 6
    assert counted == 27 and alg.phase == 5
    assert alg.phase_summaries[0].requests == 6
    assert alg.phase_summaries[0].cost == 6


def test_filtered_requests_change_nothing():
    inst = Instance.make([3, 3], [1, 7])
    alg = WeightedAlgorithm(inst)
    run_weighted(alg, 20, seed=1)
    counted = alg.counted
    cost = alg.total_cost
    level2 = alg._levels[0]

    def snapshot():
        return (dict(level2.counts), level2.opened, alg.charged, alg.phase,
                json.dumps(level2.record, sort_keys=True))

    before = snapshot()
    step = alg.serve((alg.current[0], 0))  # satisfied via the bottom server
    assert step.cost == 0 and not step.moved
    assert alg.counted == counted and alg.filtered == 1
    assert alg.total_cost == cost
    assert snapshot() == before


def test_two_level_anatomy_default_constants():
    inst = Instance.make([3, 3], [1, 7])
    alg = WeightedAlgorithm(inst)
    assert alg.rounded.rounded == (1, 12)
    # one complete phase = 33 subphases of 2 bottom phases of 6 requests
    run_weighted(alg, 2 * 396 + 100, seed=3)
    level2 = alg._levels[0]
    assert len(level2.phase_records) >= 2
    for rec in level2.phase_records:
        assert rec["subphases"] == 33
        assert rec["total_requests"] == 33 * 2 * 6 == 396
        assert all(x == 12 for x in rec["lower_actual_per_subphase"])
        assert all(x == 12 for x in rec["lower_charged_per_subphase"])
        assert len(rec["move_costs"]) == 32
        targets = rec["pool"][:len(rec["move_costs"])]
        assert len(set(targets)) == 32  # tours 32 distinct pool points
        assert rec["phase_cost_actual"] <= 2 * 33 * 12
        assert rec["fraction_ok"]
        # requests per subphase are equal across the phase
        assert set(rec["requests_per_subphase"]) == {12}


def test_two_level_fraction_breakdown():
    inst = Instance.make([2, 4], [1, 7])
    alg = WeightedAlgorithm(inst)
    run_weighted(alg, 500, seed=8)
    level2 = alg._levels[0]
    assert level2.phase_records
    for rec in level2.phase_records:
        assert "point_counts" in rec
        for p in range(4):
            assert any(counts.get(str(p), 0) * 32 <= nreq
                       for counts, nreq in zip(rec["point_counts"], rec["requests_per_subphase"]))


def test_fraction_flags_match_recorded_counts_in_both_modes():
    # the two-level instance of acceptance criterion 8
    inst = Instance.make([3, 3], [1, 7])
    kept = WeightedAlgorithm(inst, keep_transcript=False)
    lean = WeightedAlgorithm(inst, keep_transcript=False, record_point_counts=False)
    rng = random.Random(8)
    for _ in range(2 * 396 + 200):
        r = evasive_next(inst, kept.current, rng)
        kept.serve(r)
        lean.serve(r)
        level, lean_level = kept._levels[0], lean._levels[0]
        rec = level.record
        assert level.light == [any(counts.get(str(p), 0) * level.c <= nreq
                                   for counts, nreq in zip(rec["point_counts"],
                                                           rec["requests_per_subphase"]))
                               for p in range(level.n_real)]
        assert lean_level.light == level.light
        assert "point_counts" not in lean_level.record
    records, lean_records = kept._levels[0].phase_records, lean._levels[0].phase_records
    assert len(records) == 2
    assert [r["fraction_ok"] for r in records] == [r["fraction_ok"] for r in lean_records]
    assert all("point_counts" not in r for r in lean_records)
    report = kept.phase_report()
    for phase in report["levels"][1]["phases"]:
        del phase["point_counts"]
    assert report == lean.phase_report()


@st.composite
def scaled_runs(draw):
    """Scaled tour sizes at k = 2..4 with multipliers 1 or 2, exact weights for
    them, and evasive or random traffic (random on three or four points)."""
    k = draw(st.integers(2, 4))
    c = (2, *(draw(st.integers(1, 3)) for _ in range(2, k + 1)))
    weights = [1]
    for i in range(2, k + 1):
        weights.append(draw(st.integers(1, 2)) * 2 * (1 + c[i - 2]) * weights[-1])
    traffic = draw(st.sampled_from(["evasive", "random"]))
    low = 3 if traffic == "random" else 2
    sizes = draw(st.lists(st.integers(low, 4), min_size=k, max_size=k))
    return c, Instance.make(sizes, weights), traffic, draw(st.integers(0, 99))


def assert_anatomy_laws(level_report, n_real):
    c, w = level_report["tour_size"], level_report["weight"]
    for entry in level_report["phases"]:
        requests = entry["requests_per_subphase"]
        moves = entry["move_costs"]
        assert entry["subphases"] == len(requests) == c + 1
        assert entry["lower_charged_per_subphase"] == [w] * (c + 1)
        assert len(set(requests)) == 1
        assert len(moves) == c and len(set(entry["pool"][:c])) == c
        assert set(moves) <= {0, w}
        assert entry["total_requests"] == sum(requests)
        assert entry["phase_cost_actual"] == sum(entry["lower_actual_per_subphase"]) + sum(moves)
        assert entry["phase_cost_actual"] <= entry["phase_cost_bound"] == 2 * (c + 1) * w
        assert entry["fraction_ok"] == all(
            any(counts.get(str(p), 0) * c <= nreq
                for counts, nreq in zip(entry["point_counts"], requests))
            for p in range(n_real))


@settings(max_examples=30, deadline=None)
@given(scaled_runs())
def test_every_completed_entry_obeys_the_anatomy_laws(case):
    tour_sizes, inst, traffic, seed = case
    kept = WeightedAlgorithm(inst, keep_transcript=False, tour_sizes=tour_sizes)
    lean = WeightedAlgorithm(inst, keep_transcript=False, tour_sizes=tour_sizes,
                             record_point_counts=False)
    rng = random.Random(seed)
    while kept.phase <= 2:
        if traffic == "evasive":
            r = evasive_next(inst, kept.current, rng)
        else:
            r = random_request(inst, rng)
        kept.serve(r)
        lean.serve(r)
    report = kept.phase_report()
    for level_report, n in zip(report["levels"][1:], inst.sizes[1:]):
        assert level_report["complete_phases"] == len(level_report["phases"])
        assert_anatomy_laws(level_report, n)
    assert report["levels"][-1]["complete_phases"] == 2
    for level_report in report["levels"][1:]:
        for entry in level_report["phases"]:
            del entry["point_counts"]
    assert report == lean.phase_report()


def test_phase_report_entries_are_copies():
    alg = WeightedAlgorithm(Instance.make([3, 3], [1, 7]), keep_transcript=False)
    run_weighted(alg, 2 * 396, seed=7)
    before = json.dumps(alg.phase_report(), sort_keys=True)
    for entry in alg.phase_report()["levels"][1]["phases"]:
        entry["fraction_ok"] = None
        entry["index"] += 100
        del entry["pool"], entry["point_counts"]
    assert json.dumps(alg.phase_report(), sort_keys=True) == before


def test_phase_opening_charged_at_construction():
    # every upper level's first phase opens with a move charged at its
    # weight into the levels above it, before any request is served: a
    # level's ledgers are the run totals' growth since its subphase opened
    alg = WeightedAlgorithm(Instance.make([3, 3, 3, 3], [1, 6, 60, 1080]),
                            tour_sizes=(2, 4, 8, 16))
    w = alg.rounded.rounded
    assert alg.charged == sum(w[1:])
    for i, level in enumerate(alg._levels, start=2):
        actual_at, counted_at, charged_at = level.opened
        assert alg.total_cost - actual_at == 0 and alg.counted - counted_at == 0
        assert alg.charged - charged_at == sum(w[j - 1] for j in range(2, i))


def test_three_level_anatomy_scaled_constants():
    inst = Instance.make([3, 3, 3], [1, 6, 60])
    alg = WeightedAlgorithm(inst, tour_sizes=(2, 4, 8))
    assert alg.rounded.rounded == (1, 6, 60)
    assert alg.rounded.multipliers == (1, 1)
    # level-2 phase: 5 subphases x 1 x 6 = 30 requests
    # level-3 phase: 9 subphases x 1 x 30 = 270 requests
    run_weighted(alg, 2 * 270 + 30, seed=4)
    l2, l3 = alg._levels
    assert len(l3.phase_records) >= 2
    for rec in l3.phase_records:
        assert rec["subphases"] == 9
        assert rec["total_requests"] == 270
        assert all(x == 60 for x in rec["lower_charged_per_subphase"])
        assert all(x <= 60 for x in rec["lower_actual_per_subphase"])
        assert len(rec["move_costs"]) == 8
    for rec in l2.phase_records:
        assert rec["subphases"] == 5
        assert rec["total_requests"] == 30
        assert all(x == 6 for x in rec["lower_charged_per_subphase"])
    # complete same-level phases all contain the same number of requests
    assert len({rec["total_requests"] for rec in l3.phase_records}) == 1
    assert len({rec["total_requests"] for rec in l2.phase_records}) == 1


def test_top_cost_bound_per_phase():
    inst = Instance.make([2, 2], [1, 9])
    alg = WeightedAlgorithm(inst)
    run_weighted(alg, 900, seed=5)
    level2 = alg._levels[0]
    w2 = alg.rounded.rounded[1]
    for rec in level2.phase_records:
        assert rec["phase_cost_actual"] <= 2 * (level2.c + 1) * w2


def test_phase_report_shape():
    inst = Instance.make([3, 3], [1, 7])
    alg = WeightedAlgorithm(inst)
    run_weighted(alg, 450, seed=2)
    report = alg.phase_report()
    assert report["rounded_weights"] == [1, 12]
    assert report["multipliers"] == [2]
    assert report["levels"][0]["requests_per_phase"] == 6
    level2 = report["levels"][1]
    assert level2["tour_size"] == 32
    if level2["phases"]:
        phase = level2["phases"][0]
        assert phase["subphases"] == 33
        assert phase["phase_cost_bound"] == 2 * 33 * 12
        assert "point_counts" in phase


def test_weighted_serve_moves_reported():
    inst = Instance.make([2, 2], [1, 7])
    alg = WeightedAlgorithm(inst)
    rng = random.Random(0)
    moved_costs = set()
    for _ in range(200):
        r = evasive_next(inst, tuple(p % n for p, n in zip(alg.current, inst.sizes)), rng)
        step = alg.serve(r)
        moved_costs.add(step.cost)
    # every counted request pays the bottom weight; boundary moves add 12
    assert 1 in moved_costs and 13 in moved_costs


@pytest.mark.parametrize("sizes, weights, table, steps", [
    ([3, 3], [1, 7], None, 2 * 396 + 100),
    ([3, 3, 3, 3], [1, 6, 60, 1080], (2, 4, 8, 16), 2 * 4590 + 300),
])
def test_cached_configuration_matches_level_positions(sizes, weights, table, steps):
    alg = WeightedAlgorithm(Instance.make(sizes, weights), tour_sizes=table)
    assert_current_is_level_positions(alg)
    run_weighted(alg, steps, seed=6, after_serve=assert_current_is_level_positions)
    assert len(alg._levels[-1].phase_records) >= 2 and alg.phase >= 3
    alg.serve((alg.current[0],) + (0,) * (len(sizes) - 1))
    assert alg.filtered == 1
    assert_current_is_level_positions(alg)


def test_subphase_close_checks_actual_against_charged():
    alg = WeightedAlgorithm(Instance.make([3, 3], [1, 7]))
    run_weighted(alg, 5, seed=1)
    # a cost paid but never charged: the level-2 subphase closes at 12
    # charged, with more than that actually spent below
    alg.total_cost += 12
    with pytest.raises(InvariantViolationError, match="above its charged cost 12"):
        run_weighted(alg, 12, seed=2)


def test_three_level_report_pinned():
    # sizes (3,4,4), weights (1,6,396), default constants: 101 complete
    # level-2 phases, the level-3 phase still open
    alg = WeightedAlgorithm(Instance.make([3, 4, 4], [1, 6, 396]))
    run_evasive(alg, 20_000, seed=0)
    report = json.dumps(alg.phase_report(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == \
        "af74f49a952faaa592db66426584b88ae2dd3138a04347be2b133d31e12002e7"
    assert alg.total_cost == 79388


@pytest.mark.parametrize("alg_id, sizes", [
    ("det", [3, 3]), ("alt", [3, 3]), ("rand", [3, 3]),
    ("weighted", [3]), ("weighted", [3, 3]),
])
def test_serving_after_finalize_keeps_one_summary_per_phase(alg_id, sizes):
    if alg_id == "weighted":
        alg = WeightedAlgorithm(Instance.make(sizes, [1, 7][:len(sizes)]),
                                keep_transcript=False)
    else:
        cls = ALGORITHMS[alg_id]
        inst = Instance.make(sizes)
        alg = cls(inst, 5) if cls is RandomizedAlgorithm else cls(inst)
    rng = random.Random(4)
    for t in range(1, 1001):
        alg.serve(evasive_next(alg.instance, alg.current, rng))
        if t % 37 == 0:
            alg.finalize()
    alg.finalize()
    phases = [s.phase for s in alg.phase_summaries]
    assert phases == list(range(1, len(phases) + 1))
    assert all(s.complete for s in alg.phase_summaries[:-1])
    assert sum(s.requests for s in alg.phase_summaries) == 1000


def test_round_weights_prints_only_the_weights_of_its_errors():
    # a weight with more digits than `str` prints is no ValueError: past the
    # first weight it is a rounded weight too long for a report, and in an
    # error message it shows as the most digits `str` prints
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ResourceLimitError, match="^level 2's rounded weight has more than"):
        round_weights([1, 10 ** limit])
    with pytest.raises(InvalidInputError,
                       match=rf"^weights must be ascending, got <more than {limit} digits>,1$"):
        round_weights([10 ** limit, 1])
    with pytest.raises(InvalidInputError,
                       match=rf"^weights must be positive, got 0,<more than {limit} digits>$"):
        round_weights([0, 10 ** limit])
