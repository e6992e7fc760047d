"""Tests for the exact offline optimum and its layer tables."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gks.core import Instance, InvalidInputError, ResourceLimitError
from gks.algorithms import GenericAlgorithm
from gks.adversaries import random_sequence, run_evasive
import gks.offline as offline
from gks.offline import check_caps, opt_cost, work_function_minima

from helpers import (
    CHASER,
    all_configs,
    box_tables,
    brute_force_opt,
    check_coords,
    engine_tables,
    naive_layers,
    scanned_minima,
    two_point_layers,
    weighted_distance,
    work_function_layer,
)


def test_checks_run_in_order_start_caps_requests():
    # a bad start on an instance over the state cap, with requests to serve
    over = Instance.uniform(9, 5)
    for solve in (opt_cost, work_function_minima):
        with pytest.raises(InvalidInputError, match="start configuration"):
            solve(over, (5,) * 9, [(0,) * 9])
        with pytest.raises(ResourceLimitError, match="state space"):
            solve(over, (0,) * 9, [(5,) * 9])
        # 10 requests: box work 20 over the cap of 19, and a bad request
        with pytest.raises(ResourceLimitError, match="box work 20"):
            solve(Instance.uniform(2, 2), (0, 0), [(5, 5)] * 10, work_cap=19)
        with pytest.raises(InvalidInputError, match="request"):
            solve(Instance.uniform(2, 2), (0, 0), [(5, 5)] * 10, work_cap=20)


def test_single_request_example():
    inst = Instance.uniform(2, 2)
    assert opt_cost(inst, (0, 0), [(1, 1)]) == 1


def test_zero_when_start_satisfies_everything():
    inst = Instance.uniform(2, 3)
    assert opt_cost(inst, (1, 2), [(1, 0), (0, 2), (1, 2)]) == 0
    assert opt_cost(inst, (0, 0), []) == 0
    # the start is checked even when there is nothing to serve
    with pytest.raises(InvalidInputError, match="start configuration"):
        opt_cost(Instance.uniform(2, 2), (9, 9), [])


def test_minima_of_no_requests_need_no_table():
    # 1,953,125 states, far over the state cap, but no request reads them
    inst = Instance.uniform(9, 5)
    assert work_function_minima(inst, (0,) * 9, []) == [0]
    with pytest.raises(InvalidInputError, match="start configuration"):
        work_function_minima(inst, (5,) * 9, [])


def test_alternating_requests_one_move():
    inst = Instance.uniform(2, 2)
    seq = [(1, 1), (0, 0), (1, 1), (0, 0)]
    # moving to (1,0) serves both alternating requests forever
    assert opt_cost(inst, (0, 0), seq) == 1
    assert brute_force_opt(inst, (0, 0), seq) == 1


def test_matches_brute_force_uniform():
    rng = random.Random(13)
    for trial in range(25):
        k = rng.randrange(1, 4)
        n = rng.randrange(2, 4)
        if n ** k > 9:
            n = 2
        inst = Instance.uniform(k, n)
        steps = rng.randrange(1, 6)
        seq = random_sequence(inst, steps, seed=trial)
        start = tuple(rng.randrange(n) for _ in range(k))
        assert opt_cost(inst, start, seq) == brute_force_opt(inst, start, seq)


def test_matches_brute_force_weighted():
    rng = random.Random(17)
    inst = Instance.make([2, 3], [1, "7/2"])
    for trial in range(12):
        steps = rng.randrange(1, 5)
        seq = [(rng.randrange(2), rng.randrange(3)) for _ in range(steps)]
        start = (rng.randrange(2), rng.randrange(3))
        got = opt_cost(inst, start, seq)
        assert got == brute_force_opt(inst, start, seq)
        assert isinstance(got, Fraction)


def test_matches_brute_force_larger_state_space_short_horizon():
    # 81 states; horizon kept to 2 so the trajectory product stays enumerable
    inst = Instance.uniform(4, 3)
    rng = random.Random(29)
    for trial in range(3):
        seq = random_sequence(inst, 2, seed=trial)
        start = tuple(rng.randrange(3) for _ in range(4))
        assert opt_cost(inst, start, seq) == brute_force_opt(inst, start, seq)


def test_layer_zero_is_distance_from_start():
    inst = Instance.uniform(2, 3)
    start = (1, 2)
    layer = work_function_layer(inst, start, [], 0)
    for q in all_configs(inst.sizes):
        assert layer[q] == weighted_distance(start, q, inst.weights)


def test_minima_match_layers_and_opt():
    inst = Instance.uniform(2, 3)
    seq = random_sequence(inst, 10, seed=4)
    minima = work_function_minima(inst, (0, 0), seq)
    assert len(minima) == 11
    for t, value in enumerate(minima):
        assert value == min(work_function_layer(inst, (0, 0), seq, t).values())
    assert minima[-1] == opt_cost(inst, (0, 0), seq)


def test_caps_raise_with_offending_product():
    inst = Instance.uniform(5, 4)  # 1024 states
    with pytest.raises(ResourceLimitError, match="1024"):
        opt_cost(inst, (0,) * 5, [(1,) * 5], state_cap=1000)
    inst2 = Instance.uniform(2, 2)
    with pytest.raises(ResourceLimitError, match="cap"):
        opt_cost(inst2, (0, 0), [(1, 1)] * 100, work_cap=10)
    with pytest.raises(ResourceLimitError, match=r"\(= 100 \* 2 \* 1\)"):
        opt_cost(inst2, (0, 0), [(1, 1)] * 100, work_cap=199)
    assert opt_cost(inst2, (0, 0), [(1, 1)] * 100, work_cap=200) == 1


def test_opt_at_least_complete_phases():
    rng = random.Random(3)
    for trial in range(8):
        k = rng.randrange(1, 4)
        n = rng.randrange(2, 4)
        inst = Instance.uniform(k, n)
        seq = random_sequence(inst, 60, seed=trial + 50)
        alg = GenericAlgorithm(inst)
        alg.run(seq)
        complete = sum(1 for ps in alg.phase_summaries if ps.complete)
        assert opt_cost(inst, (0,) * k, seq) >= complete


@st.composite
def offline_cases(draw):
    """An instance with k <= 4, sizes 2..4 and positive rational weights,
    any start and up to 25 requests."""
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(2, 4), min_size=k, max_size=k))
    weights = draw(st.lists(st.builds(Fraction, st.integers(1, 30), st.integers(1, 8)),
                            min_size=k, max_size=k))
    point = st.tuples(*(st.integers(0, n - 1) for n in sizes))
    return Instance.make(sizes, weights), draw(point), draw(st.lists(point, max_size=25))


def check_against_naive_layers(inst, start, seq):
    """Every layer, the minima and the optimum against `naive_layers`."""
    layers = naive_layers(inst, start, seq)
    for t, layer in enumerate(layers):
        assert work_function_layer(inst, start, seq, t) == layer
    minima = [min(layer.values()) for layer in layers]
    assert work_function_minima(inst, start, seq) == minima
    assert opt_cost(inst, start, seq) == minima[-1]


@settings(max_examples=100, deadline=None)
@given(offline_cases())
def test_layers_match_naive_definition(case):
    inst, start, seq = case
    check_against_naive_layers(inst, start, seq)
    # explicit trajectories, while their number stays small
    if len(seq) <= 4 and inst.state_count() ** len(seq) <= 50_000:
        assert opt_cost(inst, start, seq) == brute_force_opt(inst, start, seq)


@settings(max_examples=60, deadline=None)
@given(offline_cases())
def test_layers_are_lipschitz_and_min_monotone(case):
    # The box update rests on every layer being Lipschitz in the weighted
    # distance.  d(a, b) is a sum of per-axis terms, so checking the pairs
    # that differ on one axis i (|v[a] - v[b]| <= wᵢ) covers every pair.
    inst, start, seq = case
    prev_min = Fraction(0)
    for t in range(len(seq) + 1):
        layer = work_function_layer(inst, start, seq, t)
        for q, value in layer.items():
            for i, (n, w) in enumerate(zip(inst.sizes, inst.weights)):
                for y in range(q[i] + 1, n):
                    other = layer[q[:i] + (y,) + q[i + 1:]]
                    assert abs(value - other) <= w
        cur_min = min(layer.values())
        assert cur_min >= prev_min
        prev_min = cur_min


@pytest.mark.parametrize("k", [5, 6, 7])
@pytest.mark.parametrize("unit", [True, False])
def test_two_point_layers_match_naive_definition(k, unit):
    # on two points the box of a request is one cell
    rng = random.Random(100 * k + unit)
    weights = None if unit else [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k)]
    inst = Instance.make([2] * k, weights)
    start = tuple(rng.randrange(2) for _ in range(k))
    seq = random_sequence(inst, 6, seed=k)
    layers = naive_layers(inst, start, seq)
    for t, layer in enumerate(layers):
        assert work_function_layer(inst, start, seq, t) == layer
    assert opt_cost(inst, start, seq) == min(layers[-1].values())


@st.composite
def two_point_cases(draw):
    """An instance with k <= 7, every metric of two points and positive
    rational weights, any start and up to 25 requests."""
    k = draw(st.integers(1, 7))
    weights = draw(st.lists(st.builds(Fraction, st.integers(1, 30), st.integers(1, 8)),
                            min_size=k, max_size=k))
    point = st.tuples(*(st.integers(0, 1) for _ in range(k)))
    return Instance.make([2] * k, weights), draw(point), draw(st.lists(point, max_size=25))


@settings(max_examples=30, deadline=None)
@given(two_point_cases())
def test_two_point_step_matches_naive_definition(case):
    # offline_cases rarely draws every size 2 at k >= 4, where the
    # two-point step runs
    check_against_naive_layers(*case)


@st.composite
def minima_cases(draw):
    """Any start and up to 80 requests on an instance with k <= 4, every
    metric of 3 to 5 points and positive rational weights, or with k <= 9,
    every metric of two points and the weights 2ʲ in any order, whose
    distinct subset sums keep few cells at the minimum, so it often rises
    out from under them."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 9))
        sizes = [2] * k
        weights = draw(st.permutations([2 ** j for j in range(k)]))
    else:
        k = draw(st.integers(1, 4))
        sizes = draw(st.lists(st.integers(3, 5), min_size=k, max_size=k))
        weights = draw(st.lists(st.builds(Fraction, st.integers(1, 30), st.integers(1, 8)),
                                min_size=k, max_size=k))
    point = st.tuples(*(st.integers(0, n - 1) for n in sizes))
    return Instance.make(sizes, weights), draw(point), draw(st.lists(point, max_size=80))


@settings(max_examples=80, deadline=None)
@given(minima_cases())
def test_kept_minima_match_the_full_scan(case):
    # the kept minimum and its count against a scan of the whole table
    # after every request, where the box and two-point steps run
    inst, start, seq = case
    assert work_function_minima(inst, start, seq) == scanned_minima(inst, start, seq)


@pytest.mark.parametrize("sizes", [(4,) * 4, (2,) * 9, (3, 5, 4)])
def test_kept_minima_match_the_full_scan_on_long_runs(sizes):
    # long enough that the minimum rises many times, each time a rescan;
    # the weights 2ʲ put the table path under the unit level sets too
    unit = Instance.make(sizes)
    alg = GenericAlgorithm(unit, keep_transcript=False)
    seqs = (random_sequence(unit, 600, seed=5), run_evasive(alg, 600, 5))
    for inst in (unit, Instance.make(sizes, [2 ** j for j in range(len(sizes))])):
        for seq in seqs:
            minima = work_function_minima(inst, (0,) * inst.k, seq)
            assert minima == scanned_minima(inst, (0,) * inst.k, seq)
            assert minima[-1] == opt_cost(inst, (0,) * inst.k, seq)
        assert minima[-1] > 0  # evasive traffic, last, raises the minimum


@st.composite
def unit_cases(draw):
    """A unit-weight instance with k <= 4 and every metric of 3 to 5
    points, where the level sets run, any start and up to 30 requests."""
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(3, 5), min_size=k, max_size=k))
    point = st.tuples(*(st.integers(0, n - 1) for n in sizes))
    return Instance.make(sizes), draw(point), draw(st.lists(point, max_size=30))


def check_levels_against_box_table(inst, start, seq):
    """Every decoded layer against the box table's, and the minima and the
    optimum against the table's minima."""
    tables = []
    for (levels, one), (values, scale) in zip(engine_tables(inst, start, seq),
                                              box_tables(inst, start, seq)):
        assert one == scale == 1
        assert levels == values
        tables.append(levels)
    assert len(tables) == len(seq) + 1
    minima = [min(table) for table in tables]
    assert work_function_minima(inst, start, seq) == minima
    assert opt_cost(inst, start, seq) == minima[-1]
    # the Lipschitz bound that caps the levels at k + 1 values
    assert all(max(table) - min(table) <= inst.k for table in tables)
    return tables


@settings(max_examples=120, deadline=None)
@given(unit_cases())
def test_level_sets_match_box_table_and_naive_definition(case):
    inst, start, seq = case
    tables = check_levels_against_box_table(inst, start, seq)
    if inst.state_count() <= 125:  # the definition compares every pair of cells
        configs = all_configs(inst.sizes)
        for table, layer in zip(tables, naive_layers(inst, start, seq)):
            assert dict(zip(configs, table)) == layer


@pytest.mark.parametrize("sizes", [(4,) * 4, (5,) * 4, (3,) * 8])
def test_level_sets_match_box_table_on_long_runs(sizes):
    # long enough that the minimum rises several times, each time a
    # renormalization of the levels
    inst = Instance.make(sizes)
    rng = random.Random(len(sizes) * 10 + sizes[0])
    start = tuple(rng.randrange(n) for n in sizes)
    alg = GenericAlgorithm(inst, keep_transcript=False)
    for seq in (random_sequence(inst, 400, seed=11), run_evasive(alg, 400, 11)):
        minima = [min(table) for table in check_levels_against_box_table(inst, start, seq)]
        assert minima[-1] >= 5


def spy_on_engines(monkeypatch):
    """Record, for every `offline._engine` call, its step's name and the
    calls of its minimum, and count the table scans: `min` over a whole
    table list."""
    calls = {"steps": [], "minimum": 0, "scans": 0}
    real_engine = offline._engine

    def engine(*args):
        scale, step, minimum = real_engine(*args)
        calls["steps"].append(step.__name__)

        def spied(*cap):
            calls["minimum"] += 1
            return minimum(*cap)
        return scale, step, spied

    def spied_min(*args, **kwargs):
        if len(args) == 1 and type(args[0]) is list:
            calls["scans"] += 1
        return min(*args, **kwargs)
    monkeypatch.setattr(offline, "_engine", engine)
    monkeypatch.setattr(offline, "min", spied_min, raising=False)
    return calls


ENGINE_CASES = {
    "all two-point": (Instance.make([2, 2, 2]), "two_point_step"),
    "two-point, weighted": (Instance.make([2, 2], [1, "5/2"]), "two_point_step"),
    "unit, every size >= 3": (Instance.make([3, 5, 4]), "level_step"),
    "weighted": (Instance.make([3, 3], [1, 7]), "box_step"),
    "equal weights other than 1": (Instance.make([3, 3], [2, 2]), "box_step"),
    "mixed, unit": (Instance.make([2, 3, 3]), "box_step"),
}


def test_each_instance_class_gets_its_engine(monkeypatch):
    calls = spy_on_engines(monkeypatch)
    for what, (inst, step) in ENGINE_CASES.items():
        seq = random_sequence(inst, 20, seed=1)
        for solve in (opt_cost, work_function_minima):
            calls["steps"].clear()
            solve(inst, (0,) * inst.k, seq)
            assert calls["steps"] == [step], what


def test_opt_cost_scans_a_table_at_most_once(monkeypatch):
    calls = spy_on_engines(monkeypatch)
    for what, (inst, step) in ENGINE_CASES.items():
        for seq in (random_sequence(inst, 200, seed=3),
                    run_evasive(GenericAlgorithm(Instance.make(inst.sizes)), 200, 3)):
            calls.update(minimum=0, scans=0)
            opt = opt_cost(inst, (0,) * inst.k, seq)
            assert opt > 0, what
            assert calls["minimum"] == 1, what
            assert calls["scans"] <= (step != "level_step"), what
            # the pass that reads every minimum makes a minimum call per layer
            calls.update(minimum=0)
            assert work_function_minima(inst, (0,) * inst.k, seq)[-1] == opt
            assert calls["minimum"] == len(seq) + 1, what


def test_minima_refuse_one_scanned_cell_past_the_work_cap(monkeypatch):
    inst = Instance.make([2] * 4, [1, 2, 4, 8])
    start = (0,) * 4
    assert opt_cost(inst, start, CHASER, work_cap=160) == 11
    with pytest.raises(ResourceLimitError, match=r"^box work 160 .* exceeds cap 159$"):
        opt_cost(inst, start, CHASER, work_cap=159)
    calls = spy_on_engines(monkeypatch)
    minima = work_function_minima(inst, start, CHASER, work_cap=176)
    assert minima == scanned_minima(inst, start, CHASER)
    assert minima[-1] == 11 and calls["scans"] == 11
    with pytest.raises(ResourceLimitError,
                       match=r"^minimum scans read 176 cells \(= 11 \* 16\) past cap 175$"):
        work_function_minima(inst, start, CHASER, work_cap=175)


@pytest.mark.parametrize("k", [10, 11, 12, 13])
def test_two_point_step_matches_tuple_box_rule_at_large_k(k):
    rng = random.Random(k)
    inst = Instance.make([2] * k, [Fraction(rng.randint(1, 9), rng.randint(1, 4))
                                   for _ in range(k)])
    start = tuple(rng.randrange(2) for _ in range(k))
    seq = random_sequence(inst, 30, seed=k)
    minima = [min(layer.values()) for layer in two_point_layers(inst, start, seq)]
    assert work_function_minima(inst, start, seq) == minima
    # the generator has finished, so its one table is the last layer
    *_, last = two_point_layers(inst, start, seq)
    assert work_function_layer(inst, start, seq, len(seq)) == last


def test_cap_messages_print_large_counts_as_a_bound():
    wide = Instance.uniform(70, 2)
    with pytest.raises(ResourceLimitError, match=r"^state space >10\^18 exceeds cap >10\^18$"):
        check_caps(wide, 1, state_cap=2 ** 70 - 1)
    check_caps(wide, 0, state_cap=2 ** 70)  # compared exactly past the printed bound
    with pytest.raises(ResourceLimitError,
                       match=r"^box work >10\^18 \(= >10\^18 \* 3 \* 1\) exceeds cap 50000000$"):
        check_caps(Instance.uniform(3, 2), 10 ** 19)
    with pytest.raises(ResourceLimitError, match=r"^box work 24 \(= 3 \* 2 \* 4\) exceeds cap 23$"):
        check_caps(Instance.make([3, 3]), 3, work_cap=23)


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except InvalidInputError as e:
        return type(e).__name__, str(e)


@st.composite
def lists_with_bad_requests(draw):
    """A valid start and request list at k <= 4, with one or two bad
    requests (a bool, a float, None, an int out of range or negative, a
    wrong length, or no request at all) put at random positions."""
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(2, 3), min_size=k, max_size=k))
    inst = Instance.make(sizes)
    point = st.tuples(*(st.integers(0, n - 1) for n in sizes))
    requests = draw(st.lists(point, max_size=12))
    for _ in range(draw(st.integers(1, 2))):
        r = list(draw(point))
        kind = draw(st.sampled_from(["bool", "float", "none", "high", "negative",
                                     "long", "short", "no request"]))
        i = draw(st.integers(0, k - 1))
        if kind == "long":
            r.append(0)
        elif kind == "short":
            r.pop()
        elif kind == "no request":
            r = None
        else:
            r[i] = {"bool": bool(r[i]), "float": float(r[i]), "none": None,
                    "high": sizes[i], "negative": -1}[kind]
        requests.insert(draw(st.integers(0, len(requests))), r)
    return inst, draw(point), requests


@settings(max_examples=200, deadline=None)
@given(lists_with_bad_requests())
def test_request_list_check_names_the_first_bad_request(case):
    inst, start, requests = case

    def first_bad():
        for r in requests:
            check_coords(inst, r)

    expected = outcome(first_bad)
    assert expected[0] != "ok"
    assert outcome(opt_cost, inst, start, requests) == expected
    assert outcome(work_function_minima, inst, start, requests) == expected


@settings(max_examples=50, deadline=None)
@given(offline_cases())
def test_requests_as_lists_read_as_tuples(case):
    inst, start, seq = case
    lists = [list(r) for r in seq]
    assert opt_cost(inst, start, lists) == opt_cost(inst, start, seq)
    assert work_function_minima(inst, start, lists) == work_function_minima(inst, start, seq)
