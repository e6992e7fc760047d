"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The simulation corpus (criteria 1, 2, 4) is built once per session: 200
seeded sequences of 2000 steps spread over every (k, n) combination with
k in 2..8 and n in 2..5, alternating random and never-satisfied traffic.
Budget-heavy combinations get fewer sequences, but every combination is
covered and the total is exactly 200.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from gks.core import Instance, satisfies
from gks.algorithms import (
    DistributionTracker,
    GenericAlgorithm,
    RandomizedAlgorithm,
)
from gks.adversaries import random_sequence, run_closed_loop, run_evasive
from gks.certify import (
    audit_family_counts,
    audit_phase_motion,
    audit_potential_step,
    build_phase_matrix,
    certify_transcript,
    forced_rows,
    harmonic,
    initial_potential,
    phases_of,
    verify_certificate,
)
from gks.offline import opt_cost
from gks.weighted import WeightedAlgorithm, default_tour_sizes, round_weights

from helpers import (
    dimension,
    family_patterns,
    family_union,
    members,
    plant,
    ratio_targets,
    replay_space_choices,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    marker = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {marker} - {detail}")


# ---------------------------------------------------------------------------
# Shared simulation corpus
# ---------------------------------------------------------------------------

def corpus_plan():
    # heavier combinations run fewer sequences; totals stay at exactly 200
    per_k7 = {2: 4, 3: 4, 4: 3, 5: 3}
    per_k8 = {2: 4, 3: 2, 4: 2, 5: 2}
    plan = []
    seq_id = 0
    for k in range(2, 9):
        for n in range(2, 6):
            if k <= 5:
                count = 9
            elif k == 6:
                count = 8
            else:
                count = (per_k7 if k == 7 else per_k8)[n]
            for j in range(count):
                kind = "random" if j % 2 == 0 else "evasive"
                plan.append((k, n, kind, seq_id))
                seq_id += 1
    return plan


@dataclass
class PhaseStat:
    k: int
    n: int
    complete: bool
    shrinks: int
    created_by_dim: dict
    duplicate_creations: int


@dataclass
class Corpus:
    sequences: int
    steps_each: int
    combos: int
    phase_stats: list
    cert_results: list          # (k, n, length, verdicts) for every k
    sim_seconds: float
    cert_seconds: float


@pytest.fixture(scope="session")
def corpus():
    plan = corpus_plan()
    assert len(plan) == 200
    steps = 2000
    phase_stats = []
    cert_results = []
    sim_seconds = 0.0
    cert_seconds = 0.0
    for k, n, kind, seq_id in plan:
        inst = Instance.uniform(k, n)
        alg = GenericAlgorithm(inst)
        t0 = time.perf_counter()
        if kind == "random":
            for r in random_sequence(inst, steps, seed=seq_id):
                alg.serve(r)
            alg.finalize()
        else:
            run_evasive(alg, steps, seed=seq_id)
        sim_seconds += time.perf_counter() - t0
        for ps in alg.phase_summaries:
            phase_stats.append(PhaseStat(
                k=k, n=n, complete=ps.complete, shrinks=ps.shrinks,
                created_by_dim=ps.created_by_dim,
                duplicate_creations=ps.duplicate_creations))
        t0 = time.perf_counter()
        for phase, cert, verdicts in certify_transcript(
                inst, alg.transcript, include_incomplete=True):
            cert_results.append((k, n, cert.length, verdicts))
        cert_seconds += time.perf_counter() - t0
    return Corpus(
        sequences=len(plan), steps_each=steps,
        combos=len({(k, n) for k, n, _, _ in plan}),
        phase_stats=phase_stats, cert_results=cert_results,
        sim_seconds=sim_seconds, cert_seconds=cert_seconds)


# ---------------------------------------------------------------------------
# Criterion 1: phase length
# ---------------------------------------------------------------------------

def test_criterion_1_phase_length(corpus):
    violations = [
        ps for ps in corpus.phase_stats if ps.shrinks > 2 ** ps.k
    ]
    complete = sum(1 for ps in corpus.phase_stats if ps.complete)
    ok = not violations and corpus.sequences == 200 and corpus.combos == 28
    report(1, ok, (
        f"phase length: {corpus.sequences} sequences x {corpus.steps_each} steps "
        f"over {corpus.combos} (k,n) combos, {complete} complete phases, "
        f"max shrinks within 2^k everywhere, zero violations "
        f"[sim {corpus.sim_seconds:.1f}s]"))
    assert ok, violations[:5]


# ---------------------------------------------------------------------------
# Criterion 2: matrix certificates
# ---------------------------------------------------------------------------

def test_criterion_2_certificates(corpus):
    bad = [(k, n, length) for k, n, length, v in corpus.cert_results if not v.all_ok]
    # injected corruption must be detected: overwrite a later pre-state with
    # the phase's first pre-state, which violates the first request
    inst = Instance.uniform(3, 3)
    alg = GenericAlgorithm(inst)
    run_evasive(alg, 200, seed=999)
    phase, steps, complete = phases_of(alg.transcript)[0]
    rows = forced_rows(steps)
    assert len(rows) >= 2
    corrupted = list(rows)
    corrupted[-1] = (rows[0][0], corrupted[-1][1])
    detection = not verify_certificate(
        build_phase_matrix(corrupted, inst.k)).triangular
    ok = not bad and detection and len(corpus.cert_results) > 500
    report(2, ok, (
        f"certificates: {len(corpus.cert_results)} phases (k<=8) all "
        f"triangular/nonzero-diagonal/factorized in exact arithmetic; "
        f"injected corruption detected [verify {corpus.cert_seconds:.1f}s]"))
    assert ok, bad[:5]


# ---------------------------------------------------------------------------
# Criterion 3: deterministic competitiveness against the exact optimum
# ---------------------------------------------------------------------------

def test_criterion_3_competitiveness():
    t0 = time.perf_counter()
    checked = 0
    worst = Fraction(0)
    for k in range(1, 5):
        for n in (2, 3):
            inst = Instance.uniform(k, n)
            for kind in ("random", "evasive"):
                for seed in (1, 2):
                    alg = GenericAlgorithm(inst, keep_transcript=False)
                    if kind == "random":
                        seq = random_sequence(inst, 200, seed=seed)
                        alg.run(seq)
                    else:
                        seq = run_evasive(alg, 200, seed=seed)
                    opt = opt_cost(inst, (0,) * k, seq)
                    complete = sum(1 for ps in alg.phase_summaries if ps.complete)
                    bound = k * 2 ** k * (opt + 1)
                    assert alg.total_cost <= bound, (k, n, kind, seed)
                    assert opt >= complete, (k, n, kind, seed)
                    if opt > 0:
                        worst = max(worst, Fraction(alg.total_cost) / opt)
                    checked += 1
    dt = time.perf_counter() - t0
    report(3, True, (
        f"competitiveness: {checked} runs (k<=4, n<=3, T=200): cost within "
        f"k 2^k (opt+1), opt >= complete phases; worst measured ratio "
        f"{float(worst):.2f} [{dt:.1f}s]"))


# ---------------------------------------------------------------------------
# Criterion 4: split equivalence and family creation bounds
# ---------------------------------------------------------------------------

def test_criterion_4_split_and_family_bounds(corpus):
    t0 = time.perf_counter()
    cases = 0
    import itertools
    for k in range(2, 5):
        for n in range(2, 5):
            sizes = [n] * k
            slot_choices = [None] + list(range(n))
            for pat in itertools.product(*([slot_choices] * k)):
                pat_members = list(members(pat, sizes))
                d = dimension(pat)
                for r in itertools.product(*(range(n) for _ in range(k))):
                    fam = plant(pat, n)
                    expected_infeasible = any(not satisfies(c, r) for c in pat_members)
                    assert fam.update(r) == expected_infeasible
                    assert family_union(fam, sizes) == {c for c in pat_members if satisfies(c, r)}
                    if not expected_infeasible:
                        continue
                    assert len(fam) == d and fam.duplicate_creations == 0
                    assert all(dimension(c) == d - 1 for c in family_patterns(fam))
                    cases += 1
    exhaustive_seconds = time.perf_counter() - t0

    audited = 0
    for ps in corpus.phase_stats:
        if ps.k <= 6:
            assert audit_family_counts(ps.created_by_dim, ps.k).ok, ps
            audited += 1
    report(4, True, (
        f"split equivalence: {cases} exhaustive (pattern, request) splits at "
        f"n,k<=4 match member enumeration; creation counts within k!/d! over "
        f"{audited} phases at k<=6 [{exhaustive_seconds:.1f}s]"))


# ---------------------------------------------------------------------------
# Criterion 5: uniform distribution of the tracked space
# ---------------------------------------------------------------------------

def tracker_traces():
    combos = [(2, 4), (3, 3), (4, 3), (5, 2), (5, 4)]
    traces = []
    for k, n in combos:
        inst = Instance.uniform(k, n)
        tracker = DistributionTracker(inst)
        tracker.run(random_sequence(inst, 500, seed=k * 10 + n))
        traces.append((k, n, tracker.steps))
    return traces


@pytest.fixture(scope="session")
def uniformity_traces():
    return tracker_traces()


def test_criterion_5_uniformity(uniformity_traces):
    t0 = time.perf_counter()
    checked_steps = 0
    for k, n, steps in uniformity_traces:
        for rec in steps:
            share = Fraction(1, rec.size_cur)
            assert sum(rec.masses.values()) == 1
            assert all(mass == share for mass in rec.masses.values()), (k, n, rec.index)
            checked_steps += 1

    # Monte-Carlo agreement on one trace: 10^4 seeds, ten spot steps with the
    # largest maximal sets, 3-sigma binomial bounds on the first pattern
    inst = Instance.uniform(4, 3)
    tracker = DistributionTracker(inst)
    trace = tracker.run(random_sequence(inst, 150, seed=77))
    n_seeds = 10_000
    hits = [0] * len(trace)
    for seed in range(n_seeds):
        for t, (space, _, _) in enumerate(replay_space_choices(trace, seed, (0,) * 4)):
            if space == trace[t].patterns[0]:
                hits[t] += 1
    spots = sorted(range(len(trace)), key=lambda t: -trace[t].size_cur)[:10]
    mc_ok = True
    for t in spots:
        p = 1 / trace[t].size_cur
        sigma = math.sqrt(p * (1 - p) / n_seeds)
        freq = hits[t] / n_seeds
        if abs(freq - p) > 3 * sigma:
            mc_ok = False
    dt = time.perf_counter() - t0
    report(5, mc_ok, (
        f"uniformity: exact rational equality at {checked_steps} tracker steps "
        f"(k<=5, n<=4, T=500); Monte-Carlo over {n_seeds} seeds within 3 sigma "
        f"at 10 spot steps (|M| up to {max(trace[t].size_cur for t in spots)}) "
        f"[{dt:.1f}s]"))
    assert mc_ok


# ---------------------------------------------------------------------------
# Criterion 6: potential accounting
# ---------------------------------------------------------------------------

def test_criterion_6_potential(uniformity_traces):
    t0 = time.perf_counter()
    audited = 0
    for k, n, steps in uniformity_traces:
        for rec in steps:
            assert audit_potential_step(rec, k).ok, (k, n, rec.index)
            audited += 1
        for phase_audit in audit_phase_motion(steps, k):
            assert phase_audit.ok, (k, n, phase_audit)
            assert phase_audit.phi_start <= k * harmonic(math.factorial(k))

    # k=3 bound: k * Phi(1) = 3 (H(3) + 2 H(6)) = 101/5 = 20.2 exactly
    bound = 3 * initial_potential(3)
    assert bound == Fraction(101, 5)
    inst = Instance.uniform(3, 3)
    tracker = DistributionTracker(inst)
    trace = tracker.run(random_sequence(inst, 900, seed=5))
    last_phase = trace[-1].phase
    totals = []
    for seed in range(200):
        per_phase = {}
        for rec, (_, _, cost) in zip(trace, replay_space_choices(trace, seed, (0, 0, 0))):
            per_phase[rec.phase] = per_phase.get(rec.phase, 0) + cost
        totals.extend(v for p, v in per_phase.items() if p != last_phase)
    mean_cost = sum(totals) / len(totals)
    ok = mean_cost <= float(bound)
    dt = time.perf_counter() - t0
    report(6, ok, (
        f"potential: {audited} step audits and per-phase motion sums within "
        f"k*Phi(1); k=3 empirical mean phase cost {mean_cost:.2f} <= "
        f"{float(bound):.1f} over 200 seeds x {len(totals) // 200} phases [{dt:.1f}s]"))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: closed-loop lower-bound construction
# ---------------------------------------------------------------------------

def test_criterion_7_lower_bound_duel():
    t0 = time.perf_counter()
    details = []
    ok = True
    for k in (2, 3, 4):
        inst = Instance.uniform(k, 2)
        alg = GenericAlgorithm(inst, keep_transcript=False)
        result = run_closed_loop(alg, rounds=20)
        opt = opt_cost(inst, (0,) * k, result.requests)
        ratio = Fraction(result.algorithm_cost) / opt
        threshold = Fraction(9, 10) * Fraction(2 ** k - 1, k)
        ok &= ratio >= threshold
        details.append(f"k={k}: {float(ratio):.2f}>= {float(threshold):.2f}")
    dt = time.perf_counter() - t0
    report(7, ok, f"lower-bound duels (20 rounds, exact opt): {'; '.join(details)} [{dt:.1f}s]")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: weighted anatomy
# ---------------------------------------------------------------------------

def drive_unsatisfied(alg, steps, seed):
    rng = random.Random(seed)
    inst = alg.instance
    sizes = inst.sizes
    for _ in range(steps):
        cur = alg.current
        r = []
        for i, n in enumerate(sizes):
            v = rng.randrange(n - 1)
            if cur[i] < n and v >= cur[i]:
                v += 1
            r.append(v)
        alg.serve(tuple(r))
    alg.finalize()


def test_criterion_8_weighted_anatomy():
    t0 = time.perf_counter()
    # two levels, default constants: weights (1,7) round to (1,12), m=2
    inst = Instance.make([3, 3], [1, 7])
    alg = WeightedAlgorithm(inst)
    assert alg.rounded.rounded == (1, 12) and alg.rounded.multipliers == (2,)
    drive_unsatisfied(alg, 3 * 396 + 200, seed=8)
    level2 = alg._levels[0]
    assert len(level2.phase_records) >= 3
    for rec in level2.phase_records:
        assert rec["subphases"] == 33
        assert set(rec["requests_per_subphase"]) == {2 * 6}
        assert all(x == 12 for x in rec["lower_actual_per_subphase"])
        assert all(x == 12 for x in rec["lower_charged_per_subphase"])
        assert rec["total_requests"] == 396
        assert rec["phase_cost_actual"] <= 2 * 33 * 12
        assert len(set(rec["pool"][:len(rec["move_costs"])])) == 32
        assert rec["fraction_ok"]
        for p in range(3):
            assert any(counts.get(str(p), 0) * 32 <= nreq
                       for counts, nreq in zip(rec["point_counts"], rec["requests_per_subphase"]))
    two_level_seconds = time.perf_counter() - t0

    # three levels, default constants: one complete phase is ~1.62M requests
    t1 = time.perf_counter()
    inst3 = Instance.make([3, 4, 4], [1, 6, 396])
    alg3 = WeightedAlgorithm(inst3, keep_transcript=False, record_point_counts=False)
    assert alg3.rounded.rounded == (1, 6, 396)
    assert alg3.rounded.multipliers == (1, 1)
    total_needed = (default_tour_sizes(3)[2] + 1) * 198  # 8193 subphases x 198 requests
    assert total_needed == 1_622_214
    drive_unsatisfied(alg3, total_needed + 500, seed=9)
    l2, l3 = alg3._levels
    assert len(l3.phase_records) >= 1
    rec3 = l3.phase_records[0]
    assert rec3["subphases"] == 8193
    assert set(rec3["requests_per_subphase"]) == {198}
    assert all(x == 396 for x in rec3["lower_charged_per_subphase"])
    assert rec3["total_requests"] == 1_622_214
    assert len(set(rec3["pool"][:len(rec3["move_costs"])])) == 8192
    assert rec3["fraction_ok"]
    assert len(l2.phase_records) >= 8193
    assert all(rec["subphases"] == 33 for rec in l2.phase_records)
    assert all(set(rec["requests_per_subphase"]) == {6} for rec in l2.phase_records)
    big_seconds = time.perf_counter() - t1

    # four or more levels cannot complete a phase at the default constants:
    # the tour alone is c(4)+1 subphases
    c4 = default_tour_sizes(4)[3]
    assert c4 == 536_870_912
    # property-based substitute at scaled constants: the same anatomy laws
    tour_sizes = (2, 4, 6, 8)
    inst4 = Instance.make([2, 2, 2, 2], [1, 6, 60, 840])
    alg4 = WeightedAlgorithm(inst4, tour_sizes=tour_sizes, keep_transcript=False)
    drive_unsatisfied(alg4, 2 * 1890 + 100, seed=10)
    top = alg4._levels[-1]
    assert len(top.phase_records) >= 2
    for rec in top.phase_records:
        assert rec["subphases"] == tour_sizes[3] + 1 == 9
        assert all(x == 840 for x in rec["lower_charged_per_subphase"])
        assert rec["phase_cost_actual"] <= 2 * 9 * 840

    ok = big_seconds < 600
    report(8, ok, (
        f"weighted anatomy: k=2 (1,7)->(1,12) with 33 subphases of cost 12 and "
        f"396 requests per phase over {len(level2.phase_records)} phases "
        f"[{two_level_seconds:.1f}s]; k=3 complete phase of 8193 subphases / "
        f"1622214 requests in {big_seconds:.0f}s (< 600s); k>=4 infeasible at "
        f"default constants (c(4)={c4}), anatomy laws checked at scaled table"))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: constants self-test and the weighted ratio sanity ceiling
# ---------------------------------------------------------------------------

def test_criterion_9_constants_and_ratio():
    t0 = time.perf_counter()
    # R(i), the paper's per-level ratio target, is read by no program code:
    # its recurrence over the tour sizes must give its closed form
    c = default_tour_sizes(7)
    R = ratio_targets(c)
    for i in range(1, 7):
        c_i, r_i = c[i - 1], R[i - 1]
        assert c_i == 2 ** (2 ** (i + 1) - 3)
        assert r_i == 2 ** (2 ** (i + 2))
        assert 8 * c_i * c_i == c[i]
    assert c[0] == 2

    # measured two-level ratio stays far below R_2 on an instance whose
    # declared weights are already rounded (so the optimum prices match)
    inst = Instance.make([3, 3], [1, 12])
    alg = WeightedAlgorithm(inst, keep_transcript=False)
    assert alg.rounded.rounded == (1, 12)
    rng = random.Random(3)
    seq = []
    for _ in range(1200):
        cur = alg.current
        r = tuple(
            (lambda v: v + 1 if cur[i] < n and v >= cur[i] else v)(rng.randrange(n - 1))
            for i, n in enumerate(inst.sizes))
        seq.append(r)
        alg.serve(r)
    alg.finalize()
    opt = opt_cost(inst, (0, 0), seq)
    ratio = Fraction(alg.total_cost) / max(opt, Fraction(1))
    ok = ratio <= 65536
    dt = time.perf_counter() - t0
    report(9, ok, (
        f"constants: closed forms and recurrences verified for i<=6; "
        f"doubly-exponential ratios are not reproducible at desk scale, "
        f"substitute measured k=2 ratio {float(ratio):.1f} <= R_2 = 65536 "
        f"[{dt:.1f}s]"))
    assert ok
