"""Tests for matrix certificates, potentials, and audit routines."""

import io
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gks.core import CertificateImpossibleError, Instance, InvalidInputError
from gks.spaces import FeasibleFamily
from gks.algorithms import (
    ALGORITHMS,
    DistributionTracker,
    GenericAlgorithm,
    RandomizedAlgorithm,
)
from gks.adversaries import random_sequence, run_evasive
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
    potential,
    potential_value,
    read_certificate,
    verify_certificate,
    write_certificate,
)

from helpers import matrix_verdicts, monomial_expansion, opened, product_factorization_ok


def test_hand_evaluated_length_two_matrix():
    rows = [((2,), (3,)), ((3,), (4,))]
    cert = build_phase_matrix(rows, k=1)
    assert cert.M is None
    assert read_text(file_text(cert)).M == [[-1, -2], [0, -1]]
    v = verify_certificate(cert)
    assert v.triangular and v.diagonal_nonzero and v.factorization_ok


@st.composite
def certificate_rows(draw, low=0):
    """k in 1..7 and up to min(2^k, 12) (state, request) rows; points from
    `low` to 5."""
    k = draw(st.integers(1, 7))
    ell = draw(st.integers(1, min(2 ** k, 12)))
    point = st.tuples(*[st.integers(low, 5)] * k)
    return k, draw(st.lists(st.tuples(point, point), min_size=ell, max_size=ell))


@st.composite
def served_rows(draw):
    """k in 1..4 and points in 0..4: the forced rows of the first phase of
    `det` under never-satisfied traffic, which certify."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    return k, evasive_rows(k, n, draw(st.integers(0, 10 ** 6)))


def file_text(cert):
    """The certificate's file; every point in these tests lies in 0..5."""
    buf = io.StringIO()
    write_certificate(buf, Instance.uniform(cert.k, 6), cert)
    return buf.getvalue()


def read_text(text):
    return read_certificate(io.StringIO(text))[1]


def altered(text, label, row, col, delta):
    """The file text with entry (row, col) of matrix `label` moved by delta."""
    lines = text.splitlines()
    i = lines.index(label) + 1 + row
    entries = lines[i].split()
    entries[col] = str(int(entries[col]) + delta)
    lines[i] = " ".join(entries)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(certificate_rows())
def test_factorization_matches_on_random_rows(case):
    # M = A*B must hold for any states/requests, triangular or not: the
    # built certificate carries no matrices, and its file form's pass the
    # structural check and the entry-by-entry product alike
    k, rows = case
    cert = build_phase_matrix(rows, k)
    read = read_text(file_text(cert))
    assert cert.M is None and cert.A is None and cert.B is None
    assert read.M is not None and read.A is not None and read.B is not None
    assert product_factorization_ok(read)
    for c in (cert, read):
        assert verify_certificate(c).factorization_ok


@settings(max_examples=200, deadline=None)
@given(st.one_of(certificate_rows(), served_rows()))
def test_row_verdicts_match_the_matrix_oracle(case):
    # the verdicts read off the rows, for the built certificate and for its
    # file form, equal the ones read off M built entry by entry: on random
    # rows, triangular or not, and on the rows of served phases
    k, rows = case
    cert = build_phase_matrix(rows, k)
    built = verify_certificate(cert)
    read = verify_certificate(read_text(file_text(cert)))
    assert built == read
    assert (built.triangular, built.diagonal_nonzero) == matrix_verdicts(cert)


@settings(max_examples=150, deadline=None)
@given(certificate_rows(low=1), st.sampled_from("ABM"), st.integers(0, 10 ** 6),
       st.integers(1, 3))
def test_one_altered_entry_fails_both_checks(case, label, pick, delta):
    # with every point non-zero every factor entry is non-zero, so one
    # altered entry of A or B in the file changes the product A*B
    k, rows = case
    ell = len(rows)
    shape = {"M": (ell, ell), "A": (ell, 1 << k), "B": (1 << k, ell)}[label]
    pick %= shape[0] * shape[1]
    read = read_text(altered(file_text(build_phase_matrix(rows, k)), label,
                             pick // shape[1], pick % shape[1], delta))
    assert not product_factorization_ok(read)
    assert not verify_certificate(read).factorization_ok


def evasive_rows(k, n, seed):
    """Forced rows of the first phase of `det` under never-satisfied traffic."""
    alg = GenericAlgorithm(Instance.uniform(k, n))
    run_evasive(alg, 60, seed=seed)
    return forced_rows(phases_of(alg.transcript)[0][1])


def test_consistent_forgery_fails_only_the_structural_check():
    # a row of A that is no subset-product vector, with M recomputed as
    # A*B: the product holds, but the factors prove nothing about the
    # phase, so the structural check rejects it
    k = 3
    read = read_text(file_text(build_phase_matrix(evasive_rows(k, 3, seed=4), k)))
    read.A[0][(1 << k) - 1] += 1
    read.M = [[sum(a * b for a, b in zip(row, col)) for col in zip(*read.B)]
              for row in read.A]
    assert product_factorization_ok(read)
    assert not verify_certificate(read).factorization_ok


def test_factors_must_belong_to_the_certificate_states_and_requests():
    k = 3
    read = read_text(file_text(build_phase_matrix(evasive_rows(k, 3, seed=5), k)))
    assert verify_certificate(read).all_ok
    moved = tuple(tuple(x + 1 for x in row) for row in read.states)
    for forged in (replace(read, states=moved), replace(read, requests=moved)):
        assert product_factorization_ok(forged)
        assert not verify_certificate(forged).factorization_ok


def test_phases_certify_for_all_algorithms():
    rng = random.Random(21)
    for alg_id in ["det", "alt", "rand"]:
        for trial in range(6):
            k = rng.randrange(1, 5)
            n = rng.randrange(2, 5)
            inst = Instance.uniform(k, n)
            cls = ALGORITHMS[alg_id]
            alg = cls(inst, trial) if cls is RandomizedAlgorithm else cls(inst)
            alg.run(random_sequence(inst, 300, seed=trial + 100))
            results = certify_transcript(inst, alg.transcript, include_incomplete=True)
            assert results, "expected at least one certified phase"
            for phase, cert, v in results:
                assert v.all_ok, (alg_id, phase, cert.states)


def test_single_row_phase_is_trivially_valid():
    cert = build_phase_matrix([((0, 0), (1, 1))], k=2)
    v = verify_certificate(cert)
    assert v.all_ok and cert.length == 1


def test_corrupted_transcript_detected():
    inst = Instance.uniform(2, 3)
    alg = GenericAlgorithm(inst)
    run_evasive(alg, 120, seed=9)
    phase, steps, complete = phases_of(alg.transcript)[0]
    rows = forced_rows(steps)
    assert len(rows) >= 3
    # replace a later state with the first pre-state, which by construction
    # violates the first request: a nonzero entry below the diagonal
    bad = list(rows)
    t = len(bad) - 1
    bad[t] = (bad[0][0], bad[t][1])
    cert = build_phase_matrix(bad, inst.k)
    v = verify_certificate(cert)
    assert not v.triangular
    assert v.factorization_ok  # the factorization holds for any entries


def test_overlong_phase_rejected():
    rows = [((i,), (i + 1,)) for i in range(3)]
    with pytest.raises(CertificateImpossibleError):
        build_phase_matrix(rows, k=1)
    with pytest.raises(InvalidInputError):
        build_phase_matrix([], k=1)


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(6) == Fraction(49, 20)
    assert harmonic(120) == sum(Fraction(1, j) for j in range(1, 121))
    # potentials stay exact up to k = 8; from k = 9 on they need H(n) for
    # some n > 8! and are refused
    assert initial_potential(7) == harmonic(7) + sum(
        harmonic(math.factorial(7) // math.factorial(d)) for d in range(6))
    with pytest.raises(InvalidInputError):
        initial_potential(9)


def test_potential_examples():
    # single zero-dimensional pattern: H(1) = 1
    fam = opened((5,), (6,))
    assert potential(fam) == 1
    # freshly opened 3-coordinate phase: H(3) + 2 H(6) = 101/15
    fam3 = opened((0, 1, 2), (3, 3, 3))
    assert potential(fam3) == Fraction(101, 15)
    assert initial_potential(3) == Fraction(101, 15)
    assert initial_potential(3) <= 3 * harmonic(6)
    # generic bound: opening potential stays within k H(k!)
    for k in range(1, 7):
        assert initial_potential(k) <= k * harmonic(math.factorial(k))
    empty = FeasibleFamily(2, 3)
    assert potential(empty) == 0


def test_potential_nonincreasing_within_phase():
    rng = random.Random(3)
    for trial in range(10):
        k = rng.randrange(2, 5)
        n = rng.randrange(2, 4)
        inst = Instance.uniform(k, n)
        tracker = DistributionTracker(inst)
        prev = None
        for r in random_sequence(inst, 300, seed=trial):
            rec = tracker.step(r)
            phi = potential_value(rec.size_cur, rec.m_cur, k)
            if not rec.phase_start and prev is not None:
                assert phi <= prev
            prev = phi


def test_audit_potential_step_cases_and_runs():
    rng = random.Random(14)
    for trial in range(10):
        k = rng.randrange(2, 6)
        n = rng.randrange(2, 5)
        inst = Instance.uniform(k, n)
        tracker = DistributionTracker(inst)
        saw_drop = saw_same = False
        for r in random_sequence(inst, 400, seed=trial + 7):
            rec = tracker.step(r)
            audit = audit_potential_step(rec, k)
            assert audit.ok, (audit, rec)
            saw_drop |= audit.case == "dim-drop"
            saw_same |= audit.case == "same-dim" and rec.p_move > 0
        assert saw_drop and saw_same


def test_audit_known_drop_step():
    inst = Instance.uniform(2, 2)
    tracker = DistributionTracker(inst)
    tracker.step((0, 1))
    tracker.step((1, 0))
    rec = tracker.step((1, 1))  # family falls to a single point-space
    audit = audit_potential_step(rec, 2)
    assert audit.ok
    assert audit.phi_prev - audit.phi_cur >= Fraction(1, 2) == rec.p_move


def test_k8_audit_repr_leaves_out_potentials():
    # k = 8 potentials have numerators past the int-to-string digit limit;
    # the audits keep them exact but must still print
    inst = Instance.uniform(8, 2)
    tracker = DistributionTracker(inst)
    tracker.run([(0,) * 8, (1,) * 8, (1, 0) * 4])
    audits = [audit_potential_step(st, 8) for st in tracker.steps]
    motion = audit_phase_motion(tracker.steps, 8)
    assert audits[0].phi_cur == initial_potential(8) == motion[0].phi_start
    for audit in audits + motion:
        assert audit.ok
        text = repr(audit)
        assert "phi_" not in text and "ok=True" in text


def test_phase_motion_bound():
    rng = random.Random(2)
    for trial in range(8):
        k = rng.randrange(2, 5)
        inst = Instance.uniform(k, 3)
        tracker = DistributionTracker(inst)
        tracker.run(random_sequence(inst, 500, seed=trial))
        audits = audit_phase_motion(tracker.steps, k)
        assert audits
        for a in audits:
            assert a.ok
            assert a.motion_sum <= k * initial_potential(k)
            assert initial_potential(k) <= k * harmonic(math.factorial(k))


def test_audit_family_counts():
    ok = audit_family_counts({2: 3, 1: 5, 0: 6}, k=3)
    assert ok.ok
    bad = audit_family_counts({2: 4}, k=3)
    assert not bad.ok and "dimension 2" in bad.violations[0]
    rng = random.Random(44)
    for trial in range(10):
        k = rng.randrange(2, 6)
        inst = Instance.uniform(k, 3)
        alg = GenericAlgorithm(inst, keep_transcript=False)
        alg.run(random_sequence(inst, 400, seed=trial))
        for ps in alg.phase_summaries:
            assert audit_family_counts(ps.created_by_dim, k).ok


def test_certificate_file_roundtrip(tmp_path):
    for k in (2, 5):
        inst = Instance.uniform(k, 3)
        alg = GenericAlgorithm(inst)
        run_evasive(alg, 60, seed=1)
        results = certify_transcript(inst, alg.transcript, include_incomplete=True)
        phase, cert, v = results[0]
        path = tmp_path / f"phase{k}.cert"
        write_certificate(path, inst, cert, v)
        inst2, cert2 = read_certificate(path)
        assert inst2 == inst
        # the built certificate carries no matrices; the file's are kept,
        # and the states and requests are read off them
        assert cert.M is None and cert.A is None and cert.B is None
        assert cert2.M == [[monomial_expansion(q, r) for r in cert.requests]
                           for q in cert.states]
        assert product_factorization_ok(cert2)
        assert cert2.states == cert.states and cert2.requests == cert.requests
        assert verify_certificate(cert2).all_ok


def test_certificates_byte_identical_across_runs(tmp_path):
    inst = Instance.uniform(3, 3)
    seq = random_sequence(inst, 200, seed=77)
    blobs = []
    for _ in range(2):
        alg = RandomizedAlgorithm(inst, seed=5)
        alg.run(seq)
        results = certify_transcript(inst, alg.transcript)
        buf = io.StringIO()
        for _, cert, v in results:
            write_certificate(buf, inst, cert, v)
        blobs.append(buf.getvalue())
    assert blobs[0] == blobs[1] and blobs[0]
