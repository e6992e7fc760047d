"""Tests for matrix certificates, potentials, and audit routines."""

import io
import math
import random
from fractions import Fraction

import pytest

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

from helpers import opened


def test_hand_evaluated_length_two_matrix():
    rows = [((2,), (3,)), ((3,), (4,))]
    cert = build_phase_matrix(rows, k=1)
    assert cert.M == [[-1, -2], [0, -1]]
    v = verify_certificate(cert)
    assert v.triangular and v.diagonal_nonzero and v.factorization_ok


def test_factorization_matches_on_random_rows():
    # M = A*B must hold for any states/requests, triangular or not
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randrange(1, 5)
        ell = rng.randrange(1, min(2 ** k, 6) + 1)
        rows = [
            (tuple(rng.randrange(5) for _ in range(k)),
             tuple(rng.randrange(5) for _ in range(k)))
            for _ in range(ell)
        ]
        cert = build_phase_matrix(rows, k)
        assert verify_certificate(cert).factorization_ok
        streamed = build_phase_matrix(rows, k, max_materialize_k=0)
        assert streamed.A is None
        assert verify_certificate(streamed).factorization_ok


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
                assert v.all_ok, (alg_id, phase, cert.M)


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
    inst = Instance.uniform(2, 3)
    alg = GenericAlgorithm(inst)
    run_evasive(alg, 60, seed=1)
    results = certify_transcript(inst, alg.transcript)
    phase, cert, v = results[0]
    path = tmp_path / "phase.cert"
    write_certificate(path, inst, cert, v)
    inst2, cert2 = read_certificate(path)
    assert inst2 == inst
    assert cert2.M == cert.M and cert2.A == cert.A and cert2.B == cert.B
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
