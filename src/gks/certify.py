"""Machine-checkable reconstructions of the structural guarantees.

Three independent audit surfaces over concrete run data:

* a per-phase matrix certificate: evaluations of the coordinate-difference
  product polynomial arranged so that a valid phase yields an upper
  triangular matrix with non-zero diagonal that factors through the
  polynomial's 2^k monomials (so the phase length is at most 2^k, with no
  numerical rank computation anywhere).  A certificate is its phase's
  (state, request) rows: the product vanishes exactly when the state meets
  the request, so the matrix's shape is read off the rows with
  `satisfies`, and the matrices M, A and B exist only in a written file,
  whose entries are checked against the rows (see `verify_certificate`);
* exact harmonic-sum potential accounting for the randomized algorithm's
  tracked distribution;
* per-phase creation counts of the feasible family against the k!/d! caps.

All arithmetic is exact, so two runs produce byte-identical certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import attrgetter, neg, sub
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence, Union

from .core import (
    Config,
    ContentLines,
    Instance,
    CertificateImpossibleError,
    InvalidInputError,
    Request,
    header_lines,
    parse_int,
    parse_ints,
    satisfies,
    write_lines,
)
from .spaces import creation_bound

CERT_HEADER = "gks-cert v1"

# Harmonic numbers are exact and cached.  A potential needs H(k!/d!) for
# every d, so this limit caps potential audits at k = 8.
HARMONIC_EXACT_LIMIT = math.factorial(8)

_harmonic_values: list[Fraction] = [Fraction(0)]


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number."""
    if n < 0:
        raise InvalidInputError(f"harmonic number needs n >= 0, got {n}")
    while len(_harmonic_values) <= n:
        j = len(_harmonic_values)
        _harmonic_values.append(_harmonic_values[-1] + Fraction(1, j))
    return _harmonic_values[n]


def potential_value(max_count: int, max_dim: int, k: int) -> Fraction:
    """Potential of a family with `max_count` patterns of dimension `max_dim`."""
    if max_count <= 0:
        return Fraction(0)
    args = [max_count] + [creation_bound(k, d) for d in range(max_dim)]
    if max(args) > HARMONIC_EXACT_LIMIT:
        raise InvalidInputError(
            f"potential audits need H(n) for n up to {max(args)}, above the exact "
            f"limit {HARMONIC_EXACT_LIMIT} (k = {k}; audits stop at k = 8)")
    return sum((harmonic(n) for n in args), Fraction(0))


def potential(family) -> Fraction:
    """Exact potential of a feasible family; an empty family scores 0."""
    if len(family) == 0:
        return Fraction(0)
    m, count = family.max_dimension_stats()
    return potential_value(count, m, family.k)


def initial_potential(k: int) -> Fraction:
    """Potential right after a phase opens: k patterns of dimension k-1."""
    return potential_value(k, k - 1, k)


# ---------------------------------------------------------------------------
# Phase matrix certificates
# ---------------------------------------------------------------------------

@dataclass
class PhaseCertificate:
    """One phase's (state, request) rows.  The matrices M, A and B are set
    only on a certificate read from a file, as the file had them; for any
    other certificate they exist only in the written file."""
    k: int
    states: tuple[Config, ...]
    requests: tuple[Request, ...]
    M: list[list[int]] | None = None
    A: list[list[int]] | None = None
    B: list[list[int]] | None = None

    @property
    def length(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class CertificateVerdicts:
    triangular: bool
    diagonal_nonzero: bool
    factorization_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.triangular and self.diagonal_nonzero and self.factorization_ok


def forced_rows(steps: Iterable) -> list[tuple[Config, Request]]:
    """(state, request) pairs for requests the pre-state did not satisfy."""
    return [(s.pre, s.request) for s in steps if not satisfies(s.pre, s.request)]


def build_phase_matrix(rows: Sequence[tuple[Config, Request]], k: int) -> PhaseCertificate:
    """Certificate for one phase of forced requests: its rows, checked for
    a non-empty phase within the 2^k ceiling and for arity k.  The matrices
    are not built here (see `write_certificate`)."""
    ell = len(rows)
    if ell == 0:
        raise InvalidInputError("cannot certify an empty phase")
    if ell > 2 ** k:
        raise CertificateImpossibleError(
            f"phase has {ell} forced requests, above the 2^{k} = {2 ** k} ceiling"
        )
    for q, r in rows:
        if len(q) != k or len(r) != k:
            raise InvalidInputError("row arity differs from k")
    return PhaseCertificate(k=k, states=tuple(q for q, _ in rows),
                            requests=tuple(r for _, r in rows))


def _difference_products(states: Sequence[Config],
                         requests: Sequence[Request]) -> list[list[int]]:
    """M's rows: the difference product of each state with each request
    (arities already checked)."""
    return [[math.prod(map(sub, q, r)) for r in requests] for q in states]


def _subset_products(values: Sequence[int]) -> list[int]:
    """Product of `values` over every coordinate subset, by ascending bitmask
    (bit i set means coordinate i belongs to the subset)."""
    out = [1]
    for v in values:
        out += [x * v for x in out]
    return out


def _complement_columns(requests: Sequence[Request]) -> list[list[int]]:
    """B: row S, column t holds the product of -r_t,i over the coordinates
    i outside subset S."""
    return [list(row) for row in zip(*(_subset_products([-x for x in r])[::-1]
                                       for r in requests))]


def verify_certificate(cert: PhaseCertificate) -> CertificateVerdicts:
    """Check triangularity, the diagonal, and the monomial factorization.

    All three verdicts true certify the phase-length ceiling: a full-rank
    triangular matrix that factors through 2^k monomials cannot have more
    than 2^k rows.

    M[t][t'] = prod_i (q_t,i - r_t',i) is zero exactly when state q_t
    satisfies request r_t'.  So for every certificate, built or read, M is
    upper triangular when each state satisfies every earlier request of
    its phase, and its diagonal is non-zero when no state satisfies its
    own request; no product is computed for either.  By the identity

        sum over S of prod_{i in S} q_i * prod_{i not in S} (-r_i)
            = prod_i (q_i - r_i),

    M = A*B, where A's row t is the subset-product vector of q_t (entry S
    is the product of q_t,i over i in S) and B's column t the
    complement-product vector of r_t (entry S is the product of -r_t,i
    over i outside S).  A built certificate carries no matrices, and its
    factorization holds by the identity.  One read from a file must carry
    exactly these M, A and B of its rows: O(l*2^k + l^2*k) against
    O(l^2*2^k) for the product, and stricter than M = A*B, since factors
    that multiply to M but are not these monomial vectors fail.
    """
    states, requests = cert.states, cert.requests
    triangular = all(satisfies(q, r) for t, q in enumerate(states)
                     for r in requests[:t])
    diagonal = not any(map(satisfies, states, requests))
    factorization = (cert.M is None and cert.A is None and cert.B is None) or (
        cert.M == _difference_products(states, requests)
        and cert.A == [_subset_products(q) for q in states]
        and cert.B == _complement_columns(requests))
    return CertificateVerdicts(triangular, diagonal, factorization)


def phases_of(steps: Sequence) -> list[tuple[int, list, bool]]:
    """Group steps into phases, each a run of consecutive rows with one phase
    id (rows come in phase order); the last phase is incomplete."""
    groups = [(p, list(rows)) for p, rows in groupby(steps, attrgetter("phase"))]
    return [(p, rows, i < len(groups) - 1) for i, (p, rows) in enumerate(groups)]


def certify_transcript(instance: Instance, steps: Sequence,
                       include_incomplete: bool = False) -> list[tuple[int, PhaseCertificate, CertificateVerdicts]]:
    """Build and verify one certificate per (complete) phase of a transcript."""
    out = []
    for phase, phase_steps, complete in phases_of(steps):
        if not complete and not include_incomplete:
            continue
        rows = forced_rows(phase_steps)
        if not rows:
            continue
        cert = build_phase_matrix(rows, instance.k)
        out.append((phase, cert, verify_certificate(cert)))
    return out


# ---------------------------------------------------------------------------
# Potential and family-count audits
# ---------------------------------------------------------------------------

# Potentials stay exact but out of the reprs: at k = 8 their numerators run
# past Python's int-to-string digit limit, and printing them would raise.

@dataclass(frozen=True)
class PotentialAudit:
    index: int
    case: str              # "phase-start", "same-dim", "dim-drop"
    ok: bool
    p_move: Fraction
    phi_prev: Fraction = field(repr=False)
    phi_cur: Fraction = field(repr=False)
    detail: str = ""


def audit_potential_step(step, k: int) -> PotentialAudit:
    """Check one tracker step against the expected-motion bookkeeping.

    Same maximal dimension: the move probability must equal the destroyed
    fraction b/|previous maximal set| and the potential must drop by at
    least that much.  Dimension drop: the potential must drop by at least 1,
    which dominates any move probability.  Phase boundaries reset the
    potential and are vacuously fine.
    """
    phi_prev = potential_value(step.size_prev, step.m_prev, k) if step.m_prev >= 0 else Fraction(0)
    phi_cur = potential_value(step.size_cur, step.m_cur, k)
    if step.phase_start:
        return PotentialAudit(step.index, "phase-start", True, step.p_move, phi_prev, phi_cur)
    if step.m_cur == step.m_prev:
        b = step.size_prev - step.size_cur
        expected = Fraction(b, step.size_prev)
        ok = (step.destroyed_maximal == b
              and step.p_move == expected
              and phi_prev - phi_cur >= expected)
        detail = "" if ok else (
            f"b={b} |M_prev|={step.size_prev} p_move={step.p_move} "
            f"dPhi={phi_prev - phi_cur}"
        )
        return PotentialAudit(step.index, "same-dim", ok, step.p_move, phi_prev, phi_cur, detail)
    ok = (step.m_cur < step.m_prev
          and phi_prev - phi_cur >= 1
          and step.p_move <= 1)
    detail = "" if ok else f"m {step.m_prev}->{step.m_cur} dPhi={phi_prev - phi_cur}"
    return PotentialAudit(step.index, "dim-drop", ok, step.p_move, phi_prev, phi_cur, detail)


@dataclass(frozen=True)
class PhaseMotionAudit:
    phase: int
    complete: bool
    phi_start: Fraction = field(repr=False)
    motion_sum: Fraction    # sum of k * p_move over the phase's interior steps
    monotone: bool          # potential never increased inside the phase
    ok: bool


def audit_phase_motion(tracker_steps: Sequence, k: int) -> list[PhaseMotionAudit]:
    """Per-phase check that expected motion stays within k times the opening
    potential.  The opening move of a phase is charged to the boundary, not
    to the interior sum, matching the telescoping of the potential."""
    out = []
    for phase, steps, complete in phases_of(tracker_steps):
        phi_start = potential_value(steps[0].size_cur, steps[0].m_cur, k)
        motion = Fraction(0)
        monotone = True
        prev_phi = phi_start
        for st in steps[1:]:
            motion += k * st.p_move
            phi = potential_value(st.size_cur, st.m_cur, k)
            if phi > prev_phi:
                monotone = False
            prev_phi = phi
        ok = monotone and motion <= k * phi_start
        out.append(PhaseMotionAudit(phase, complete, phi_start, motion, monotone, ok))
    return out


@dataclass(frozen=True)
class FamilyCountAudit:
    ok: bool
    violations: tuple[str, ...]


def audit_family_counts(created_by_dim: Mapping[int, int], k: int) -> FamilyCountAudit:
    """Distinct patterns created per dimension must stay within k!/d!."""
    violations = []
    for d, count in sorted(created_by_dim.items()):
        bound = creation_bound(k, d)
        if count > bound:
            violations.append(f"dimension {d}: created {count} > bound {bound}")
    return FamilyCountAudit(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Certificate files
# ---------------------------------------------------------------------------

def write_certificate(dest: Union[str, Path, IO[str]], instance: Instance,
                      cert: PhaseCertificate,
                      verdicts: CertificateVerdicts | None = None) -> None:
    """Write M, A and B, all built here from the rows.

    A has one row per state holding its coordinate product over every
    subset (ascending bitmask; bit i set means coordinate i belongs to the
    subset); B holds the signed complementary products of the requests.
    """
    if verdicts is None:
        verdicts = verify_certificate(cert)
    write_lines(dest, [
        *header_lines(CERT_HEADER, instance),
        f"l={cert.length}",
        "M",
        *(" ".join(map(str, row))
          for row in _difference_products(cert.states, cert.requests)),
        "A",
        *(" ".join(map(str, _subset_products(q))) for q in cert.states),
        "B",
        *(" ".join(map(str, row)) for row in _complement_columns(cert.requests)),
        f"# verdicts: triangular={verdicts.triangular} "
        f"diagonal={verdicts.diagonal_nonzero} factorization={verdicts.factorization_ok}",
    ])


def _positive_int(text: str) -> int:
    value = parse_int(text)
    if value < 1:
        raise InvalidInputError(f"expected a positive integer, got {value}")
    return value


def read_certificate(src: Union[str, Path, IO[str]]) -> tuple[Instance, PhaseCertificate]:
    """Parse a certificate file; every matrix row is checked for its width.

    The certificate keeps the file's matrices; its states and requests are
    read off them, q_t,i as A[t][1 << i] and r_t,i as -B[full ^ (1 << i)][t]
    with full = 2^k - 1."""
    with ContentLines(src) as lines:
        instance = lines.header(CERT_HEADER)
        ell = lines.field("l", _positive_int)
        k = instance.k

        def matrix(label: str, n_rows: int, width: int) -> list[list[int]]:
            line = lines.take(f"matrix label {label!r}")
            if line != label:
                raise InvalidInputError(f"expected matrix label {label!r}, got {line!r}")
            rows = []
            for _ in range(n_rows):
                row = list(parse_ints(lines.take(f"a row of matrix {label}"), sep=None))
                if len(row) != width:
                    raise InvalidInputError(
                        f"matrix {label} row has {len(row)} entries, expected {width}")
                rows.append(row)
            return rows

        M = matrix("M", ell, ell)
        A = matrix("A", ell, 1 << k)
        B = matrix("B", 1 << k, ell)
        for line in lines:
            raise InvalidInputError(f"unexpected line after matrix B: {line!r}")
    singles = [1 << i for i in range(k)]
    full = (1 << k) - 1
    states = tuple(tuple(row[s] for s in singles) for row in A)
    requests = tuple(zip(*(map(neg, B[full ^ s]) for s in singles)))
    return instance, PhaseCertificate(k=k, states=states, requests=requests, M=M, A=A, B=B)
