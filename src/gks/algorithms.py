"""Online algorithms for the unit-weight case, behind one serve contract.

Three algorithms share the phase machinery: a generic one that moves to any
configuration feasible for the whole phase, a deterministic one that follows
a tracked subspace, and a randomized one that draws the subspace uniformly
from the maximal-dimension ones.  A separate exact tracker evolves the
probability distribution of the randomized algorithm's subspace in rational
arithmetic, for audits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

from .core import (
    Config,
    ContentLines,
    Instance,
    InvalidInputError,
    InvariantViolationError,
    Request,
    SequenceFormatError,
    format_fraction,
    hamming,
    header_lines,
    parse_fraction,
    parse_int,
    parse_point,
    read_header,
    satisfies,
    write_lines,
)
from .spaces import FeasibleFamily, Pattern, member, pattern_sort_key

TRANSCRIPT_HEADER = "gks-transcript v1"


@dataclass(slots=True)
class Step:
    """One transcript row: what a single request did to the algorithm."""

    index: int
    phase: int
    request: Request
    pre: Config
    post: Config
    cost: Union[int, Fraction]
    family_size: int
    max_dim: int
    max_count: int
    moved: bool
    shrunk: bool
    phase_start: bool


@dataclass(slots=True)
class PhaseSummary:
    """Per-phase accounting emitted when a phase closes (or the run ends)."""

    phase: int
    requests: int
    moves: int
    shrinks: int
    cost: Union[int, Fraction]
    complete: bool
    created_by_dim: dict
    duplicate_creations: int
    adopted_spaces: int | None = None


def nearest_space(family: FeasibleFamily, current: Config) -> Pattern:
    """Pattern whose nearest member is cheapest; ties by canonical order."""
    return min(map(family.pattern, family.cheapest(current)), key=pattern_sort_key)


class OnlineAlgorithm:
    """Shared phase and transcript machinery for the unit-weight algorithms.

    State: current configuration, cumulative cost, 1-based phase counter,
    the phase's feasible family, and optionally the full transcript.  After
    `serve(r)` the current configuration satisfies r and the cost grew by
    the move's Hamming distance.
    """

    alg_id = "?"
    randomized = False
    seeds_next_phase = True

    def __init__(self, instance: Instance, start: Sequence[int] | None = None,
                 keep_transcript: bool = True):
        if not instance.is_unit_uniform:
            raise InvalidInputError(
                "unit-weight algorithms require all weights equal to 1; "
                "normalize the instance or use the weighted algorithm"
            )
        self.instance = instance
        if start is None:
            start = (0,) * instance.k
        self.current: Config = instance.check_coords(start, what="start configuration")
        self.total_cost = 0
        self.phase = 0
        self.family: FeasibleFamily | None = None
        self.transcript: list[Step] | None = [] if keep_transcript else None
        self.phase_summaries: list[PhaseSummary] = []
        self._step_index = 0
        self._acc: dict | None = None
        self._finalized = False

    # -- phase bookkeeping --------------------------------------------------

    def _open_phase(self) -> None:
        self._acc = {"requests": 0, "moves": 0, "shrinks": 0, "cost": 0}
        self._on_phase_start()

    def _close_phase(self, complete: bool) -> None:
        if self._acc is None:
            return
        fam = self.family
        self.phase_summaries.append(PhaseSummary(
            phase=self.phase,
            requests=self._acc["requests"],
            moves=self._acc["moves"],
            shrinks=self._acc["shrinks"],
            cost=self._acc["cost"],
            complete=complete,
            created_by_dim=fam.created_by_dimension() if fam is not None else {},
            duplicate_creations=fam.duplicate_creations if fam is not None else 0,
            adopted_spaces=self._adopted_count(),
        ))
        self._acc = None

    def finalize(self) -> None:
        """Emit the summary of the trailing (incomplete) phase, once."""
        if not self._finalized:
            self._close_phase(complete=False)
            self._finalized = True

    def _on_phase_start(self) -> None:
        pass

    def _adopted_count(self) -> int | None:
        return None

    # -- serving ------------------------------------------------------------

    def serve(self, r: Sequence[int]) -> Step:
        r = self.instance.check_coords(r)
        pre = self.current
        phase_start = False
        fresh = False       # phase restarted because the family emptied
        terminal = False    # family emptied and this algorithm does not reseed
        if self.family is None:
            self.phase += 1
            self.family = FeasibleFamily.initial(r)
            self._open_phase()
            phase_start = True
            shrunk = True
        else:
            changed = self.family.update(r)
            if len(self.family) == 0:
                if self.seeds_next_phase:
                    if satisfies(pre, r):
                        raise InvariantViolationError(
                            "family emptied by a request the current state satisfies"
                        )
                    self._close_phase(complete=True)
                    self.phase += 1
                    self.family = FeasibleFamily.initial(r)
                    self._open_phase()
                    phase_start = True
                    fresh = True
                else:
                    terminal = True
                shrunk = True
            else:
                shrunk = changed

        post = self._serve(r, phase_start=phase_start, fresh=fresh, terminal=terminal)
        if not satisfies(post, r):
            raise InvariantViolationError(f"post-state {post} does not satisfy request {r}")
        cost = hamming(pre, post)
        self.current = post
        self.total_cost += cost
        self._step_index += 1

        if self.family is not None and len(self.family) > 0:
            fam_size = len(self.family)
            max_dim, max_count = self.family.max_dimension_stats()
        else:
            fam_size = max_dim = max_count = 0

        step = Step(
            index=self._step_index, phase=self.phase, request=r, pre=pre, post=post,
            cost=cost, family_size=fam_size, max_dim=max_dim, max_count=max_count,
            moved=post != pre, shrunk=shrunk, phase_start=phase_start,
        )
        acc = self._acc
        acc["requests"] += 1
        acc["moves"] += step.moved
        acc["shrinks"] += shrunk
        acc["cost"] += cost
        if self.transcript is not None:
            self.transcript.append(step)

        if terminal:
            self._close_phase(complete=True)
            self.family = None
        return step

    def run(self, requests: Iterable[Sequence[int]]) -> list[Step]:
        steps = [self.serve(r) for r in requests]
        self.finalize()
        return steps

    def _serve(self, r: Request, phase_start: bool, fresh: bool, terminal: bool) -> Config:
        raise NotImplementedError


class GenericAlgorithm(OnlineAlgorithm):
    """Move only when forced, to the nearest configuration feasible for the phase.

    Ties go to the lexicographically smallest configuration, which keeps
    runs reproducible.  `seed_next_phase=False` switches to the
    variant where the request that exhausts a phase still belongs to it and
    the next phase only opens at the following request.
    """

    alg_id = "det"

    def __init__(self, instance: Instance, start: Sequence[int] | None = None,
                 keep_transcript: bool = True, seed_next_phase: bool = True):
        super().__init__(instance, start, keep_transcript)
        self.seeds_next_phase = seed_next_phase

    def _serve(self, r, phase_start, fresh, terminal):
        if satisfies(self.current, r):
            if fresh or terminal:
                raise InvariantViolationError(
                    "satisfied request cannot exhaust the phase"
                )
            return self.current
        if terminal:
            # serve only r; the family is already empty
            return FeasibleFamily.initial(r).nearest_member(self.current)
        return self.family.nearest_member(self.current)


class _SpaceFollower(OnlineAlgorithm):
    """Follow one adopted subspace; `_choose` picks the next when it is lost.

    Stays put while the adopted pattern survives the update; once any of its
    members turns infeasible the whole pattern is treated as lost and a new
    one is chosen, even if the occupied configuration itself stayed feasible.
    """

    space: Pattern | None = None
    _space_mask: int | None = None

    def _on_phase_start(self):
        # fresh families cannot contain the old pattern; drop it explicitly
        self.space = None
        self._space_mask = None
        self._adopted: set[Pattern] = set()

    def _adopted_count(self):
        return len(self._adopted)

    def _serve(self, r, phase_start, fresh, terminal):
        if not phase_start and self._space_mask in self.family.spaces:
            return self.current
        self.space = self._choose()
        self._space_mask = self.family.mask(self.space)
        self._adopted.add(self.space)
        return member(self.space, self.current)


class AlternativeAlgorithm(_SpaceFollower):
    """Follow one tracked subspace; re-select only when it is destroyed.

    Stays put while the adopted pattern survives, even if its dimension is
    no longer maximal; the default re-selection takes the pattern with the
    cheapest nearest member.
    """

    alg_id = "alt"

    def __init__(self, instance: Instance, start: Sequence[int] | None = None,
                 keep_transcript: bool = True,
                 space_policy: Callable[[FeasibleFamily, Config], Pattern] | None = None):
        super().__init__(instance, start, keep_transcript)
        self.space_policy = space_policy or (lambda fam, cur: nearest_space(fam, cur))

    def _choose(self):
        return self.space_policy(self.family, self.current)


class RandomizedAlgorithm(_SpaceFollower):
    """Track a subspace drawn uniformly from the maximal-dimension ones.

    A surviving drawn pattern is kept: dimensions never grow, so it is still
    maximal.  A fixed seed makes transcripts bit-identical across runs.
    """

    alg_id = "rand"
    randomized = True

    def __init__(self, instance: Instance, seed: int,
                 start: Sequence[int] | None = None, keep_transcript: bool = True):
        super().__init__(instance, start, keep_transcript)
        self.seed = seed
        self.rng = random.Random(seed)

    def _choose(self):
        _, top = self.family.max_dimension_set()
        return top[self.rng.randrange(len(top))]


# ---------------------------------------------------------------------------
# Exact distribution tracking for the randomized algorithm
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class TrackerStep:
    """Exact distribution bookkeeping for one request."""

    index: int
    phase: int
    phase_start: bool
    m_prev: int            # maximal dimension before the request (-1 at start)
    size_prev: int         # number of maximal patterns before the request
    m_cur: int
    size_cur: int
    destroyed_maximal: int  # how many of the previous maximal patterns died
    p_move: Fraction       # probability mass forced to re-draw
    patterns: tuple        # current maximal patterns, canonically sorted
    masses: dict           # pattern -> exact probability


class DistributionTracker:
    """Evolve P[tracked pattern = S] exactly, in rational arithmetic.

    Mirrors the randomized algorithm: surviving maximal patterns keep their
    mass, the mass of destroyed ones is redistributed uniformly over the new
    maximal set.  The resulting map stays uniform at every step, which the
    audits verify rather than assume.
    """

    def __init__(self, instance: Instance):
        if not instance.is_unit_uniform:
            raise InvalidInputError("distribution tracking applies to the unit-weight case")
        self.instance = instance
        self.family: FeasibleFamily | None = None
        self.masses: dict[Pattern, Fraction] = {}
        self.phase = 0
        self._m = -1
        self._index = 0
        self.steps: list[TrackerStep] = []

    def step(self, r: Sequence[int]) -> TrackerStep:
        r = self.instance.check_coords(r)
        self._index += 1
        m_prev = self._m
        size_prev = len(self.masses)

        phase_start = False
        if self.family is None:
            phase_start = True
        else:
            self.family.update(r)
            if len(self.family) == 0:
                phase_start = True
        if phase_start:
            self.phase += 1
            self.family = FeasibleFamily.initial(r)

        m, top = self.family.max_dimension_set()
        if phase_start:
            survivors_mass = Fraction(0)
            destroyed = size_prev
        else:
            survivors_mass = sum(
                (self.masses[p] for p in top if p in self.masses), Fraction(0)
            )
            destroyed = size_prev - sum(1 for p in top if p in self.masses)
        p_move = 1 - survivors_mass
        share = p_move / len(top)
        new_masses = {
            p: (self.masses.get(p, Fraction(0)) if not phase_start else Fraction(0)) + share
            for p in top
        }
        self.masses = new_masses
        self._m = m

        rec = TrackerStep(
            index=self._index, phase=self.phase, phase_start=phase_start,
            m_prev=m_prev, size_prev=size_prev, m_cur=m, size_cur=len(top),
            destroyed_maximal=destroyed, p_move=p_move,
            patterns=tuple(top), masses=new_masses,
        )
        self.steps.append(rec)
        return rec

    def run(self, requests: Iterable[Sequence[int]]) -> list[TrackerStep]:
        return [self.step(r) for r in requests]


def replay_space_choices(steps: Sequence[TrackerStep], seed: int,
                         start: Config) -> list[tuple[Pattern, Config, int]]:
    """Re-run only the random choices against a precomputed family trace.

    Consumes the RNG exactly like the randomized algorithm does, so a given
    seed yields the same pattern/position chain at a fraction of the cost;
    sweeps over many seeds share one trace.  Returns per-step
    (pattern, position, move cost).
    """
    rng = random.Random(seed)
    space: Pattern | None = None
    pos = start
    out = []
    for st in steps:
        if st.phase_start or space is None or space not in st.masses:
            space = st.patterns[rng.randrange(len(st.patterns))]
            new_pos = member(space, pos)
            cost = hamming(pos, new_pos)
            pos = new_pos
        else:
            cost = 0
        out.append((space, pos, cost))
    return out


# ---------------------------------------------------------------------------
# Transcript files: one tab-separated row per request
#   step  phase  request  pre  post  cost  |F|  m  |M|
# ---------------------------------------------------------------------------

def _fmt_tuple(t: Sequence[int]) -> str:
    return ",".join(str(x) for x in t)


def transcript_lines(steps: Iterable[Step]) -> Iterator[str]:
    for s in steps:
        yield "\t".join((
            str(s.index), str(s.phase), _fmt_tuple(s.request), _fmt_tuple(s.pre),
            _fmt_tuple(s.post), format_fraction(s.cost), str(s.family_size),
            str(s.max_dim), str(s.max_count),
        ))


def write_transcript(dest: Union[str, Path, IO[str]], instance: Instance,
                     steps: Iterable[Step], meta: dict | None = None) -> None:
    lines = header_lines(TRANSCRIPT_HEADER, instance)
    for key in sorted(meta or {}):
        lines.append(f"# {key}={meta[key]}")
    lines.append("# step\tphase\trequest\tpre\tpost\tcost\tF\tm\tM")
    lines.extend(transcript_lines(steps))
    write_lines(dest, lines)


def read_transcript(src: Union[str, Path, IO[str]]) -> tuple[Instance, list[Step]]:
    """Parse a transcript; tuples are checked against the header's instance."""
    lines = ContentLines(src)
    instance = read_header(lines, TRANSCRIPT_HEADER)
    steps: list[Step] = []
    prev_phase = 0
    points: dict[str, Config] = {}  # each distinct tuple text is parsed and checked once
    for lineno, line in lines:
        parts = line.split("\t")
        if len(parts) != 9:
            raise SequenceFormatError(f"expected 9 tab-separated fields, got {len(parts)}", lineno)
        row = []
        for text, what in zip(parts[2:5], ("request", "pre-state", "post-state")):
            point = points.get(text)
            if point is None:
                point = points[text] = parse_point(instance, text, lineno, what)
            row.append(point)
        request, pre, post = row
        try:
            index, phase = parse_int(parts[0]), parse_int(parts[1])
            cost = parse_fraction(parts[5])
            fam_size, max_dim, max_count = map(parse_int, parts[6:])
        except InvalidInputError as e:
            raise SequenceFormatError(str(e), lineno) from e
        cost_val: Union[int, Fraction] = int(cost) if cost.denominator == 1 else cost
        steps.append(Step(
            index=index, phase=phase, request=request, pre=pre, post=post,
            cost=cost_val, family_size=fam_size, max_dim=max_dim, max_count=max_count,
            moved=pre != post, shrunk=False, phase_start=phase != prev_phase,
        ))
        prev_phase = phase
    return instance, steps


ALGORITHMS = {
    "det": GenericAlgorithm,
    "alt": AlternativeAlgorithm,
    "rand": RandomizedAlgorithm,
}
