"""Online algorithms for the unit-weight case, behind one serve contract.

Three algorithms share the phase machinery: a generic one that moves to any
configuration feasible for the whole phase, a deterministic one that follows
a tracked subspace, and a randomized one that draws the subspace uniformly
from the maximal-dimension ones.  A separate exact tracker evolves the
probability distribution of the randomized algorithm's subspace in rational
arithmetic, for audits.  All of them, tracker included, split the requests
into phases by one rule, `next_family`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import eq, getitem, ne
from pathlib import Path
from typing import IO, Iterable, Iterator, NoReturn, Sequence, Union

from .core import (
    Config,
    ContentLines,
    Instance,
    InvalidInputError,
    InvariantViolationError,
    Memo,
    Request,
    below,
    check_point_bits,
    format_fraction,
    header_lines,
    parse_fraction,
    parse_int,
    parse_ints,
    write_lines,
)
from .spaces import FeasibleFamily, Pattern

TRANSCRIPT_HEADER = "gks-transcript v1"


@dataclass(slots=True)
class Step:
    """One transcript row: what a single request did to the algorithm.

    A row's step number is its position in the transcript, counted from
    1; the next eight fields are the transcript's other columns, in order.
    The transcript has no shrink column, so a `Step` read from a file has
    `shrunk` False on every row.
    """

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
    """Per-phase accounting: counted as the phase runs, completed at its close
    (or when the run ends)."""

    phase: int
    requests: int = 0
    moves: int = 0
    shrinks: int = 0
    cost: Union[int, Fraction] = 0
    complete: bool = False
    created_by_dim: dict = field(default_factory=dict)
    duplicate_creations: int = 0
    adopted_spaces: int | None = None


def next_family(family: FeasibleFamily | None, r: Request,
                sizes: Sequence[int]) -> tuple[FeasibleFamily, bool, bool]:
    """The phase rule: (family after r, whether r opened a phase, whether the
    feasible union shrank).

    A phase ends when no configuration is feasible for all of its requests;
    the request that empties the family opens the next phase, whose family
    is the whole space of the metrics' `sizes` split by that request alone.
    `family` is updated in place; None means no phase is open yet.
    """
    if family is not None:
        shrunk = family.update(r)
        if family.spaces:
            return family, False, shrunk
    family = FeasibleFamily.initial(sizes)
    family.update(r)
    return family, True, True


def refuse(instance: Instance, request) -> NoReturn:
    """Name the fault in a request the family refused: the instance's
    `check_coords` raises its own error for it.  The family accepts exactly
    what `check_coords` does, so a request that passes there is a fault of
    the program, and raises InvariantViolationError."""
    instance.check_coords(request)
    raise InvariantViolationError(
        f"the feasible family refused request {request!r}, which the instance accepts")


def nearest_space(family: FeasibleFamily, current: Config, mask: int | None = None) -> int:
    """Mask of the pattern whose nearest member is cheapest from `current`
    (whose mask `mask` is, if given); ties go to the smallest mask, which is
    the canonical pattern order."""
    return min(family.cheapest(current, mask))


class OnlineAlgorithm:
    """Shared phase and transcript machinery for the unit-weight algorithms.

    State: current configuration, cumulative cost, the phase's feasible
    family (never empty once a request is served), one `PhaseSummary` per
    phase opened so far, numbered from 1 by position, and optionally the
    full transcript.  After `serve(r)` the current configuration satisfies
    r and the cost grew by the move's Hamming distance.  A request served
    without cost leaves `current` the same object.
    """

    randomized = False

    def __init__(self, instance: Instance, start: Sequence[int] | None = None,
                 keep_transcript: bool = True):
        check_point_bits(instance)
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
        self.family: FeasibleFamily | None = None
        self.transcript: list[Step] | None = [] if keep_transcript else None
        self.phase_summaries: list[PhaseSummary] = []

    def _close_phase(self, complete: bool) -> None:
        """Fill in the open phase's summary from the family it ends with."""
        summary, fam = self.phase_summaries[-1], self.family
        summary.complete = complete
        summary.created_by_dim = fam.created_by_dimension()
        summary.duplicate_creations = fam.duplicate_creations

    def finalize(self) -> None:
        """Fill in the summary of the trailing (incomplete) phase."""
        if self.phase_summaries:
            self._close_phase(complete=False)

    def serve(self, request: Sequence[int]) -> Step:
        # the family's bit lookup is the request check, and it refuses
        # before any state changes; `refuse` names the fault of the tuple,
        # or of the request itself when it makes no tuple
        r = request
        try:
            r = tuple(request)
            family, phase_start, shrunk = next_family(self.family, r, self.instance.sizes)
        except (TypeError, InvalidInputError):
            refuse(self.instance, r)
        pre = self.current
        summaries = self.phase_summaries
        if phase_start:
            if self.family is not None:
                if any(map(eq, pre, r)):
                    raise InvariantViolationError(
                        "family emptied by a request the current state satisfies"
                    )
                self._close_phase(complete=True)
            self.family = family
            summaries.append(PhaseSummary(len(summaries) + 1))

        post = self._serve(r, phase_start, shrunk)
        if not any(map(eq, post, r)):
            raise InvariantViolationError(f"post-state {post} does not satisfy request {r}")
        cost = 0 if post is pre else sum(map(ne, pre, post))  # staying put is free
        if cost:
            self.current = post
            self.total_cost += cost

        max_dim, max_count = family.max_dimension_stats()
        moved = cost > 0
        summary = summaries[-1]
        step = Step(summary.phase, r, pre, post, cost, len(family),
                    max_dim, max_count, moved, shrunk, phase_start)
        summary.requests += 1
        summary.moves += moved
        summary.shrinks += shrunk
        summary.cost += cost
        if self.transcript is not None:
            self.transcript.append(step)
        return step

    def run(self, requests: Iterable[Sequence[int]]) -> None:
        for r in requests:
            self.serve(r)
        self.finalize()

    def _serve(self, r: Request, phase_start: bool, shrunk: bool) -> Config:
        raise NotImplementedError


class GenericAlgorithm(OnlineAlgorithm):
    """Move only when forced, to the nearest configuration feasible for the phase.

    Ties go to the lexicographically smallest configuration, which keeps
    runs reproducible.

    The move comes from an index of the phase's requests: `_cols[i][x]` has
    bit t set when the phase's t-th indexed request has rᵢ = x.  Only the
    requests that shrank the family are indexed; every other one is met by
    every configuration still feasible, so the feasible configurations are
    exactly those meeting every indexed request.  Each int is as wide as
    the phase has shrinking requests, at most the number of configurations,
    however long the phase runs.  Under a forced request the current
    configuration meets every earlier indexed request and misses r at every
    server, so a feasible configuration at distance 1 moves one server i
    onto rᵢ.  It is feasible exactly when rᵢ meets every request that only
    server i met.  The k candidates are tried in lexicographic order
    (lowering moves by ascending i, then raising moves by descending i);
    when none is feasible the move is the family's `nearest_member`.
    """

    def _serve(self, r, phase_start, shrunk):
        if phase_start:
            self._cols = [[0] * n for n in self.instance.sizes]
        cols = self._cols
        if shrunk:
            # the phase's shrinks so far, before `serve` counts this one
            bit = 1 << self.phase_summaries[-1].shrinks
            for col, x in zip(cols, r):
                col[x] |= bit
        cur = self.current
        if any(map(eq, cur, r)):
            return cur
        own = list(map(getitem, cols, cur))
        seen = twice = 0
        for o in own:
            twice |= seen & o
            seen |= o
        k = len(cur)
        for i in range(k):
            if r[i] < cur[i] and not own[i] & ~(twice | cols[i][r[i]]):
                return cur[:i] + (r[i],) + cur[i + 1:]
        for i in reversed(range(k)):
            if r[i] > cur[i] and not own[i] & ~(twice | cols[i][r[i]]):
                return cur[:i] + (r[i],) + cur[i + 1:]
        return self.family.nearest_member(cur, self.family.position_mask(cur))


class _SpaceFollower(OnlineAlgorithm):
    """Follow one adopted subspace; `_choose` picks the next when it is lost.

    Stays put while the adopted pattern survives the update; once any of its
    members turns infeasible the whole pattern is treated as lost and a new
    one is chosen, even if the occupied configuration itself stayed feasible.
    A new phase always chooses a new pattern.  A lost pattern is destroyed
    and never re-created, so each choice adopts a new one and counts once in
    the phase's `adopted_spaces`.
    """

    _space_mask: int | None = None

    @property
    def space(self) -> Pattern | None:
        """The adopted pattern, None before the first request."""
        if self._space_mask is None:
            return None
        return self.family.pattern(self._space_mask)

    def _serve(self, r, phase_start, shrunk):
        if not phase_start and self._space_mask in self.family.spaces:
            return self.current
        summary = self.phase_summaries[-1]
        summary.adopted_spaces = 1 if phase_start else summary.adopted_spaces + 1
        self._space_mask = space = self._choose()
        return self.family.pattern(space, self.current)


class AlternativeAlgorithm(_SpaceFollower):
    """Follow one tracked subspace; re-select only when it is destroyed.

    Stays put while the adopted pattern survives, even if its dimension is
    no longer maximal; re-selection takes the pattern with the cheapest
    nearest member (`nearest_space`).
    """

    def _choose(self):
        fam, cur = self.family, self.current
        return nearest_space(fam, cur, fam.position_mask(cur))


class RandomizedAlgorithm(_SpaceFollower):
    """Track a subspace drawn uniformly from the maximal-dimension ones.

    A surviving drawn pattern is kept: dimensions never grow, so it is still
    maximal.  A fixed seed makes transcripts bit-identical across runs.
    """

    randomized = True

    def __init__(self, instance: Instance, seed: int,
                 start: Sequence[int] | None = None, keep_transcript: bool = True):
        super().__init__(instance, start, keep_transcript)
        self.seed = seed
        self.rng = random.Random(seed)

    def _choose(self):
        _, top = self.family.max_dimension_set()
        return top[below(self.rng.getrandbits, len(top))]


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
    maximal set, and a new phase starts from no mass at all.  The resulting map stays uniform at every step, which the
    audits verify rather than assume.
    """

    def __init__(self, instance: Instance):
        if not instance.is_unit_uniform:
            raise InvalidInputError("distribution tracking applies to the unit-weight case")
        self.instance = instance
        self.family: FeasibleFamily | None = None
        self._masses: dict[int, Fraction] = {}  # maximal mask -> probability
        self.steps: list[TrackerStep] = []

    def step(self, request: Sequence[int]) -> TrackerStep:
        r = request  # checked by the family, as in `OnlineAlgorithm.serve`
        try:
            r = tuple(request)
            self.family, phase_start, _ = next_family(self.family, r, self.instance.sizes)
        except (TypeError, InvalidInputError):
            refuse(self.instance, r)
        # a step's phase is the previous step's plus its phase start
        m_prev, phase = (self.steps[-1].m_cur, self.steps[-1].phase) if self.steps else (-1, 0)
        size_prev = len(self._masses)
        if phase_start:
            self._masses = {}

        m, top = self.family.max_dimension_set()
        kept = {p: self._masses[p] for p in top if p in self._masses}
        p_move = 1 - sum(kept.values(), Fraction(0))
        share = p_move / len(top)
        self._masses = {p: kept.get(p, Fraction(0)) + share for p in top}

        patterns = tuple(map(self.family.pattern, top))
        rec = TrackerStep(
            index=len(self.steps) + 1, phase=phase + phase_start, phase_start=phase_start,
            m_prev=m_prev, size_prev=size_prev, m_cur=m, size_cur=len(top),
            destroyed_maximal=size_prev - len(kept), p_move=p_move,
            patterns=patterns, masses=dict(zip(patterns, self._masses.values())),
        )
        self.steps.append(rec)
        return rec

    def run(self, requests: Iterable[Sequence[int]]) -> list[TrackerStep]:
        return [self.step(r) for r in requests]


# ---------------------------------------------------------------------------
# Transcript files: one tab-separated row per request
#   step  phase  request  pre  post  cost  |F|  m  |M|
# A row's step is its position, counting 1, 2, ...; phases start at 1 and
# go up by one; costs are non-negative.
# ---------------------------------------------------------------------------

def transcript_lines(steps: Iterable[Step]) -> Iterator[str]:
    text = Memo(lambda point: ",".join(map(str, point)))
    for index, s in enumerate(steps, 1):
        cost = s.cost if type(s.cost) is int else format_fraction(s.cost)
        yield (f"{index}\t{s.phase}\t{text[s.request]}\t{text[s.pre]}\t{text[s.post]}\t"
               f"{cost}\t{s.family_size}\t{s.max_dim}\t{s.max_count}")


def write_transcript(dest: Union[str, Path, IO[str]], instance: Instance,
                     steps: Iterable[Step], meta: dict | None = None) -> None:
    lines = header_lines(TRANSCRIPT_HEADER, instance)
    for key in sorted(meta or {}):
        lines.append(f"# {key}={meta[key]}")
    lines.append("# step\tphase\trequest\tpre\tpost\tcost\tF\tm\tM")
    lines.extend(transcript_lines(steps))
    write_lines(dest, lines)


def _state(k: int, text: str) -> Config:
    """k non-negative indices, or () for integers of another width or sign:
    a weighted run may park a server on a virtual point, an index past its
    metric's last real point."""
    state = parse_ints(text)
    return state if len(state) == k and min(state) >= 0 else ()


def _bad_state(instance: Instance, what: str, text: str):
    raise InvalidInputError(f"{what} {text!r} is not {instance.k} non-negative indices")


def read_transcript(src: Union[str, Path, IO[str]]) -> tuple[Instance, list[Step]]:
    """Parse a transcript; requests are checked against the header's
    instance, pre- and post-states only for width and sign, and rows for the
    order above; the step column is checked and dropped, since a row's step
    is its position.  Each distinct request or state text is parsed once.
    The file has no shrink column, so every `Step.shrunk` reads False."""
    with ContentLines(src) as lines:
        instance = lines.header(TRANSCRIPT_HEADER)
        steps: list[Step] = []
        prev_phase = 0
        reqs = Memo(lambda text: instance.check_coords(parse_ints(text)))
        states = Memo(lambda text: _state(instance.k, text))  # pre- and post-states alike
        for line in lines:
            parts = line.split("\t")
            if len(parts) != 9:
                raise InvalidInputError(f"expected 9 tab-separated fields, got {len(parts)}")
            i, p, r, a, b, c, f, m, mc = parts
            request = reqs[r]
            pre = states[a] or _bad_state(instance, "pre-state", a)
            post = states[b] or _bad_state(instance, "post-state", b)
            index, phase = parse_int(i), parse_int(p)
            cost: Union[int, Fraction] = int(c) if c.isdecimal() else parse_fraction(c)
            fam_size, max_dim, max_count = map(parse_int, (f, m, mc))
            if cost.denominator == 1:
                cost = int(cost)
            if index != len(steps) + 1:
                raise InvalidInputError(
                    f"step {index} follows step {len(steps)}; steps count up from 1")
            if phase < 1 or not prev_phase <= phase <= prev_phase + 1:
                raise InvalidInputError(
                    f"phase {phase} follows phase {prev_phase}; phases count up from 1")
            if cost < 0:
                raise InvalidInputError(f"negative cost {format_fraction(cost)}")
            steps.append(Step(phase, request, pre, post, cost, fam_size, max_dim, max_count,
                              pre != post, False, phase != prev_phase))
            prev_phase = phase
    return instance, steps


ALGORITHMS = {
    "det": GenericAlgorithm,
    "alt": AlternativeAlgorithm,
    "rand": RandomizedAlgorithm,
}
