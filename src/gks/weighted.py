"""Recursive algorithm for weighted products of uniform metrics.

The bottom server chases its coordinate on every counted request, and a
bottom phase is a fixed number of counted requests.  Each level i from 2 to
k moves its server only at subphase boundaries; a subphase lasts exactly as
long as the levels below it need to spend the level's weight.  The first
subphase of every phase gathers per-point request counts, after which the
server tours the most-requested points, one per subphase.  Weight rounding
makes every subphase boundary land exactly: each rounded weight is an
integral multiple of the charged cost of one complete lower-level phase.

Costs are tracked twice: `actual` is what the run really pays (staying put
is free), `charged` prices every scheduled move at the level weight, which
is the accounting the subphase boundaries are defined by.  Each cost is
added once, to run totals: actual costs to `total_cost`, the bottom
server's (1 actual and charged per counted request) to `counted`, and the
charged moves of levels 2 and up to `charged`.  A subphase's ledgers are
the totals' growth since it opened, after its level's own move and any cost
paid above it.  Charged never undercounts actual.  A phase opens with a
move to an arbitrary point, realized as staying put; it is charged when the
previous phase closes (at construction for the first, top level first),
since nothing is spent before the next counted request.  Each level's open
phase is recorded as its `phase_report` entry.

The constants are one tuple of tour sizes c(1), ..., c(k): the paper's
`default_tour_sizes(k)`, or smaller ones a caller passes to reach deep
anatomy cheaply.  The paper's per-level ratio target R(i) = 2^(2^(i+2)) =
8 c(i) R(i-1) is read by no code here; the constants self-tests check it
against the tour sizes.  An instance whose c(k) or rounded weights have
more digits than a report prints is refused when the algorithm is built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    Config,
    Instance,
    InvalidInputError,
    InvariantViolationError,
    ResourceLimitError,
    check_point_bits,
    format_fraction,
    satisfies,
)
from .algorithms import Step, PhaseSummary


# A report's integers are printed in decimal; when the interpreter prints
# any length (`sys.set_int_max_str_digits(0)`), this bounds them instead.
MAX_REPORT_DIGITS = 100_000


def _report_digits() -> int:
    """The most decimal digits an integer in a report may have: as many as
    `str` prints (`sys.get_int_max_str_digits`, absent before 3.10.7), never
    above MAX_REPORT_DIGITS."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(limit, MAX_REPORT_DIGITS) if limit else MAX_REPORT_DIGITS


def default_tour_sizes(k: int) -> tuple[int, ...]:
    """The paper's tour sizes (c(1), ..., c(k)), c(i) = 2^(2^(i+1) - 3), so
    that 8 c(i)^2 = c(i+1).  Raises ResourceLimitError, before building any,
    when c(k) has more digits than a report prints."""
    digits = _report_digits()
    # 2^e < 10^digits exactly when e < bits; the first test keeps 2^(k+1) small
    bits = (10 ** digits).bit_length()
    if k >= bits.bit_length() or 2 ** (k + 1) - 3 >= bits:
        raise ResourceLimitError(
            f"tour size c({k}) = 2^(2^{k + 1} - 3) has more than {digits} digits, "
            f"the most a report prints")
    return tuple(2 ** (2 ** (i + 1) - 3) for i in range(1, k + 1))


@dataclass(frozen=True)
class RoundedWeights:
    """Normalized weights rounded up so lower-level phases tile subphases."""

    rounded: tuple[int, ...]        # rounded[0] == 1 after normalization
    multipliers: tuple[int, ...]    # per level 2..k: rounded / rounding unit


def _written(ws: Sequence[Fraction]) -> str:
    """The weights as written, for an error message; one whose digits `str`
    does not print shows as the most it prints."""
    def shown(w: Fraction) -> str:
        try:
            return format_fraction(w)
        except ValueError:
            return f"<more than {sys.get_int_max_str_digits()} digits>"
    return ",".join(map(shown, ws))


def round_weights(weights: Sequence, *,
                  tour_sizes: Sequence[int] | None = None) -> RoundedWeights:
    """Normalize by the first weight, then round each level up to the
    smallest integral multiple of twice (1 + c(i-1)) times the previous
    rounded weight, with c(i) the i-th tour size (the paper's by default).
    Input must be ascending; a rounded weight with more digits than a
    report prints raises ResourceLimitError."""
    ws = tuple(Fraction(w) for w in weights)
    if not ws:
        raise InvalidInputError("need at least one weight")
    if any(w <= 0 for w in ws):
        raise InvalidInputError(f"weights must be positive, got {_written(ws)}")
    if any(a > b for a, b in zip(ws, ws[1:])):
        raise InvalidInputError(f"weights must be ascending, got {_written(ws)}")
    if tour_sizes is None:
        tour_sizes = default_tour_sizes(len(ws))
    elif len(tour_sizes) != len(ws) or min(tour_sizes) < 1:
        raise InvalidInputError(f"need {len(ws)} tour sizes, each at least 1")
    digits = _report_digits()
    top = 10 ** digits
    rounded = [1]
    multipliers = []
    for i, c, w in zip(range(2, len(ws) + 1), tour_sizes, ws[1:]):
        unit = 2 * (1 + c) * rounded[-1]
        m = max(1, math.ceil(w / ws[0] / unit))
        if m * unit >= top:
            raise ResourceLimitError(
                f"level {i}'s rounded weight has more than {digits} digits, "
                f"the most a report prints")
        rounded.append(m * unit)
        multipliers.append(m)
    return RoundedWeights(tuple(rounded), tuple(multipliers))


def learning_topk(counts: Mapping[int, int], c: int, n_points: int) -> list[int]:
    """The c most-requested points, ties to the lower index, padded with
    virtual points (indices from n_points up) when the metric is small."""
    if c < 1:
        raise InvalidInputError(f"tour size must be >= 1, got {c}")
    ranked = sorted(range(n_points), key=lambda p: (-counts.get(p, 0), p))
    out = ranked[:c]
    virtual = n_points
    while len(out) < c:
        out.append(virtual)
        virtual += 1
    return out


class _Level:
    """The state of one level i >= 2; the bottom server is the configuration's
    first coordinate and needs none.  `counts` tallies the open subphase's
    counted requests per point.  `opened` holds the run's totals (actual,
    counted, charged) when the subphase opened, so its ledgers are their
    growth since.  `record` is the open phase's `phase_report` entry, filled
    as subphases close (point counts only when recorded), and
    `phase_records` holds the completed ones.  `light[p]` turns True at the
    first close where point p had at most 1/c of the subphase's requests,
    so `fraction_ok` needs no per-subphase counts."""

    __slots__ = (
        "i", "w", "c", "m", "n_real", "pos", "keep_counts", "lower_phases", "counts",
        "opened", "record", "light", "phase_records",
    )

    def __init__(self, i: int, w: int, c: int, m: int, n_real: int, pos: int,
                 keep_counts: bool):
        self.i = i
        self.w = w
        self.c = c
        self.m = m
        self.n_real = n_real
        self.pos = pos
        self.keep_counts = keep_counts
        self.lower_phases = 0
        self.counts: dict[int, int] = {}
        self.phase_records: list[dict] = []
        self._reset_phase()

    def _reset_phase(self):
        self.record = {
            "index": len(self.phase_records) + 1,  # 1-based among the level's phases
            "requests_per_subphase": [],           # counted
            "lower_actual_per_subphase": [],       # paid below
            "lower_charged_per_subphase": [],      # charged below
            "move_costs": [],                      # actual cost of each tour move
            "pool": None,                          # ranked at the first subphase's close
        }
        if self.keep_counts:
            self.record["point_counts"] = []
        self.light = [False] * self.n_real


class WeightedAlgorithm:
    """Serve requests on a weighted instance with the recursive tour scheme.

    Requests the joint configuration already satisfies are filtered: no
    counter advances and nothing moves, but each gets its transcript row,
    and one that comes after the top level completed a phase opens the next
    phase's summary.  Costs are in normalized rounded weight units (the
    first metric's rounded weight is 1).  `_levels` holds levels 2..k.
    """

    randomized = False

    def __init__(self, instance: Instance, start: Sequence[int] | None = None,
                 keep_transcript: bool = True, tour_sizes: Sequence[int] | None = None,
                 record_point_counts: bool = True):
        check_point_bits(instance)
        self.instance = instance
        self.tour_sizes = default_tour_sizes(instance.k) if tour_sizes is None else tuple(tour_sizes)
        self.rounded = round_weights(instance.weights, tour_sizes=self.tour_sizes)
        start = instance.check_coords((0,) * instance.k if start is None else start,
                                      what="start configuration")

        self.phase_len_1 = 2 * (self.tour_sizes[0] + 1)
        self._levels = [_Level(i, w, c, m, n, pos, record_point_counts)
                        for i, w, c, m, n, pos in zip(
                            range(2, instance.k + 1), self.rounded.rounded[1:], self.tour_sizes[1:],
                            self.rounded.multipliers, instance.sizes[1:], start[1:])]
        self.current: Config = start
        self.total_cost = 0   # actual, every level
        self.counted = 0      # also the bottom server's cost, actual and charged
        self.charged = 0      # charged moves of levels 2 and up
        self.filtered = 0
        for level in reversed(self._levels):
            # the first phase's opening move, charged to the levels above
            self.charged += level.w
            level.opened = (0, 0, self.charged)
        self.transcript: list[Step] | None = [] if keep_transcript else None
        self.phase_summaries: list[PhaseSummary] = []

    # -- public surface -----------------------------------------------------

    @property
    def phase(self) -> int:
        """The top level's open phase, counted from 1."""
        summaries = self.phase_summaries
        return len(summaries) + (not summaries or summaries[-1].complete)

    def serve(self, r: Sequence[int]) -> Step:
        r = self.instance.check_coords(r)
        pre = self.current
        summaries = self.phase_summaries
        phase_start = not summaries or summaries[-1].complete
        if phase_start:
            summaries.append(PhaseSummary(len(summaries) + 1))
        summary = summaries[-1]

        if satisfies(pre, r):
            self.filtered += 1
            post, cost = pre, 0
        else:
            self.counted += 1
            summary.requests += 1
            for level, p in zip(self._levels, r[1:]):
                level.counts[p] = level.counts.get(p, 0) + 1
            # the bottom server chases its coordinate on every counted request
            cost = 1
            self.total_cost += 1
            if self.counted % self.phase_len_1 == 0:
                cost += self._cascade(2)
                post = r[:1] + tuple(level.pos for level in self._levels)
            else:
                post = r[:1] + pre[1:]
            self.current = post

        moved = cost > 0  # a counted request moves the bottom server
        step = Step(summary.phase, r, pre, post, cost, 0, 0, 0, moved, False, phase_start)
        summary.moves += moved
        summary.cost += cost
        if self.transcript is not None:
            self.transcript.append(step)
        return step

    def run(self, requests) -> None:
        for r in requests:
            self.serve(r)
        self.finalize()

    def finalize(self) -> None:
        """Nothing to close: the open phase's summary is counted as it runs."""

    # -- internals ----------------------------------------------------------

    def _cascade(self, i: int) -> int:
        """Level i-1 just completed a phase; returns extra actual cost paid."""
        if i > self.instance.k:
            self.phase_summaries[-1].complete = True  # the top level's phase
            return 0
        level = self._levels[i - 2]
        level.lower_phases += 1
        if level.lower_phases < level.m:
            return 0

        # subphase boundary: the level's weight has been spent below, exactly,
        # the bottom server's one move per counted request included
        level.lower_phases = 0
        actual_at, counted_at, charged_at = level.opened
        nreq = self.counted - counted_at
        actual = self.total_cost - actual_at
        charged = nreq + self.charged - charged_at
        if charged != level.w:
            raise InvariantViolationError(
                f"level {i} subphase closed at charged cost {charged}, "
                f"expected exactly {level.w}"
            )
        if actual > charged:
            raise InvariantViolationError(
                f"level {i} subphase closed at actual cost {actual}, "
                f"above its charged cost {charged}"
            )
        counts, c = level.counts, level.c
        rec = level.record
        rec["requests_per_subphase"].append(nreq)
        rec["lower_actual_per_subphase"].append(actual)
        rec["lower_charged_per_subphase"].append(charged)
        level.light = [was or counts.get(p, 0) * c <= nreq for p, was in enumerate(level.light)]
        if level.keep_counts:
            rec["point_counts"].append({str(p): n for p, n in sorted(counts.items())})
        if rec["pool"] is None:
            rec["pool"] = learning_topk(counts, c, level.n_real)
        level.counts = {}

        if len(rec["requests_per_subphase"]) == c + 1:
            self._finish_level_phase(level)
            extra = self._cascade(i + 1)
        else:
            # tour the next unvisited pool point
            moves = rec["move_costs"]
            target = rec["pool"][len(moves)]
            extra = level.w if target != level.pos else 0
            moves.append(extra)
            level.pos = target
            self.total_cost += extra
        # the move is charged at the level's weight (a new phase's opening
        # move stays put); the next subphase opens after it and after any
        # cost paid above
        self.charged += level.w
        level.opened = (self.total_cost, self.counted, self.charged)
        return extra

    def _finish_level_phase(self, level: _Level) -> None:
        rec = level.record
        requests = rec["requests_per_subphase"]
        if len(set(requests)) > 1:
            raise InvariantViolationError(
                f"level {level.i} subphases served unequal request counts {requests}"
            )
        moves = rec["move_costs"]
        visited = rec["pool"][:len(moves)]
        if len(visited) != level.c or len(set(visited)) != level.c:
            raise InvariantViolationError(
                f"level {level.i} toured {len(visited)} points "
                f"({len(set(visited))} distinct), expected {level.c} distinct"
            )
        rec["subphases"] = len(requests)
        rec["fraction_ok"] = all(level.light)
        rec["total_requests"] = sum(requests)
        rec["phase_cost_actual"] = sum(rec["lower_actual_per_subphase"]) + sum(moves)
        rec["phase_cost_bound"] = 2 * (level.c + 1) * level.w
        level.phase_records.append(rec)
        level._reset_phase()

    # -- reporting ----------------------------------------------------------

    def phase_report(self) -> dict:
        """Structural summary of every completed phase, per level: copies of
        the records, whose lists are never written once the phase completes."""
        rounded, multipliers = self.rounded.rounded, self.rounded.multipliers
        levels = [{
            "level": 1,
            "weight": 1,
            "complete_phases": self.counted // self.phase_len_1,
            "requests_per_phase": self.phase_len_1,
        }]
        for level in self._levels:
            levels.append({
                "level": level.i,
                "weight": level.w,
                "tour_size": level.c,
                "multiplier": level.m,
                "complete_phases": len(level.phase_records),
                "phases": [dict(rec) for rec in level.phase_records],
            })
        return {
            "k": self.instance.k,
            "original_weights": [str(w) for w in self.instance.weights],
            "rounded_weights": list(rounded),
            "multipliers": list(multipliers),
            "rounding_units": [w // m for w, m in zip(rounded[1:], multipliers)],
            "constants_c": list(self.tour_sizes),
            "counted_requests": self.counted,
            "filtered_requests": self.filtered,
            "total_cost": self.total_cost,
            "levels": levels,
        }
