"""Subspaces of configurations with free coordinates, and their evolution.

A pattern is a k-tuple whose entries are either a fixed point index or FREE
(None).  It denotes the set of configurations agreeing with every fixed
entry.  Within a service phase the feasible configurations are maintained as
a family of such patterns: a request that leaves some member of a pattern
unsatisfied replaces that pattern with one child per free coordinate, each
child pinning that coordinate to the requested point.  The tuple helpers
below are the reference form; the family itself holds each pattern as an
integer mask.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .core import (
    Config,
    ContractViolationError,
    EmptyFamilyError,
    InvalidInputError,
    InvariantViolationError,
    Request,
)

FREE = None
Pattern = tuple  # entries: int (fixed point) or None (free coordinate)


def dimension(pattern: Pattern) -> int:
    """Number of free coordinates."""
    return sum(1 for v in pattern if v is None)


def contains(pattern: Pattern, q: Config) -> bool:
    """True iff q agrees with every fixed entry of the pattern."""
    if len(pattern) != len(q):
        raise InvalidInputError(f"coordinate count mismatch: {len(pattern)} vs {len(q)}")
    return all(v is None or v == x for v, x in zip(pattern, q))


def has_infeasible(pattern: Pattern, r: Request) -> bool:
    """True iff some member of the pattern fails to satisfy r.

    Uses the O(k) fixed-entry test: with every metric holding at least two
    points, a member missing r exists exactly when every fixed entry differs
    from the corresponding requested point.
    """
    if len(pattern) != len(r):
        raise InvalidInputError(f"coordinate count mismatch: {len(pattern)} vs {len(r)}")
    return all(v is None or v != x for v, x in zip(pattern, r))


def split(pattern: Pattern, r: Request) -> list[Pattern]:
    """Children of a pattern some member of which misses r.

    One child per free coordinate, pinning it to the requested point; a fully
    fixed pattern yields no children (it is simply removed).  The children's
    union is exactly the set of members of the pattern that satisfy r.
    """
    if not has_infeasible(pattern, r):
        raise ContractViolationError(
            f"split requires an unsatisfied member: pattern {pattern_str(pattern)}, request {r}"
        )
    out = []
    for j, v in enumerate(pattern):
        if v is None:
            out.append(pattern[:j] + (r[j],) + pattern[j + 1:])
    return out


def member(pattern: Pattern, near: Config) -> Config:
    """The member of the pattern closest to `near` (free slots copied over)."""
    if len(pattern) != len(near):
        raise InvalidInputError(f"coordinate count mismatch: {len(pattern)} vs {len(near)}")
    return tuple(x if v is None else v for v, x in zip(pattern, near))


def enumerate_members(pattern: Pattern, sizes: Sequence[int]) -> Iterator[Config]:
    """All configurations in the pattern, for exhaustive checks at desk scale."""
    axes = [range(n) if v is None else (v,) for v, n in zip(pattern, sizes)]
    return itertools.product(*axes)


def pattern_sort_key(pattern: Pattern) -> tuple:
    return tuple(-1 if v is None else v for v in pattern)


def pattern_str(pattern: Pattern) -> str:
    return ",".join("*" if v is None else str(v) for v in pattern)


def parse_pattern(s: str) -> Pattern:
    out = []
    for part in s.split(","):
        part = part.strip()
        if part == "*":
            out.append(None)
        else:
            try:
                out.append(int(part))
            except ValueError as e:
                raise InvalidInputError(f"bad pattern entry {part!r}") from e
    return tuple(out)


class FeasibleFamily:
    """The set of patterns whose union is the phase's feasible configurations.

    Inside the family a pattern is its mask: bit `x*k + i` set means
    coordinate i is fixed to point x, so two patterns are equal exactly when
    their masks are, a pattern's dimension is k minus the mask's popcount,
    and a pattern has a member missing request r exactly when its mask
    shares no bit with r's.  `spaces` maps each alive mask to the bits of its
    free coordinates; `created` holds every distinct mask added since the
    phase began.  Re-creation of a pattern that is still alive is merged and
    counted in `duplicate_creations` rather than kept twice.  A destroyed
    pattern can never be re-created (its members left the feasible union for
    good), which `update` checks, raising InvariantViolationError.  Tuples
    appear only at the API boundary: iteration, membership tests,
    `max_dimension_set` and error messages.

    Single writer: `update` mutates in place for speed; take `copy()` when a
    snapshot must outlive later updates.
    """

    __slots__ = ("k", "spaces", "created", "duplicate_creations", "_dim_hist")

    def __init__(self, k: int):
        self.k = k
        self.spaces: dict[int, int] = {}   # alive mask -> free-coordinate bits
        self.created: set[int] = set()     # distinct masks created in the phase
        self.duplicate_creations: int = 0
        self._dim_hist: list[int] = [0] * (k + 1)  # alive count per dimension

    @classmethod
    def initial(cls, r: Request) -> "FeasibleFamily":
        """Family for a phase opened by request r: one pattern per coordinate."""
        k = len(r)
        fam = cls(k)
        full = (1 << k) - 1
        for i, x in enumerate(r):
            fam.spaces[1 << (x * k + i)] = full ^ (1 << i)
        fam.created.update(fam.spaces)
        fam._dim_hist[k - 1] = k
        return fam

    def mask(self, entries: Sequence) -> int:
        """Mask of a pattern, or of a configuration or request (all fixed)."""
        k = self.k
        m = 0
        for i, x in enumerate(entries):
            if x is not None:
                m |= 1 << (x * k + i)
        return m

    def pattern(self, mask: int, slots: Sequence | None = None) -> tuple:
        """`slots` (all FREE by default) with every entry `mask` fixes set."""
        k = self.k
        out = [FREE] * k if slots is None else list(slots)
        while mask:
            low = mask & -mask
            x, i = divmod(low.bit_length() - 1, k)
            out[i] = x
            mask ^= low
        return tuple(out)

    def __len__(self) -> int:
        return len(self.spaces)

    def __contains__(self, pattern: Pattern) -> bool:
        return len(pattern) == self.k and self.mask(pattern) in self.spaces

    def __iter__(self) -> Iterator[Pattern]:
        return (self.pattern(m) for m in self.spaces)

    def copy(self) -> "FeasibleFamily":
        fam = FeasibleFamily(self.k)
        fam.spaces = dict(self.spaces)
        fam.created = set(self.created)
        fam.duplicate_creations = self.duplicate_creations
        fam._dim_hist = list(self._dim_hist)
        return fam

    def update(self, r: Request) -> bool:
        """Apply a request in place; True iff any pattern split or vanished.

        A change is exactly a strict shrink of the feasible union: a pattern
        is touched only when one of its members misses r, and every such
        member is covered by no other surviving pattern.
        """
        k = self.k
        if len(r) != k:
            raise InvalidInputError(f"request has {len(r)} coordinates, expected {k}")
        rbits = [1 << (x * k + i) for i, x in enumerate(r)]
        rmask = sum(rbits)
        spaces = self.spaces
        doomed = [m for m in spaces if not m & rmask]
        if not doomed:
            return False
        # Children can only collide with alive patterns: a destroyed pattern
        # left the feasible union for good, and children always sit inside
        # the current union.  A clash with an alive twin is merged and
        # counted; one with a pattern created earlier but no longer alive is
        # checked.
        created = self.created
        hist = self._dim_hist
        for m in doomed:
            free = spaces.pop(m)
            d = free.bit_count()
            hist[d] -= 1
            if not free:
                continue
            rest = free
            while rest:
                low = rest & -rest
                rest ^= low
                child = m | rbits[low.bit_length() - 1]
                if child in spaces:
                    self.duplicate_creations += 1
                elif child in created:
                    raise InvariantViolationError(
                        f"destroyed pattern {pattern_str(self.pattern(child))} "
                        "re-created in its phase"
                    )
                else:
                    spaces[child] = free ^ low
                    created.add(child)
                    hist[d - 1] += 1
        return True

    def _top_dimension(self) -> int:
        if not self.spaces:
            raise EmptyFamilyError("family is empty; the phase is over")
        hist = self._dim_hist
        for d in range(self.k, -1, -1):
            if hist[d]:
                return d
        raise AssertionError("histogram out of sync")

    def max_dimension_stats(self) -> tuple[int, int]:
        """(largest dimension, how many patterns have it)."""
        d = self._top_dimension()
        return d, self._dim_hist[d]

    def cheapest(self, current: Config) -> list[int]:
        """Masks of the patterns whose nearest member is cheapest from `current`.

        Entering a pattern costs its number of fixed entries that differ
        from the current position (free entries are copied), which is the
        popcount of its mask outside `current`'s.
        """
        if not self.spaces:
            raise EmptyFamilyError("family is empty; the phase is over")
        away = ~self.mask(current)
        best = self.k + 1
        out: list[int] = []
        for m in self.spaces:
            c = (m & away).bit_count()
            if c < best:
                best = c
                out = [m]
            elif c == best:
                out.append(m)
        return out

    def nearest_member(self, current: Config) -> Config:
        """Cheapest feasible configuration seen from `current`.

        Ties across patterns go to the lexicographically smallest
        configuration.
        """
        away = ~self.mask(current)
        moves = {m & away for m in self.cheapest(current)}
        return min(self.pattern(move, current) for move in moves)

    def max_dimension_set(self) -> tuple[int, list[Pattern]]:
        """Largest dimension present and the patterns of that dimension.

        Patterns come back in canonical sorted order so that random draws
        indexed into the list are reproducible.
        """
        m = self._top_dimension()
        fixed = self.k - m
        top = [self.pattern(mask) for mask in self.spaces if mask.bit_count() == fixed]
        top.sort(key=pattern_sort_key)
        return m, top

    def created_by_dimension(self) -> dict[int, int]:
        """Distinct patterns created in the phase per dimension, highest first."""
        counts = [0] * (self.k + 1)
        for m in self.created:
            counts[self.k - m.bit_count()] += 1
        return {d: counts[d] for d in range(self.k, -1, -1) if counts[d]}

    def feasible_union(self, sizes: Sequence[int]) -> set[Config]:
        """Union of all members, materialized; exhaustive-test helper."""
        out: set[Config] = set()
        for pat in self:
            out.update(enumerate_members(pat, sizes))
        return out


def creation_bound(k: int, d: int) -> int:
    """Cap on distinct patterns of dimension d one phase can ever create."""
    return math.factorial(k) // math.factorial(d)
