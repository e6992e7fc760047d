"""Subspaces of configurations with free coordinates, and their evolution.

A pattern is a k-tuple whose entries are either a fixed point index or FREE
(None).  It denotes the set of configurations agreeing with every fixed
entry.  Within a service phase the feasible configurations are maintained as
a family of such patterns: a request that leaves some member of a pattern
unsatisfied replaces that pattern with one child per free coordinate, each
child pinning that coordinate to the requested point.
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
    satisfies,
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

    The family is keyed by pattern content: identity is equality of slots.
    `created` logs every distinct pattern added since the phase began,
    together with its dimension; re-creation of a pattern that is still
    alive is merged and counted in `duplicate_creations` rather than kept
    twice.  A destroyed pattern can never be re-created (its members left
    the feasible union for good), which `update` checks, raising
    InvariantViolationError.

    Single writer: `update` mutates in place for speed; take `copy()` when a
    snapshot must outlive later updates.

    Internally each alive pattern is stored packed: its dimension in the
    low bits and, above them, a bitmask with one lazily interned bit per
    (coordinate, point) pair the pattern fixes.  A pattern survives a
    request exactly when its mask intersects the request's mask, so the hot
    update path is one integer AND per pattern.
    """

    __slots__ = ("k", "spaces", "created", "duplicate_creations", "_bitpos", "_dim_hist")

    _DIM_BITS = 5
    _DIM_MASK = (1 << _DIM_BITS) - 1

    def __init__(self, k: int):
        if k > self._DIM_MASK:
            raise InvalidInputError(f"supports up to {self._DIM_MASK} coordinates, got {k}")
        self.k = k
        self.spaces: dict[Pattern, int] = {}          # alive pattern -> packed entry
        self.created: dict[Pattern, int] = {}         # distinct creations -> dimension
        self.duplicate_creations: int = 0
        self._bitpos: dict[tuple[int, int], int] = {}  # (coordinate, point) -> mask bit
        self._dim_hist: list[int] = [0] * (k + 1)      # alive count per dimension

    def _bit(self, i: int, v: int) -> int:
        key = (i, v)
        pos = self._bitpos.get(key)
        if pos is None:
            pos = len(self._bitpos) + self._DIM_BITS
            self._bitpos[key] = pos
        return pos

    @classmethod
    def initial(cls, r: Request) -> "FeasibleFamily":
        """Family for a phase opened by request r: one pattern per coordinate."""
        k = len(r)
        fam = cls(k)
        for i in range(k):
            pat = (None,) * i + (r[i],) + (None,) * (k - i - 1)
            fam.spaces[pat] = (1 << fam._bit(i, r[i])) | (k - 1)
            fam.created[pat] = k - 1
        fam._dim_hist[k - 1] = k
        return fam

    def __len__(self) -> int:
        return len(self.spaces)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern in self.spaces

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.spaces)

    def dimension_of(self, pattern: Pattern) -> int:
        return self.spaces[pattern] & self._DIM_MASK

    def copy(self) -> "FeasibleFamily":
        fam = FeasibleFamily(self.k)
        fam.spaces = dict(self.spaces)
        fam.created = dict(self.created)
        fam.duplicate_creations = self.duplicate_creations
        fam._bitpos = dict(self._bitpos)
        fam._dim_hist = list(self._dim_hist)
        return fam

    def update(self, r: Request) -> bool:
        """Apply a request in place; True iff any pattern split or vanished.

        A change is exactly a strict shrink of the feasible union: a pattern
        is touched only when one of its members misses r, and every such
        member is covered by no other surviving pattern.
        """
        if len(r) != self.k:
            raise InvalidInputError(f"request has {len(r)} coordinates, expected {self.k}")
        bitpos = self._bitpos
        rmask = 0
        for i, x in enumerate(r):
            pos = bitpos.get((i, x))
            if pos is not None:
                rmask |= 1 << pos
        spaces = self.spaces
        doomed = [pat for pat, v in spaces.items() if not (v & rmask)]
        if not doomed:
            return False
        # Children can only collide with alive patterns: a destroyed pattern
        # left the feasible union for good, and children always sit inside
        # the current union.  A clash with an alive twin is merged and
        # counted; one with a pattern logged but no longer alive is checked.
        created = self.created
        hist = self._dim_hist
        dim_mask = self._DIM_MASK
        dim_bits = self._DIM_BITS
        for pat in doomed:
            v = spaces.pop(pat)
            d = v & dim_mask
            hist[d] -= 1
            if d == 0:
                continue
            base = v - d  # the pattern's fixed-slot mask, already shifted
            dm1 = d - 1
            scratch = list(pat)
            for j, slot in enumerate(pat):
                if slot is None:
                    scratch[j] = r[j]
                    child = tuple(scratch)
                    scratch[j] = None
                    if child in spaces:
                        self.duplicate_creations += 1
                    elif child in created:
                        raise InvariantViolationError(
                            f"destroyed pattern {pattern_str(child)} re-created in its phase"
                        )
                    else:
                        key = (j, r[j])
                        pos = bitpos.get(key)
                        if pos is None:
                            pos = len(bitpos) + dim_bits
                            bitpos[key] = pos
                        spaces[child] = base | (1 << pos) | dm1
                        created[child] = dm1
                        hist[dm1] += 1
        return True

    def max_dimension_stats(self) -> tuple[int, int]:
        """(largest dimension, how many patterns have it)."""
        if not self.spaces:
            raise EmptyFamilyError("family is empty; the phase is over")
        hist = self._dim_hist
        for d in range(self.k, -1, -1):
            if hist[d]:
                return d, hist[d]
        raise AssertionError("histogram out of sync")

    def nearest_member(self, current: Config) -> Config:
        """Cheapest feasible configuration seen from `current`.

        Entering a pattern costs its number of fixed entries that differ
        from the current position (free entries are copied).  Ties across
        patterns go to the lexicographically smallest configuration, the
        same rule as the generic selection over explicit pattern lists.
        """
        if not self.spaces:
            raise EmptyFamilyError("family is empty; the phase is over")
        cmask = 0
        bitpos = self._bitpos
        for i, x in enumerate(current):
            pos = bitpos.get((i, x))
            if pos is not None:
                cmask |= 1 << pos
        k = self.k
        dim_mask = self._DIM_MASK
        best_cost = k + 1
        best_pats: list[Pattern] = []
        for pat, v in self.spaces.items():
            # fixed slots agreeing with `current` are exactly the shared mask bits
            c = k - (v & dim_mask) - (v & cmask).bit_count()
            if c < best_cost:
                best_cost = c
                best_pats = [pat]
            elif c == best_cost:
                best_pats.append(pat)
        return min(member(p, current) for p in best_pats)

    def max_dimension_set(self) -> tuple[int, list[Pattern]]:
        """Largest dimension present and the patterns of that dimension.

        Patterns come back in canonical sorted order so that random draws
        indexed into the list are reproducible.
        """
        if not self.spaces:
            raise EmptyFamilyError("family is empty; the phase is over")
        dim_mask = self._DIM_MASK
        m = max(v & dim_mask for v in self.spaces.values())
        top = [p for p, v in self.spaces.items() if v & dim_mask == m]
        top.sort(key=pattern_sort_key)
        return m, top

    def created_by_dimension(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.created.values():
            out[d] = out.get(d, 0) + 1
        return out

    def feasible_union(self, sizes: Sequence[int]) -> set[Config]:
        """Union of all members, materialized; exhaustive-test helper."""
        out: set[Config] = set()
        for pat in self.spaces:
            out.update(enumerate_members(pat, sizes))
        return out


def creation_bound(k: int, d: int) -> int:
    """Cap on distinct patterns of dimension d one phase can ever create."""
    return math.factorial(k) // math.factorial(d)
