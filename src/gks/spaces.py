"""Subspaces of configurations with free coordinates, and their evolution.

A pattern is a k-tuple whose entries are either a fixed point index or FREE
(None).  It denotes the set of configurations agreeing with every fixed
entry.  Within a service phase the feasible configurations are maintained as
a family of such patterns: a request that leaves some member of a pattern
unsatisfied replaces that pattern with one child per free coordinate, each
child pinning that coordinate to the requested point.  A phase starts from
the whole space, the one pattern with every coordinate free.

Inside the family a pattern is its integer mask, laid out coordinate-major:
bit `(k-1-i)*W + x` set means coordinate i is fixed to point x, where W is
the largest metric size.  Coordinate 0 holds the top block, and within a
block a free coordinate (no bit) sorts below point 0, point 0 below point 1,
and so on.  So integer order of masks is the canonical order of patterns
(free < 0 < 1 < ..., coordinate 0 first), and of configurations it is
lexicographic order.  Tuples appear only where the family meets callers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import getitem
from typing import Sequence

from .core import (
    _INT,
    Config,
    EmptyFamilyError,
    InvalidInputError,
    InvariantViolationError,
    Request,
)

FREE = None
Pattern = tuple  # entries: int (fixed point) or None (free coordinate)


def pattern_str(pattern: Pattern) -> str:
    return ",".join("*" if v is None else str(v) for v in pattern)


@lru_cache(maxsize=1)
def _bit_table(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per coordinate i, the row of its nᵢ bits: entry x is `1 << ((k-1-i)*W + x)`
    for W = max(sizes).  Rows are immutable, as every family of these sizes
    shares them; only the sizes in use are kept, up to 16 MiB at the
    point-bit bound."""
    k, width = len(sizes), max(sizes)
    return tuple(tuple(1 << ((k - 1 - i) * width + x) for x in range(n))
                 for i, n in enumerate(sizes))


class FeasibleFamily:
    """The set of patterns whose union is the phase's feasible configurations.

    Each pattern is held as its mask (see the module docstring), so two
    patterns are equal exactly when their masks are, a pattern's dimension
    is k minus the mask's popcount, and a pattern has a member missing
    request r exactly when its mask shares no bit with r's.  `spaces` maps
    each alive mask to the bits of its free coordinates (bit i for
    coordinate i); `created` holds every distinct mask a request created
    since the phase began, and `_created_hist` counts them per dimension.
    Re-creation of a pattern that is still alive is merged and counted in
    `duplicate_creations` rather than kept twice.  A destroyed pattern can
    never be re-created (its members left the feasible union for good),
    which `update` checks, raising InvariantViolationError.  A point's bits
    come from a table with exactly nᵢ entries for coordinate i (see
    `point_bits`), so the family accepts exactly the requests its instance
    does, and refuses one before it changes anything.

    Between requests the family keeps its top dimension `_top` and the
    maximal set it last listed, `_maximal` (see `max_dimension_set`).  Both
    rest on one fact: the top dimension never rises within a phase.  A
    pattern is created only as a child of a doomed parent, with one
    dimension less, and the parent was alive, so no child reaches above
    the top dimension it was created under.  Hence while the top dimension
    stays d, no pattern of dimension d is created, and the alive patterns
    of dimension d at any later request are exactly those of an earlier
    list of them that are still in `spaces` (a destroyed pattern is never
    re-created, and a mask fixes its dimension).  `update` lowers `_top`
    once the histogram empties there, at most k times a phase.

    Single writer: `update` mutates in place.
    """

    __slots__ = ("k", "sizes", "width", "spaces", "created", "duplicate_creations", "_dim_hist",
                 "_created_hist", "_bits", "_top", "_maximal")

    def __init__(self, sizes: Sequence[int]):
        self.sizes = sizes = tuple(sizes)
        self.k = k = len(sizes)
        self.width = max(sizes)
        self._bits = _bit_table(sizes)
        self.spaces: dict[int, int] = {}   # alive mask -> free-coordinate bits
        self.created: set[int] = set()     # distinct masks created in the phase
        self.duplicate_creations: int = 0
        self._dim_hist: list[int] = [0] * (k + 1)  # alive count per dimension
        self._created_hist: list[int] = [0] * (k + 1)  # `created` count per dimension
        self._top = 0                      # largest dimension alive; 0 when empty
        self._maximal: tuple[int, ...] = ()  # masks last listed of dimension `_top`

    @classmethod
    def initial(cls, sizes: Sequence[int]) -> "FeasibleFamily":
        """The family a phase starts from: the whole space of a product of
        metrics with these sizes, as the one pattern with every coordinate
        free.  Its first request splits it."""
        fam = cls(sizes)
        k = fam.k
        fam.spaces[0] = (1 << k) - 1
        fam._dim_hist[k] = 1
        fam._top = k
        return fam

    def point_bits(self, point: Sequence[int]) -> list[int]:
        """The bit of each coordinate of a configuration or request, by
        coordinate; their sum is its mask.  Accepts exactly what the
        instance's `check_coords` does: k entries of type exactly `int`
        (no bool), 0 <= xᵢ < nᵢ.  A table row refuses an entry >= nᵢ, and
        one test of the minimum refuses negatives."""
        try:
            if len(point) == self.k and _INT.issuperset(map(type, point)) and min(point) >= 0:
                return list(map(getitem, self._bits, point))
        except (IndexError, TypeError):  # an entry past its row; a point with no length
            pass
        raise InvalidInputError(f"point {point!r} is not {self.k} ints in [0, nᵢ) "
                                f"for the sizes {self.sizes}")

    def position_mask(self, config: Config) -> int:
        """The mask of a configuration already checked against the instance,
        such as an algorithm's position: its bits straight from the table,
        without `point_bits`' refusals."""
        return sum(map(getitem, self._bits, config))

    def pattern(self, mask: int, slots: Sequence | None = None) -> tuple:
        """`slots` (all FREE by default) with every entry `mask` fixes set."""
        last, width = self.k - 1, self.width
        out = [FREE] * self.k if slots is None else list(slots)
        while mask:
            low = mask & -mask
            block, x = divmod(low.bit_length() - 1, width)
            out[last - block] = x
            mask ^= low
        return tuple(out)

    def __len__(self) -> int:
        return len(self.spaces)

    def update(self, r: Request) -> bool:
        """Apply a request in place; True iff any pattern split or vanished.

        A change is exactly a strict shrink of the feasible union: a pattern
        is touched only when one of its members misses r, and every such
        member is covered by no other surviving pattern.
        """
        rbits = self.point_bits(r)
        rmask = sum(rbits)
        spaces = self.spaces
        doomed = [m for m in spaces if not m & rmask]
        if not doomed:
            return False
        # Children can only collide with alive patterns: a destroyed pattern
        # left the feasible union for good, and children always sit inside
        # the current union.  Every alive pattern but the whole space (which
        # is no child) was created in the phase, so one lookup in `created`
        # clears a new child.  A clash with an alive twin is merged and
        # counted; one with a pattern created earlier but no longer alive is
        # checked.
        created = self.created
        hist = self._dim_hist
        made = self._created_hist
        for m in doomed:
            free = spaces.pop(m)
            d = free.bit_count()
            hist[d] -= 1
            rest = free
            while rest:
                low = rest & -rest
                rest ^= low
                child = m | rbits[low.bit_length() - 1]
                if child not in created:
                    spaces[child] = free ^ low
                    created.add(child)
                    hist[d - 1] += 1
                    made[d - 1] += 1
                elif child in spaces:
                    self.duplicate_creations += 1
                else:
                    raise InvariantViolationError(
                        f"destroyed pattern {pattern_str(self.pattern(child))} "
                        "re-created in its phase"
                    )
        top = self._top
        while top and not hist[top]:
            top -= 1
        self._top = top
        return True

    def max_dimension_stats(self) -> tuple[int, int]:
        """(largest dimension, how many patterns have it)."""
        if not self.spaces:
            raise EmptyFamilyError("family is empty; the phase is over")
        d = self._top
        return d, self._dim_hist[d]

    def cheapest(self, current: Config, mask: int | None = None) -> list[int]:
        """Masks of the patterns whose nearest member is cheapest from `current`.

        Entering a pattern costs its number of fixed entries that differ
        from the current position (free entries are copied), which is the
        popcount of its mask outside `current`'s.  A caller that keeps
        `current`'s mask passes it as `mask`; otherwise it is built here.
        """
        if mask is None:
            mask = sum(self.point_bits(current))
        return self._cheapest(~mask)

    def _cheapest(self, away: int) -> list[int]:
        """`cheapest` with `current`'s mask given as its complement."""
        if not self.spaces:
            raise EmptyFamilyError("family is empty; the phase is over")
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

    def nearest_member(self, current: Config, mask: int | None = None) -> Config:
        """Cheapest feasible configuration seen from `current`, whose mask
        `mask` is, when the caller keeps it (see `cheapest`).

        Ties across patterns go to the lexicographically smallest
        configuration.
        """
        if mask is None:
            mask = sum(self.point_bits(current))
        away = ~mask
        moves = {m & away for m in self._cheapest(away)}
        return min(self.pattern(move, current) for move in moves)

    def max_dimension_set(self) -> tuple[int, tuple[int, ...]]:
        """Largest dimension present and the masks of that dimension, in
        increasing order, which is the canonical pattern order; random draws
        indexed into them are reproducible.

        The family keeps the tuple it returns.  While the top dimension is
        the one it was listed at, the next call keeps the masks still alive,
        in the same order (see the class docstring); only after the top
        dimension drops does a call scan and sort the family.  A tuple, so no
        caller can change a later answer."""
        spaces = self.spaces
        if not spaces:
            raise EmptyFamilyError("family is empty; the phase is over")
        top, kept = self._top, self._maximal
        fixed = self.k - top
        if kept and kept[0].bit_count() == fixed:
            kept = tuple(filter(spaces.__contains__, kept))
        else:
            kept = tuple(sorted(mask for mask in spaces if mask.bit_count() == fixed))
        if len(kept) != self._dim_hist[top]:
            raise InvariantViolationError(
                f"{len(kept)} maximal patterns of dimension {top}, "
                f"the histogram counts {self._dim_hist[top]}")
        self._maximal = kept
        return top, kept

    def created_by_dimension(self) -> dict[int, int]:
        """Distinct patterns created in the phase per dimension, highest first."""
        made = self._created_hist
        return {d: made[d] for d in range(self.k, -1, -1) if made[d]}


def creation_bound(k: int, d: int) -> int:
    """Cap on distinct patterns of dimension d one phase can ever create."""
    return math.factorial(k) // math.factorial(d)
