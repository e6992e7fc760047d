"""Exact offline optimum over the full configuration space.

The work function: layer t maps every configuration q to the cheapest cost
of serving the first t requests and parking at q, where serving a request
means passing through a configuration that satisfies it.  Layer 0 is the
weighted distance d(start, q) = Σ wᵢ·[startᵢ ≠ qᵢ].

Every layer is w-Lipschitz, v[a] ≤ v[b] + d(a, b) (Koutsoupias and
Papadimitriou, "On the k-server conjecture", J. ACM 1995): layer 0 is a
distance, and each next layer is a minimum over serving s of v[s] + d(s, ·).
So a request r changes only the box B(r) = {q : qᵢ ≠ rᵢ for all i} of the
configurations that miss it:

* a serving q keeps v[q], since no serving s gives less than v[s] + d(s, q);
* a box cell q becomes minⱼ v[q with qⱼ ← rⱼ] + wⱼ, since every serving s
  has some sⱼ = rⱼ, and q with qⱼ ← rⱼ serves r and is wⱼ closer to s.

Box cells read only serving cells, so one request updates the table in
place at O(k·∏(nᵢ − 1)).  On two-point metrics the box is a single cell:
the configuration that flips every coordinate of r, at row-major index
(N − 1) − Σ rᵢ·sᵢ for strides sᵢ.  Its k reads lie at ∓sᵢ from it, so such
a request costs k reads and one write, and no box lists are built.
Weights are scaled once by the common denominator, so every table is a list
of exact Python ints and results come back as Fraction(value, scale).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, getitem, mul, sub
from typing import Sequence

from .core import Config, Instance, Request, ResourceLimitError

DEFAULT_STATE_CAP = 10_000
DEFAULT_WORK_CAP = 50_000_000
_SHOWN_MAX = 10 ** 18    # a cap message prints larger counts as ">10^18"


def _shown(x: int) -> str:
    return str(x) if x <= _SHOWN_MAX else ">10^18"


def check_caps(instance: Instance, steps: int, state_cap: int = DEFAULT_STATE_CAP,
               work_cap: int = DEFAULT_WORK_CAP) -> None:
    """Raise ResourceLimitError unless the optimum of `steps` requests fits
    the caps on the table's size and on the box work, steps · k · ∏(nᵢ − 1)."""
    for n_states in accumulate(instance.sizes, mul):  # exact until past cap and _SHOWN_MAX
        if n_states > max(state_cap, _SHOWN_MAX):
            break
    if n_states > state_cap:
        raise ResourceLimitError(
            f"state space {_shown(n_states)} exceeds cap {_shown(state_cap)}"
        )
    box = math.prod(n - 1 for n in instance.sizes)  # at most the state count
    work = steps * instance.k * box
    if work > work_cap:
        raise ResourceLimitError(
            f"box work {_shown(work)} (= {_shown(steps)} * {_shown(instance.k)} * "
            f"{_shown(box)}) exceeds cap {_shown(work_cap)}"
        )


def _table(instance: Instance, start: Config):
    """(values, scale, step): values[j] / scale is the cost of the j-th
    configuration in row-major (itertools.product) order, layer 0 at first;
    step(r) advances the one table in place to the next layer and returns
    what it rewrote: r's box as a list of cells, or on two-point metrics its
    one cell.  The start, the caps and the requests are checked by the
    caller."""
    sizes = instance.sizes
    scale = math.lcm(*(w.denominator for w in instance.weights))
    weights = [w.numerator * (scale // w.denominator) for w in instance.weights]
    strides = [math.prod(sizes[i + 1:]) for i in range(instance.k)]

    values = [0]
    for n, w, x in zip(sizes, weights, start):
        values = [v + (0 if y == x else w) for v in values for y in range(n)]
    # Instance refuses sizes below 2, so a largest size of 2 means two points everywhere
    if max(sizes) == 2:
        return values, scale, _two_point_step(values, strides, weights)
    # per axis, the offsets -(n-1)s .. -s, s .. (n-1)s: the n - 1 of them from
    # -x·s on lead from point x to the axis's other points.  Repeated once per
    # box cell inside the axis and tiled once per cell outside it, that window
    # is each box cell's offset along the axis in box order, undone to read
    # the serving cell with qᵢ ← rᵢ.
    axes = []
    outer, inner = 1, math.prod(n - 1 for n in sizes)
    for n, s in zip(sizes, strides):
        inner //= n - 1
        offsets = [d * s for d in range(1 - n, n) if d]
        axes.append((offsets, [d for d in offsets for _ in range(inner)], n - 1, inner, outer))
        outer *= n - 1

    def box_step(r):
        box = [sum(map(mul, r, strides))]
        backs = []
        for (offsets, repeated, m, inner, outer), x in zip(axes, r):
            shift = offsets[m - x:2 * m - x]
            box = [c + d for c in box for d in shift]
            backs.append(repeated[(m - x) * inner:(2 * m - x) * inner] * outer)
        candidates = [[values[c - d] + w for c, d in zip(box, back)]
                      for back, w in zip(backs, weights)]
        for c, v in zip(box, map(min, zip(*candidates))):
            values[c] = v
        return box

    return values, scale, box_step


def _two_point_step(values: list[int], strides: Sequence[int], weights: Sequence[int]):
    """The update for request r when every metric has two points: its box is
    the one cell c = (N - 1) - Σ rᵢ·sᵢ that flips every coordinate of r, and
    qᵢ ← rᵢ moves c by -sᵢ when rᵢ = 0 and by +sᵢ when rᵢ = 1."""
    last = len(values) - 1
    flips = [(s, -s) for s in strides]
    read = values.__getitem__

    def step(r):
        c = last - sum(map(mul, r, strides))
        values[c] = min(map(add, map(read, map(sub, repeat(c), map(getitem, flips, r))),
                            weights))
        return c
    return step


def opt_cost(instance: Instance, start: Sequence[int], requests: Sequence[Request],
             *, state_cap: int = DEFAULT_STATE_CAP,
             work_cap: int = DEFAULT_WORK_CAP) -> Fraction:
    """Exact cheapest total movement that serves every request in order."""
    start = instance.check_coords(start, what="start configuration")
    if not requests:
        return Fraction(0)
    check_caps(instance, len(requests), state_cap, work_cap)
    instance.check_requests(requests)
    values, scale, step = _table(instance, start)
    for r in requests:
        step(r)
    return Fraction(min(values), scale)


def work_function_minima(instance: Instance, start: Sequence[int],
                         requests: Sequence[Request],
                         *, state_cap: int = DEFAULT_STATE_CAP,
                         work_cap: int = DEFAULT_WORK_CAP) -> list[Fraction]:
    """Cheapest table value after 0..T requests, in one forward pass.

    Table values never decrease, so the pass keeps the minimum and the
    cells that hold it; a request drops those of its rewritten cells that
    rose, and only when none is left is the table scanned for the next
    minimum.  A scan can follow every request at worst, so besides the box
    work the T·N cells that would scan must fit `work_cap` too; no requests
    need no table."""
    start = instance.check_coords(start, what="start configuration")
    if not requests:
        return [Fraction(0)]
    check_caps(instance, len(requests), state_cap, work_cap)
    scan = len(requests) * instance.state_count()
    if scan > work_cap:
        raise ResourceLimitError(
            f"minimum scan {scan} (= {len(requests)} * {instance.state_count()}) "
            f"exceeds cap {work_cap}"
        )
    instance.check_requests(requests)
    values, scale, step = _table(instance, start)
    if max(instance.sizes) == 2:  # the two-point step rewrites one cell
        one = step
        step = lambda r: (one(r),)
    low = min(values)
    at_low = {c for c, v in enumerate(values) if v == low}
    minima = [low]
    for r in requests:
        for c in at_low.intersection(step(r)):
            if values[c] != low:
                at_low.remove(c)
        if not at_low:
            low = min(values)
            at_low = {c for c, v in enumerate(values) if v == low}
        minima.append(low)
    return [Fraction(v, scale) for v in minima]
