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

Three engines apply this rule, chosen by the instance:

* Every metric of two points: the box is a single cell, the configuration
  that flips every coordinate of r, at row-major index (N − 1) − Σ rᵢ·sᵢ
  for strides sᵢ.  The strides are powers of two, so its k reads lie at
  index XOR sᵢ, and a request costs k reads and one write.
* Unit weights and every metric of three or more points: level sets.  Any
  two configurations are at most k apart, so by the Lipschitz bound
  v − min v takes only the values 0..k, and the layer is kept as its
  minimum and the k nested sets Lₐ = {q : v[q] ≤ min + a}, a < k, each a
  Python int with one bit per row-major cell.  A box cell reaches level a
  when some qⱼ ← rⱼ lies in Lₐ₋₁, so the box's part of Lₐ is Lₐ₋₁ cut to
  the slab {qⱼ = rⱼ} and shifted by (y − rⱼ)·sⱼ onto every other point y,
  ORed over the axes: a few whole-table bit operations per level, in
  place of k reads per box cell.  The minimum rises by at most one per
  request, when L₀ lies inside the box (a box cell's serving neighbour is
  at most one above it).  This ran 2.3–16× faster than the box table on
  unit shapes from (3,3) to (4)^6, and about 17× per request at (5)^8
  (`BENCH_level_opt.json`).
* Otherwise the box table: a list of exact ints, and per request each box
  cell reads its k serving neighbours, O(k·∏(nᵢ − 1)).  Level sets ran
  slower on most such shapes: with weights, one set per distinct value ran
  at 0.55–0.70× the table on (3,4,4)/(1,6,396) and (4,4,4)/(1,3/2,7); and
  where two-point metrics keep the box to a few cells, as on (2)^11×(3),
  (2)^6×(3)^4 and (2)^8×(4), the unit level sets ran at 0.36–0.78×.

The three share one contract, which `_engine` returns once the checks pass:
step(r) advances the layer in place, and minimum() returns its least value.
Level sets carry their minimum.  A table keeps the last minimum it found
and a count of the cells that hold it: a step rewrites box cells only, each
to more than a value it reads, so it lowers the count for each rewritten
cell that held the minimum, and minimum() scans only at a count of 0, once
the minimum has risen.  So `opt_cost` scans at most once, and
`work_function_minima` once per rise, with the cells its scans read held to
the work cap.  The caps count box work for every engine.
Weights are scaled once by the common denominator, so every table is exact
and results come back as Fraction(value, scale).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import add, getitem, mul, xor
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
    """(values, scale, step, minimum), with step and minimum as above:
    values[j] / scale is the cost of the j-th configuration in row-major
    (itertools.product) order, layer 0 at first; step(r) is the one-cell
    step on two-point metrics and the box step otherwise; and minimum(cap)
    refuses once its scans would read more than `cap` cells in all.  The
    start, the caps and the requests are checked by the caller."""
    sizes = instance.sizes
    scale = math.lcm(*(w.denominator for w in instance.weights))
    weights = [w.numerator * (scale // w.denominator) for w in instance.weights]
    strides = [math.prod(sizes[i + 1:]) for i in range(instance.k)]

    values = [0]
    for n, w, x in zip(sizes, weights, start):
        values = [v + (0 if y == x else w) for v in values for y in range(n)]
    low, count, scans = 0, 1, 0  # only the start costs 0

    def minimum(cap=math.inf):
        nonlocal low, count, scans
        if not count:
            scans += 1
            if scans * len(values) > cap:
                raise ResourceLimitError(f"minimum scans read {scans * len(values)} cells "
                                         f"(= {scans} * {len(values)}) past cap {cap}")
            low = min(values)
            count = values.count(low)
        return low

    # Instance refuses sizes below 2, so a largest size of 2 means two points everywhere
    if max(sizes) == 2:
        last = len(values) - 1
        read = values.__getitem__

        def two_point_step(r):
            nonlocal count
            c = last - sum(map(mul, r, strides))
            if values[c] == low:
                count -= 1
            values[c] = min(map(add, map(read, map(xor, repeat(c), strides)), weights))
        return values, scale, two_point_step, minimum
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
        nonlocal count
        box = [sum(map(mul, r, strides))]
        backs = []
        for (offsets, repeated, m, inner, outer), x in zip(axes, r):
            shift = offsets[m - x:2 * m - x]
            box = [c + d for c in box for d in shift]
            backs.append(repeated[(m - x) * inner:(2 * m - x) * inner] * outer)
        candidates = [[values[c - d] + w for c, d in zip(box, back)]
                      for back, w in zip(backs, weights)]
        for c, v in zip(box, map(min, zip(*candidates))):
            if values[c] == low:
                count -= 1
            values[c] = v

    return values, scale, box_step, minimum


def _on_levels(instance: Instance) -> bool:
    """True when the optimum runs on level sets: unit weights, and every
    metric of three or more points."""
    return min(instance.sizes) >= 3 and instance.is_unit_uniform


def _tiled(pattern: int, period: int, times: int) -> int:
    """`times` copies of `pattern`, `period` bits apart, by doubling."""
    tiled = width = 0
    while times:
        if times & 1:
            tiled |= pattern << width
            width += period
        pattern |= pattern << period
        period *= 2
        times >>= 1
    return tiled


def _level_sets(sizes: Sequence[int], start: Config):
    """(sets, step, minimum) for a unit-weight instance.  sets is [L₀, L₁,
    ...]: bit c of Lₐ is set when the c-th configuration in row-major order
    costs at most the minimum + a, and the list stops before the first set
    that would hold every cell.  step(r) advances sets in place to the next
    layer, and minimum() returns the minimum that they carry, with no scan
    to cap.  The start, the caps and the requests are checked by the
    caller."""
    n_cells = math.prod(sizes)
    full = (1 << n_cells) - 1
    # per axis and point x: the slab {qᵢ = x} and the shifts that carry it
    # onto the axis's other points
    strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
    axes = []
    for n, stride in zip(sizes, strides):
        slab = _tiled((1 << stride) - 1, n * stride, n_cells // (n * stride))
        axes.append([(slab << x * stride,
                      [(y - x) * stride for y in range(x + 1, n)],
                      [(x - y) * stride for y in range(x)])
                     for x in range(n)])

    def reached(below, moves):
        """The cells one move away, along some axis j, from a cell of
        `below` on the j-th slab of `moves`."""
        out = 0
        for slab, ups, downs in moves:
            part = below & slab
            if part:
                for d in ups:
                    out |= part << d
                for d in downs:
                    out |= part >> d
        return out

    moves = list(map(getitem, axes, start))
    # layer 0: Lₐ holds the cells that differ from the start on at most a
    # coordinates, and only Lₖ holds every cell
    sets = [1 << sum(map(mul, start, strides))]
    for _ in sizes[1:]:
        sets.append(sets[-1] | reached(sets[-1], moves))
    low = 0

    def level_step(r):
        nonlocal low
        moves = list(map(getitem, axes, r))
        serving = 0  # r's slabs
        for slab, _, _ in moves:
            serving |= slab
        box = full ^ serving
        new = [sets[0] & serving]
        for below, level in zip(sets, chain(sets[1:], (full,))):
            cells = (level & serving) | (reached(below, moves) & box)
            if cells == full:
                break
            new.append(cells)
        if not new[0]:  # L₀ lay inside the box: the minimum rises by one
            del new[0]
            low += 1
        sets[:] = new
    return sets, level_step, lambda cap=None: low


def _engine(instance: Instance, start: Sequence[int], requests: Sequence[Request],
            state_cap: int, work_cap: int):
    """(scale, step, minimum) for serving `requests` from `start`: step(r)
    advances the layer in place, and minimum(cap) returns its least value,
    in units of 1 / scale, counting any scan it makes against `cap`.  The
    start, the caps and the requests are checked first, in that order; no
    requests need no table, and their minimum is 0."""
    start = instance.check_coords(start, what="start configuration")
    if not requests:
        return 1, None, lambda cap=None: 0
    check_caps(instance, len(requests), state_cap, work_cap)
    instance.check_requests(requests)
    if _on_levels(instance):
        return 1, *_level_sets(instance.sizes, start)[1:]
    return _table(instance, start)[1:]


def opt_cost(instance: Instance, start: Sequence[int], requests: Sequence[Request],
             *, state_cap: int = DEFAULT_STATE_CAP,
             work_cap: int = DEFAULT_WORK_CAP) -> Fraction:
    """Exact cheapest total movement that serves every request in order."""
    scale, step, minimum = _engine(instance, start, requests, state_cap, work_cap)
    for r in requests:
        step(r)
    return Fraction(minimum(), scale)


def work_function_minima(instance: Instance, start: Sequence[int],
                         requests: Sequence[Request],
                         *, state_cap: int = DEFAULT_STATE_CAP,
                         work_cap: int = DEFAULT_WORK_CAP) -> list[Fraction]:
    """Cheapest table value after 0..T requests, in one forward pass.

    A table scans for its minimum only once every cell that held it has
    risen, and the cells those scans read must fit `work_cap` as the box
    work does; level sets carry their minimum and never scan."""
    scale, step, minimum = _engine(instance, start, requests, state_cap, work_cap)
    minima = [minimum(work_cap)]
    for r in requests:
        step(r)
        minima.append(minimum(work_cap))
    return [Fraction(v, scale) for v in minima]
