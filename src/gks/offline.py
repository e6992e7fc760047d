"""Exact offline optimum over the full configuration space.

A textbook service-system relaxation: layer t maps every configuration to
the cheapest cost of serving the first t requests and parking there, where
serving a request means passing through a configuration that satisfies it.

The distance Σ wᵢ·[aᵢ ≠ bᵢ] factors over the axes, so one min-plus step is
k axis passes v ← min(v, min(axis line) + wᵢ) (the per-axis distance
transform), O(k·N) per request instead of O(N²).  Weights are scaled once by
the common denominator, so every table is a list of exact Python ints and
results come back as Fraction(value, scale).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .core import Config, Instance, Request, ResourceLimitError

DEFAULT_STATE_CAP = 10_000
DEFAULT_WORK_CAP = 50_000_000


def _check_caps(instance: Instance, steps: int, state_cap: int, work_cap: int) -> int:
    n_states = instance.state_count()
    if n_states > state_cap:
        raise ResourceLimitError(
            f"state space {n_states} exceeds cap {state_cap}"
        )
    work = steps * instance.k * n_states
    if work > work_cap:
        raise ResourceLimitError(
            f"relaxation work {work} (= {steps} * {instance.k} * {n_states}) "
            f"exceeds cap {work_cap}"
        )
    return n_states


def _relax(v: list[int], sizes: Sequence[int], weights: Sequence[int]) -> list[int]:
    """v[q] ← min over s of v[s] + Σ wᵢ·[sᵢ ≠ qᵢ] on a row-major table.

    Each pass relaxes the innermost axis and rotates it to the outermost
    place, so the k passes run over the axes last to first and leave the
    layout row-major again.
    """
    for n, w in zip(reversed(sizes), reversed(weights)):
        cols = [v[x::n] for x in range(n)]
        best = [m + w for m in map(min, *cols)]
        v = [a if a < b else b for col in cols for a, b in zip(col, best)]
    return v


def _layers(instance: Instance, start: Config, requests: Sequence[Request],
            state_cap: int, work_cap: int):
    """Yield (t, values, scale): values[j] / scale is the layer-t cost of
    the j-th configuration in row-major (itertools.product) order."""
    n_states = _check_caps(instance, len(requests), state_cap, work_cap)
    start = instance.check_coords(start, what="start configuration")
    sizes = instance.sizes
    scale = math.lcm(*(w.denominator for w in instance.weights))
    weights = [w.numerator * (scale // w.denominator) for w in instance.weights]
    strides = [math.prod(sizes[i + 1:]) for i in range(instance.k)]
    # above every reachable cost: layer t never exceeds (t + 1) * Σw
    unreached = (len(requests) + 2) * sum(weights)

    values = [unreached] * n_states
    values[sum(x * s for x, s in zip(start, strides))] = 0
    values = _relax(values, sizes, weights)
    yield 0, values, scale
    for t, r in enumerate(requests, start=1):
        instance.check_coords(r)
        # the configurations serving r are the hyperplanes qᵢ = rᵢ, each
        # copied as one slice per offset or per block, whichever is fewer
        served = [unreached] * n_states
        for s, n, x in zip(strides, sizes, r):
            block = s * n
            if s < n_states // block:
                for j in range(x * s, x * s + s):
                    served[j::block] = values[j::block]
            else:
                for b in range(x * s, n_states, block):
                    served[b:b + s] = values[b:b + s]
        values = _relax(served, sizes, weights)
        yield t, values, scale


def opt_cost(instance: Instance, start: Sequence[int], requests: Sequence[Request],
             *, state_cap: int = DEFAULT_STATE_CAP,
             work_cap: int = DEFAULT_WORK_CAP) -> Fraction:
    """Exact cheapest total movement that serves every request in order."""
    start = tuple(start)
    if not requests:
        return Fraction(0)
    for _, values, scale in _layers(instance, start, requests, state_cap, work_cap):
        pass
    return Fraction(min(values), scale)


def work_function_layer(instance: Instance, start: Sequence[int],
                        requests: Sequence[Request], t: int,
                        *, state_cap: int = DEFAULT_STATE_CAP,
                        work_cap: int = DEFAULT_WORK_CAP) -> dict[Config, Fraction]:
    """The full layer-t table, mapping every configuration to its exact cost."""
    start = tuple(start)
    if not 0 <= t <= len(requests):
        raise ResourceLimitError(f"layer {t} outside [0, {len(requests)}]")
    for layer_t, values, scale in _layers(instance, start, requests[:t], state_cap, work_cap):
        if layer_t == t:
            configs = itertools.product(*map(range, instance.sizes))
            return {q: Fraction(v, scale) for q, v in zip(configs, values)}
    raise AssertionError("unreachable")


def work_function_minima(instance: Instance, start: Sequence[int],
                         requests: Sequence[Request],
                         *, state_cap: int = DEFAULT_STATE_CAP,
                         work_cap: int = DEFAULT_WORK_CAP) -> list[Fraction]:
    """Cheapest table value after 0..T requests, in one forward pass."""
    start = tuple(start)
    return [Fraction(min(values), scale)
            for _, values, scale in _layers(instance, start, requests, state_cap, work_cap)]
