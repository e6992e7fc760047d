"""Request generators: closed-loop lower-bound strategy and open-loop traffic.

The closed-loop adversary watches only the algorithm's configuration and
always requests the unique tuple the current configuration misses (every
metric must then have exactly two points).  A round lasts until the
algorithm has visited every configuration, forcing it to pay per visit
while a clairvoyant mover could park near the end of the tour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    Config,
    Instance,
    InvalidInputError,
    Request,
    ResourceLimitError,
    below,
    satisfies,
)


def antipodal_next(instance: Instance, current: Sequence[int]) -> Request:
    """The unique request unsatisfied by `current`; needs two-point metrics."""
    if instance.sizes.count(2) != instance.k:
        raise InvalidInputError(
            f"antipodal adversary requires every metric to have 2 points, got {instance.sizes}"
        )
    return tuple(map((1).__sub__, instance.check_coords(current, what="configuration")))


def evasive_next(instance: Instance, current: Sequence[int],
                 rng: random.Random) -> Request:
    """A uniformly random request that `current`, k ints >= 0, does not satisfy.

    Coordinates parked on virtual points (indices beyond the metric, as the
    weighted tour can produce) never match a real request, so those draw
    from the full range.  Each draw is `below`'s, inlined.  A coordinate is
    checked when the loop reaches it, which costs less than a separate pass,
    so a refused configuration may have drawn for the ones before it.
    """
    if len(current) != instance.k:
        raise InvalidInputError(
            f"configuration has {len(current)} coordinates, expected {instance.k}")
    getrandbits = rng.getrandbits
    out = []
    for x, n in zip(current, instance.sizes):
        if type(x) is not int or x < 0:
            raise InvalidInputError(f"configuration {tuple(current)!r} must hold ints >= 0")
        if x < n:  # draw below n - 1 and step over x; a virtual x is never reached
            n -= 1
        b = n.bit_length()
        v = getrandbits(b)
        while v >= n:
            v = getrandbits(b)
        out.append(v + 1 if v >= x else v)
    return tuple(out)


def random_request(instance: Instance, rng: random.Random) -> Request:
    getrandbits = rng.getrandbits
    return tuple([below(getrandbits, n) for n in instance.sizes])


def random_sequence(instance: Instance, steps: int, seed: int) -> list[Request]:
    rng = random.Random(seed)
    return [random_request(instance, rng) for _ in range(steps)]


def run_evasive(algorithm, steps: int, seed: int) -> list[Request]:
    """Drive an algorithm with never-satisfied requests; returns the sequence."""
    rng = random.Random(seed)
    instance = algorithm.instance
    out = []
    for _ in range(steps):
        r = evasive_next(instance, algorithm.current, rng)
        out.append(r)
        algorithm.serve(r)
    algorithm.finalize()
    return out


@dataclass
class ClosedLoopResult:
    requests: list[Request]
    rounds_completed: int
    round_lengths: list[int]
    algorithm_cost: int
    adversary_model: str   # "deterministic" or "oblivious-invalid"


def run_closed_loop(algorithm, rounds: int) -> ClosedLoopResult:
    """Rounds of the visit-everything strategy against a served algorithm.

    Each round repeats the request the current configuration misses until
    all 2^k configurations have been visited, then the visited set resets to
    the configuration the algorithm ends the round on.  A per-round step cap
    of 2^(2k) guards against non-termination.
    """
    instance = algorithm.instance
    if instance.sizes.count(2) != instance.k:
        raise InvalidInputError(
            f"closed-loop strategy requires every metric to have 2 points, got {instance.sizes}"
        )
    k = instance.k
    target = 2 ** k
    cap = 2 ** (2 * k)
    model = "oblivious-invalid" if getattr(algorithm, "randomized", False) else "deterministic"

    requests: list[Request] = []
    round_lengths: list[int] = []
    for _ in range(rounds):
        visited = {algorithm.current}
        steps_this_round = 0
        while len(visited) < target:
            r = antipodal_next(instance, algorithm.current)
            if satisfies(algorithm.current, r):
                raise AssertionError("antipodal request must be unsatisfied")
            requests.append(r)
            algorithm.serve(r)
            visited.add(algorithm.current)
            steps_this_round += 1
            if steps_this_round > cap:
                raise ResourceLimitError(
                    f"round exceeded step cap {cap} with {len(visited)}/{target} "
                    f"configurations visited"
                )
        round_lengths.append(steps_this_round)
    algorithm.finalize()
    return ClosedLoopResult(
        requests=requests,
        rounds_completed=rounds,
        round_lengths=round_lengths,
        algorithm_cost=algorithm.total_cost,
        adversary_model=model,
    )
