"""A fixed pure-Python loop that measures how fast the machine runs right now.

It imitates the lab's hot loops (bit masks kept in a dict, tuples rebuilt
slot by slot, popcounts, small exact sums, then min-plus relaxation over
lists as in the exact optimum) but imports nothing from `gks`, so a change
to the program leaves its time alone while load from other processes on the
machine slows it about as much as it slows the program.  Dict-heavy code
slows more under such load than list arithmetic does, so it has both.
"""

import random
from fractions import Fraction
from time import perf_counter


def work() -> tuple[int, Fraction, int]:
    rng = random.Random(12345)
    masks = {tuple(rng.randrange(5) for _ in range(8)): rng.getrandbits(40) for _ in range(600)}
    total = Fraction(0)
    hits = 0
    for step in range(12):
        request = rng.getrandbits(40)
        survivors = {}
        for pattern, mask in masks.items():
            if mask & request:
                survivors[pattern] = mask
            else:
                for j in range(3):
                    child = pattern[:j] + (step % 5,) + pattern[j + 1:]
                    survivors[child] = mask | (1 << j)
        masks = dict(list(survivors.items())[:600])
        hits += sum((mask & request).bit_count() for mask in masks.values())
        total += Fraction(hits, step + 1)
    n = 32
    dist = [[(a ^ b).bit_count() for b in range(n)] for a in range(n)]
    values = [rng.randrange(20) for _ in range(n)]
    for _ in range(8):
        serving = [j for j in range(n) if rng.random() < 0.7]
        new = []
        for j in range(n):
            best = None
            for s in serving:
                v = values[s] + dist[s][j]
                if best is None or v < best:
                    best = v
            new.append(best)
        values = new
    return hits, total, min(values)


def best_time(repeats: int) -> float:
    """Least time of `repeats` runs of `work`, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        work()
        best = min(best, perf_counter() - t0)
    return best
