"""Independent oracles for the test suite, kept deliberately naive, and two
builders of the program's own feasible family."""

import itertools

from gks.algorithms import next_family
from gks.core import Instance, InvalidInputError, satisfies, weighted_distance
from gks.spaces import FeasibleFamily


def check_coords(instance: Instance, t, what="request"):
    """A request or configuration checked coordinate by coordinate."""
    t = tuple(t)
    if len(t) != instance.k:
        raise InvalidInputError(f"{what} has {len(t)} coordinates, expected {instance.k}")
    for i, (x, n) in enumerate(zip(t, instance.sizes)):
        if not isinstance(x, int) or not 0 <= x < n:
            raise InvalidInputError(f"{what} coordinate {i} = {x!r} out of range [0, {n})")
    return t


def all_configs(sizes):
    return list(itertools.product(*(range(n) for n in sizes)))


def satisfying_configs(sizes, r):
    return [q for q in all_configs(sizes) if satisfies(q, r)]


def brute_force_opt(instance: Instance, start, requests):
    """Minimum cost over every explicit trajectory through satisfying states."""
    choices = [satisfying_configs(instance.sizes, r) for r in requests]
    weights = instance.weights
    best = None
    for trajectory in itertools.product(*choices):
        pos = tuple(start)
        total = 0
        for q in trajectory:
            total += weighted_distance(pos, q, weights)
            pos = q
        if best is None or total < best:
            best = total
    return best if best is not None else 0


def naive_layers(instance: Instance, start, requests):
    """Every work-function table by its definition.

    Layer 0 maps q to its distance from start; layer t maps q to the
    minimum, over configurations s satisfying the t-th request, of layer
    t-1 at s plus the distance from s to q.
    """
    configs = all_configs(instance.sizes)
    weights = instance.weights
    layer = {q: weighted_distance(tuple(start), q, weights) for q in configs}
    layers = [layer]
    for r in requests:
        serving = [s for s in configs if satisfies(s, r)]
        layer = {q: min(layer[s] + weighted_distance(s, q, weights) for s in serving)
                 for q in configs}
        layers.append(layer)
    return layers


def monomial_expansion(q, r):
    """The difference product at (q, r), summed monomial by monomial: over
    every coordinate subset S, the product of q_i on S times -r_i off S."""
    total = 0
    for s in range(1 << len(q)):
        term = 1
        for i, (qi, ri) in enumerate(zip(q, r)):
            term *= qi if s >> i & 1 else -ri
        total += term
    return total


def product_factorization_ok(cert):
    """M = A*B, summed entry by entry over every subset (a certificate
    read from a file)."""
    ell, M, A, B = cert.length, cert.M, cert.A, cert.B
    return all(M[t][tp] == sum(A[t][s] * B[s][tp] for s in range(1 << cert.k))
               for t in range(ell) for tp in range(ell))


def matrix_verdicts(cert):
    """(triangular, diagonal non-zero) read off M, with M built entry by
    entry as the monomial expansion of each state and request."""
    M = [[monomial_expansion(q, r) for r in cert.requests] for q in cert.states]
    ell = len(M)
    return (all(M[t][tp] == 0 for t in range(ell) for tp in range(t)),
            all(M[t][t] != 0 for t in range(ell)))


def exhaustive_feasible(sizes, requests):
    """All configurations satisfying every request, by full enumeration."""
    return {q for q in all_configs(sizes)
            if all(satisfies(q, r) for r in requests)}


# Patterns as tuples: k entries, None for a free coordinate.

def dimension(pattern):
    return sum(v is None for v in pattern)


def contains(pattern, q):
    return all(v is None or v == x for v, x in zip(pattern, q))


def members(pattern, sizes):
    """Every configuration the pattern denotes."""
    return itertools.product(*(range(n) if v is None else (v,) for v, n in zip(pattern, sizes)))


def canonical_key(pattern):
    """The canonical pattern order: free < 0 < 1 < ..., coordinate 0 first."""
    return tuple(-1 if v is None else v for v in pattern)


def family_union(patterns, sizes):
    """Union of the members of every pattern."""
    return {q for p in patterns for q in members(p, sizes)}


def opened(r, sizes):
    """The program's family after the request that opens a phase."""
    return next_family(None, r, sizes)[0]


def plant(pattern, width):
    """A family holding `pattern` alone."""
    fam = FeasibleFamily(len(pattern), width)
    free = sum(1 << i for i, v in enumerate(pattern) if v is None)
    fam.spaces[fam.mask(pattern)] = free
    fam._dim_hist[free.bit_count()] = 1
    return fam


class NaiveFamily:
    """A phase's feasible family as a plain set of pattern tuples.

    Patterns are k-tuples with None for a free coordinate.  Every operation
    follows its definition directly: a pattern dies when all its fixed
    entries differ from the request, and each dead pattern is replaced by
    one child per free coordinate pinned to the requested point.
    """

    def __init__(self, r):
        k = len(r)
        self.k = k
        self.alive = {tuple(r[i] if j == i else None for j in range(k)) for i in range(k)}
        self.created = set(self.alive)
        self.duplicate_creations = 0

    def update(self, r):
        doomed = [p for p in self.alive
                  if all(v is None or v != x for v, x in zip(p, r))]
        self.alive -= set(doomed)
        for p in doomed:
            for j, v in enumerate(p):
                if v is not None:
                    continue
                child = p[:j] + (r[j],) + p[j + 1:]
                if child in self.alive:
                    self.duplicate_creations += 1
                else:
                    assert child not in self.created, "destroyed pattern re-created"
                    self.alive.add(child)
                    self.created.add(child)
        return bool(doomed)

    def created_by_dimension(self):
        out = {}
        for p in self.created:
            d = dimension(p)
            out[d] = out.get(d, 0) + 1
        return out

    def max_dimension_set(self):
        m = max(dimension(p) for p in self.alive)
        top = [p for p in self.alive if dimension(p) == m]
        return m, sorted(top, key=canonical_key)

    def nearest_space(self, current):
        """Pattern with the fewest fixed entries away from `current`, ties
        by canonical order."""
        return min(self.alive, key=lambda p: (
            sum(v is not None and v != x for v, x in zip(p, current)), canonical_key(p)))

    def nearest_member(self, current):
        """Closest member over all patterns, ties to the smallest tuple."""
        members = [tuple(x if v is None else v for v, x in zip(p, current))
                   for p in self.alive]
        return min(members, key=lambda q: (sum(a != b for a, b in zip(q, current)), q))
