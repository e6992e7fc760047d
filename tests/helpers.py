"""Independent oracles for the test suite, kept deliberately naive, two
builders of the program's own feasible family, the scans that its kept
top dimension, maximal set and work-function minimum replaced, the box
table that the unit-weight level sets replaced, the
text-file readers and writers that the program's per-call caches
replaced, the `randrange` traffic generators that its direct bit draws
replaced, and a request sequence that chases the optimum's minimum."""

import io
import itertools
import random
from fractions import Fraction

from gks.algorithms import TRANSCRIPT_HEADER, Step, next_family
from gks.core import (
    SEQ_HEADER,
    EmptyFamilyError,
    Instance,
    InvalidInputError,
    SequenceFormatError,
    format_fraction,
    parse_fraction,
    parse_fractions,
    parse_int,
    parse_ints,
    satisfies,
)
from gks.offline import _level_sets, _on_levels, _table, check_caps
from gks.spaces import FeasibleFamily


# 40 requests on (2)^4 with weights 1, 2, 4, 8, each chasing the table's
# minimum: box work 40 * 4 * 1 = 160, optimum 11, and a rise of the
# minimum, so a scan of all 16 cells, 11 times
CHASER = [tuple(map(int, r)) for r in (
    "1111,0111,1111,1011,0111,0011,1111,1101,1011,0111,0101,0011,1111,1101,"
    "1011,1001,0111,0101,0011,0001,1111,1110,1101,1011,1001,0111,0110,0101,"
    "0011,0001,1111,1110,1101,1011,1010,1001,0111,0110,0101,0011").split(",")]


def check_coords(instance: Instance, t, what="request"):
    """A request or configuration checked coordinate by coordinate; a bool
    is no coordinate, and a request that is no iterable is no request."""
    try:
        t = tuple(t)
    except TypeError:
        raise InvalidInputError(f"{what} of type {type(t).__name__} is not a sequence") from None
    if len(t) != instance.k:
        raise InvalidInputError(f"{what} has {len(t)} coordinates, expected {instance.k}")
    for i, (x, n) in enumerate(zip(t, instance.sizes)):
        if type(x) is not int or not 0 <= x < n:
            raise InvalidInputError(f"{what} coordinate {i} = {x!r} out of range [0, {n})")
    return t


def weighted_distance(a, b, weights):
    """Sum of per-metric weights over differing coordinates."""
    if not len(a) == len(b) == len(weights):
        raise InvalidInputError(
            f"coordinate count mismatch: {len(a)}, {len(b)} and {len(weights)} weights")
    return sum((w for x, y, w in zip(a, b, weights) if x != y), Fraction(0))


def ratio_targets(tour_sizes):
    """The paper's per-level ratio targets R(1), ..., R(k) by their
    recurrence R(1) = 2^8, R(i) = 8 c(i) R(i-1) over the tour sizes c;
    the weighted algorithm reads none of them."""
    targets = [2 ** 8]
    for c in tour_sizes[1:]:
        targets.append(8 * c * targets[-1])
    return targets


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
    dist = {(a, b): weighted_distance(a, b, weights) for a in configs for b in configs}
    layer = {q: weighted_distance(tuple(start), q, weights) for q in configs}
    layers = [layer]
    for r in requests:
        serving = [s for s in configs if satisfies(s, r)]
        layer = {q: min(layer[s] + dist[s, q] for s in serving) for q in configs}
        layers.append(layer)
    return layers


def two_point_layers(instance: Instance, start, requests):
    """Yield the work-function table after 0..T requests on two-point
    metrics, as a dict from configuration tuple to exact cost, by the box
    rule: request r rewrites only the configuration q that flips every
    coordinate of r, as minⱼ (table at q with qⱼ ← rⱼ) + wⱼ.  The one dict is
    updated in place, so read it before advancing."""
    if any(n != 2 for n in instance.sizes):
        raise ValueError(f"sizes {instance.sizes} are not all two")
    weights = instance.weights
    layer = {q: weighted_distance(tuple(start), q, weights)
             for q in all_configs(instance.sizes)}
    yield layer
    for r in requests:
        q = tuple(1 - x for x in r)
        layer[q] = min(layer[q[:j] + (r[j],) + q[j + 1:]] + w for j, w in enumerate(weights))
        yield layer


def box_tables(instance: Instance, start, requests):
    """Yield (values, scale) after 0..T requests from the box table (or,
    on two-point metrics, its one-cell step), whatever engine `opt_cost`
    picks: values[j] / scale is the j-th configuration's cost in row-major
    order.  The one list is updated in place, so read it before advancing."""
    values, scale, step, _ = _table(instance, start)
    yield values, scale
    for r in requests:
        step(r)
        yield values, scale


def decoded_levels(sets, low, n_cells):
    """Level sets as a row-major table: cell c costs low + the first a
    whose set Lₐ holds c, or low + len(sets) when none does."""
    values = [low + len(sets)] * n_cells
    for a in reversed(range(len(sets))):
        for c, bit in enumerate(bin(sets[a])[:1:-1]):
            if bit == "1":
                values[c] = low + a
    return values


def engine_tables(instance: Instance, start, requests):
    """Yield (values, scale) after 0..T requests from the engine that
    `opt_cost` dispatches to, the level sets decoded into a fresh list."""
    if not _on_levels(instance):
        yield from box_tables(instance, start, requests)
        return
    sets, step, minimum = _level_sets(instance.sizes, start)
    n_cells = instance.state_count()
    yield decoded_levels(sets, minimum(), n_cells), 1
    for r in requests:
        step(r)
        yield decoded_levels(sets, minimum(), n_cells), 1


def work_function_layer(instance: Instance, start, requests, t,
                        state_cap=10_000, work_cap=50_000_000):
    """The program's layer-t table as a dict from configuration to exact cost."""
    if not 0 <= t <= len(requests):
        raise ValueError(f"layer {t} outside [0, {len(requests)}]")
    start = instance.check_coords(start, what="start configuration")
    check_caps(instance, t, state_cap, work_cap)
    instance.check_requests(requests[:t])
    for values, scale in engine_tables(instance, start, requests[:t]):
        pass
    return {q: Fraction(v, scale) for q, v in zip(all_configs(instance.sizes), values)}


def scanned_minima(instance: Instance, start, requests):
    """The program's table minimum after 0..T requests, each by a scan of
    the whole table, as `work_function_minima` found them before it kept
    the minimum between requests."""
    start = instance.check_coords(start, what="start configuration")
    instance.check_requests(requests)
    return [Fraction(min(values), scale)
            for values, scale in engine_tables(instance, start, requests)]


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


def family_patterns(fam):
    """The program family's patterns as tuples, in its slot order."""
    return [fam.pattern(m) for m in fam.spaces]


def family_union(fam, sizes):
    """Union of the members of every pattern of the program's family."""
    return {q for p in family_patterns(fam) for q in members(p, sizes)}


def opened(r, sizes):
    """The program's family after the request that opens a phase."""
    return next_family(None, r, sizes)[0]


def loop_mask(entries, width):
    """A pattern's mask built entry by entry: one block of `width` bits per
    coordinate, coordinate 0 highest, bit x set for a fixed point x."""
    m = 0
    for x in entries:
        m <<= width
        if x is not None:
            if not 0 <= x < width:
                raise InvalidInputError(f"point {x} outside [0, {width})")
            m |= 1 << x
    return m


def plant(pattern, width):
    """A family holding `pattern` alone, with the per-dimension count and
    the top dimension that the family keeps for it."""
    fam = FeasibleFamily((width,) * len(pattern))
    free = sum(1 << i for i, v in enumerate(pattern) if v is None)
    fam.spaces[loop_mask(pattern, width)] = free
    fam._dim_hist[free.bit_count()] = 1
    fam._top = free.bit_count()
    return fam


def walked_top_dimension(fam):
    """The family's largest dimension by a walk down its per-dimension
    counts, as `max_dimension_stats` found it before the family kept it."""
    if not fam.spaces:
        raise EmptyFamilyError("family is empty; the phase is over")
    for d in range(fam.k, -1, -1):
        if fam._dim_hist[d]:
            return d
    raise AssertionError("histogram out of sync")


def walked_max_dimension_stats(fam):
    d = walked_top_dimension(fam)
    return d, fam._dim_hist[d]


def scanned_max_dimension_set(fam):
    """The maximal set by a popcount scan and a sort of the whole family,
    as `max_dimension_set` listed it before the family kept it."""
    m = walked_top_dimension(fam)
    fixed = fam.k - m
    return m, sorted(mask for mask in fam.spaces if mask.bit_count() == fixed)


def replay_space_choices(steps, seed, start):
    """Re-run only the randomized algorithm's choices against an exact
    tracker's trace (`DistributionTracker.steps`).

    Draws from the RNG exactly as the randomized algorithm does: a new
    pattern at a phase start or when the adopted one left the maximal set,
    and the nearest member of the drawn pattern as the new position.
    Returns per-step (pattern, position, move cost).
    """
    rng = random.Random(seed)
    space = None
    pos = start
    out = []
    for st in steps:
        if st.phase_start or space is None or space not in st.masses:
            space = st.patterns[rng.randrange(len(st.patterns))]
            new_pos = tuple(x if v is None else v for v, x in zip(space, pos))
            cost = sum(a != b for a, b in zip(pos, new_pos))
            pos = new_pos
        else:
            cost = 0
        out.append((space, pos, cost))
    return out


def evasive_next(instance: Instance, current, rng):
    """A never-satisfied request drawn with `randrange`, as the program drew
    it before its draws took bits from `getrandbits` directly."""
    out = []
    for x, n in zip(current, instance.sizes):
        if 0 <= x < n:
            v = rng.randrange(n - 1)
            if v >= x:
                v += 1
        else:
            v = rng.randrange(n)
        out.append(v)
    return tuple(out)


def random_request(instance: Instance, rng):
    """A uniform request drawn with `randrange`, one coordinate per metric."""
    return tuple(rng.randrange(n) for n in instance.sizes)


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


# Text files, read and written line by line and field by field, with every
# line numbered by a plain loop and every point parsed or formatted where it
# stands.

def _numbered_lines(src):
    """(line number, stripped line) of each content line, and the number one
    past the last line.  Universal newlines end a line at \\n, \\r\\n or \\r
    only."""
    numbered, end = [], 1
    for lineno, line in enumerate(io.StringIO(src.read(), newline=None), start=1):
        line, end = line.strip(), lineno + 1
        if line and not line.startswith("#"):
            numbered.append((lineno, line))
    return numbered, end


def _at(lineno, parse, *args):
    """`parse(*args)`, with an input error reported at line `lineno`."""
    try:
        return parse(*args)
    except InvalidInputError as e:
        raise SequenceFormatError(str(e), lineno) from e


def _header(src, magic):
    """The header's instance and the (line number, line) pairs after it."""
    numbered, end = _numbered_lines(src)
    if not numbered:
        raise SequenceFormatError("unexpected end of file, expected header", end)
    lineno, line = numbered[0]
    if line != magic:
        raise SequenceFormatError(f"bad header {line!r}, expected {magic!r}", lineno)
    values = []
    for i, (key, parse) in enumerate(
            [("k", parse_int), ("sizes", parse_ints), ("weights", parse_fractions)], start=1):
        if len(numbered) <= i:
            raise SequenceFormatError(f"unexpected end of file, expected {key}=...", end)
        lineno, line = numbered[i]
        if not line.startswith(key + "="):
            raise SequenceFormatError(f"expected '{key}=...', got {line!r}", lineno)
        values.append(_at(lineno, parse, line[len(key) + 1:]))
    return _at(lineno, Instance, *values), numbered[4:]


def _point(instance, text):
    return check_coords(instance, parse_ints(text))


def read_sequence(src):
    instance, rows = _header(src, SEQ_HEADER)
    return instance, [_at(lineno, _point, instance, line) for lineno, line in rows]


def _fmt_tuple(t):
    return ",".join(str(x) for x in t)


def transcript_lines(steps):
    for index, s in enumerate(steps, 1):
        yield "\t".join((
            str(index), str(s.phase), _fmt_tuple(s.request), _fmt_tuple(s.pre),
            _fmt_tuple(s.post), format_fraction(s.cost), str(s.family_size),
            str(s.max_dim), str(s.max_count),
        ))


def _state(instance, text, what):
    state = parse_ints(text)
    if len(state) != instance.k or min(state) < 0:
        raise InvalidInputError(f"{what} {text!r} is not {instance.k} non-negative indices")
    return state


def _row_fields(instance, line):
    """A transcript row's nine fields, parsed left to right; the step is
    dropped once read, since a `Step` is numbered by its position."""
    parts = line.split("\t")
    if len(parts) != 9:
        raise InvalidInputError(f"expected 9 tab-separated fields, got {len(parts)}")
    request = _point(instance, parts[2])
    pre = _state(instance, parts[3], "pre-state")
    post = _state(instance, parts[4], "post-state")
    parse_int(parts[0])  # the step column; a row's step is its position
    phase = parse_int(parts[1])
    cost = parse_fraction(parts[5])
    fam_size, max_dim, max_count = map(parse_int, parts[6:])
    return phase, request, pre, post, cost, fam_size, max_dim, max_count


def read_transcript(src):
    """A transcript's rows, each taken at its word: no order checks."""
    instance, rows = _header(src, TRANSCRIPT_HEADER)
    steps = []
    prev_phase = 0
    for lineno, line in rows:
        phase, request, pre, post, cost, fam_size, max_dim, max_count = \
            _at(lineno, _row_fields, instance, line)
        steps.append(Step(
            phase=phase, request=request, pre=pre, post=post,
            cost=int(cost) if cost.denominator == 1 else cost, family_size=fam_size,
            max_dim=max_dim, max_count=max_count,
            moved=pre != post, shrunk=False, phase_start=phase != prev_phase,
        ))
        prev_phase = phase
    return instance, steps
