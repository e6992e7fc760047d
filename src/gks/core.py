"""Problem primitives: instances, joint configurations, requests, distances.

Positions are 0-based point indices, one coordinate per metric. Weights and
costs are exact (Python integers and fractions); floats never enter cost
accounting. Python integers are arbitrary precision, so the product
polynomial cannot overflow or wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from operator import attrgetter, contains, eq, ne
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar, Union

Config = tuple[int, ...]
Request = tuple[int, ...]

SEQ_HEADER = "gks-seq v1"


class GKSError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(GKSError):
    """Malformed or out-of-contract caller input."""


class SequenceFormatError(InvalidInputError):
    """Bad sequence or transcript file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message, self.line = message, line

    def __reduce__(self):
        # `args` holds only the formatted text; rebuild from both parts
        return type(self), (self.message, self.line)


class InvariantViolationError(GKSError):
    """A runtime invariant failed.  This is a finding, not a usage error."""


class EmptyFamilyError(GKSError):
    """Operation requires a nonempty feasible family."""


class ResourceLimitError(GKSError):
    """A state-space, work or point-bit bound was exceeded."""


class CertificateImpossibleError(GKSError):
    """Phase is too long for any valid certificate (the violation signal)."""


WeightLike = Union[int, str, Fraction]
T = TypeVar("T")
_INT = frozenset({int})  # the one coordinate type; a bool or an int subclass is not it
_FRACTION = frozenset({Fraction})


def below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in [0, n), n >= 1, drawn as CPython's `Random._randbelow`
    draws it: n.bit_length() bits, redrawn while n or more.  So a seed gives
    the same values and generator state; n = 1 still draws until a 0 comes."""
    if n < 1:
        raise InvalidInputError(f"empty range [0, {n})")
    b = n.bit_length()
    v = getrandbits(b)
    while v >= n:
        v = getrandbits(b)
    return v


@dataclass(frozen=True)
class Instance:
    """A product of k uniform metrics: point counts and positive weights."""

    k: int
    sizes: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError(f"k must be >= 1, got {self.k}")
        if len(self.sizes) != self.k or len(self.weights) != self.k:
            raise InvalidInputError(
                f"expected {self.k} sizes and weights, got "
                f"{len(self.sizes)} and {len(self.weights)}"
            )
        # C-level passes decide; the loops name the first bad metric.  A
        # Fraction's denominator is positive, so its sign is its numerator's
        if not (_INT.issuperset(map(type, self.sizes)) and min(self.sizes) >= 2):
            for i, n in enumerate(self.sizes):
                if not isinstance(n, int) or n < 2:
                    raise InvalidInputError(
                        f"metric {i}: point count must be an int >= 2, got {n!r}")
        if not (_FRACTION.issuperset(map(type, self.weights))
                and min(map(attrgetter("numerator"), self.weights)) > 0):
            for i, w in enumerate(self.weights):
                if not isinstance(w, Fraction) or w <= 0:
                    shown = format_fraction(w) if isinstance(w, Fraction) else repr(w)
                    raise InvalidInputError(
                        f"metric {i}: weight must be a positive Fraction, got {shown}")

    @cached_property
    def _ranges(self) -> tuple[range, ...]:
        """Each metric's points, for `check_coords`; built on first use and
        kept in the instance's __dict__, so equality, hash and repr stay
        those of (k, sizes, weights)."""
        return tuple(map(range, self.sizes))

    @classmethod
    def make(cls, sizes: Sequence[int], weights: Sequence[WeightLike] | None = None) -> "Instance":
        """Build an instance from point counts; weights default to all 1."""
        sizes = tuple(sizes)
        ws = (Fraction(1),) * len(sizes) if weights is None else tuple(map(Fraction, weights))
        return cls(len(sizes), sizes, ws)

    @classmethod
    def uniform(cls, k: int, n: int) -> "Instance":
        return cls.make([n] * k)

    @property
    def is_unit_uniform(self) -> bool:
        """True when every weight equals 1 (the plain uniform case)."""
        return all(w == 1 for w in self.weights)

    def state_count(self) -> int:
        return math.prod(self.sizes)

    def check_coords(self, t: Sequence[int], what: str = "request") -> Config:
        """Validate a request/configuration as a tuple of k coordinates, each
        of type exactly `int` (no bool or other subclass) with 0 <= xᵢ < nᵢ."""
        try:
            t = tuple(t)
        except TypeError:
            raise InvalidInputError(f"{what} of type {type(t).__name__} is not a sequence") from None
        if len(t) != self.k:
            raise InvalidInputError(f"{what} has {len(t)} coordinates, expected {self.k}")
        if not (_INT.issuperset(map(type, t)) and all(map(contains, self._ranges, t))):
            # find the first bad coordinate for the message
            for i, (x, n) in enumerate(zip(t, self.sizes)):
                if type(x) is not int or not 0 <= x < n:
                    raise InvalidInputError(f"{what} coordinate {i} = {x!r} out of range [0, {n})")
        return t

    def check_requests(self, requests: Sequence[Request]) -> None:
        """`check_coords` over a whole list in C-level passes (lengths, types,
        columns); on a failure it walks the list to name the first bad one."""
        try:
            ok = (set(map(len, requests)) == {self.k}
                  and _INT.issuperset(map(type, chain.from_iterable(requests)))
                  and all(min(col) >= 0 and max(col) < n
                          for col, n in zip(zip(*requests), self.sizes)))
        except (TypeError, ValueError):  # a request that is no sized sequence
            ok = False
        if not ok:
            for r in requests:
                self.check_coords(r)


MAX_POINT_BITS = 2 ** 14


def check_point_bits(instance: Instance) -> None:
    """Raise ResourceLimitError unless k · max(sizes), the bits of a pattern
    mask (see `spaces`), is at most MAX_POINT_BITS.  The table of point bits
    grows as its square, to about 16 MiB at the bound."""
    bits = instance.k * max(instance.sizes)
    if bits > MAX_POINT_BITS:
        raise ResourceLimitError(f"k * max(sizes) = {bits} exceeds the bound {MAX_POINT_BITS}")


def _raise_len_mismatch(a: Sequence[int], b: Sequence[int]) -> NoReturn:
    raise InvalidInputError(f"coordinate count mismatch: {len(a)} vs {len(b)}")


def satisfies(q: Config, r: Request) -> bool:
    """True iff some server already sits on its requested point."""
    if len(q) != len(r):
        _raise_len_mismatch(q, r)
    return any(map(eq, q, r))


def hamming(a: Config, b: Config) -> int:
    """Number of coordinates where the two configurations differ."""
    if len(a) != len(b):
        _raise_len_mismatch(a, b)
    return sum(map(ne, a, b))


def format_fraction(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidInputError(f"bad rational {s!r}: {e}") from e


def parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError as e:
        raise InvalidInputError(f"bad integer {s!r}") from e


def parse_ints(text: str, sep: str | None = ",") -> tuple[int, ...]:
    """A `sep`-separated list of integers (whitespace-separated for None)."""
    try:
        return tuple(int(s) for s in text.split(sep))
    except ValueError as e:
        raise InvalidInputError(f"bad integer list {text!r}: {e}") from e


def parse_fractions(text: str) -> tuple[Fraction, ...]:
    """A comma-separated list of integers or p/q rationals."""
    return tuple(parse_fraction(s) for s in text.split(","))


# ---------------------------------------------------------------------------
# Text files: request sequences, transcripts and certificates all open with
# the same instance header
#
#   <magic line, e.g. gks-seq v1>
#   k=<int>
#   sizes=<n1,...,nk>
#   weights=<w1,...,wk>     (integers or p/q rationals)
#
# Blank lines and '#'-prefixed comments are ignored everywhere.  Only \n,
# \r\n and \r end a line.  A reader parses inside a `ContentLines` block and
# raises plain InvalidInputErrors; the block reports each as a
# SequenceFormatError carrying its 1-based line number, and a file that ends
# early one line past its last.
# ---------------------------------------------------------------------------

def header_lines(magic: str, instance: Instance) -> list[str]:
    """The instance header of every gks text file."""
    return [
        magic,
        f"k={instance.k}",
        "sizes=" + ",".join(str(n) for n in instance.sizes),
        "weights=" + ",".join(format_fraction(w) for w in instance.weights),
    ]


def write_lines(dest: Union[str, Path, IO[str]], lines: Iterable[str]) -> None:
    """Write newline-terminated lines to a path or an open text stream."""
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def _split_lines(text: str) -> list[str]:
    """`text` cut at \\n, \\r\\n and \\r; a final break leaves an empty last piece."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


class ContentLines:
    """Content lines of a text file or stream, read in a `with` block that
    owns their numbers.

    Iterating yields the remaining stripped lines; `take` returns the next
    one and fails at end of file.  `line` is the number of the line last
    handed out, or one past the last line once the file has ended; an
    InvalidInputError leaving the block becomes a SequenceFormatError there.
    """

    def __init__(self, src: Union[str, Path, IO[str]]):
        if hasattr(src, "read"):
            text = src.read()
        else:
            data = Path(src).read_bytes()
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as e:
                line = len(_split_lines(data[:e.start].decode("utf-8") + "x"))
                raise SequenceFormatError("file is not UTF-8 text", line) from None
        self._lines = self._content(_split_lines(text))

    def _content(self, raw: list[str]) -> Iterator[str]:
        for self.line, s in enumerate(map(str.strip, raw), start=1):
            if s and not s.startswith("#"):
                yield s
        self.line = len(raw) + bool(raw[-1])  # one past the last line

    def __enter__(self) -> "ContentLines":
        return self

    def __exit__(self, kind, error, tb) -> None:
        if isinstance(error, InvalidInputError) and not isinstance(error, SequenceFormatError):
            raise SequenceFormatError(str(error), self.line) from error

    def __iter__(self) -> Iterator[str]:
        return self._lines

    def take(self, what: str) -> str:
        for line in self._lines:
            return line
        raise InvalidInputError(f"unexpected end of file, expected {what}")

    def field(self, key: str, parse: Callable[[str], T]) -> T:
        """Parse the next line as `key=<value>`."""
        line = self.take(f"{key}=...")
        if not line.startswith(key + "="):
            raise InvalidInputError(f"expected '{key}=...', got {line!r}")
        return parse(line[len(key) + 1:])

    def header(self, magic: str) -> Instance:
        """Parse the instance header; fields that disagree are reported on
        the weights line, the header's last."""
        line = self.take("header")
        if line != magic:
            raise InvalidInputError(f"bad header {line!r}, expected {magic!r}")
        return Instance(self.field("k", parse_int), self.field("sizes", parse_ints),
                        self.field("weights", parse_fractions))


class Memo(dict):
    """A dict that fills a missing key with `fn(key)` on first lookup."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def write_sequence(dest: Union[str, Path, IO[str]], instance: Instance,
                   requests: Iterable[Request]) -> None:
    lines = header_lines(SEQ_HEADER, instance)
    lines.extend(",".join(str(x) for x in r) for r in requests)
    write_lines(dest, lines)


def read_sequence(src: Union[str, Path, IO[str]]) -> tuple[Instance, list[Request]]:
    """Parse a sequence file: the header, then one request per line.  Each
    distinct text is parsed once, where it first occurs."""
    with ContentLines(src) as lines:
        instance = lines.header(SEQ_HEADER)
        points = Memo(lambda text: instance.check_coords(parse_ints(text)))
        return instance, [points[line] for line in lines]
