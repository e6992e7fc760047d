"""Tests for instances, satisfaction, distances, and sequence files."""

import io
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gks.core import (
    Instance,
    InvalidInputError,
    SequenceFormatError,
    hamming,
    read_sequence,
    satisfies,
    weighted_distance,
    write_sequence,
)
from gks.adversaries import random_sequence
from gks.algorithms import GenericAlgorithm, read_transcript, write_transcript
from gks.certify import (
    build_phase_matrix,
    forced_rows,
    phases_of,
    read_certificate,
    write_certificate,
)

from helpers import check_coords, monomial_expansion as poly_eval


def test_satisfies_examples():
    assert satisfies((1, 2, 3), (1, 0, 0)) is True
    assert satisfies((0, 0), (1, 1)) is False
    assert satisfies((2, 3), (1, 3)) is True
    assert poly_eval((2, 3), (1, 3)) == 0


def test_poly_eval_examples():
    assert poly_eval((2, 2), (1, 1)) == 1
    assert poly_eval((2, 3), (1, 3)) == 0
    assert poly_eval((5, 0, 5), (0, 5, 0)) == 5 * (-5) * 5 == -125


def test_satisfies_iff_poly_zero_exhaustive():
    # the lemma behind certificate verdicts read off the rows: the
    # difference product vanishes exactly when q satisfies r
    for k, n in [(1, 3), (2, 3), (3, 2), (3, 3)]:
        for q in itertools.product(range(n), repeat=k):
            for r in itertools.product(range(n), repeat=k):
                assert (poly_eval(q, r) == 0) == satisfies(q, r)


def test_hamming_examples():
    assert hamming((0, 1, 1), (0, 0, 1)) == 1
    assert hamming((4, 2), (4, 2)) == 0
    assert hamming((0, 0), (1, 1)) == 2


coords = st.integers(min_value=0, max_value=6)


@given(st.integers(1, 5).flatmap(
    lambda k: st.tuples(*[st.tuples(coords, coords, coords)] * k)))
def test_hamming_is_a_metric(cols):
    a = tuple(c[0] for c in cols)
    b = tuple(c[1] for c in cols)
    c = tuple(c[2] for c in cols)
    assert hamming(a, a) == 0
    assert hamming(a, b) == hamming(b, a)
    assert (hamming(a, b) == 0) == (a == b)
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)
    assert hamming(a, b) <= len(a)


@given(st.integers(1, 5).flatmap(
    lambda k: st.tuples(*[st.tuples(coords, coords)] * k)))
def test_satisfies_and_hamming_match_zip_forms(cols):
    a = tuple(c[0] for c in cols)
    b = tuple(c[1] for c in cols)
    assert satisfies(a, b) is any(x == y for x, y in zip(a, b))
    assert hamming(a, b) == sum(x != y for x, y in zip(a, b))
    for f in (satisfies, hamming):
        with pytest.raises(InvalidInputError,
                           match=f"coordinate count mismatch: {len(a)} vs {len(a) + 1}"):
            f(a, b + (0,))


def outcome(check, instance, t):
    try:
        return "ok", check(instance, t)
    except InvalidInputError as e:
        return "error", str(e)


oddities = st.one_of(st.integers(-3, 8), st.booleans(), st.floats(-1, 8), st.none(),
                     st.text(max_size=2), st.just(1.0), st.just(2 ** 70))


@settings(max_examples=300)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=4), st.data())
def test_check_coords_matches_the_coordinate_loop(sizes, data):
    inst = Instance.make(sizes)
    t = data.draw(st.lists(st.one_of(st.integers(0, 4), oddities), min_size=0,
                           max_size=len(sizes) + 1))
    what = data.draw(st.sampled_from(["request", "start configuration"]))
    fast = outcome(lambda i, x: i.check_coords(x, what), inst, t)
    assert fast == outcome(lambda i, x: check_coords(i, x, what), inst, t)
    if fast[0] == "ok":
        assert type(fast[1]) is tuple and fast[1] == tuple(t)


def test_weighted_distance_examples():
    w = (Fraction(1), Fraction(12))
    assert weighted_distance((0, 0), (1, 0), w) == 1
    assert weighted_distance((0, 0), (1, 1), w) == 13


@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(*[st.tuples(coords, coords)] * k)))
def test_unit_weights_reduce_to_hamming(cols):
    a = tuple(c[0] for c in cols)
    b = tuple(c[1] for c in cols)
    w = tuple(Fraction(1) for _ in a)
    assert weighted_distance(a, b, w) == hamming(a, b)


def test_dimension_mismatch_errors():
    with pytest.raises(InvalidInputError):
        satisfies((1, 2), (1, 2, 3))
    with pytest.raises(InvalidInputError):
        build_phase_matrix([((1,), (1, 2))], 1)
    with pytest.raises(InvalidInputError):
        hamming((1, 2, 3), (1, 2))
    with pytest.raises(InvalidInputError):
        weighted_distance((1, 2), (1, 2), (Fraction(1),))


def test_instance_validation():
    Instance.make([2, 3], [1, "7/2"])
    with pytest.raises(InvalidInputError):
        Instance.make([])
    with pytest.raises(InvalidInputError):
        Instance.make([2, 1])
    with pytest.raises(InvalidInputError):
        Instance.make([2, 2], [1, 0])
    with pytest.raises(InvalidInputError):
        Instance.make([2, 2], [1, -3])
    inst = Instance.uniform(2, 3)
    assert inst.is_unit_uniform
    with pytest.raises(InvalidInputError):
        inst.check_coords((0, 3))
    with pytest.raises(InvalidInputError):
        inst.check_coords((0,))


def test_sequence_roundtrip(tmp_path):
    inst = Instance.make([2, 3], [1, "7/2"])
    reqs = [(0, 2), (1, 0), (1, 1)]
    path = tmp_path / "s.gks"
    write_sequence(path, inst, reqs)
    inst2, reqs2 = read_sequence(path)
    assert inst2 == inst
    assert reqs2 == reqs


def test_sequence_comments_and_blanks():
    text = "\n".join([
        "# a comment",
        "gks-seq v1",
        "",
        "k=2",
        "sizes=2,2",
        "# another",
        "weights=1,1",
        "0,1",
        "",
        "1,0",
    ])
    inst, reqs = read_sequence(io.StringIO(text))
    assert inst.k == 2
    assert reqs == [(0, 1), (1, 0)]


@pytest.mark.parametrize("text,line", [
    ("nope\nk=2\nsizes=2,2\nweights=1,1\n", 1),
    ("gks-seq v1\nk=x\nsizes=2,2\nweights=1,1\n", 2),
    ("gks-seq v1\nk=2\nsizes=2\nweights=1,1\n", 4),
    ("gks-seq v1\nk=2\nsizes=2,2\nweights=1,0\n", 4),
    ("gks-seq v1\nk=2\nsizes=2,2\nweights=1,1\n0,zebra\n", 5),
    ("gks-seq v1\nk=2\nsizes=2,2\nweights=1,1\n0,1\n0,2\n", 6),
    ("gks-seq v1\nk=2\n\n", 4),
])
def test_sequence_errors_carry_line_numbers(text, line):
    with pytest.raises(SequenceFormatError) as exc:
        read_sequence(io.StringIO(text))
    assert exc.value.line == line


TSV = "gks-transcript v1\nk=3\nsizes=3,3,3\nweights=1,1,1\n# step\tphase\trequest\tpre\tpost\n"
ROW = "{}\t1\t1,1,1\t0,0,0\t1,0,0\t1\t3\t2\t3\n"
TSV_ROWS = TSV + "".join(ROW.format(i) for i in range(1, 16))  # 20 lines
CERT = ("gks-cert v1\nk=1\nsizes=5\nweights=1\nl=2\n"
        "M\n-1 -2\n0 -1\nA\n1 2\n1 3\nB\n-3 -4\n1 1\n")


@pytest.mark.parametrize("reader,text,line", [
    (read_transcript, TSV_ROWS, None),
    (read_transcript, "gks-transcript v1\nk=2\n", 3),
    (read_transcript, TSV_ROWS.replace("k=3", "k=x"), 2),
    (read_transcript, TSV_ROWS.replace("3\t1\t1,1,1", "3\t1\t9,9,9", 1), 8),
    (read_transcript, TSV_ROWS.replace("\t3\t2\t3\n", "\t3\t2\n", 1), 6),
    (read_transcript, TSV_ROWS.replace("\t1\t3\t", "\tone\t3\t", 1), 6),
    (read_transcript, TSV_ROWS.replace("3\t1\t1,1,1\t0,0,0\t1,0,0", "3\t1\t1,1,1\t0,0,0\t7,0,0"),
     None),
    (read_transcript, TSV_ROWS.replace("3\t1\t1,1,1\t0,0,0", "3\t1\t1,1,1\t-1,0,0"), 8),
    (read_transcript, TSV_ROWS.replace("3\t1\t1,1,1\t0,0,0\t1,0,0", "3\t1\t1,1,1\t0,0,0\t1,0"),
     8),
    (read_certificate, CERT, None),
    (read_certificate, CERT[:CERT.index("l=")], 5),
    (read_certificate, CERT.replace("k=1", "k=x"), 2),
    (read_certificate, CERT.replace("l=2", "l=0"), 5),
    (read_certificate, CERT.replace("0 -1", "0 -1 7"), 8),
    (read_certificate, CERT.replace("1 3", "1 x"), 11),
    (read_certificate, CERT.replace("A\n", "Z\n"), 9),
    (read_certificate, CERT + "5 5\n", 15),
    (read_certificate, CERT[:CERT.index("B")], 12),
], ids=["tsv-ok", "tsv-eof", "tsv-k", "tsv-range", "tsv-fields", "tsv-cost",
        "tsv-virtual-state", "tsv-negative-state", "tsv-state-width",
        "cert-ok", "cert-eof", "cert-k", "cert-l", "cert-width", "cert-int", "cert-label",
        "cert-trailing", "cert-no-b"])
def test_transcript_and_certificate_errors_carry_line_numbers(reader, text, line):
    if line is None:
        reader(io.StringIO(text))
        return
    with pytest.raises(SequenceFormatError) as exc:
        reader(io.StringIO(text))
    assert exc.value.line == line


def _valid_files():
    """(reader, lines, indices of data rows) for one file of each format."""
    inst = Instance.make([3, 2, 4], ["1", "3/2", "7"])
    seq = io.StringIO()
    write_sequence(seq, inst, random_sequence(inst, 8, seed=1))
    unit = Instance.uniform(2, 3)
    alg = GenericAlgorithm(unit)
    alg.run(random_sequence(unit, 12, seed=2))
    tsv = io.StringIO()
    write_transcript(tsv, unit, alg.transcript, meta={"alg": "det", "seed": 0})
    cert = io.StringIO()
    _, phase, _ = phases_of(alg.transcript)[0]
    write_certificate(cert, unit, build_phase_matrix(forced_rows(phase), unit.k))
    files = []
    for reader, f in ((read_sequence, seq), (read_transcript, tsv), (read_certificate, cert)):
        lines = f.getvalue().splitlines()
        rows = [] if reader is read_certificate else \
            [i for i in range(4, len(lines)) if not lines[i].startswith("#")]
        files.append((reader, lines, rows))
    return files


VALID_FILES = _valid_files()
# no character that `str.splitlines` treats as a line break
line_text = st.text(st.one_of(st.sampled_from("0123456789,\t =/-#.klxMAB"),
                              st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))),
                    max_size=12)


@st.composite
def mutated_files(draw):
    reader, lines, rows = draw(st.sampled_from(VALID_FILES))
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    at = draw(st.integers(0, len(line)))
    new = draw(st.one_of(
        line_text.map(lambda t: [t]),                                     # replace the line
        st.just([]),                                                      # delete it
        st.just([line, line]),                                            # repeat it
        line_text.map(lambda t: [line[:at] + t + line[at:]]),             # insert text
        line_text.map(lambda t: [line[:at] + t + line[at + 1:]]),         # overwrite a char
        st.just([line[:at] + line[at + 1:]]),                             # drop a char
    ))
    mutated = lines[:i] + new + lines[i + 1:]
    own_line = i + 1 if len(new) == 1 and i in rows else None
    return reader, "\n".join(mutated) + "\n", own_line


@settings(max_examples=400, deadline=None)
@given(mutated_files())
def test_mutated_files_parse_or_report_their_line(case):
    reader, text, own_line = case
    try:
        reader(io.StringIO(text))
    except SequenceFormatError as e:
        assert 1 <= e.line <= len(text.splitlines()) + 1, (e, text)
        if own_line is not None:
            assert e.line == own_line, (e, text)
