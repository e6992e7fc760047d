"""Sequence and transcript files: the per-call caches of the readers and
writers against the field-by-field code they replaced, and the row order
that `read_transcript` requires of every writer's transcript."""

import dataclasses
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gks.adversaries import random_sequence, run_evasive
from gks.algorithms import ALGORITHMS, RandomizedAlgorithm, read_transcript, transcript_lines, \
    write_transcript
from gks.certify import certify_transcript, read_certificate, write_certificate
from gks.core import Instance, SequenceFormatError, read_sequence, write_sequence
from gks.weighted import WeightedAlgorithm

WEIGHTS = {1: (1,), 2: (1, 7), 3: (1, 6, 396)}


def make_run(alg, sizes, steps, seed):
    """A served run on evasive traffic; weighted runs park servers on
    virtual points."""
    if alg == "weighted":
        inst = Instance.make(sizes, WEIGHTS[len(sizes)])
        algorithm = WeightedAlgorithm(inst)
    else:
        inst = Instance.make(sizes)
        algorithm = (RandomizedAlgorithm(inst, seed=seed) if alg == "rand"
                     else ALGORITHMS[alg](inst))
    run_evasive(algorithm, steps, seed)
    return inst, algorithm.transcript


def transcript_text(inst, steps):
    out = io.StringIO()
    write_transcript(out, inst, steps, meta={"seed": 0})
    return out.getvalue()


def read_both(reader, oracle, text):
    """Both readers' result, or both errors as (type, message, line)."""
    out = []
    for read in (reader, oracle):
        try:
            out.append(read(io.StringIO(text)))
        except SequenceFormatError as e:
            out.append((type(e), str(e), e.line))
    return out


def same_steps(a, b):
    return a == b and [type(s.cost) for s in a] == [type(s.cost) for s in b]


runs = st.tuples(st.sampled_from(["det", "alt", "rand", "weighted"]),
                 st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple),
                 st.integers(0, 60), st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(runs)
def test_transcripts_match_the_field_by_field_code(run):
    inst, steps = make_run(*run)
    assert list(transcript_lines(steps)) == list(helpers.transcript_lines(steps))
    text = transcript_text(inst, steps)
    (inst1, got), (inst2, want) = read_both(read_transcript, helpers.read_transcript, text)
    assert inst1 == inst2 == inst
    assert same_steps(got, want)
    # a read transcript writes back to the same bytes
    assert transcript_text(inst, got) == text


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=4).map(tuple),
       st.integers(0, 80), st.integers(0, 10**6))
def test_sequences_match_the_field_by_field_code(sizes, steps, seed):
    inst = Instance.make(sizes)
    requests = random_sequence(inst, steps, seed)
    out = io.StringIO()
    write_sequence(out, inst, requests)
    lines = out.getvalue().splitlines()
    assert lines[4:] == [",".join(str(x) for x in r) for r in requests]
    assert read_sequence(io.StringIO(out.getvalue())) == \
        helpers.read_sequence(io.StringIO(out.getvalue())) == (inst, requests)


HAND = ("gks-transcript v1\nk=2\nsizes=3,3\nweights=1,3/2\n# a comment\n\n"
        "1\t1\t0,1\t2,2\t2,1\t3/2\t2\t1\t1\n"
        "\n# between rows\n"
        "2\t1\t1,0\t2,1\t1,1\t4/2\t1\t0\t1\n"
        "3\t2\t2,2\t1,1\t2,1\t1.5\t2\t1\t1\n"
        "4\t2\t0,0\t2,1\t0,1\t 1 \t1\t0\t1\n"
        "5\t3\t2,2\t0,1\t0,2\t0\t2\t1\t1\n")


def test_hand_rows_with_rational_costs_comments_and_blank_lines():
    (_, got), (_, want) = read_both(read_transcript, helpers.read_transcript, HAND)
    assert same_steps(got, want)
    assert [s.cost for s in got] == [Fraction(3, 2), 2, Fraction(3, 2), 1, 0]
    assert [type(s.cost).__name__ for s in got] == ["Fraction", "int", "Fraction", "int", "int"]
    assert list(transcript_lines(got)) == list(helpers.transcript_lines(got))


# one bad field per case, invalid at every k <= 3: (field index, text)
BAD_FIELDS = st.one_of(
    st.tuples(st.sampled_from([0, 1, 6, 7, 8]),
              st.sampled_from(["x", "1.5", "", "0x1", "--1", "1/2", "٣x"])),   # bad int
    st.tuples(st.just(5), st.sampled_from(["1/0", "x", "1/", "/2", "3//2", "1.5.2", "²"])),
    st.tuples(st.just(2), st.sampled_from(["9", "9,9", "9,9,9", "0,0,0,0", "-1", "0,,1"])),
    st.tuples(st.sampled_from([3, 4]), st.sampled_from(["-1", "-1,0", "0,0,-1", "a", ""])),
)


@settings(max_examples=150, deadline=None)
@given(runs.filter(lambda run: run[2] > 0), BAD_FIELDS, st.integers(0, 10**6),
       st.sampled_from(["field", "drop", "extra"]))
def test_malformed_rows_fail_alike(run, bad, pick, how):
    inst, steps = make_run(*run)
    lines = transcript_text(inst, steps).splitlines()
    rows = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    i = rows[pick % len(rows)]
    fields = lines[i].split("\t")
    if how == "field":
        at, text = bad
        fields[at] = text
    elif how == "drop":
        del fields[pick % 9]
    else:
        fields.insert(pick % 10, "0")
    lines[i] = "\t".join(fields)
    got, want = read_both(read_transcript, helpers.read_transcript, "\n".join(lines) + "\n")
    assert want[0] is SequenceFormatError and want[2] == i + 1
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 10**6),
       st.sampled_from(["0,zebra", "0,3", "-1,0", "0", "0,0,0", "1,,2", " ", "0;1"]))
def test_malformed_sequence_lines_fail_alike(steps, seed, text):
    inst = Instance.uniform(2, 3)
    out = io.StringIO()
    write_sequence(out, inst, random_sequence(inst, steps, seed))
    lines = out.getvalue().splitlines()
    lines.insert(4 + seed % (steps + 1), text)
    got, want = read_both(read_sequence, helpers.read_sequence, "\n".join(lines) + "\n")
    assert got == want


@pytest.mark.parametrize("alg", ["det", "alt", "rand"])
def test_every_unit_writer_meets_the_row_rules(alg):
    inst, steps = make_run(alg, (3, 3, 3), 400, 11)
    _, got = read_transcript(io.StringIO(transcript_text(inst, steps)))
    assert got == [dataclasses.replace(s, shrunk=False) for s in steps]


@pytest.mark.parametrize("sizes,weights", [((3, 4, 4), (1, 6, 396)), ((3, 3), (1, 7)),
                                           ((2, 2, 2), (1, 6, 396))])
def test_long_weighted_runs_meet_the_row_rules(sizes, weights):
    inst = Instance.make(sizes, weights)
    algorithm = WeightedAlgorithm(inst)
    run_evasive(algorithm, 20_000, 5)
    _, got = read_transcript(io.StringIO(transcript_text(inst, algorithm.transcript)))
    assert got == algorithm.transcript
    assert any(x >= n for s in got for x, n in zip(s.post, sizes))  # virtual points


@pytest.mark.parametrize("alg", ["det", "alt", "rand", "weighted"])
def test_served_rows_read_back_unchanged(alg):
    """On random traffic a weighted run filters requests the configuration
    already meets, and a filtered row can open a phase; every row read back
    is the served row but for `shrunk`, which the file does not carry."""
    filtered_openers = 0
    for seed in range(10):
        if alg == "weighted":
            inst = Instance.make((3, 3), (1, 7))
            algorithm = WeightedAlgorithm(inst)
        else:
            inst = Instance.uniform(3, 3)
            algorithm = (RandomizedAlgorithm(inst, seed=seed) if alg == "rand"
                         else ALGORITHMS[alg](inst))
        algorithm.run(random_sequence(inst, 300, seed))
        served = algorithm.transcript
        _, read = read_transcript(io.StringIO(transcript_text(inst, served)))
        assert read == [dataclasses.replace(s, shrunk=False) for s in served]
        filtered_openers += sum(s.phase_start and s.cost == 0 for s in served)
    if alg == "weighted":
        assert filtered_openers


def test_write_sequence_takes_points_of_any_sequence_type():
    out = io.StringIO()
    write_sequence(out, Instance.uniform(2, 2), [[0, 1], (1, 0), range(2)])
    assert out.getvalue().splitlines()[4:] == ["0,1", "1,0", "0,1"]


def file_texts():
    """A sequence, a transcript and a certificate of one small run."""
    inst, steps = make_run("det", (2, 2), 12, 3)
    cert_text = io.StringIO()
    _, cert, verdicts = next(iter(certify_transcript(inst, steps)))
    write_certificate(cert_text, inst, cert, verdicts)
    seq_text = io.StringIO()
    write_sequence(seq_text, inst, [s.request for s in steps])
    return {read_sequence: seq_text.getvalue(), read_transcript: transcript_text(inst, steps),
            read_certificate: cert_text.getvalue()}


@pytest.mark.parametrize("reader", [read_sequence, read_transcript, read_certificate],
                         ids=["sequence", "transcript", "certificate"])
@pytest.mark.parametrize("bad, newline, line", [
    (b"\xff\xfe", b"\n", 5),
    (b"0,\xe2\x82", b"\n", 6),      # a multi-byte character cut short
    (b"\xff\xfe", b"\r\n", 7),
])
def test_non_utf8_file_is_a_format_error_at_its_line(tmp_path, reader, bad, newline, line):
    lines = file_texts()[reader].encode().splitlines()
    path = tmp_path / "bad.txt"
    path.write_bytes(newline.join(lines[:line - 1] + [bad] + lines[line:]) + newline)
    with pytest.raises(SequenceFormatError, match=f"^line {line}: file is not UTF-8 text$"):
        reader(path)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([read_sequence, read_transcript]), st.integers(0, 10**6),
       st.sampled_from("\f\v\x1c\x1d\x1e\x85\u2028\u2029"), st.sampled_from(["\n", "\r\n", "\r"]),
       st.booleans())
def test_other_line_separators_read_alike(reader, pick, separator, newline, final_break):
    """Only \\n, \\r\\n and \\r end a line: the reader and the oracle, which
    numbers lines through universal newlines, agree on a file with another
    separator inside one of its lines."""
    oracle = {read_sequence: helpers.read_sequence, read_transcript: helpers.read_transcript}
    lines = file_texts()[reader].splitlines()
    i = pick % len(lines)
    at = pick % (len(lines[i]) + 1)
    lines[i] = lines[i][:at] + separator + lines[i][at:]
    text = newline.join(lines) + (newline if final_break else "")
    got, want = read_both(reader, oracle[reader], text)
    assert got == want
