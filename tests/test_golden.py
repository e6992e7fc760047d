"""Byte-for-byte guards on every file format and report the lab writes.

The digests pin the exact output of the sequence, transcript and
certificate writers and of `gks run`/`gks duel` reports (minus the
wall-clock line) for fixed seeds.  Any change to them is a change of the
determinism contract and must be deliberate.
"""

import hashlib
import io
import json
import re

import pytest
from click.testing import CliRunner

from gks.adversaries import random_sequence, run_evasive
from gks.algorithms import (
    ALGORITHMS,
    DistributionTracker,
    GenericAlgorithm,
    RandomizedAlgorithm,
    transcript_lines,
    write_transcript,
)
from gks.certify import certify_transcript, write_certificate
from gks.cli import main
from gks.core import Instance, write_sequence
from gks.weighted import WeightedAlgorithm

from helpers import replay_space_choices

WALL_LINE = re.compile(r'^\s*"wall_clock_sec": .*\n', re.MULTILINE)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_sequence_bytes():
    inst = Instance.make([2, 3, 4], [1, "3/2", 7])
    buf = io.StringIO()
    write_sequence(buf, inst, random_sequence(inst, 40, seed=5))
    assert sha(buf.getvalue()) == "d046f3369f34fd88b0306eb547094dce46711bfa29a14f654b97456a5db2a5c2"


def test_transcript_bytes():
    inst = Instance.uniform(3, 3)
    alg = RandomizedAlgorithm(inst, seed=4)
    alg.run(random_sequence(inst, 120, seed=9))
    buf = io.StringIO()
    write_transcript(buf, inst, alg.transcript, meta={"alg": "rand", "seed": 4})
    assert sha(buf.getvalue()) == "a27b0fc6c5869f7d3e528a91d0767dbab898d0441efb8eb341a35c61709373af"


def test_certificate_bytes():
    inst = Instance.uniform(3, 3)
    alg = GenericAlgorithm(inst)
    run_evasive(alg, 60, seed=2)
    buf = io.StringIO()
    for _, cert, v in certify_transcript(inst, alg.transcript):
        write_certificate(buf, inst, cert, v)
    assert sha(buf.getvalue()) == "1a02243be837fcd91d7b5cff91ba01bb4702d6a041ec7e4923961d5eb269d0cc"


@pytest.mark.parametrize("args,digest", [
    (["run", "--alg", "rand", "--gen", "random", "--k", "3", "--sizes", "3",
      "--steps", "150", "--seed", "7", "--certify", "--opt"],
     "2d0eace5a02370701a9a5c662b7d8e0cdb980636e746247377601a4fce099e63"),
    (["run", "--alg", "weighted", "--gen", "evasive", "--k", "2", "--sizes", "2",
      "--weights", "1,7", "--steps", "120", "--seed", "3", "--opt"],
     "6b0863b60e18c245c4819c83e5c12ad37defc68ca756307d00208f05088ed7eb"),
    (["duel", "--alg", "alt", "--k", "3", "--rounds", "4", "--seed", "1"],
     "763abafc1043f2a7279a1cd544d0dfda92c87410762ab00eb193a01816ea6d6a"),
])
def test_report_bytes(tmp_path, args, digest):
    """The report without its wall-clock line, then every file the command wrote."""
    files = ["r.json", "s.gks"] + (["t.tsv"] if args[0] == "run" else [])
    paths = [str(tmp_path / f) for f in files]
    args = args + ["--out", paths[0], "--dump-seq", paths[1]]
    if args[0] == "run":
        args += ["--transcript-out", paths[2]]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    texts = [(tmp_path / f).read_text() for f in files]
    assert WALL_LINE.search(texts[0])
    assert sha(WALL_LINE.sub("", texts[0]) + "".join(texts[1:])) == digest


def test_opt_trace_bytes(tmp_path):
    """Every layer minimum of a rational-weight optimum, from a non-zero start."""
    inst = Instance.make([3, 4, 2], [1, "3/2", 7])
    path = tmp_path / "w.gks"
    write_sequence(path, inst, random_sequence(inst, 40, seed=8))
    result = CliRunner().invoke(main, ["opt", "--seq", str(path), "--start", "2,1,0",
                                       "--trace-wf"])
    assert result.exit_code == 0, result.output
    assert sha(result.output) == "a641b85ca92a929575cbadc8a43c483c4500425cd89cb6dec3bbd397ec90fc55"


@pytest.mark.parametrize("alg_id,digest", [
    ("det", "9e1b1a9b72aef6583e7be246db9bddd0e655bb374ca5e8d158899120ddad5391"),
    ("alt", "2a07958a175f46e149ed632506adf96c76a303e297f1e6e8a4849400571fe259"),
    ("rand", "03f2a664c04b41973411722124ed11421420160c034fbc4a1334c22c8a1d3363"),
])
def test_phase_summaries(alg_id, digest):
    """Every PhaseSummary field, including the family counts reports leave out."""
    text = []
    for k, n, traffic in ((3, 3, "random"), (4, 2, "evasive"), (5, 3, "evasive")):
        inst = Instance.uniform(k, n)
        cls = ALGORITHMS[alg_id]
        alg = cls(inst, 11) if cls is RandomizedAlgorithm else cls(inst)
        if traffic == "random":
            alg.run(random_sequence(inst, 300, seed=k))
        else:
            run_evasive(alg, 300, seed=k)
        text.append(repr(alg.phase_summaries))
    assert sha("\n".join(text)) == digest


def test_tracker_trace_and_replay():
    """Every TrackerStep field, then the replayed choices for two seeds."""
    text = []
    for k, n in ((3, 3), (4, 2)):
        inst = Instance.uniform(k, n)
        trace = DistributionTracker(inst).run(random_sequence(inst, 200, seed=k + n))
        text.extend(map(repr, trace))
        for seed in (0, 5):
            text.append(repr(replay_space_choices(trace, seed, (0,) * k)))
    assert sha("\n".join(text)) == "2d61cf0e26b2f17ce5f3160eef7a40f78d773117dcf3dceee5001e7a5ca0292a"


def test_unequal_sizes_transcripts_and_tracker():
    """Followers' transcripts and a tracker trace where metric sizes differ,
    so some axes use fewer points than the widest one."""
    text = []
    for sizes in ((2, 5, 3), (4, 2, 2, 3)):
        inst = Instance.make(sizes)
        seq = random_sequence(inst, 250, seed=len(sizes))
        for alg in (ALGORITHMS["alt"](inst), RandomizedAlgorithm(inst, seed=6)):
            alg.run(seq)
            text.extend(transcript_lines(alg.transcript))
            text.append(repr(alg.phase_summaries))
        evasive = ALGORITHMS["alt"](inst)
        text.append(repr(run_evasive(evasive, 120, seed=2)))
        text.extend(transcript_lines(evasive.transcript))
        trace = DistributionTracker(inst).run(seq[:150])
        text.extend(map(repr, trace))
        text.append(repr(replay_space_choices(trace, 3, (0,) * len(sizes))))
    assert sha("\n".join(text)) == "888295ff83051b93ac37476e3fbec6cc7354ef96db3ef3be61e91cf767f9ebeb"


def test_weighted_records():
    """Weighted phase summaries, phase report and transcript under random
    traffic, whose satisfied requests are filtered."""
    text = []
    for sizes, weights, kw, steps in (
        ([3], [1], {}, 200),
        ([3, 3], [1, 7], {}, 3000),
        ([2, 2, 2], [1, 6, 60], dict(tour_sizes=(2, 4, 8), record_point_counts=False), 3000),
    ):
        inst = Instance.make(sizes, weights)
        alg = WeightedAlgorithm(inst, **kw)
        alg.run(random_sequence(inst, steps, seed=len(sizes)))
        assert alg.filtered
        text.append(repr(alg.phase_summaries))
        text.append(json.dumps(alg.phase_report(), sort_keys=True))
        text.extend(transcript_lines(alg.transcript))
    assert sha("\n".join(text)) == "1cb969cf7adba651421bfce2b3acd3fc9008799c0dcc5ec7a1a183c7124e9dd3"
