"""Byte-for-byte guards on every file format and report the lab writes.

The digests pin the exact output of the sequence, transcript and
certificate writers and of `gks run`/`gks duel` reports (minus the
wall-clock line) for fixed seeds.  Any change to them is a change of the
determinism contract and must be deliberate.
"""

import hashlib
import io
import re

import pytest
from click.testing import CliRunner

from gks.adversaries import random_sequence, run_evasive
from gks.algorithms import GenericAlgorithm, RandomizedAlgorithm, write_transcript
from gks.certify import certify_transcript, write_certificate
from gks.cli import main
from gks.core import Instance, write_sequence

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
