"""End-to-end tests of the command-line surface."""

import json
import re
from fractions import Fraction

import pytest
from click.testing import CliRunner

from gks.adversaries import random_sequence
from gks.algorithms import read_transcript, transcript_lines
from gks import certify, cli
from gks.cli import exact_decimal, main
from gks.certify import CertificateVerdicts, read_certificate, verify_certificate
from gks.core import CertificateImpossibleError, Instance, write_sequence


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def seq_file(tmp_path):
    inst = Instance.uniform(2, 2)
    path = tmp_path / "s.gks"
    write_sequence(path, inst, [(0, 1), (1, 0), (1, 1), (0, 0), (0, 1), (1, 0)])
    return path


def read_report(path):
    return json.loads(path.read_text())


def strip_wallclock(report):
    report = dict(report)
    report.pop("wall_clock_sec", None)
    return report


def test_exact_decimal():
    assert exact_decimal(Fraction(7, 3)) == "2.333333"
    assert exact_decimal(Fraction(1, 2)) == "0.500000"
    assert exact_decimal(Fraction(-1, 8), places=2) == "-0.13"
    assert exact_decimal(Fraction(5)) == "5.000000"


def test_run_det_report(runner, seq_file, tmp_path):
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["run", "--alg", "det", "--seq", str(seq_file),
                                  "--out", str(out), "--opt", "--certify"])
    assert result.exit_code == 0, result.output
    report = read_report(out)
    assert report["schema"] == "gks-report v1"
    assert report["instance"] == {"k": 2, "sizes": [2, 2], "weights": ["1", "1"]}
    # hand-traced: moves at the 3rd (cost 2), 4th and 6th requests
    assert report["total_cost"] == "4"
    # every config misses one of the four distinct requests; two moves suffice
    assert report["opt"] == "2"
    assert report["ratio"] == "2.000000"
    assert all(c["triangular"] and c["diagonal_nonzero"] and c["factorization_ok"]
               for c in report["certificates"])
    assert any(p["complete"] for p in report["phases"])


def test_run_reports_deterministic(runner, seq_file, tmp_path):
    outs = []
    for name in ["a.json", "b.json"]:
        out = tmp_path / name
        result = runner.invoke(main, ["run", "--alg", "rand", "--seq", str(seq_file),
                                      "--seed", "7", "--out", str(out)])
        assert result.exit_code == 0, result.output
        outs.append(strip_wallclock(read_report(out)))
    assert outs[0] == outs[1]


def test_run_generated_seeds_differ(runner, tmp_path):
    reports = {}
    for seed in ["7", "8"]:
        out = tmp_path / f"r{seed}.json"
        result = runner.invoke(main, [
            "run", "--alg", "rand", "--gen", "random", "--steps", "200",
            "--k", "3", "--sizes", "3", "--seed", seed, "--out", str(out),
            "--transcript-out", str(tmp_path / f"t{seed}.tsv")])
        assert result.exit_code == 0, result.output
        reports[seed] = read_report(out)
    assert reports["7"] != reports["8"]
    t7 = (tmp_path / "t7.tsv").read_text()
    t8 = (tmp_path / "t8.tsv").read_text()
    assert t7 != t8


def test_run_seed_sweep(runner, seq_file, tmp_path):
    out = tmp_path / "sweep.json"
    result = runner.invoke(main, ["run", "--alg", "rand", "--seq", str(seq_file),
                                  "--seeds", "1,2,3", "--jobs", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    for seed in [1, 2, 3]:
        report = read_report(tmp_path / f"sweep.seed{seed}.json")
        assert report["seed"] == seed


def test_failed_verdict_exits_2_after_every_report(runner, tmp_path, monkeypatch):
    # the single-seed and the sweep path alike write every report first
    failing = CertificateVerdicts(triangular=True, diagonal_nonzero=True,
                                  factorization_ok=False)
    monkeypatch.setattr(certify, "verify_certificate", lambda cert: failing)
    evasive = ["run", "--alg", "det", "--gen", "evasive", "--steps", "40", "--k", "2",
               "--sizes", "3", "--certify", "--jobs", "1"]
    for seeds, names in ((["--seed", "1"], ["one.json"]),
                         (["--seeds", "1,2"], ["sweep.seed1.json", "sweep.seed2.json"])):
        out = tmp_path / names[0].split(".")[0]
        result = runner.invoke(main, evasive + seeds + ["--out", f"{out}.json"])
        assert result.exit_code == 2, result.output
        assert "certificate verdict failed" in result.stderr
        for name in names:
            certificates = read_report(tmp_path / name)["certificates"]
            assert certificates and not any(c["factorization_ok"] for c in certificates)


def assert_input_error(result, text=""):
    """Exit 1 through the error path: an `error:` line, no traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stderr.startswith("error: ") and text in result.stderr, result.stderr


def test_run_flag_validation(runner, seq_file, tmp_path):
    result = runner.invoke(main, ["run", "--alg", "det"])
    assert_input_error(result)
    result = runner.invoke(main, ["run", "--alg", "det", "--seq", str(seq_file),
                                  "--gen", "random"])
    assert_input_error(result)
    gen = ["run", "--alg", "det", "--gen", "random", "--k", "2"]
    for flags in (["--sizes", "3,x"], ["--sizes", "3", "--weights", "1,x"],
                  ["--sizes", "3", "--seeds", "1,x"], ["--sizes", "3,3,3"],
                  ["--sizes", "3", "--weights", "1,1,1"], ["--sizes", "3", "--start", "0,x"]):
        assert_input_error(runner.invoke(main, gen + flags))
    # the weighted algorithm rejects descending weights when it is built
    assert_input_error(runner.invoke(main, ["run", "--alg", "weighted", "--gen", "random",
                                            "--k", "2", "--sizes", "3", "--weights", "3,1"]),
                       "weights must be ascending")
    # values click rejects itself end with its usage message, but also exit 1
    missing = str(tmp_path / "missing.gks")
    for args, text in ((["run", "--alg", "det", "--gen", "random", "--k", "x", "--sizes", "3"],
                        "'--k'"),
                       (gen + ["--sizes", "3", "--steps", "x"], "'--steps'"),
                       (gen + ["--sizes", "3", "--steps", "-5"], "'--steps'"),
                       (["duel", "--k", "2", "--rounds", "-1"], "'--rounds'"),
                       (gen + ["--sizes", "3", "--seeds", "1,2", "--jobs", "0"], "'--jobs'"),
                       (gen + ["--sizes", "3", "--seeds", "1,2", "--jobs", "-3"], "'--jobs'"),
                       (["run", "--alg", "det", "--seq", missing], "'--seq'"),
                       (["run", "--alg", "bogus", "--gen", "random", "--k", "2", "--sizes", "3"],
                        "'--alg'"),
                       (["certify", "--transcript", missing], "'--transcript'"),
                       (["bogus"], "No such command"),
                       (["run", "--bogus"], "No such option")):
        result = runner.invoke(main, args)
        assert result.exit_code == 1, (args, result.output)
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Error: " in result.stderr and text in result.stderr, result.stderr


def test_opt_command(runner, seq_file):
    result = runner.invoke(main, ["opt", "--seq", str(seq_file)])
    assert result.exit_code == 0
    assert result.output.strip() == "2"


def test_opt_weighted_rational(runner, tmp_path):
    inst = Instance.make([2, 2], ["1/3", "1/3"])
    path = tmp_path / "w.gks"
    write_sequence(path, inst, [(1, 1)])
    result = runner.invoke(main, ["opt", "--seq", str(path)])
    assert result.exit_code == 0
    assert result.output.strip() == "1/3"


def test_opt_resource_cap_exit(runner, seq_file):
    result = runner.invoke(main, ["opt", "--seq", str(seq_file), "--work-cap", "1"])
    assert result.exit_code == 3


def test_opt_default_caps_cover_k4_n5_t300(runner, tmp_path):
    # 625 states and 300 requests: 307,200 units of T·k·∏(nᵢ − 1) work
    inst = Instance.uniform(4, 5)
    path = tmp_path / "big.gks"
    write_sequence(path, inst, random_sequence(inst, 300, seed=1))
    result = runner.invoke(main, ["opt", "--seq", str(path)])
    assert result.exit_code == 0, result.output
    assert int(result.output) > 0
    result = runner.invoke(main, ["opt", "--seq", str(path), "--work-cap", "1"])
    assert result.exit_code == 3
    assert "(= 300 * 4 * 256)" in result.stderr


def test_opt_default_caps_cover_two_point_k12_t2000(runner, tmp_path):
    # 4,096 states and 2,000 requests: 24,000 units of box work, where
    # T·k·N would be 98,304,000
    inst = Instance.uniform(12, 2)
    path = tmp_path / "k12.gks"
    write_sequence(path, inst, random_sequence(inst, 2000, seed=2))
    result = runner.invoke(main, ["opt", "--seq", str(path)])
    assert result.exit_code == 0, result.output
    assert int(result.output) > 0


def test_opt_trace_wf_counts_the_minimum_scan(runner, tmp_path):
    # 1,024 states and 100 requests: 1,000 units of box work fit the cap,
    # but the per-layer minima scan T·N = 102,400 cells
    inst = Instance.uniform(10, 2)
    path = tmp_path / "k10.gks"
    write_sequence(path, inst, random_sequence(inst, 100, seed=4))
    args = ["opt", "--seq", str(path), "--work-cap", "50000"]
    assert runner.invoke(main, args).exit_code == 0
    result = runner.invoke(main, args + ["--trace-wf"])
    assert result.exit_code == 3
    assert "minimum scan 102400 (= 100 * 1024)" in result.stderr


def test_malformed_sequence_exit_and_line(runner, tmp_path):
    bad = tmp_path / "bad.gks"
    bad.write_text("gks-seq v1\nk=2\nsizes=2,2\nweights=1,1\n0,7\n")
    result = runner.invoke(main, ["run", "--alg", "det", "--seq", str(bad)])
    assert_input_error(result, "line 5")
    truncated = tmp_path / "t.tsv"
    truncated.write_text("gks-transcript v1\nk=2\n")
    result = runner.invoke(main, ["certify", "--transcript", str(truncated)])
    assert_input_error(result, "line 3: unexpected end of file")


def test_duel_report(runner, tmp_path):
    out = tmp_path / "duel.json"
    seqout = tmp_path / "duel.gks"
    result = runner.invoke(main, ["duel", "--alg", "det", "--k", "2",
                                  "--rounds", "5", "--out", str(out),
                                  "--dump-seq", str(seqout)])
    assert result.exit_code == 0, result.output
    report = read_report(out)
    assert report["adversary"] == "antipodal"
    assert report["adversary_model"] == "deterministic"
    assert float(report["ratio"]) >= 1.0
    assert seqout.exists()
    opt_check = runner.invoke(main, ["opt", "--seq", str(seqout)])
    assert opt_check.output.strip() == report["opt"]


def test_duel_checks_optimum_caps_before_serving(runner, monkeypatch):
    def serve(*args, **kwargs):
        raise AssertionError("served before the optimum's caps were checked")

    monkeypatch.setattr(cli, "run_closed_loop", serve)
    result = runner.invoke(main, ["duel", "--k", "14", "--rounds", "1"])
    assert result.exit_code == 3
    assert "state space 16384 exceeds cap 10000" in result.stderr


def test_duel_oblivious_label(runner, tmp_path):
    out = tmp_path / "duel.json"
    result = runner.invoke(main, ["duel", "--alg", "rand", "--k", "2",
                                  "--rounds", "2", "--seed", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert read_report(out)["adversary_model"] == "oblivious-invalid"


def test_certify_inline_and_transcript(runner, seq_file, tmp_path):
    transcript = tmp_path / "t.tsv"
    result = runner.invoke(main, ["run", "--alg", "det", "--seq", str(seq_file),
                                  "--transcript-out", str(transcript)])
    assert result.exit_code == 0, result.output
    inline = runner.invoke(main, ["certify", "--alg", "det", "--seq", str(seq_file),
                                  "--cert-out", str(tmp_path / "certs")])
    assert inline.exit_code == 0, inline.output
    assert "OK" in inline.output
    assert list((tmp_path / "certs").glob("*.cert"))
    from_file = runner.invoke(main, ["certify", "--transcript", str(transcript)])
    assert from_file.exit_code == 0, from_file.output
    assert "VIOLATION" not in from_file.output


@pytest.mark.parametrize("args, flag", [
    (["run", "--alg", "det", "--gen", "random", "--k", "2", "--sizes", "2", "--steps", "6"],
     "--out"),
    (["run", "--alg", "det", "--gen", "random", "--k", "2", "--sizes", "2", "--steps", "6"],
     "--transcript-out"),
    (["run", "--alg", "det", "--gen", "random", "--k", "2", "--sizes", "2", "--steps", "6"],
     "--dump-seq"),
    (["duel", "--k", "2", "--rounds", "1"], "--out"),
    (["duel", "--k", "2", "--rounds", "1"], "--dump-seq"),
])
def test_unusable_output_path_is_an_input_error(runner, tmp_path, args, flag):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    dest = str(blocker / "r.json")
    assert_input_error(runner.invoke(main, args + [flag, dest]),
                       f"error: {dest}: Not a directory")


def test_certify_unusable_cert_out_is_an_input_error(runner, seq_file, tmp_path):
    transcript = tmp_path / "t.tsv"
    result = runner.invoke(main, ["run", "--alg", "det", "--seq", str(seq_file),
                                  "--transcript-out", str(transcript)])
    assert result.exit_code == 0, result.output
    blocker = tmp_path / "afile"
    blocker.write_text("")
    dest = str(blocker / "sub")
    result = runner.invoke(main, ["certify", "--transcript", str(transcript),
                                  "--cert-out", dest])
    # the transcript has a complete phase, so a certificate is due
    assert "phase 1:" in result.stdout
    assert_input_error(result, f"error: {dest}: Not a directory")


def test_certify_writes_a_k13_certificate(runner, tmp_path):
    # one forced row in phase 1, closed by a row of phase 2: a certificate
    # past k = 12 is written like any other and verifies from its file
    k = 13
    zero, one, moved = "0," * (k - 1) + "0", "1," * (k - 1) + "1", "1" + ",0" * (k - 1)
    transcript = tmp_path / "hand.tsv"
    transcript.write_text(
        f"gks-transcript v1\nk={k}\nsizes={'2,' * (k - 1)}2\nweights={'1,' * (k - 1)}1\n"
        f"1\t1\t{one}\t{zero}\t{moved}\t1\t{k}\t{k - 1}\t{k}\n"
        f"2\t2\t{zero}\t{moved}\t{moved}\t0\t1\t0\t1\n")
    result = runner.invoke(main, ["certify", "--transcript", str(transcript),
                                  "--cert-out", str(tmp_path / "certs")])
    assert result.exit_code == 0, result.output
    instance, cert = read_certificate(tmp_path / "certs" / "phase0001.cert")
    assert instance.k == k and cert.length == 1 and len(cert.A[0]) == 1 << k
    assert verify_certificate(cert).all_ok


def test_certify_detects_corruption(runner, tmp_path):
    transcript = tmp_path / "t.tsv"
    # evasive traffic forces a move on every request, so phases carry
    # several certificate rows each
    result = runner.invoke(main, ["run", "--alg", "det", "--gen", "evasive",
                                  "--steps", "40", "--k", "2", "--sizes", "3",
                                  "--transcript-out", str(transcript)])
    assert result.exit_code == 0
    lines = transcript.read_text().splitlines()
    rows = [i for i, line in enumerate(lines)
            if line and not line.startswith(("gks", "k=", "sizes=", "weights=", "#"))]
    # pick a complete phase with at least two rows and copy its first
    # pre-state over its second: that state violates the first request
    by_phase = {}
    for i in rows:
        by_phase.setdefault(lines[i].split("\t")[1], []).append(i)
    last_phase = lines[rows[-1]].split("\t")[1]
    victim_phase = next(p for p, idxs in by_phase.items()
                        if p != last_phase and len(idxs) >= 2)
    first = lines[by_phase[victim_phase][0]].split("\t")
    victim_idx = by_phase[victim_phase][1]
    victim = lines[victim_idx].split("\t")
    victim[3] = first[3]
    lines[victim_idx] = "\t".join(victim)
    transcript.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["certify", "--transcript", str(transcript)])
    assert result.exit_code == 2
    assert "VIOLATION" in result.output


def test_overlong_phase_is_a_violation(runner, tmp_path, seq_file, monkeypatch):
    # a complete k = 1 phase with three forced rows, one more than 2^1:
    # no certificate can exist, which is a finding, not an input error
    transcript = tmp_path / "long.tsv"
    transcript.write_text(
        "gks-transcript v1\nk=1\nsizes=5\nweights=1\n"
        "1\t1\t1\t0\t1\t1\t1\t0\t1\n"
        "2\t1\t2\t1\t2\t1\t1\t0\t1\n"
        "3\t1\t3\t2\t3\t1\t1\t0\t1\n"
        "4\t2\t4\t3\t4\t1\t1\t0\t1\n")
    message = "error: phase has 3 forced requests, above the 2^1 = 2 ceiling"
    result = runner.invoke(main, ["certify", "--transcript", str(transcript)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(message), result.stderr
    # `gks run --certify` maps the same error to the same code
    def overlong(rows, k):
        raise CertificateImpossibleError("phase too long")
    monkeypatch.setattr(certify, "build_phase_matrix", overlong)
    result = runner.invoke(main, ["run", "--alg", "det", "--seq", str(seq_file),
                                  "--certify"])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: phase too long"), result.stderr


def test_weighted_run_report(runner, tmp_path):
    inst = Instance.make([2, 2], [1, 7])
    path = tmp_path / "w.gks"
    out = tmp_path / "w.json"
    write_sequence(path, inst, [(1, 1), (0, 0), (1, 0), (0, 1)] * 30)
    result = runner.invoke(main, ["run", "--alg", "weighted", "--seq", str(path),
                                  "--out", str(out), "--opt"])
    assert result.exit_code == 0, result.output
    report = read_report(out)
    anatomy = report["weighted_anatomy"]
    assert anatomy["rounded_weights"] == [1, 12]
    assert report["cost_units"] == "rounded-normalized"
    assert "opt" in report and "ratio" in report


WEIGHTED_EVASIVE = ["run", "--alg", "weighted", "--gen", "evasive", "--k", "2", "--sizes", "3",
                    "--weights", "1,7", "--steps", "400"]


def test_weighted_transcript_roundtrip(runner, tmp_path):
    transcript = tmp_path / "w.tsv"
    result = runner.invoke(main, WEIGHTED_EVASIVE + ["--transcript-out", str(transcript)])
    assert result.exit_code == 0, result.output
    inst, steps = read_transcript(transcript)
    assert inst == Instance.make([3, 3], [1, 7])
    # the tour parks servers on virtual points, past the metric's last point
    assert any(x >= 3 for s in steps for x in s.pre + s.post)
    rows = [line for line in transcript.read_text().splitlines()
            if line and not line.startswith(("gks", "k=", "sizes=", "weights=", "#"))]
    assert list(transcript_lines(steps)) == rows


def test_certify_refuses_weighted_transcript(runner, tmp_path):
    transcript = tmp_path / "w.tsv"
    result = runner.invoke(main, WEIGHTED_EVASIVE + ["--transcript-out", str(transcript)])
    assert result.exit_code == 0, result.output
    refused = runner.invoke(main, ["certify", "--transcript", str(transcript)])
    assert_input_error(refused, "certificates apply to the uniform algorithms")
    inline = runner.invoke(main, WEIGHTED_EVASIVE + ["--certify"])
    assert_input_error(inline, "certificates apply to the uniform algorithms")
