"""The benchmark's tracer patches `gks` functions by name; a renamed or
moved function must fail here, not only in a traced benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

import gks.algorithms as algorithms  # noqa: E402
import gks.cli as cli  # noqa: E402
import gks.core as core  # noqa: E402
from gks.spaces import FeasibleFamily  # noqa: E402

HOOKED = [(core, "read_sequence"), (core, "write_sequence"), (cli, "read_sequence"),
          (cli, "write_sequence"), (algorithms, "read_transcript"),
          (algorithms, "write_transcript"), (cli, "read_transcript"), (cli, "write_transcript"),
          (cli, "certify_transcript"), (cli, "opt_cost"), (workloads, "cli_invoke")]


def test_tracing_installs_and_uninstalls(tmp_path):
    originals = [getattr(owner, name) for owner, name in HOOKED]
    update = FeasibleFamily.__dict__["update"]
    seq = tmp_path / "s.gks"
    core.write_sequence(seq, core.Instance.uniform(2, 3), [(1, 1), (2, 2), (0, 1), (2, 0)] * 5)
    tr = tracing.Tracer()
    tracing.install(tr, workloads)
    try:
        assert all(getattr(owner, name) is not orig
                   for (owner, name), orig in zip(HOOKED, originals))
        lo = tr.mark()
        code, _ = workloads.cli_invoke([
            "run", "--alg", "det", "--seq", str(seq), "--certify", "--opt",
            "--transcript-out", str(tmp_path / "t.tsv"), "--out", str(tmp_path / "r.json")])
        hi = tr.mark()
    finally:
        tr.uninstall()
    assert code == 0
    # the spans a report's wall clock covers sit directly under the command
    children = {tr.names[tr.name[i]] for i in range(lo + 1, hi) if tr.parent[i] == lo}
    assert workloads.RUN_SPANS <= children
    assert {"core.read_sequence", "algorithms.write_transcript"} <= children
    assert all(getattr(owner, name) is orig for (owner, name), orig in zip(HOOKED, originals))
    assert FeasibleFamily.__dict__["update"] is update
