"""The four benchmark workloads: set-up, one timed pass, and output checks.

Every call into `gks` goes through a module attribute (`certify.certify_transcript`,
`adversaries.evasive_next`, ...) so that the tracer's patches apply.  A pass
times only program work; digests and checks are computed after its clock
stops.  Each operation (a sequence, a command, an optimum, a weighted run)
leaves one exact output string, so two passes of one run, and pinned values
for the default seed, can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from array import array
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import click

import gks.adversaries as adversaries
import gks.algorithms as algorithms
import gks.certify as certify
import gks.cli as gks_cli
import gks.core as core
import gks.offline as offline
import gks.weighted as weighted

ALGS = ("det", "alt", "rand")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    # time of each piece of the pass, in the same order in every pass
    segments: array = field(default_factory=lambda: array("d"))
    outputs: dict[str, str] = field(default_factory=dict)   # operation -> exact output
    failed: set[str] = field(default_factory=set)           # operations whose checks failed
    # checks that timing noise can upset: each must be <= 0 in some pass
    margins: array = field(default_factory=lambda: array("d"))
    serve_s: array = field(default_factory=lambda: array("d"))  # per serve call
    program: dict[str, int] = field(default_factory=dict)   # counters the program reports
    stats: dict[str, float] = field(default_factory=dict)   # workload-specific totals
    samples: dict[str, list] = field(default_factory=dict)  # pooled over passes

    def add(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def check(self, op: str, ok: bool) -> None:
        if not ok:
            self.failed.add(op)


def add_summaries(res: PassResult, alg) -> None:
    """Counters the program reports in its phase summaries."""
    p = res.program
    for s in alg.phase_summaries:
        p["algorithms.requests"] = p.get("algorithms.requests", 0) + s.requests
        p["algorithms.forced_moves"] = p.get("algorithms.forced_moves", 0) + s.moves
        p["algorithms.shrinks"] = p.get("algorithms.shrinks", 0) + s.shrinks
        p["spaces.created_patterns"] = (p.get("spaces.created_patterns", 0)
                                        + sum(s.created_by_dim.values()))
        p["spaces.duplicate_creations"] = (p.get("spaces.duplicate_creations", 0)
                                           + s.duplicate_creations)
    p["algorithms.phases"] = p.get("algorithms.phases", 0) + len(alg.phase_summaries)


@contextmanager
def timed_serve(lat: array):
    """Time every `OnlineAlgorithm.serve` call made by library code."""
    cls = algorithms.OnlineAlgorithm
    original = cls.__dict__["serve"]

    def serve(self, r):
        t0 = perf_counter()
        step = original(self, r)
        lat.append(perf_counter() - t0)
        return step

    cls.serve = serve
    try:
        yield
    finally:
        cls.serve = original


def make_algorithm(alg_id: str, instance, seed: int):
    if alg_id == "rand":
        return algorithms.RandomizedAlgorithm(instance, seed)
    return algorithms.ALGORITHMS[alg_id](instance)


# ---------------------------------------------------------------------------
# corpus: the acceptance-corpus plan, simulated by `det` and certified
# ---------------------------------------------------------------------------

def corpus_plan():
    """Same plan as `corpus_plan()` in tests/test_acceptance.py: k 2..8 x n 2..5,
    random and evasive traffic alternating, 200 sequences."""
    per_k7 = {2: 4, 3: 4, 4: 3, 5: 3}
    per_k8 = {2: 4, 3: 2, 4: 2, 5: 2}
    plan = []
    seq_id = 0
    for k in range(2, 9):
        for n in range(2, 6):
            count = 9 if k <= 5 else 8 if k == 6 else (per_k7 if k == 7 else per_k8)[n]
            for j in range(count):
                plan.append((k, n, "random" if j % 2 == 0 else "evasive", seq_id))
                seq_id += 1
    return plan


class Corpus:
    """`GenericAlgorithm` over every (k, n) of the acceptance corpus with
    shortened sequences; certificates (incomplete phases too) for k <= 6."""

    SIZES = {"full": 32, "smoke": 6}   # steps per sequence
    CERTIFY_MAX_K = 6

    def __init__(self, seed: int, size: str, workdir: Path):
        self.steps = self.SIZES[size]
        self.plan = corpus_plan()
        self.instances = {(k, n): core.Instance.uniform(k, n) for k, n, _, _ in self.plan}
        # sequence seed = sequence id at the default seed, as in the acceptance corpus
        self.seeds = {seq_id: seed * 1000 + seq_id for _, _, _, seq_id in self.plan}
        self.traffic = {
            seq_id: adversaries.random_sequence(self.instances[k, n], self.steps, self.seeds[seq_id])
            for k, n, kind, seq_id in self.plan if kind == "random"
        }

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        lat = res.serve_s
        for k, n, kind, seq_id in self.plan:
            t_seq = perf_counter()
            inst = self.instances[k, n]
            alg = algorithms.GenericAlgorithm(inst)
            if kind == "random":
                for r in self.traffic[seq_id]:
                    t0 = perf_counter()
                    alg.serve(r)
                    lat.append(perf_counter() - t0)
            else:
                rng = random.Random(self.seeds[seq_id])
                evasive_next = adversaries.evasive_next
                for _ in range(self.steps):
                    r = evasive_next(inst, alg.current, rng)
                    t0 = perf_counter()
                    alg.serve(r)
                    lat.append(perf_counter() - t0)
            alg.finalize()
            certs = []
            if k <= self.CERTIFY_MAX_K:
                t0 = perf_counter()
                certs = certify.certify_transcript(inst, alg.transcript, include_incomplete=True)
                res.add("cert_s", perf_counter() - t0)
            res.segments.append(perf_counter() - t_seq)
            # checked now, outside the timed segment, so that at most one
            # sequence's families and certificates are alive at a time
            op = f"seq{seq_id}"
            res.outputs[op] = sha("\n".join(algorithms.transcript_lines(alg.transcript)))
            res.check(op, len(alg.transcript) == self.steps)
            res.check(op, sum(s.requests for s in alg.phase_summaries) == self.steps)
            res.check(op, all(v.all_ok for _, _, v in certs))
            res.add("cert_rows", sum(c.length for _, c, _ in certs))
            add_summaries(res, alg)
        return res


# ---------------------------------------------------------------------------
# cli: in-process `gks run` and `gks certify` on small instances
# ---------------------------------------------------------------------------

def cli_invoke(args: list[str]) -> tuple[int, str]:
    """Run one `gks` command in this process; (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            gks_cli.main.main(args=args, prog_name="gks", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except click.ClickException as e:
            code = e.exit_code
    return code, out.getvalue()


WALL_LINE = re.compile(r'^\s*"wall_clock_sec": .*\n', re.MULTILINE)
# Spans inside a `gks run` that its report's wall_clock_sec covers.  The
# clock also covers building the algorithm, which no span does, hence the
# fixed slack on top of the share.  A command of a few milliseconds can lose
# more than that to the machine outside any span, so the check is a margin
# that must hold in the command's best pass.
RUN_SPANS = {"algorithms.run", "certify.transcript", "offline.opt"}
WALL_TOLERANCE = 0.05
WALL_SLACK_S = 0.00025


class Cli:
    """`gks run --certify --transcript-out --out` for det, alt and rand on
    sequence files written during set-up, each followed by
    `gks certify --transcript` on the transcript it wrote.  `--opt` only
    where the configuration count N is at most 27."""

    # (k, sizes) per sequence file; steps per file
    SIZES = {
        "full": ([(2, 3), (3, 3), (4, 2), (4, 3), (5, 2)], 300),
        "smoke": ([(2, 3), (4, 2)], 30),
    }
    OPT_MAX_STATES = 27

    def __init__(self, seed: int, size: str, workdir: Path):
        shapes, steps = self.SIZES[size]
        self.seed = seed
        self.workdir = workdir
        self.files = []
        for j, (k, n) in enumerate(shapes):
            inst = core.Instance.uniform(k, n)
            path = workdir / f"k{k}n{n}.gks"
            core.write_sequence(path, inst, adversaries.random_sequence(inst, steps, seed * 100 + j))
            self.files.append((f"k{k}n{n}", path, inst.state_count() <= self.OPT_MAX_STATES))

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        commands = []
        res.samples["cmd_s"] = res.segments   # one segment per command
        with timed_serve(res.serve_s) if tracer is None else nullcontext():
            for name, path, with_opt in self.files:
                for alg in ALGS:
                    stem = self.workdir / f"{name}-{alg}"
                    run_args = ["run", "--alg", alg, "--seq", str(path), "--seed", str(self.seed),
                                "--certify", "--transcript-out", f"{stem}.tsv",
                                "--out", f"{stem}.json"] + (["--opt"] if with_opt else [])
                    for op, args in ((f"{name}-{alg}-run", run_args),
                                     (f"{name}-{alg}-certify",
                                      ["certify", "--transcript", f"{stem}.tsv"])):
                        lo = tracer.mark() if tracer is not None else 0
                        t0 = perf_counter()
                        code, text = cli_invoke(args)
                        res.segments.append(perf_counter() - t0)
                        hi = tracer.mark() if tracer is not None else 0
                        commands.append((op, stem, code, text, lo, hi))

        for op, stem, code, text, lo, hi in commands:
            res.check(op, code == 0)
            if op.endswith("-certify") or code != 0:
                res.outputs[op] = sha(text)
                continue
            report_text = Path(f"{stem}.json").read_text()
            report = json.loads(report_text)
            res.add("report_bytes", len(report_text.encode()))
            res.outputs[op] = sha(WALL_LINE.sub("", report_text)
                                  + Path(f"{stem}.tsv").read_text())
            res.check(op, all(c["triangular"] and c["diagonal_nonzero"] and c["factorization_ok"]
                              for c in report["certificates"]))
            if "opt" in report:
                res.check(op, Fraction(report["opt"]) <= Fraction(report["total_cost"]))
            p = res.program
            for key, field_name in (("algorithms.requests", "length"),
                                    ("algorithms.forced_moves", "moves"),
                                    ("algorithms.shrinks", "shrinks")):
                p[key] = p.get(key, 0) + sum(ph[field_name] for ph in report["phases"])
            p["algorithms.phases"] = p.get("algorithms.phases", 0) + len(report["phases"])
            if tracer is not None:
                spans = tracer.child_time(lo, hi, RUN_SPANS)
                wall = report["wall_clock_sec"]
                res.margins.append(abs(spans - wall) - WALL_TOLERANCE * wall - WALL_SLACK_S)
                res.samples.setdefault("wall_gap", []).append(spans / wall - 1)
        return res


# ---------------------------------------------------------------------------
# ratio: exact competitive ratios through the library
# ---------------------------------------------------------------------------

def greedy_cost(instance, requests) -> Fraction:
    """Cost of moving the cheapest server onto each unserved request: an
    upper bound on the optimum computed independently of `gks.offline`."""
    cur = [0] * instance.k
    cheapest = min(range(instance.k), key=lambda i: instance.weights[i])
    total = Fraction(0)
    for r in requests:
        if all(c != x for c, x in zip(cur, r)):
            cur[cheapest] = r[cheapest]
            total += instance.weights[cheapest]
    return total


class Ratio:
    """Closed-loop duels of det, alt and rand at k = 5..7 on two-point metrics,
    each followed by the exact optimum of the induced sequence, plus two
    optima on random traffic: (4,4,4,4) with a raised work cap, and (4,4,4)
    with rational weights, which takes the Fraction path."""

    SIZES = {
        "full": ({5: 20, 6: 4, 7: 1}, 60, 40),    # rounds per k; random-traffic lengths
        "smoke": ({5: 1}, 5, 5),
    }
    WORK_CAP = 10 ** 9

    def __init__(self, seed: int, size: str, workdir: Path):
        self.rounds, t4, t3 = self.SIZES[size]
        self.seed = seed
        self.fixed = []
        for name, inst, steps in (
            ("opt-4x4", core.Instance.uniform(4, 4), t4),
            ("opt-3x4-rational", core.Instance.make([4, 4, 4], [1, "3/2", 7]), t3),
        ):
            seq = adversaries.random_sequence(inst, steps, seed)
            self.fixed.append((name, inst, seq, greedy_cost(inst, seq)))

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        done = []
        opt_s = 0.0
        cells = 0
        with timed_serve(res.serve_s) if tracer is None else nullcontext():
            for k, rounds in self.rounds.items():
                inst = core.Instance.uniform(k, 2)
                for alg_id in ALGS:
                    alg = make_algorithm(alg_id, inst, self.seed)
                    t0 = perf_counter()
                    result = adversaries.run_closed_loop(alg, rounds)
                    t1 = perf_counter()
                    opt = offline.opt_cost(inst, (0,) * k, result.requests)
                    t2 = perf_counter()
                    res.segments.append(t2 - t0)
                    opt_s += t2 - t1
                    cells += len(result.requests) * inst.state_count()
                    done.append((f"duel-{alg_id}-k{k}", alg, result, opt, Fraction(result.algorithm_cost)))
            for name, inst, seq, bound in self.fixed:
                t1 = perf_counter()
                opt = offline.opt_cost(inst, (0,) * inst.k, seq, work_cap=self.WORK_CAP)
                res.segments.append(perf_counter() - t1)
                opt_s += res.segments[-1]
                cells += len(seq) * inst.state_count()
                done.append((name, None, None, opt, bound))

        res.add("opt_s", opt_s)
        res.add("opt_cells", cells)
        for op, alg, result, opt, cost in done:
            ratio = cost / max(opt, Fraction(1))
            res.outputs[op] = f"opt={core.format_fraction(opt)} ratio={core.format_fraction(ratio)}"
            res.check(op, 0 <= opt <= cost)
            if alg is not None:
                res.check(op, alg.total_cost == result.algorithm_cost
                          and len(result.requests) == sum(s.requests for s in alg.phase_summaries))
                add_summaries(res, alg)
        return res


# ---------------------------------------------------------------------------
# weighted: the recursive algorithm under never-satisfied requests
# ---------------------------------------------------------------------------

class Weighted:
    """`WeightedAlgorithm` driven by `evasive_next`: the three-level
    criterion-8 instance, sizes (3,4,4) and weights (1,6,396), without a
    transcript, and the two-level (3,3), weights (1,7), run that records
    point counts."""

    SIZES = {"full": (60_000, 3 * 396 + 200), "smoke": (2_000, 400)}
    BLOCK = 2_000    # requests per timed segment

    def __init__(self, seed: int, size: str, workdir: Path):
        steps3, steps2 = self.SIZES[size]
        self.runs = [
            ("three-level", core.Instance.make([3, 4, 4], [1, 6, 396]), steps3,
             dict(keep_transcript=False, record_point_counts=False), seed * 10 + 9),
            ("two-level", core.Instance.make([3, 3], [1, 7]), steps2, {}, seed * 10 + 8),
        ]

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        lat = res.serve_s
        done = []
        for name, inst, steps, options, rng_seed in self.runs:
            alg = weighted.WeightedAlgorithm(inst, **options)
            rng = random.Random(rng_seed)
            evasive_next = adversaries.evasive_next
            cost = 0
            for block in range(0, steps, self.BLOCK):
                t_block = perf_counter()
                for _ in range(min(self.BLOCK, steps - block)):
                    r = evasive_next(inst, alg.current, rng)
                    t0 = perf_counter()
                    step = alg.serve(r)
                    lat.append(perf_counter() - t0)
                    cost += step.cost
                res.segments.append(perf_counter() - t_block)
            t0 = perf_counter()
            alg.finalize()
            report = alg.phase_report()
            res.segments.append(perf_counter() - t0)
            done.append((name, alg, steps, cost, report))

        p = res.program
        for name, alg, steps, cost, report in done:
            res.outputs[name] = (f"total_cost={alg.total_cost} report="
                                 + sha(json.dumps(report, sort_keys=True)))
            res.check(name, report["counted_requests"] + report["filtered_requests"] == steps)
            res.check(name, report["total_cost"] == alg.total_cost == cost)
            p["weighted.counted"] = p.get("weighted.counted", 0) + report["counted_requests"]
            p["weighted.filtered"] = p.get("weighted.filtered", 0) + report["filtered_requests"]
            res.add("level_phases", sum(lv["complete_phases"] for lv in report["levels"]))
        return res


WORKLOADS = {"corpus": Corpus, "cli": Cli, "ratio": Ratio, "weighted": Weighted}
