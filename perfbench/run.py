"""Benchmark of the gks lab: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seconds 25] [--out perfbench/baseline.json]
    python3 perfbench/run.py --smoke

Run from the repository root.  One `--workload` run is one process: it
imports `gks` from `src/`, sets the workload up from `--seed`, then repeats
full passes of it for `--seconds` (at least two) and checks every output.
The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end ones
(`END_TO_END`); with `--trace 1` the per-layer ones (`PER_LAYER`), from
spans recorded around every public `gks` function (see tracing.py), plus
the tracing overhead against untraced passes of the same run.  The line
before it (`detail {...}`) holds workload-specific figures that are not
defined on every workload: certified rows per second, optimum cells per
second, command latency, and the share of failed operations.

`--all` runs every workload in its own process, traced and untraced, and
prints every metric by name and unit; `--out` also writes them with the git
revision, Python and numpy versions, core count and `src/` line count.
`--smoke` runs each workload at a tiny size and fails if a metric named in
BENCHMARK.json is missing, has the wrong unit, or an operation failed.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402  (the clock above starts set-up time)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
SETUP_REPEATS = 5           # set-up is measured this many times per run, median kept
REFERENCE_REPEATS = 3       # reference-loop timings before each pass
REFERENCE_NOMINAL_S = 0.0045 # best reference-loop time on a quiet 2-core x86-64 host
CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ("corpus", "cli", "ratio", "weighted")

# Timings are best of passes, scaled to a nominal machine speed.  Every pass
# repeats the same operations, so each operation (a serve call; a sequence,
# command, optimum or block of a pass) keeps its least time over the passes.
# Load from other tenants of a shared 2-core machine comes in phases of
# seconds to minutes that slow all Python code by up to 1.7x, so a whole run
# can be slow; a fixed reference loop timed between passes (`reference.py`)
# slows with it, and times are multiplied by REFERENCE_NOMINAL_S over its
# best time in the run.  The unscaled figures are on the `detail` line.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "serve_rps": "req/s",
    "serve_p50_us": "us",
    "serve_p99_us": "us",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> the spans it sums, or whose self time it is
SPAN_TOTAL = {
    "spaces.update_s": ["spaces.update"],
    "spaces.nearest_member_s": ["spaces.nearest_member"],
    "spaces.max_dimension_stats_s": ["spaces.max_dimension_stats"],
    "spaces.max_dimension_set_s": ["spaces.max_dimension_set"],
    "algorithms.nearest_space_s": ["algorithms.nearest_space"],
    "algorithms.serve_s": ["algorithms.serve"],
    "algorithms.write_transcript_s": ["algorithms.write_transcript"],
    "algorithms.read_transcript_s": ["algorithms.read_transcript"],
    "core.read_sequence_s": ["core.read_sequence"],
    "core.write_sequence_s": ["core.write_sequence"],
    "cli.cmd_s": ["cli.cmd"],
    "certify.build_s": ["certify.build"],
    "certify.verify_s": ["certify.verify"],
    "offline.opt_s": ["offline.opt"],
    "adversaries.gen_s": ["adversaries.evasive_next", "adversaries.antipodal_next",
                          "adversaries.random_sequence"],
    "weighted.serve_s": ["weighted.serve"],
    "weighted.phase_report_s": ["weighted.phase_report"],
}
SPAN_SELF = {
    "algorithms.serve_self_s": "algorithms.serve",
    "cli.self_s": "cli.cmd",
    "adversaries.closed_loop_self_s": "adversaries.run_closed_loop",
}
COUNTERS = (
    "spaces.update_calls", "spaces.created_patterns", "spaces.duplicate_creations",
    "algorithms.requests", "algorithms.forced_moves", "algorithms.shrinks", "algorithms.phases",
    "core.bytes_in", "core.bytes_out", "cli.exit_nonzero",
    "certify.phases", "certify.forced_rows", "certify.matrix_products",
    "offline.calls", "offline.cells", "adversaries.requests",
    "weighted.counted", "weighted.filtered",
)
PER_LAYER = {
    **{name: "s" for name in SPAN_TOTAL},
    **{name: "s" for name in SPAN_SELF},
    **{name: ("B" if "bytes" in name else "count") for name in COUNTERS},
    "spaces.update_change_share": "share",
    "spaces.family_size_mean": "count",
    "spaces.family_size_max": "count",
    "certify.ok_share": "share",
    "certify.rows_per_s": "rows/s",
    "offline.cells_per_s": "cells/s",
    "cli.report_bytes": "B",
    "weighted.level_phases": "count",
    "trace.overhead_share": "share",
}
DETAIL_UNITS = {
    "cert_rows_per_s": "rows/s", "opt_cells_per_s": "cells/s",
    "cmd_p50_ms": "ms", "cmd_p90_ms": "ms", "fail_share": "share",
}


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import gks.cli  # noqa: F401
    except ImportError as e:
        sys.exit(f"error: cannot import gks from {SRC}: {e}")
    import tracing
    import workloads
    return tracing, workloads


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    """What a run keeps of its passes: per-operation best times rather than
    every pass's samples, totals, and the outcome of every check.

    Each operation's own checks count, and so does any output that differs
    from the first pass's (`first`, shared between the untraced and traced
    passes of one run) or, at the default seed, from `pins.json`.  After a
    traced pass the benchmark's counters must equal what the program
    reports, and repeat those of the first traced pass.  A margin (see
    `PassResult.margins`) fails only if it is positive in every pass.
    """

    def __init__(self, pins: dict, first: dict | None = None):
        self.pins = pins
        self.first = first
        self.attempted = self.failed = 0
        self.serve_s = self.segments = self.margins = None
        self.reference_s = float("inf")
        self.pass_s: list[float] = []
        self.stats: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.traced: list[tuple] = []     # (pass time, (total, self) spans, counters)

    def add(self, res, tracer=None, lo: int = 0, before: dict | None = None) -> None:
        if self.first is None:
            self.first = res.outputs
        bad = set(res.failed)
        bad |= {op for op, out in res.outputs.items() if out != self.first.get(op)}
        bad |= {op for op, out in self.pins.items() if res.outputs.get(op) != out}
        self.attempted += len(res.outputs)
        self.failed += len(bad)
        self.serve_s = best_of(self.serve_s, res.serve_s)
        self.segments = best_of(self.segments, res.segments)
        self.margins = best_of(self.margins, res.margins)
        self.pass_s.append(sum(res.segments))
        for key, value in res.stats.items():
            self.stats[key] = self.stats.get(key, 0) + value
        for key, values in res.samples.items():
            self.samples.setdefault(key, []).extend(values)
        if tracer is not None:
            counters = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            self.attempted += 1
            if any(counters.get(k, 0) != v for k, v in res.program.items()) or \
                    (self.traced and counters != self.traced[0][2]):
                self.failed += 1
            self.traced.append((self.pass_s[-1], tracer.aggregate(lo, tracer.mark()), counters))

    def counts(self) -> tuple[int, int]:
        """(attempted, failed), margins included."""
        return (self.attempted + len(self.margins),
                self.failed + sum(m > 0 for m in self.margins))

    def per_pass(self, key: str) -> float:
        return self.stats.get(key, 0) / len(self.pass_s)


def best_of(best, values):
    """Element-wise least value: every pass does the same operations in the
    same order, so element i is one operation's best time so far."""
    return array("d", values if best is None else map(min, best, values))


def run_passes(wl, tally: Tally, seconds: float, tracer=None) -> None:
    """Full passes that end within `seconds`, and at least two, each after
    a few timings of the reference loop."""
    t0 = perf_counter()
    last = 0.0
    while len(tally.pass_s) < 2 or perf_counter() - t0 + last < seconds:
        tally.reference_s = min(tally.reference_s, reference.best_time(REFERENCE_REPEATS))
        t_pass = perf_counter()
        before = dict(tracer.counts) if tracer else None
        lo = tracer.mark() if tracer else 0
        res = wl.run_pass(tracer)
        last = perf_counter() - t_pass
        tally.add(res, tracer, lo, before)


def end_to_end(tally: Tally, setup_samples) -> tuple[dict, dict]:
    """Scaled best-of-passes timings; set-up time is the median over fresh
    processes, each scaled by its own reference time."""
    lat = tally.serve_s
    raw = {
        "wall_s": sum(tally.segments),
        "serve_rps": len(lat) / sum(lat),
        "serve_p50_us": percentile(lat, 50) * 1e6,
        "serve_p99_us": percentile(lat, 99) * 1e6,
    }
    scale = REFERENCE_NOMINAL_S / tally.reference_s
    metrics = {
        "setup_s": statistics.median(setup_samples),
        **{name: value / scale if name == "serve_rps" else value * scale
           for name, value in raw.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    stats = tally.stats
    detail = {"passes": len(tally.pass_s), "serve_calls_per_pass": len(lat),
              "pass_median_s": statistics.median(tally.pass_s),
              "reference_s": tally.reference_s, "scale": scale,
              **{f"unscaled_{name}": value for name, value in raw.items()}}
    if stats.get("cert_s"):
        detail["cert_rows_per_s"] = stats["cert_rows"] / stats["cert_s"]
    if stats.get("opt_s"):
        detail["opt_cells_per_s"] = stats["opt_cells"] / stats["opt_s"]
    cmd_ms = [x * 1e3 for x in tally.samples.get("cmd_s", [])]
    if cmd_ms:
        detail.update(cmd_p50_ms=percentile(cmd_ms, 50), cmd_p90_ms=percentile(cmd_ms, 90),
                      cmd_samples=len(cmd_ms))
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}, detail


def per_layer(traced: Tally, plain: Tally, tracer, setup_spans, setup_counts) -> dict:
    """One traced pass (the fastest; counts are the same in every pass),
    plus what set-up recorded."""
    _, (total, own), counts = min(traced.traced, key=lambda t: t[0])
    values = {}
    for name, spans in SPAN_TOTAL.items():
        values[name] = sum(total.get(s, 0.0) + setup_spans.get(s, 0.0) for s in spans)
    for name, span in SPAN_SELF.items():
        values[name] = own.get(span, 0.0)
    counts = dict(counts)
    for key, value in setup_counts.items():
        counts[key] = counts.get(key, 0) + value
    for name in COUNTERS:
        values[name] = counts.get(name, 0)

    def share(num, den):
        return num / den if den else 0.0

    calls = counts.get("spaces.update_calls", 0)
    values["spaces.update_change_share"] = share(counts.get("spaces.update_changes", 0), calls)
    values["spaces.family_size_mean"] = share(counts.get("spaces.family_size_sum", 0), calls)
    values["spaces.family_size_max"] = tracer.maxima.get("spaces.family_size_max", 0)
    values["certify.ok_share"] = share(counts.get("certify.ok", 0), values["certify.phases"])
    values["certify.rows_per_s"] = share(
        values["certify.forced_rows"], values["certify.build_s"] + values["certify.verify_s"])
    values["offline.cells_per_s"] = share(values["offline.cells"], values["offline.opt_s"])
    values["cli.report_bytes"] = traced.per_pass("report_bytes")
    values["weighted.level_phases"] = traced.per_pass("level_phases")
    values["trace.overhead_share"] = sum(traced.segments) / sum(plain.segments) - 1
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def setup_probes(args, count: int) -> list[float]:
    """Set-up time of fresh processes, from their first statement on."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_workload(args) -> None:
    tracing, workloads = import_program()
    pins = {}
    if args.seed == DEFAULT_SEED:
        pins = json.loads((BENCH_DIR / "pins.json").read_text()).get(
            f"{args.workload}/{args.size}", {})
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracing.install(tracer, workloads)
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        setup_s = perf_counter() - T_START
        if args.setup_probe:
            print(setup_s * REFERENCE_NOMINAL_S / reference.best_time(SETUP_REPEATS))
            return
        plain = Tally(pins)
        if tracer:
            setup_spans = tracer.aggregate(0, tracer.mark())[0]
            setup_counts = dict(tracer.counts)
            tracer.uninstall()
            # untraced passes first, as the base of the tracing overhead
            run_passes(wl, plain, args.seconds / 3)
            traced = Tally(pins, plain.first)
            tracing.install(tracer, workloads)
            run_passes(wl, traced, args.seconds * 2 / 3, tracer)
            tracer.uninstall()
            metrics = per_layer(traced, plain, tracer, setup_spans, setup_counts)
            (a1, f1), (a2, f2) = plain.counts(), traced.counts()
            attempted, failed = a1 + a2, f1 + f2
            detail = {"passes": len(plain.pass_s), "traced_passes": len(traced.pass_s),
                      "spans": tracer.mark()}
            gaps = traced.samples.get("wall_gap")
            if gaps:
                detail["cli_wall_gap_max"] = max(gaps, key=abs)
            tracer.write(str(WORK / f"spans-{args.workload}.tsv.gz"))
        else:
            run_passes(wl, plain, args.seconds)
            attempted, failed = plain.counts()
            setup_s *= REFERENCE_NOMINAL_S / plain.reference_s
            metrics, detail = end_to_end(plain, [setup_s] + setup_probes(args, SETUP_REPEATS - 1))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    detail["fail_share"] = failed / attempted
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# ---------------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------------

def spawn(workload: str, trace: int, seconds: int, seed: int, size: str) -> tuple[dict, dict]:
    """(result line, detail line) of one workload run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):])


def environment() -> dict:
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        revision = "unknown"
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except ImportError:
        numpy_version = "absent"
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def run_all(args) -> None:
    out = {"env": environment(), "seed": args.seed, "seconds": args.seconds,
           "size": args.size, "workloads": {}}
    ok = True
    for workload in WORKLOAD_NAMES:
        plain, detail = spawn(workload, 0, args.seconds, args.seed, args.size)
        traced, traced_detail = spawn(workload, 1, args.seconds, args.seed, args.size)
        ok &= plain["correct"] and traced["correct"]
        out["workloads"][workload] = {"end_to_end": plain, "detail": detail,
                                      "per_layer": traced, "traced_detail": traced_detail}
        print(f"== {workload}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']}+{traced['attempted']} "
              f"failed={plain['failed']}+{traced['failed']}")
        for name, m in plain["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        for name, unit in DETAIL_UNITS.items():
            value = f"{detail[name]:14.6g}" if name in detail else f"{'n/a':>14s}"
            print(f"  {name:32s} {value} {unit}")
        for name, m in traced["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(out["env"]))
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    if not ok:
        sys.exit(1)


def run_smoke(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec_names(spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, detail = spawn(workload, trace, 1, args.seed, "smoke")
            got = result["metrics"]
            for m in spec[key]:
                if m["name"] not in got:
                    problems.append(f"{workload}: {m['name']} missing")
                elif got[m["name"]].get("unit") != m["unit"]:
                    problems.append(f"{workload}: {m['name']} unit {got[m['name']].get('unit')!r}")
            if set(got) != set(spec_names(spec[key])):
                problems.append(f"{workload}: metrics not in BENCHMARK.json: "
                                f"{sorted(set(got) - set(spec_names(spec[key])))}")
            if detail["fail_share"] > 0 or not result["correct"]:
                problems.append(f"{workload} --trace {trace}: fail_share {detail['fail_share']}")
            print(f"smoke {workload} --trace {trace}: {result['attempted']} operations, "
                  f"{result['failed']} failed")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("SMOKE " + ("FAIL" if problems else "OK"))
    if problems:
        sys.exit(1)


def spec_names(entries) -> list[str]:
    return [e["name"] for e in entries]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--all", action="store_true", help="every workload, traced and untraced")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; check metric names")
    ap.add_argument("--out", help="with --all: write the results and environment here")
    args = ap.parse_args()
    if not SRC.joinpath("gks").is_dir():
        sys.exit(f"error: no gks sources under {SRC}; run from a full checkout")
    if args.smoke:
        run_smoke(args)
    elif args.all:
        run_all(args)
    elif args.workload:
        run_workload(args)
    else:
        ap.error("give --workload, --all or --smoke")


if __name__ == "__main__":
    main()
