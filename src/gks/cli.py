"""Command-line surface: reproducible runs, exact optimum, duels, certificates.

Exit codes: 0 success, 1 input error, 2 invariant or certificate violation
(a finding), 3 resource cap exceeded.  Reports are single self-describing
JSON documents (schema ``gks-report v1``); apart from the wall-clock field
every output byte is a function of flags, seed, and input files.
"""

from __future__ import annotations

import concurrent.futures
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import click

from .core import (
    CertificateImpossibleError,
    GKSError,
    Instance,
    InvalidInputError,
    InvariantViolationError,
    ResourceLimitError,
    SequenceFormatError,
    format_fraction,
    parse_fractions,
    parse_ints,
    read_sequence,
    write_lines,
    write_sequence,
)
from .algorithms import (
    ALGORITHMS,
    RandomizedAlgorithm,
    read_transcript,
    write_transcript,
)
from .adversaries import random_sequence, run_closed_loop, run_evasive
from .certify import certify_transcript, write_certificate
from .offline import check_caps, opt_cost, work_function_minima
from .weighted import WeightedAlgorithm

REPORT_SCHEMA = "gks-report v1"

EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_RESOURCE = 3

UNIFORM_ONLY = "certificates apply to the uniform algorithms"


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SequenceFormatError as e:
        _fail(EXIT_INPUT, str(e))
    except ResourceLimitError as e:
        _fail(EXIT_RESOURCE, str(e))
    except (InvariantViolationError, CertificateImpossibleError) as e:
        _fail(EXIT_VIOLATION, str(e))
    except (InvalidInputError, GKSError) as e:
        _fail(EXIT_INPUT, str(e))


def _write(path, writer, *args, **kwargs):
    """Run a file writer; an unusable path is an input error."""
    try:
        writer(path, *args, **kwargs)
    except OSError as e:
        _fail(EXIT_INPUT, f"{path}: {e.strerror or e}")


def exact_decimal(x: Fraction, places: int = 6) -> str:
    """Render an exact rational as a decimal string, round half away."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scale = 10 ** places
    scaled = (x.numerator * scale * 2 + x.denominator) // (2 * x.denominator)
    whole, frac = divmod(scaled, scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def _parse_flag(flag: str, parse, text: str):
    """A flag value read with one of the file header's field parsers."""
    try:
        return parse(text)
    except InvalidInputError as e:
        _fail(EXIT_INPUT, f"{flag}: {e}")


def _parse_tuple(text: str, instance: Instance, what: str):
    coords = _parse_flag("--start", parse_ints, text)
    return _guard(instance.check_coords, coords, what)


def _instance_from_flags(k, sizes, weights):
    if k is None or sizes is None:
        _fail(EXIT_INPUT, "generated sequences need --k and --sizes")
    size_list = _parse_flag("--sizes", parse_ints, sizes)
    if len(size_list) == 1:
        size_list *= k
    weight_list = _parse_flag("--weights", parse_fractions, weights) if weights \
        else (Fraction(1),) * k
    return _guard(Instance, k, size_list, weight_list)


def _instance_echo(instance: Instance) -> dict:
    return {
        "k": instance.k,
        "sizes": list(instance.sizes),
        "weights": [format_fraction(w) for w in instance.weights],
    }


def _phases_field(summaries) -> list[dict]:
    return [
        {
            "phase": s.phase,
            "length": s.requests,
            "cost": format_fraction(s.cost),
            "moves": s.moves,
            "shrinks": s.shrinks,
            "complete": s.complete,
        }
        for s in summaries
    ]


def _write_report(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        _write(out, write_lines, [text])
    else:
        click.echo(text)


def _build_algorithm(alg: str, instance: Instance, seed: int, start):
    if alg == "weighted":
        return _guard(WeightedAlgorithm, instance, start=start)
    cls = ALGORITHMS[alg]
    if cls is RandomizedAlgorithm:
        return _guard(cls, instance, seed, start=start)
    return _guard(cls, instance, start=start)


def _execute_run(alg: str, instance: Instance, requests, gen: str | None,
                 steps: int, seed: int, start) -> tuple:
    algorithm = _build_algorithm(alg, instance, seed, start)
    if requests is not None:
        _guard(algorithm.run, requests)
        seq = requests
    elif gen == "random":
        seq = random_sequence(instance, steps, seed)
        _guard(algorithm.run, seq)
    else:
        seq = _guard(run_evasive, algorithm, steps, seed)
    return algorithm, seq


def _run_report(alg, instance, algorithm, seq, seed, opt, certificates, wall) -> dict:
    report = {
        "schema": REPORT_SCHEMA,
        "instance": _instance_echo(instance),
        "algorithm": alg,
        "seed": seed,
        "steps": len(seq),
        "total_cost": format_fraction(algorithm.total_cost),
        "phases": _phases_field(algorithm.phase_summaries),
        "wall_clock_sec": wall,
    }
    if isinstance(algorithm, WeightedAlgorithm):
        report["weighted_anatomy"] = algorithm.phase_report()
        report["cost_units"] = "rounded-normalized"
    if opt is not None:
        report["opt"] = format_fraction(opt)
        ratio = Fraction(algorithm.total_cost) / max(opt, Fraction(1))
        report["ratio"] = exact_decimal(ratio)
        report["ratio_exact"] = format_fraction(ratio)
    if certificates is not None:
        report["certificates"] = certificates
    return report


def _run_one(alg: str, instance: Instance, requests, gen, steps, seed, start,
             with_opt: bool, with_certify: bool) -> tuple[dict, object, list]:
    """One complete run: (report, algorithm, served sequence).

    The report's wall clock covers the run, certification and the optimum,
    not file writes.
    """
    t0 = time.perf_counter()
    algorithm, seq = _execute_run(alg, instance, requests, gen, steps, seed, start)
    certificates = None
    if with_certify:
        results = _guard(certify_transcript, instance, algorithm.transcript)
        certificates = [{"phase": phase, "length": cert.length, **asdict(v)}
                        for phase, cert, v in results]
    opt = None
    if with_opt:
        opt_instance = instance
        if alg == "weighted":
            opt_instance = Instance.make(instance.sizes, algorithm.rounded.rounded)
        opt = _guard(opt_cost, opt_instance, start or (0,) * instance.k, seq)
    wall = round(time.perf_counter() - t0, 6)
    report = _run_report(alg, instance, algorithm, seq, seed, opt, certificates, wall)
    return report, algorithm, seq


def _sweep_worker(task) -> dict:
    """Report of one sweep run; picklable for process pools."""
    return _run_one(*task)[0]


class _Commands(click.Group):
    """Exits 1 on click's own usage errors (a bad flag value, a missing
    file, an unknown choice): they are input errors like any other."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as e:
            e.exit_code = EXIT_INPUT
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = EXIT_INPUT
            raise


@click.group(cls=_Commands)
def main():
    """Experiments on products of uniform metrics."""


@main.command("run")
@click.option("--alg", type=click.Choice(["det", "alt", "rand", "weighted"]), required=True)
@click.option("--seq", "seq_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Request sequence file")
@click.option("--gen", type=click.Choice(["random", "evasive"]), default=None,
              help="Generate the sequence instead of reading one")
@click.option("--steps", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--k", type=int, default=None)
@click.option("--sizes", type=str, default=None, help="Comma list, or one value for all metrics")
@click.option("--weights", type=str, default=None, help="Comma list of integers or p/q rationals")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--seeds", type=str, default=None,
              help="Comma list of seeds; one report per seed")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Parallel workers for --seeds sweeps")
@click.option("--start", type=str, default=None, help="Start configuration, comma list")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--opt/--no-opt", "with_opt", default=False,
              help="Also compute the exact optimum and the ratio")
@click.option("--certify", "with_certify", is_flag=True, default=False,
              help="Verify per-phase certificates (uniform algorithms)")
@click.option("--dump-seq", type=click.Path(dir_okay=False), default=None)
@click.option("--transcript-out", type=click.Path(dir_okay=False), default=None)
def cmd_run(alg, seq_file, gen, steps, k, sizes, weights, seed, seeds, jobs,
            start, out, with_opt, with_certify, dump_seq, transcript_out):
    """Run one algorithm over a sequence and write a JSON report."""
    if (seq_file is None) == (gen is None):
        _fail(EXIT_INPUT, "provide exactly one of --seq or --gen")
    if with_certify and alg == "weighted":
        _fail(EXIT_INPUT, UNIFORM_ONLY)
    if seq_file is not None:
        instance, requests = _guard(read_sequence, seq_file)
    else:
        instance = _instance_from_flags(k, sizes, weights)
        requests = None
    start_cfg = _parse_tuple(start, instance, "start configuration") if start else None

    seed_list = _parse_flag("--seeds", parse_ints, seeds) if seeds else (seed,)
    tasks = [(alg, instance, requests, gen, steps, s, start_cfg, with_opt, with_certify)
             for s in seed_list]

    if len(tasks) == 1:
        report, algorithm, seq = _run_one(*tasks[0])
        if dump_seq:
            _write(dump_seq, write_sequence, instance, seq)
        if transcript_out:
            _write(transcript_out, write_transcript, instance, algorithm.transcript,
                   meta={"alg": alg, "seed": seed_list[0]})
        _write_report(report, out)
        reports = [report]
    else:
        if dump_seq or transcript_out:
            _fail(EXIT_INPUT, "--dump-seq/--transcript-out need a single seed")
        if jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                reports = list(pool.map(_sweep_worker, tasks))
        else:
            reports = [_sweep_worker(t) for t in tasks]
        for seed_value, report in zip(seed_list, reports):
            dest = None
            if out:
                path = Path(out)
                dest = str(path.with_name(f"{path.stem}.seed{seed_value}{path.suffix}"))
            _write_report(report, dest)
    # every report is written before a failed verdict ends the run
    if with_certify and not all(
        c["triangular"] and c["diagonal_nonzero"] and c["factorization_ok"]
        for report in reports for c in report["certificates"]
    ):
        _fail(EXIT_VIOLATION, "certificate verdict failed")


@main.command("opt")
@click.option("--seq", "seq_file", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--start", type=str, default=None, help="Start configuration; defaults to all zeros")
@click.option("--state-cap", type=int, default=10_000, show_default=True)
@click.option("--work-cap", type=int, default=50_000_000, show_default=True,
              help="Cap on requests * k * (n1-1)*...*(nk-1), the box updates' work")
@click.option("--trace-wf", is_flag=True, default=False,
              help="Also print the cheapest table value after every request; "
                   "its requests * states scan must fit --work-cap too")
def cmd_opt(seq_file, start, state_cap, work_cap, trace_wf):
    """Print the exact offline optimum for a sequence file."""
    instance, requests = _guard(read_sequence, seq_file)
    start_cfg = _parse_tuple(start, instance, "start configuration") if start \
        else (0,) * instance.k
    if trace_wf:
        minima = _guard(work_function_minima, instance, start_cfg, requests,
                        state_cap=state_cap, work_cap=work_cap)
        for t, value in enumerate(minima):
            click.echo(f"t={t}\tmin={format_fraction(value)}")
        click.echo(format_fraction(minima[-1]))
        return
    value = _guard(opt_cost, instance, start_cfg, requests,
                   state_cap=state_cap, work_cap=work_cap)
    click.echo(format_fraction(value))


@main.command("duel")
@click.option("--alg", type=click.Choice(["det", "alt", "rand"]), default="det",
              show_default=True)
@click.option("--adversary", type=click.Choice(["antipodal"]), default="antipodal",
              show_default=True)
@click.option("--k", type=int, required=True)
@click.option("--rounds", type=click.IntRange(min=0), default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--start", type=str, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--dump-seq", type=click.Path(dir_okay=False), default=None)
def cmd_duel(alg, adversary, k, rounds, seed, start, out, dump_seq):
    """Closed-loop duel on two-point metrics; reports the measured ratio."""
    instance = _guard(Instance.uniform, k, 2)
    # every round has at least 2^k - 1 requests, so an optimum out of reach
    # is refused before serving
    _guard(check_caps, instance, rounds * (2 ** k - 1))
    start_cfg = _parse_tuple(start, instance, "start configuration") if start else None
    t0 = time.perf_counter()
    algorithm = _build_algorithm(alg, instance, seed, start_cfg)
    result = _guard(run_closed_loop, algorithm, rounds)
    opt = _guard(opt_cost, instance, start_cfg or (0,) * k, result.requests)
    wall = round(time.perf_counter() - t0, 6)
    report = _run_report(alg, instance, algorithm, result.requests, seed, opt, None, wall)
    report.update(adversary=adversary, adversary_model=result.adversary_model,
                  rounds=result.rounds_completed, round_lengths=result.round_lengths)
    if dump_seq:
        _write(dump_seq, write_sequence, instance, result.requests)
    _write_report(report, out)


@main.command("certify")
@click.option("--transcript", "transcript_file", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--alg", type=click.Choice(["det", "alt", "rand"]), default=None)
@click.option("--seq", "seq_file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cert-out", type=click.Path(file_okay=False), default=None,
              help="Directory for one certificate file per phase")
def cmd_certify(transcript_file, alg, seq_file, seed, cert_out):
    """Verify per-phase certificates from a transcript or a fresh run."""
    if (transcript_file is None) == (alg is None):
        _fail(EXIT_INPUT, "provide exactly one of --transcript or --alg with --seq")
    if transcript_file is not None:
        instance, steps = _guard(read_transcript, transcript_file)
        if not instance.is_unit_uniform:
            _fail(EXIT_INPUT, UNIFORM_ONLY)
    else:
        if seq_file is None:
            _fail(EXIT_INPUT, "--alg needs --seq")
        instance, requests = _guard(read_sequence, seq_file)
        algorithm = _build_algorithm(alg, instance, seed, None)
        _guard(algorithm.run, requests)
        steps = algorithm.transcript
    results = _guard(certify_transcript, instance, steps)
    all_ok = True
    for phase, cert, v in results:
        ok = v.all_ok
        all_ok &= ok
        click.echo(
            f"phase {phase}: length={cert.length} triangular={v.triangular} "
            f"diagonal={v.diagonal_nonzero} factorization={v.factorization_ok} "
            f"=> {'OK' if ok else 'VIOLATION'}"
        )
        if cert_out:
            out_dir = Path(cert_out)
            _write(out_dir, Path.mkdir, parents=True, exist_ok=True)
            _write(out_dir / f"phase{phase:04d}.cert", write_certificate, instance, cert, v)
    if not results:
        click.echo("no complete phases to certify")
    if not all_ok:
        sys.exit(EXIT_VIOLATION)


if __name__ == "__main__":
    main()
