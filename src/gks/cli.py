"""Command-line surface: reproducible runs, exact optimum, duels, certificates.

Exit codes: 0 success, 1 input error, 2 invariant or certificate violation
(a finding), 3 resource cap exceeded.  Reports are single self-describing
JSON documents (schema ``gks-report v1``); apart from the wall-clock field
every output byte is a function of flags, seed, and input files.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import click
from click.core import ParameterSource

from .core import (
    CertificateImpossibleError,
    GKSError,
    Instance,
    InvalidInputError,
    InvariantViolationError,
    ResourceLimitError,
    format_fraction,
    parse_fractions,
    parse_ints,
    read_sequence,
    write_lines,
    write_sequence,
)
from .algorithms import (
    ALGORITHMS,
    read_transcript,
    write_transcript,
)
from .adversaries import random_sequence, run_closed_loop, run_evasive
from .certify import certify_transcript, write_certificate
from .offline import (
    DEFAULT_STATE_CAP,
    DEFAULT_WORK_CAP,
    check_caps,
    opt_cost,
    work_function_minima,
)
from .weighted import WeightedAlgorithm

REPORT_SCHEMA = "gks-report v1"

EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_RESOURCE = 3

UNIFORM_ONLY = "certificates apply to the uniform algorithms"


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


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


def _output_path(ctx, param, value):
    """An empty output path is a bad value, refused before anything is served."""
    if value == "":
        _fail(EXIT_INPUT, f"{param.opts[0]}: empty path")
    return value


def _parse_start(text: str | None, instance: Instance):
    """The `--start` configuration; all zeros when the flag is absent."""
    if text is None:
        return (0,) * instance.k
    return instance.check_coords(_parse_flag("--start", parse_ints, text), "start configuration")


def _instance_from_flags(k, sizes, weights):
    if k is None or sizes is None:
        _fail(EXIT_INPUT, "generated sequences need --k and --sizes")
    size_list = _parse_flag("--sizes", parse_ints, sizes)
    if len(size_list) == 1:
        size_list *= k
    weight_list = (Fraction(1),) * k if weights is None \
        else _parse_flag("--weights", parse_fractions, weights)
    return Instance(k, size_list, weight_list)


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


def _execute_run(alg: str, instance: Instance, requests, gen: str | None,
                 steps: int, seed: int, start, keep_transcript: bool) -> tuple:
    """Serve one run: (algorithm, served requests, a new dict of the traffic's
    report fields).

    The traffic is `requests`, or `steps` requests of `gen` "random" or
    "evasive", or `steps` rounds of the "antipodal" closed-loop duel."""
    cls = WeightedAlgorithm if alg == "weighted" else ALGORITHMS[alg]
    seeded = (seed,) if cls.randomized else ()
    algorithm = cls(instance, *seeded, start=start, keep_transcript=keep_transcript)
    if gen == "evasive":
        return algorithm, run_evasive(algorithm, steps, seed), {}
    if gen == "antipodal":
        result = run_closed_loop(algorithm, steps)
        return algorithm, result.requests, {
            "adversary": gen, "adversary_model": result.adversary_model,
            "rounds": result.rounds_completed, "round_lengths": result.round_lengths}
    seq = random_sequence(instance, steps, seed) if gen == "random" else requests
    algorithm.run(seq)
    return algorithm, seq, {}


def _run_one(alg: str, instance: Instance, requests, gen, steps, seed, start, with_opt: bool,
             with_certify: bool, keep_transcript: bool) -> tuple[dict, object, list]:
    """One complete run: (report, algorithm, served sequence).

    The report's wall clock covers the run, certification and the optimum,
    not file writes.
    """
    t0 = time.perf_counter()
    algorithm, seq, fields = _execute_run(alg, instance, requests, gen, steps, seed, start,
                                          keep_transcript)
    if with_certify:
        fields["certificates"] = [
            {"phase": phase, "length": cert.length, **asdict(v)}
            for phase, cert, v in certify_transcript(instance, algorithm.transcript)]
    if with_opt:
        opt_instance = instance
        if alg == "weighted":
            opt_instance = Instance.make(instance.sizes, algorithm.rounded.rounded)
        opt = opt_cost(opt_instance, start, seq)
        ratio = Fraction(algorithm.total_cost) / max(opt, Fraction(1))
        fields.update(opt=format_fraction(opt), ratio=exact_decimal(ratio),
                      ratio_exact=format_fraction(ratio))
    wall = round(time.perf_counter() - t0, 6)
    report = {
        "schema": REPORT_SCHEMA,
        "instance": _instance_echo(instance),
        "algorithm": alg,
        "seed": seed,
        "steps": len(seq),
        "total_cost": format_fraction(algorithm.total_cost),
        "phases": _phases_field(algorithm.phase_summaries),
        "wall_clock_sec": wall,
        **fields,
    }
    if isinstance(algorithm, WeightedAlgorithm):
        report["weighted_anatomy"] = algorithm.phase_report()
        report["cost_units"] = "rounded-normalized"
    return report, algorithm, seq


def _sweep_worker(task) -> dict:
    """Report of one sweep run; picklable for process pools."""
    return _run_one(*task)[0]


class _Commands(click.Group):
    """Decides every command's exit code.  Click's own usage errors (a bad
    flag value, a missing file, an unknown choice) exit 1, as input errors
    like any other; a `GKSError` prints its `error:` line and exits with
    the code of its kind."""

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
        except ResourceLimitError as e:
            _fail(EXIT_RESOURCE, str(e))
        except (InvariantViolationError, CertificateImpossibleError) as e:
            _fail(EXIT_VIOLATION, str(e))
        except GKSError as e:
            _fail(EXIT_INPUT, str(e))


@click.group(cls=_Commands)
def main():
    """Experiments on products of uniform metrics."""


@main.command("run")
@click.option("--alg", type=click.Choice([*ALGORITHMS, "weighted"]), required=True)
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
@click.option("--out", type=click.Path(dir_okay=False), callback=_output_path)
@click.option("--opt/--no-opt", "with_opt", default=False,
              help="Also compute the exact optimum and the ratio")
@click.option("--certify", "with_certify", is_flag=True, default=False,
              help="Verify per-phase certificates (uniform algorithms)")
@click.option("--dump-seq", type=click.Path(dir_okay=False), callback=_output_path)
@click.option("--transcript-out", type=click.Path(dir_okay=False), callback=_output_path)
def cmd_run(alg, seq_file, gen, steps, k, sizes, weights, seed, seeds, jobs,
            start, out, with_opt, with_certify, dump_seq, transcript_out):
    """Run one algorithm over a sequence and write a JSON report."""
    if (seq_file is None) == (gen is None):
        _fail(EXIT_INPUT, "provide exactly one of --seq or --gen")
    if with_certify and alg == "weighted":
        _fail(EXIT_INPUT, UNIFORM_ONLY)
    if seq_file is not None:
        # the file gives the instance and the requests; --steps has a
        # default, so only one given on the command line is refused
        ctx = click.get_current_context()
        given = [f"--{name}" for name in ("k", "sizes", "weights", "steps")
                 if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE]
        if given:
            _fail(EXIT_INPUT, f"--seq reads the instance and requests from its file; "
                              f"drop {', '.join(given)}")
        instance, requests = read_sequence(seq_file)
    else:
        instance = _instance_from_flags(k, sizes, weights)
        requests = None
    start_cfg = _parse_start(start, instance)

    seed_list = (seed,) if seeds is None else _parse_flag("--seeds", parse_ints, seeds)
    if len(set(seed_list)) < len(seed_list):
        # one report file per seed: a repeat would serve twice and overwrite
        _fail(EXIT_INPUT, f"--seeds: repeated seed in {seeds}")
    if len(seed_list) > 1 and (dump_seq or transcript_out):
        _fail(EXIT_INPUT, "--dump-seq/--transcript-out need a single seed")
    n_requests = steps if requests is None else len(requests)
    if with_opt and n_requests:
        # an optimum out of reach is refused before serving; the optimum of
        # no requests is 0 whatever the caps
        check_caps(instance, n_requests)
    keep_transcript = with_certify or transcript_out is not None
    tasks = [(alg, instance, requests, gen, steps, s, start_cfg, with_opt, with_certify,
              keep_transcript) for s in seed_list]

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
        if jobs > 1:
            # imported here: it loads `logging`, and only this sweep needs it
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
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
@click.option("--state-cap", type=click.IntRange(min=0), default=DEFAULT_STATE_CAP,
              show_default=True)
@click.option("--work-cap", type=click.IntRange(min=0), default=DEFAULT_WORK_CAP, show_default=True,
              help="Cap on requests * k * (n1-1)*...*(nk-1), the box updates' work")
@click.option("--trace-wf", is_flag=True, default=False,
              help="Also print the cheapest table value after every request; "
                   "a table rescans when it rises, at most --work-cap cells in all")
def cmd_opt(seq_file, start, state_cap, work_cap, trace_wf):
    """Print the exact offline optimum for a sequence file."""
    instance, requests = read_sequence(seq_file)
    start_cfg = _parse_start(start, instance)
    if trace_wf:
        minima = work_function_minima(instance, start_cfg, requests,
                                      state_cap=state_cap, work_cap=work_cap)
        for t, value in enumerate(minima):
            click.echo(f"t={t}\tmin={format_fraction(value)}")
        click.echo(format_fraction(minima[-1]))
        return
    value = opt_cost(instance, start_cfg, requests, state_cap=state_cap, work_cap=work_cap)
    click.echo(format_fraction(value))


@main.command("duel")
@click.option("--alg", type=click.Choice(list(ALGORITHMS)), default="det",
              show_default=True)
@click.option("--adversary", type=click.Choice(["antipodal"]), default="antipodal",
              show_default=True)
@click.option("--k", type=int, required=True)
@click.option("--rounds", type=click.IntRange(min=0), default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--start", type=str, default=None)
@click.option("--out", type=click.Path(dir_okay=False), callback=_output_path)
@click.option("--dump-seq", type=click.Path(dir_okay=False), callback=_output_path)
def cmd_duel(alg, adversary, k, rounds, seed, start, out, dump_seq):
    """Closed-loop duel on two-point metrics; reports the measured ratio."""
    instance = Instance.uniform(k, 2)
    # every round has at least 2^k - 1 requests, so an optimum out of reach
    # is refused before serving
    check_caps(instance, rounds * (2 ** k - 1))
    start_cfg = _parse_start(start, instance)
    report, _, seq = _run_one(alg, instance, None, adversary, rounds, seed, start_cfg,
                              with_opt=True, with_certify=False, keep_transcript=False)
    if dump_seq:
        _write(dump_seq, write_sequence, instance, seq)
    _write_report(report, out)


@main.command("certify")
@click.option("--transcript", "transcript_file", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--alg", type=click.Choice(list(ALGORITHMS)), default=None)
@click.option("--seq", "seq_file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cert-out", type=click.Path(file_okay=False), callback=_output_path,
              help="Directory for one certificate file per phase")
def cmd_certify(transcript_file, alg, seq_file, seed, cert_out):
    """Verify per-phase certificates from a transcript or a fresh run."""
    if (transcript_file is None) == (alg is None):
        _fail(EXIT_INPUT, "provide exactly one of --transcript or --alg with --seq")
    if transcript_file is not None:
        instance, steps = read_transcript(transcript_file)
        # an empty family marks a weighted run's row, even under unit weights
        if not instance.is_unit_uniform or any(s.family_size == 0 for s in steps):
            _fail(EXIT_INPUT, UNIFORM_ONLY)
    else:
        if seq_file is None:
            _fail(EXIT_INPUT, "--alg needs --seq")
        instance, requests = read_sequence(seq_file)
        algorithm, _, _ = _execute_run(alg, instance, requests, None, 0, seed, None,
                                       keep_transcript=True)
        steps = algorithm.transcript
    results = certify_transcript(instance, steps)
    all_ok = True
    for i, (phase, cert, v) in enumerate(results):
        ok = v.all_ok
        all_ok &= ok
        click.echo(
            f"phase {phase}: length={cert.length} triangular={v.triangular} "
            f"diagonal={v.diagonal_nonzero} factorization={v.factorization_ok} "
            f"=> {'OK' if ok else 'VIOLATION'}"
        )
        if cert_out:
            if not i:  # made once, at the first certificate: no phase, no directory
                out_dir = Path(cert_out)
                _write(out_dir, Path.mkdir, parents=True, exist_ok=True)
            _write(out_dir / f"phase{phase:04d}.cert", write_certificate, instance, cert, v)
    if not results:
        click.echo("no complete phases to certify")
    if not all_ok:
        sys.exit(EXIT_VIOLATION)


if __name__ == "__main__":
    main()
