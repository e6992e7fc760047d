"""Span tracing of the gks layers, installed from the benchmark's own files.

`install` replaces the public functions of each `gks` module with wrappers
that record one span per call (name, start, end, parent span) and bump
counters taken at the same boundary.  Names are patched where they are
looked up at call time: module globals such as `gks.cli.opt_cost`, and
`FeasibleFamily` and algorithm methods at class level.  Nothing under
`src/` knows about the tracer; `uninstall` puts every original back.

Spans live in flat arrays while the benchmark runs and are written out only
when it ends.  A span's self time is its duration minus that of its direct
children, which tile the part of its interval they cover because calls nest.
"""

from __future__ import annotations

import gzip
import os
from array import array
from collections import defaultdict
from time import perf_counter

def _path_size(dest) -> int:
    return os.path.getsize(dest) if isinstance(dest, (str, os.PathLike)) else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """`fn` inside a span; `after(ctx, result, *args)` runs once it returns."""
        nid = self._id(name)
        start, end, names, parent, stack = self.start, self.end, self.name, self.parent, self._stack

        def traced(*args, **kwargs):
            ctx = before(*args, **kwargs) if before is not None else None
            i = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(ctx, result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.start)

    # -- reading -------------------------------------------------------------

    def child_time(self, span: int, hi: int, names: set[str]) -> float:
        """Summed duration of the direct children of `span` with these names;
        spans from `hi` on started after `span` ended."""
        ids = {self._ids[n] for n in names if n in self._ids}
        start, end, parent, name = self.start, self.end, self.parent, self.name
        return sum(end[i] - start[i] for i in range(span + 1, hi)
                   if parent[i] == span and name[i] in ids)

    def aggregate(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, float]]:
        """(total, self) seconds per span name over spans lo..hi-1."""
        start, end, parent, name = self.start, self.end, self.parent, self.name
        dur = [end[i] - start[i] for i in range(lo, hi)]
        covered = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                covered[p - lo] += dur[i - lo]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            key = self.names[name[i]]
            total[key] += dur[i - lo]
            own[key] += dur[i - lo] - covered[i - lo]
        return total, own

    def write(self, path: str) -> None:
        """All spans as gzip TSV: name, start_ns, end_ns, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name[i]]}\t{round(self.start[i] * 1e9)}\t"
                        f"{round(self.end[i] * 1e9)}\t{self.parent[i]}\n")


def install(tr: Tracer, bench_module) -> None:
    """Wrap the public functions of every gks layer, plus the benchmark's
    own in-process `gks` command entry (`bench_module.cli_invoke`)."""
    import gks.adversaries as adversaries
    import gks.algorithms as algorithms
    import gks.certify as certify
    import gks.cli as cli
    import gks.core as core
    import gks.offline as offline
    import gks.spaces as spaces
    import gks.weighted as weighted

    counts, maxima = tr.counts, tr.maxima

    # -- spaces: FeasibleFamily at class level ------------------------------
    fam = spaces.FeasibleFamily

    def before_update(family, r):
        return len(family.created), family.duplicate_creations

    def after_update(ctx, changed, family, r):
        counts["spaces.update_calls"] += 1
        counts["spaces.update_changes"] += changed
        size = len(family)
        counts["spaces.family_size_sum"] += size
        if size > maxima["spaces.family_size_max"]:
            maxima["spaces.family_size_max"] = size
        counts["spaces.created_patterns"] += len(family.created) - ctx[0]
        counts["spaces.duplicate_creations"] += family.duplicate_creations - ctx[1]

    def after_initial(ctx, family, cls, r):
        counts["spaces.created_patterns"] += len(family.created)

    tr.patch(fam, "update", tr.wrap("spaces.update", fam.update, before_update, after_update))
    tr.patch(fam, "initial", classmethod(
        tr.wrap("spaces.initial", fam.__dict__["initial"].__func__, after=after_initial)))
    for method in ("nearest_member", "max_dimension_stats", "max_dimension_set"):
        tr.patch(fam, method, tr.wrap(f"spaces.{method}", getattr(fam, method)))

    # -- algorithms --------------------------------------------------------
    def after_serve(ctx, step, alg, r):
        counts["algorithms.requests"] += 1
        counts["algorithms.forced_moves"] += step.moved
        counts["algorithms.shrinks"] += step.shrunk
        counts["algorithms.phases"] += step.phase_start

    online = algorithms.OnlineAlgorithm
    tr.patch(online, "serve", tr.wrap("algorithms.serve", online.serve, after=after_serve))
    tr.patch(online, "run", tr.wrap("algorithms.run", online.run))
    tr.patch(algorithms, "nearest_space",
             tr.wrap("algorithms.nearest_space", algorithms.nearest_space))

    def after_write_transcript(ctx, result, dest, *args, **kwargs):
        counts["algorithms.transcript_bytes_out"] += _path_size(dest)

    def after_read_transcript(ctx, result, src):
        counts["algorithms.transcript_bytes_in"] += _path_size(src)

    write_transcript = tr.wrap("algorithms.write_transcript", algorithms.write_transcript,
                               after=after_write_transcript)
    read_transcript = tr.wrap("algorithms.read_transcript", algorithms.read_transcript,
                              after=after_read_transcript)
    for owner in (algorithms, cli):
        tr.patch(owner, "write_transcript", write_transcript)
        tr.patch(owner, "read_transcript", read_transcript)

    # -- core: sequence files ----------------------------------------------
    def after_read_sequence(ctx, result, src):
        counts["core.bytes_in"] += _path_size(src)

    def after_write_sequence(ctx, result, dest, *args, **kwargs):
        counts["core.bytes_out"] += _path_size(dest)

    read_sequence = tr.wrap("core.read_sequence", core.read_sequence, after=after_read_sequence)
    write_sequence = tr.wrap("core.write_sequence", core.write_sequence,
                             after=after_write_sequence)
    for owner in (core, cli):
        tr.patch(owner, "read_sequence", read_sequence)
        tr.patch(owner, "write_sequence", write_sequence)

    # -- certify ------------------------------------------------------------
    def after_build(ctx, cert, rows, k, *args, **kwargs):
        counts["certify.phases"] += 1
        counts["certify.forced_rows"] += cert.length
        counts["certify.matrix_products"] += cert.length * cert.length << k

    def after_verify(ctx, verdicts, cert):
        counts["certify.ok"] += verdicts.all_ok

    tr.patch(certify, "build_phase_matrix",
             tr.wrap("certify.build", certify.build_phase_matrix, after=after_build))
    tr.patch(certify, "verify_certificate",
             tr.wrap("certify.verify", certify.verify_certificate, after=after_verify))
    certify_transcript = tr.wrap("certify.transcript", certify.certify_transcript)
    for owner in (certify, cli):
        tr.patch(owner, "certify_transcript", certify_transcript)

    # -- offline ------------------------------------------------------------
    def after_opt(ctx, value, instance, start, requests, **kwargs):
        counts["offline.calls"] += 1
        counts["offline.cells"] += len(requests) * instance.state_count()

    opt_cost = tr.wrap("offline.opt", offline.opt_cost, after=after_opt)
    for owner in (offline, cli):
        tr.patch(owner, "opt_cost", opt_cost)

    # -- adversaries --------------------------------------------------------
    def after_one_request(ctx, r, *args):
        counts["adversaries.requests"] += 1

    def after_sequence(ctx, seq, *args):
        counts["adversaries.requests"] += len(seq)

    for fn, after in (("evasive_next", after_one_request), ("antipodal_next", after_one_request),
                      ("random_sequence", after_sequence), ("run_closed_loop", None)):
        tr.patch(adversaries, fn, tr.wrap(f"adversaries.{fn}", getattr(adversaries, fn),
                                          after=after))

    # -- weighted -----------------------------------------------------------
    def before_weighted(alg, r):
        # the benchmark's own test, not the program's `satisfies`
        return any(a == b for a, b in zip(alg.current, r))

    def after_weighted(filtered, step, alg, r):
        counts["weighted.filtered" if filtered else "weighted.counted"] += 1

    wa = weighted.WeightedAlgorithm
    tr.patch(wa, "serve", tr.wrap("weighted.serve", wa.serve, before_weighted, after_weighted))
    tr.patch(wa, "phase_report", tr.wrap("weighted.phase_report", wa.phase_report))

    # -- the gks command, invoked in-process by the benchmark ---------------
    def after_cmd(ctx, result, args):
        counts["cli.exit_nonzero"] += result[0] != 0

    tr.patch(bench_module, "cli_invoke",
             tr.wrap("cli.cmd", bench_module.cli_invoke, after=after_cmd))
