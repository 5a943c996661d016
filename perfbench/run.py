"""freerat benchmark: drives the real CLI in-process over seeded workloads.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 20 --trace 0

One closed-loop client calls ``freerat.cli.main(argv)`` with stdout and
stderr captured in memory and sends the next request when the previous one
has returned.  An interpreter per request would cost ~150 ms of start-up
against requests of 1-10 ms, so requests share this process; the process
itself is fresh for every run, so no cache survives from an earlier run.

A run: set up (import, generate the first batch of requests, write their
expression files) seven times and keep the last; warm up on a pinned
request set disjoint from the timed one; run the timed loop for
``--seconds``; then check every answer.  With ``--trace 1`` the loop
alternates untraced and traced one-second segments (see tracer.py); the
per-layer metrics come from the traced segments and the overhead compares
the two kinds.  The last line of stdout is the JSON result; a summary goes to
stderr.  ``--pin`` rewrites pinned.json from the warm-up answers.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
MEMORY_LIMIT = 2 << 30
TRACE_SEGMENT_S = 1.0
HASH_SEED = "0"
PIN_SEED = 20261017
# requests generated per batch; a new batch is generated (off the clock)
# when the current one runs out
BATCH = {"refute": 600, "positivize": 80, "membership": 96, "gaps-scan": 60}
# warm-up requests: the first requests of the PIN_SEED stream
WARMUP = {"refute": 6, "positivize": 19, "membership": 16, "gaps-scan": 4}


def _import_program():
    """Import the package and the workload module afresh; return both."""
    for name in [n for n in sys.modules if n == "freerat" or n.startswith("freerat.") or n == "workloads"]:
        del sys.modules[name]
    import freerat.cli
    import workloads

    return freerat.cli, workloads


class Stream:
    """Requests of one workload from a seed, cycling through its strata and
    skipping any request whose key was already produced or excluded.
    ``next`` hands out requests batch by batch, writing each batch's
    expression files when the batch is generated."""

    def __init__(self, wl, workload: str, seed: int, directory: Path, exclude=()):
        self.rng = random.Random(seed)
        self.slots = [factory(self.rng) for factory in wl.WORKLOADS[workload].cycle]
        self.batch_size = BATCH[workload]
        self.directory = directory
        self.i = 0
        self.seen = set(exclude)
        self.written = 0
        self.pending: list = []

    def take(self, n: int) -> list:
        out = []
        while len(out) < n:
            for _ in range(100):
                req = self.slots[self.i % len(self.slots)](self.rng)
                if req.key not in self.seen:
                    break
            self.i += 1
            self.seen.add(req.key)
            out.append(req)
        for req in out:
            self.written += 1
            for placeholder, text in req.files.items():
                path = self.directory / f"{id(self)}-{self.written}{placeholder.replace('@', '-')}.sexp"
                path.write_text(text)
                req.argv = [str(path) if a == placeholder else a for a in req.argv]
        return out

    def next(self):
        if not self.pending:
            self.pending = self.take(self.batch_size)
        return self.pending.pop(0)


def _call(cli, argv):
    """Run one request; return (latency, failure kind or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    kind = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            kind = f"exit-{code}"
    except SystemExit as exc:
        kind = f"exit-{exc.code}"
    except Exception as exc:  # the CLI only catches ValueError
        kind = type(exc).__name__
    return time.perf_counter() - start, kind, out.getvalue()


def _timed_loop(cli, stream, seconds, records, tracer=None) -> float:
    """Closed loop until the requests have taken `seconds` in all; returns
    that time.  Generating a new batch of requests stops the clock."""
    active = 0.0
    while active < seconds:
        req = stream.next()
        if tracer is not None:
            tracer.request = len(records)
        t0 = time.perf_counter()
        latency, kind, out = _call(cli, req.argv)
        active += time.perf_counter() - t0
        records.append((req, latency, kind, out))
    return active


def _check(records) -> tuple[int, dict]:
    """Check every answered request; return (checks failed, failures by kind)."""
    bad = 0
    kinds: dict[str, int] = {}
    for req, _, kind, out in records:
        if kind is None:
            try:
                ok = req.check(out)
            except (ValueError, KeyError, TypeError, IndexError):  # malformed output
                ok = False
            if not ok:
                kind = "check"
                bad += 1
                print(f"check failed: {req.argv}", file=sys.stderr)
        if kind is not None:
            kinds[kind] = kinds.get(kind, 0) + 1
    return bad, kinds


def _quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomized per process, which reorders str-keyed
        # sets and dicts and with them the work some requests do; a fixed
        # seed makes the same inputs repeat the same work.  exec replaces
        # this process.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BATCH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite pinned.json from the warm-up answers")
    args = parser.parse_args()

    if not (ROOT / "src" / "freerat" / "cli.py").is_file():
        print(f"error: no freerat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # a request that runs away with memory fails with MemoryError instead
    # of taking the machine down
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, resource.getrlimit(resource.RLIMIT_AS)[1]))
    directory = WORK / f"{args.workload}-{args.seed}"
    try:
        return _run(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run(args, directory: Path) -> int:
    # -- set-up, repeated; the median is reported
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        gc.collect()  # the previous repeat's modules and requests, off the clock
        t0 = time.perf_counter()
        cli, wl = _import_program()
        directory.mkdir(parents=True)
        warm_stream = Stream(wl, args.workload, PIN_SEED, directory)
        warmup = warm_stream.take(WARMUP[args.workload])
        stream = Stream(wl, args.workload, args.seed, directory, exclude=warm_stream.seen)
        stream.pending = stream.take(stream.batch_size)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    # -- warm-up on the pinned set
    warm_records = [(req, *_call(cli, req.argv)) for req in warmup]
    pinned_path = HERE / "pinned.json"
    pinned = json.loads(pinned_path.read_text())
    answers = None
    if wl.WORKLOADS[args.workload].pinned:
        answers = [kind or wl.pinned_answer(args.workload, out) for _, _, kind, out in warm_records]
    if args.pin:
        pinned[args.workload] = answers
        pinned_path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        return 0
    pin_ok = answers == pinned.get(args.workload)

    # -- timed loop
    records: list = []
    if args.trace:
        from tracer import Tracer

        # Untraced and traced segments alternate, so both kinds see the same
        # drift in machine speed and their ratio is the overhead of tracing.
        cache_info = getattr(sys.modules["freerat.automata"].reduced_acceptor, "cache_info", None)
        tracer = Tracer()
        plain, traced = [], []
        plain_s = traced_s = 0.0
        hits = misses = 0
        while plain_s + traced_s < args.seconds:
            plain_s += _timed_loop(cli, stream, TRACE_SEGMENT_S, plain)
            before = cache_info() if cache_info else None
            tracer.install()
            try:
                traced_s += _timed_loop(cli, stream, TRACE_SEGMENT_S, traced, tracer)
            finally:
                tracer.uninstall()
            if cache_info:
                after = cache_info()
                hits += after.hits - before.hits
                misses += after.misses - before.misses
        records = plain + traced
        metrics = _layer_metrics(tracer, traced, traced_s, hits, misses)
        rps_plain = _answered(plain) / plain_s
        rps_traced = _answered(traced) / traced_s
        metrics["trace.untraced_rps"] = _metric(rps_plain, "1/s")
        metrics["trace.traced_rps"] = _metric(rps_traced, "1/s")
        metrics["trace.overhead_pct"] = _metric(100 * (rps_plain / rps_traced - 1), "%")
        tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        print(f"spans written {len(tracer.spans)}, dropped {tracer.dropped}", file=sys.stderr)
    else:
        loop_s = _timed_loop(cli, stream, args.seconds, records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- checks run only now, so they warm no cache a timed request could hit
    bad_warm, _ = _check(warm_records)
    bad, kinds = _check(records)
    attempted = len(records)
    failed = sum(kinds.values())
    if not args.trace:
        latencies_ms = [1000 * r[1] for r in records]
        metrics = {
            "throughput_rps": _metric(_answered(records) / loop_s, "req/s"),
            "latency_p50_ms": _metric(statistics.median(latencies_ms), "ms"),
            "latency_p90_ms": _metric(_quantile(latencies_ms, 0.90), "ms"),
            "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    by_stratum: dict[str, list[float]] = {}
    for req, latency, *_ in records:
        by_stratum.setdefault(req.stratum, []).append(1000 * latency)
    strata = {k: f"{len(v)} x {statistics.median(v):.1f}..{max(v):.1f} ms" for k, v in by_stratum.items()}
    print(
        f"{args.workload} seed={args.seed}: {attempted} requests {strata}; failures "
        f"{kinds or 'none'}; warm-up checks failed: {bad_warm}; pinned answers "
        f"{'match' if pin_ok else 'DIFFER'}",
        file=sys.stderr,
    )
    correct = bad == 0 and bad_warm == 0 and pin_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _answered(records) -> int:
    return sum(1 for r in records if r[2] is None)


def _layer_metrics(tracer, traced, seconds, hits, misses) -> dict:
    """Per-layer metrics of the traced segments: self time as a share of
    their time, call and work counts, cache and outcome counts."""
    out = {}
    for name in SPANNED:
        out[f"{name}.calls"] = _metric(tracer.calls.get(name, 0), "count")
        out[f"{name}.self_pct"] = _metric(100 * tracer.self_time.get(name, 0.0) / seconds, "%")
    for name in COUNTED:
        out[name] = _metric(tracer.counters.get(name, 0), "count")
    out["automata.reduced_acceptor.hits"] = _metric(hits, "count")
    out["automata.reduced_acceptor.misses"] = _metric(misses, "count")
    out["automata.reduced_acceptor.hit_ratio"] = _metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["cli.output_bytes"] = _metric(sum(len(r[3]) for r in traced), "bytes")
    return out


# spans whose calls and self time are reported
SPANNED = (
    "automata.saturate", "automata.determinize", "automata.intersect", "automata.difference",
    "automata.automaton_to_expr", "automata.enumerate_accepted", "automata.shortest_accepted",
    "ratexpr.enumerate_bounded", "ratexpr.standard_form", "ratexpr.parse_ratexpr",
    "words.substitute", "freeprod.fp_substitute", "freeprod.cyclic_form",
    "verbal.support_dichotomy_check", "verbal.certify_nonvalue",
    "gaps.criterion_scan", "gaps.gap_profile", "gaps.unbounded_family",
    "signs.positivize", "signs.split_product", "signs.positive_witness",
    "refuter.refute", "refuter.replay_report", "refuter.decomposable",
    "cli.main", "cli.build_parser",
)
# counters kept by the tracer
COUNTED = (
    "automata.saturate.nfa_states", "automata.determinize.dfa_states",
    "automata.Acceptor.step.calls", "automata.Acceptor.accepts.calls",
    "automata.enumerate_accepted.strings", "ratexpr.enumerate_bounded.words_out",
    "ratexpr.standard_form.summands", "words.Word.mul.calls", "words.Word.mul.letters",
    "freeprod.FPElement.mul.calls", "freeprod.FPElement.mul.syllables",
    "verbal.support_dichotomy_check.refuted", "refuter.outcome.missing-value",
    "refuter.outcome.foreign-element", "refuter.outcome.inconsistent-branch",
)


if __name__ == "__main__":
    sys.exit(main())
