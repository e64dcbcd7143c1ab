"""Benchmark for sumfree: one workload per run, outputs checked, metrics printed.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload count-profile --seed 1 --seconds 50 --trace 0

--trace 0 runs the workload untraced for --seconds and prints the
end-to-end metrics, its timings divided by the machine's speed, which a
reference count of the benchmark's own measures during the run.
--trace 1 alternates untraced rounds with rounds in which every layer
call is wrapped in a span, then sends a short session of CLI queries,
and prints the per-layer metrics and the tracing overhead.
--smoke shrinks every input for quick tests.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A result file with the same
metrics, exact work counts and a provenance block is written to
perfbench/out/, and a traced run writes its spans there too.  The exit
code is 0 when every checked operation passed, 1 when one did
not, and 2 when the checkout holds no sumfree sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: tail percentiles, highest first; the tail is the first with ten samples beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
SETUP_PROBES = 9
COLD_START_PROBES = 3
REFERENCE_N = 20
#: seconds of reference() in a quiet period on the machine the benchmark
#: was defined on (2 vCPUs, Intel Xeon at 2.1 GHz, Python 3.11.7)
REFERENCE_S = 0.0095
#: reference timings before each round and each set-up interpreter
REFERENCE_REPEATS = 3
#: layers that run in the client process; the CLI runs in child processes
LAYERS = ("enumeration", "partitions", "sumsets", "core", "bounds", "sampling")

#: per-call latency medians reported per layer: metric -> op kind
KERNEL_US = {
    "sumsets.sumset_us": "sumset",
    "sumsets.b_set_us": "b_set",
    "sumsets.freiman_cover_us": "freiman_cover",
    "core.is_sum_free_us": "is_sum_free",
    "core.statistics_of_us": "statistics_of",
    "bounds.theorem_rhs_us": "theorem_rhs",
    "bounds.janson_us": "janson_quantities",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# running rounds


class Round:
    def __init__(self):
        #: (op kind, seconds, exact work counts or None), in call order
        self.samples: list[tuple[str, float, dict]] = []
        self.failures: list[str] = []
        #: reference() seconds just before the round
        self.reference: tuple[float, ...] = ()

    def work(self) -> Counter:
        """Exact work counts of the round: the integer fields of the results."""
        total: Counter = Counter()
        for _, _, work in self.samples:
            if work:
                total.update({key: v for key, v in work.items() if isinstance(v, int)})
        return total


def reference_count(n: int) -> int:
    """Sum-free subsets of {1..n}, counted by plain recursion over bit masks.

    The benchmark's own code, sharing nothing with sumfree; its mix of
    calls and integer operations is the search's, so a busy machine slows
    it about as much as it slows the program."""

    def rec(i: int, mask: int, sums: int) -> int:
        if i > n:
            return 1
        total = rec(i + 1, mask, sums)
        if not (sums >> i) & 1:
            new_sums = sums | 1 << (2 * i)
            rest = mask
            while rest:
                low = rest & -rest
                new_sums |= 1 << (low.bit_length() - 1 + i)
                rest ^= low
            if not (new_sums >> i) & 1:
                total += rec(i + 1, mask | 1 << i, new_sums)
        return total

    return rec(1, 0, 0)


def reference() -> float:
    """Seconds for reference_count(REFERENCE_N): how fast the machine runs
    the interpreter at that moment."""
    t0 = time.perf_counter()
    reference_count(REFERENCE_N)
    return time.perf_counter() - t0


def references() -> tuple[float, ...]:
    return tuple(reference() for _ in range(REFERENCE_REPEATS))


def speed(samples) -> float:
    """The machine's speed over a stretch of the run: 1 on the machine the
    benchmark was defined on in a quiet period, above 1 when it runs slower.

    `samples` holds tuples from references().  Like an operation of the
    round, each position of the tuple is taken at its fastest over the
    stretch; the speed is their mean over REFERENCE_S."""
    return statistics.fmean(min(position) for position in zip(*samples)) / REFERENCE_S


def run_round(wl, tracer=None) -> Round:
    rnd = Round()
    for op in wl.ops:
        work = None
        t0 = time.perf_counter()
        try:
            if tracer is not None and op.span:
                with tracer.span(f"{op.layer}.{op.kind}", op.layer):
                    result = op.call()
            else:
                result = op.call()
            dt = time.perf_counter() - t0
            problem = op.check(result)
            if problem is None and op.work is not None:
                work = op.work(result)
        except Exception as exc:  # a raising operation is a failed operation
            dt = time.perf_counter() - t0
            problem = f"{op.kind} raised {type(exc).__name__}: {exc}"
        rnd.samples.append((op.kind, dt, work))
        if problem:
            rnd.failures.append(problem)
    return rnd


def run_rounds(wl, seconds: float, tracer=None) -> tuple[list[Round], list[Round]]:
    """Whole rounds until the time is up: stop when one more round would
    end further past the deadline than the last one ended before it.

    Returns the untraced and the traced rounds.  With a tracer, rounds
    alternate between the two, so both see the same states of the machine
    and their difference is the tracing overhead."""
    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    shortest = float("inf")
    while True:
        wl.reset()
        ref = references()
        t0 = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                with tracer.span("round", "bench"):
                    traced.append(run_round(wl, tracer))
            finally:
                tracer.uninstall()
            traced[-1].reference = ref
        else:
            plain.append(run_round(wl))
            plain[-1].reference = ref
        shortest = min(shortest, time.perf_counter() - t0)
        if time.perf_counter() - start + shortest / 2 >= seconds and (tracer is None or traced):
            return plain, traced


# ----------------------------------------------------------------------
# statistics


def percentile(sorted_vals, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail(sorted_vals) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least ten samples beyond it; the median when none has."""
    n = len(sorted_vals)
    for q in TAIL_LADDER:
        beyond = int(n * (100.0 - q) / 100.0)
        if beyond >= 10:
            return q, percentile(sorted_vals, q), beyond
    return 50.0, percentile(sorted_vals, 50.0), n // 2


def by_kind(rounds) -> dict[str, list[tuple[float, dict]]]:
    out = defaultdict(list)
    for rnd in rounds:
        for kind, dt, work in rnd.samples:
            out[kind].append((dt, work))
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# fresh interpreters


def setup_probes(args, count: int) -> tuple[list[float], list[float], list[tuple]]:
    """Wall seconds of `count` fresh interpreters that import sumfree.cli and
    build the workload's inputs, the import seconds each reported, and the
    reference's times before each."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--smoke"] if args.smoke else []
    walls, imports, refs = [], [], []
    # one unmeasured start first, so byte-code compilation is not counted
    for i in range(count + 1):
        ref = references()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        if i:
            walls.append(wall)
            imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
            refs.append(ref)
    return walls, imports, refs


def cold_starts(count: int) -> list[float]:
    """Wall seconds of `count` runs of a trivial CLI query."""
    from workloads import run_cli

    walls = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = run_cli(ROOT, ["partitions", "--k", "3"])
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-300:]}")
    return walls


def setup_probe_main(args) -> int:
    import workloads

    t0 = time.perf_counter()
    import sumfree.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    workloads.make(args.workload, args.seed, workloads.Context(ROOT, OUT, args.smoke))
    print(json.dumps({"import_s": import_s, "setup_s": time.perf_counter() - t0}))
    return 0


# ----------------------------------------------------------------------
# metrics


def best_of(rounds) -> list[tuple[str, float]]:
    """Each operation of the round with its fastest latency over the rounds.

    Every round runs the same operations in the same order.  On a shared
    machine the speed of the processor drifts by a third or more, for
    seconds to minutes; the fastest of several repeats is the estimate that
    drift moves least.
    """
    return [
        (samples[0][0], min(dt for _, dt, _ in samples))
        for samples in zip(*(rnd.samples for rnd in rounds))
    ]


def end_to_end(rounds, setup_walls, setup_refs, error_rate, rss) -> tuple[dict, dict]:
    """The end-to-end metrics, timings divided by the machine's speed.

    A shared machine can run every operation of a 50 s run two thirds
    slower than in the run before, and no estimate inside one run sees
    that.  The reference slows with the machine but not with the program,
    so every timing is divided by the speed it measured over the whole
    run.  That speed stays within a few percent from run to run unless
    the whole run was slow.  The raw figures are kept in the result file.
    """
    run_speed = speed([rnd.reference for rnd in rounds] + setup_refs)
    lat = sorted(dt for _, dt in best_of(rounds))
    q, tail_value, beyond = tail(lat)
    raw = {
        # best of the fresh interpreters, like the per-operation timings
        "setup_s": min(setup_walls),
        "wall_s": sum(lat),
        "op_p50_ms": percentile(lat, 50.0) * 1e3,
        "op_tail_ms": tail_value * 1e3,
    }
    metrics = {
        "setup_s": (raw["setup_s"] / run_speed, "s"),
        "wall_s": (raw["wall_s"] / run_speed, "s"),
        "op_p50_ms": (raw["op_p50_ms"] / run_speed, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] / run_speed, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "success_rate": (1.0 - error_rate, "ratio"),
    }
    notes = {
        "op_tail_percentile": q,
        "op_samples": len(lat),
        "op_samples_beyond_tail": beyond,
        "speed": run_speed,
        "raw": raw,
    }
    return metrics, notes


def per_layer(plain, traced, tracer, cli_round, imports, colds, error_rate, probes_failed) -> dict:
    from tracing import layer_times, totals_by_name

    rounds = len(traced)
    busy, self_time = layer_times(tracer.spans)
    names = totals_by_name(tracer.spans)
    kinds = by_kind(plain)
    best: dict[str, list[float]] = defaultdict(list)
    for kind, dt in best_of(plain):
        best[kind].append(dt)

    def med(kind) -> float:
        return statistics.median(best[kind]) if kind in best else 0.0

    def span_total(name, key=None) -> float:
        entry = names.get(name)
        if entry is None:
            return 0.0
        return entry["seconds"] if key is None else entry["work"][key]

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    def work_of(kind, key) -> list[float]:
        return [work[key] for _, work in kinds.get(kind, ()) if work]

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (busy[layer] / rounds, "s")
        m[f"{layer}.self_s"] = (self_time[layer] / rounds, "s")

    # counted where the search is entered, nested calls included
    nodes = span_total("enumeration.count_sum_free", "nodes")
    m["enumeration.nodes"] = (nodes / rounds, "count")
    m["enumeration.nodes_per_s"] = (ratio(nodes, span_total("enumeration.count_sum_free")), "1/s")
    m["enumeration.sets_per_node"] = (ratio(span_total("enumeration.count_sum_free", "sets"), nodes), "ratio")
    m["enumeration.pool_speedup"] = (ratio(med("count_sum_free_top"), med("count_sum_free_top_threads2")), "ratio")
    subsets = span_total("enumeration.count_oracle", "subsets")
    m["enumeration.oracle_subsets_per_s"] = (ratio(subsets, span_total("enumeration.count_oracle")), "1/s")
    streamed = work_of("enumerate_sum_free", "streamed")
    m["enumeration.stream_sets_per_s"] = (ratio(statistics.median(streamed), med("enumerate_sum_free")) if streamed else 0.0, "1/s")

    candidates = span_total("partitions.sumset_size_profile", "candidates")
    m["partitions.candidates"] = (candidates / rounds, "count")
    m["partitions.candidates_per_s"] = (ratio(candidates, span_total("partitions.sumset_size_profile")), "1/s")
    m["partitions.small_sumset_s"] = (span_total("partitions.count_small_sumset_sets") / rounds, "s")

    for metric, kind in KERNEL_US.items():
        m[metric] = (med(kind) * 1e6, "us")

    draws = sum(work_of("draw_sum_free", "draws")) / len(plain)
    acceptance = work_of("sample_uniform", "acceptance")
    m["sampling.draws_per_s"] = (ratio(draws, sum(best["draw_sum_free"])), "1/s")
    m["sampling.acceptance"] = (statistics.fmean(acceptance) if acceptance else 0.0, "ratio")
    m["sampling.estimate_s"] = (span_total("sampling.acceptance_estimate") / rounds, "s")

    cli = by_kind([cli_round])
    overheads = [dt - work["record_elapsed_s"] for dt, work in cli["cli.nocache"] if work]
    misses = [dt for dt, _ in cli["cli.miss"]]
    hits = [dt for dt, _ in cli["cli.hit"]]
    m["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    m["cli.cold_start_ms"] = (statistics.median(colds) * 1e3, "ms")
    m["cli.overhead_ms"] = (statistics.median(overheads) * 1e3 if overheads else 0.0, "ms")
    m["cli.cache_miss_ms"] = (statistics.median(misses) * 1e3, "ms")
    m["cli.cache_hit_ms"] = (statistics.median(hits) * 1e3, "ms")
    m["cli.cache_hit_saving_ms"] = (statistics.median(a - b for a, b in zip(misses, hits)) * 1e3, "ms")

    plain_wall = sum(dt for _, dt in best_of(plain))
    traced_wall = sum(dt for _, dt in best_of(traced))
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    m["trace.overhead_ratio"] = (ratio(traced_wall - plain_wall, plain_wall), "ratio")
    m["trace.spans"] = (len(tracer.spans) / rounds, "count")
    m["error_rate"] = (error_rate, "ratio")
    m["probes_failed"] = (probes_failed, "count")
    return m


# ----------------------------------------------------------------------
# provenance


def git_commit():
    """The checked-out commit, read from .git without starting a process
    (a child would count in peak_rss_mb); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sumfree").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "started": datetime.now(timezone.utc).isoformat(),
        "loadavg_start": os.getloadavg(),
    }


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sumfree" / "__init__.py").is_file():
        print(f"no sumfree sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe_main(args)

    OUT.mkdir(exist_ok=True)
    prov = provenance(args)
    ctx = workloads.Context(ROOT, OUT, args.smoke)
    wl = workloads.make(args.workload, args.seed, ctx)
    wl.prepare()
    # the harness's own objects (inputs, expected answers) stay out of the
    # collector's scans, so its pauses during timed calls are the program's
    gc.collect()
    gc.freeze()

    tracer = cli_round = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
    plain, traced = run_rounds(wl, args.seconds, tracer)
    measured = plain + traced
    rss = peak_rss_mb()

    probe_results = {probe.name: probe.run() for probe in wl.probes}
    wl.reset()
    setup_walls, imports, setup_refs = setup_probes(args, 2 if args.smoke else SETUP_PROBES)
    if args.trace:
        colds = cold_starts(COLD_START_PROBES)
        session = workloads.cli_session(args.seed, ctx)
        session.prepare()
        session.reset()
        cli_round = run_round(session)
        session.reset()

    checked = measured + ([cli_round] if cli_round else [])
    failures = [f for rnd in checked for f in rnd.failures]
    attempted = sum(len(rnd.samples) for rnd in checked)
    probes_failed = sum(1 for v in probe_results.values() if v)
    error_rate = (len(failures) + probes_failed) / (attempted + len(probe_results))

    if args.trace:
        metrics = per_layer(plain, traced, tracer, cli_round, imports, colds, error_rate, probes_failed)
        notes = {"rounds_untraced": len(plain), "rounds_traced": len(traced)}
    else:
        metrics, notes = end_to_end(measured, setup_walls, setup_refs, error_rate, rss)
        notes["rounds"] = len(measured)
    prov["loadavg_end"] = os.getloadavg()

    per_round = [dict(rnd.work()) for rnd in measured]
    best: dict[str, list[float]] = defaultdict(list)
    for kind, dt in best_of(plain):
        best[kind].append(dt)
    result = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "error_rate": error_rate,
        "work_per_round": per_round[0] if per_round else {},
        "work_repeats_exactly": all(w == per_round[0] for w in per_round),
        "ops": {
            kind: {"per_round": len(v), "best_median_s": statistics.median(v)} for kind, v in sorted(best.items())
        },
        # per-round op time shows whether the machine was steady during the run
        "round_op_seconds": [sum(dt for _, dt, _ in rnd.samples) for rnd in measured],
        "round_reference_s": [rnd.reference for rnd in measured],
        "setup_reference_s": setup_refs,
        "probes": probe_results,
        "failures": failures[:50],
        "setup_walls_s": setup_walls,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:34s} {value:14.6g} {unit}")
    if not args.trace:
        print(
            f"{args.workload:16s} op_tail_ms is p{notes['op_tail_percentile']:g} of {notes['op_samples']} "
            f"operations ({notes['op_samples_beyond_tail']} beyond), each its fastest of {notes['rounds']} rounds"
        )
        print(
            f"{args.workload:16s} timings divided by the machine's speed {notes['speed']:.4f}; "
            f"raw wall_s {notes['raw']['wall_s']:.4f}, setup_s {notes['raw']['setup_s']:.4f}"
        )
    for name, defect in probe_results.items():
        print(f"{args.workload:16s} probe {name}: {'FAIL ' + ' '.join(defect.split()) if defect else 'ok'}")
    for failure in failures[:10]:
        print(f"{args.workload:16s} FAILED {failure}")
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
