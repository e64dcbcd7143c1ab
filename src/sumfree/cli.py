"""Command-line front end.

One subcommand per library operation, declared once in COMMANDS with its
arguments, library call and result projection.  Results are emitted as
JSON-lines records (default), an aligned table, or CSV; big integers are
decimal strings, exact rationals "p/q" and non-finite floats "inf",
"-inf" or "nan", so records stay diff-able and valid JSON.
With --cache DIR a query is fingerprinted over (op, params, budget, format)
and a hit is replayed byte-identically without running the query.

Exit codes: 0 success, 1 verification failure, 2 usage error (a bad config
file and an unusable cache directory included), 3 budget exceeded (or the
interpreter's stack or memory, on a query no budget foresaw).

A subcommand takes only the flags it reads: every one but verify takes
--format, --cache and --config, the ones whose library call has a budget
take --budget, and sample takes --seed.  A key=value config file
(--config) presets budget, format, seed and cache for the subcommands that
take them, each value parsed and checked by argparse like its flag; flags
always win.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import __version__, bounds, enumeration, partitions, sampling, sumsets, verify
from .bounds import LogValue
from .errors import BudgetError
from .intset import IntSet

SCHEMA_VERSION = 1


def _parse_values(text: str) -> list[int]:
    """Parse "1,2,3" or "5:12" (inclusive range) into a list of integers."""
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",") if t]


def _parse_fraction(text: str) -> Fraction:
    """Parse "1/4" or "0.25"; a malformed value or a zero denominator is a usage error naming the value."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"want a fraction such as 1/4 or 0.25, not {text!r}") from None


def _parse_family(text: str) -> list[list[int]]:
    """Parse "1,3|3,5" into a list of integer lists."""
    return [_parse_values(part) for part in text.split("|")]


def _jsonable(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= 2**53 else obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)  # "inf", "-inf" or "nan", never a non-JSON token
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, LogValue):
        return {"log": _jsonable(obj.log)}
    if isinstance(obj, IntSet):
        return list(obj)
    if is_dataclass(obj):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {_key(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(part) for part in k)
    return str(k)


def _emit(record: dict, fmt: str, out):
    """Write a record as one JSON line, or its result rows as CSV or an aligned table."""
    if fmt == "records":
        out.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
        return
    rows = record["result"]
    if not (isinstance(rows, list) and rows and isinstance(rows[0], dict)):
        rows = [rows if isinstance(rows, dict) else {"result": rows}]
    fields = sorted({k for row in rows for k in row})
    table = [fields] + [[_flat(row.get(k)) for k in fields] for row in rows]
    if fmt == "csv":
        csv.writer(out).writerows(table)
        return
    widths = [max(len(str(r[i])) for r in table) for i in range(len(fields))]
    for r in table:
        out.write("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


def _flat(v):
    return json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v


class Command(NamedTuple):
    """A subcommand; args are (flag, type[, default[, required[, help]]]), type bool a switch, a tuple choices."""

    help: str
    args: tuple
    call: Optional[Callable] = None  # the library call: call(**params), plus the budget keyword when set
    project: Callable = lambda result: result  # library value -> the record's result
    params: Optional[Callable] = None  # rewrites params where the generic rule does not fit
    budget: Optional[str] = None  # the library keyword that --budget sets; without it no --budget


def _pick(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _count(n, m, universe, allow_equal, oracle, **run):
    universe = None if universe is None else _parse_values(universe)
    if oracle:
        return enumeration.count_oracle(n, m, universe, allow_equal)
    return enumeration.count_sum_free(n, m, universe, allow_equal, **run)


def _restricted(ratio_table=False, **q):
    if not ratio_table:
        if q["ell"] is None:
            raise ValueError("restricted needs --ell (or --ratio-table)")
        return {"count": partitions.count_restricted(**q)}
    fields = ("k", "ell", "family", "parameter", "cap", "count")
    return [{**dict(zip(fields, row)), "rhs_log": round(rhs, 6), "log_ratio": None if r is None else round(r, 6)}
            for *row, rhs, r in verify.restricted_ratio_table(**q)]


def _smallsumset(n, m, cap, delta, **budget):
    rhs = bounds.theorem_rhs("conj", N=cap, m=m, delta=delta).log  # first: a bad --delta refuses before counting
    count = partitions.count_small_sumset_sets(n, m, cap, **budget)
    return {"count": count, "rhs_log": rhs, "log_ratio": None if count == 0 else LogValue.of(count).log - rhs}


def _sumset(a, b):
    ss = sumsets.sumset(a, b)
    result = {"sumset": ss, "size": len(ss)}
    if b is None:
        result.update(span=sumsets.span(a), sumset_span=sumsets.span(ss), doubling=sumsets.doubling(a))
    return result


def _freiman(s):
    cover, size = sumsets.freiman_cover(s), len(sumsets.sumset(s))
    if cover is None:
        return {"applicable": False, "sumset_size": size, "threshold": 3 * len(s) - 4}
    return {"applicable": True, "sumset_size": size, **asdict(cover), "length_bound": size - len(s) + 1}


def _bset(s, delta):
    members = sumsets.b_set(s, delta)
    return {"members": members, "size": len(members), "bound": float(len(sumsets.sumset(s)) / (1 - delta))}


def _bounds(name, count=None, **supplied):
    lv = bounds.theorem_rhs(name, **supplied)
    result = {"log": lv.log, "log2": lv.log / math.log(2)}
    if lv.log < 700:
        result["value"] = lv.value()
    if count is not None:
        result.update(count=count, count_leq_rhs=LogValue.of(count).leq(lv))
    return result


def _inequalities(kind, a, b, c=None, d=None):
    if None in (a, b) or (kind == "binom" and c is None):
        raise ValueError("binom needs --a --b --c (and optional --d); gamma needs --a and --gamma-b")
    if kind == "gamma":
        return _pick(bounds.check_gamma_sum(a, b), "tail_sum", "gamma_bound", "constant", "passed")
    checks = bounds.check_binom_inequalities(a, b, c, d)
    return [{"name": x.name, "lhs_log": x.lhs.log, "rhs_log": x.rhs.log, "passed": x.passed} for x in checks]


VALUES = "e.g. 1,2,4 or 3:9"
N, M, K = ("--n", int, None, True), ("--m", int, None, True), ("--k", int, None, True)
S = ("--s", _parse_values, None, True, VALUES)
DISTINCT = ("--distinct-only", bool, False, False, "do not count x + x = z")

FORMAT = ("--format", ("records", "table", "csv"), "records")
CACHE = ("--cache", str, None, False, "cache directory for result replay")
BUDGET, SEED = ("--budget", int), ("--seed", int, 0)
COMMON = (FORMAT, CACHE, ("--config", str, None, False, "key=value config file"))
#: the config file's keys, each parsed like the flag of its name, whose default it sets where a subcommand takes it
CONFIG = {spec[0][2:]: spec[:2] for spec in (BUDGET, FORMAT, SEED, CACHE)}

COMMANDS = {
    "count": Command(
        "count sum-free m-subsets of {1..n}",
        (N, ("--m", int), ("--universe", str, None, False, "restrict to these values, e.g. 5:10"), DISTINCT,
         ("--oracle", bool, False, False, "use the subset oracle")),
        _count, lambda res: _pick(res, "total", "by_size", "method", "nodes"), budget="node_budget"),
    "enumerate": Command(
        "list sum-free sets", (N, ("--m", int), DISTINCT), lambda **q: list(enumeration.enumerate_sum_free(**q)),
        lambda sets: {"count": len(sets), "sets": sets}, budget="stream_budget"),
    "strata": Command(
        "joint (ell, k) distribution of sum-free m-sets", (N, M, DISTINCT), enumeration.stratified_counts,
        lambda t: [{"ell": ell, "k": k, "count": c, "odd_only": t.odd_joint.get((ell, k), 0)}
                   for (ell, k), c in sorted(t.joint.items())], budget="node_budget"),
    "window": Command(
        "sum-free count in the window {ceil(n/2)-a, ..., n}", (N, ("--a", int, None, True), M, DISTINCT),
        enumeration.count_in_window, lambda w: {**asdict(w), "probability_float": float(w.probability)},
        budget="node_budget"),
    "partitions": Command(
        "p(k), or p*(k, ell) when --ell is given", (K, ("--ell", int)),
        lambda **q: {"p_star": partitions.p_star(**q)} if "ell" in q else {"p": partitions.p(**q)},
        budget="budget", params=lambda q: q if q["ell"] is not None else {"k": q["k"]}),
    "restricted": Command(
        "count ell-sets summing to k with a sumset cap",
        (K, ("--ell", int), ("--sumset-cap", int), ("--universe-cap", int),
         ("--ratio-table", bool, False, False, "full cap/bound ratio table")), _restricted, budget="budget",
        params=lambda q: q if not q.pop("ratio_table")
        else dict(kmax=q["k"], ellmax=12 if q["ell"] is None else q["ell"], ratio_table=True)),
    "smallsumset": Command(
        "count m-subsets of {1..n} with |S+S| <= cap, vs 2^(dm) C(cap/2, m)",
        (N, M, ("--cap", int, None, True), ("--delta", float, 1.0)), _smallsumset, budget="budget"),
    "sumset": Command(
        "sumset of two sets (span and doubling when B omitted)",
        (("--a", _parse_values, None, True, VALUES), ("--b", _parse_values)), _sumset),
    "freiman": Command("progression cover in the small-doubling regime", (S,), _freiman),
    "bset": Command(
        "translates y with |(S+y) \\ (S+S)| <= delta |S|",
        (S, ("--delta", _parse_fraction, None, True, "fraction in [0,1), e.g. 1/4")), _bset),
    "janson": Command(
        "first/second moments of a subset family under a uniform draw",
        (("--family", _parse_family, None, True, 'sets separated by "|", e.g. 1,3|3,5'),
         ("--ground", int, None, True), ("--draw", int, None, True)),
        lambda family, ground, draw: bounds.janson_quantities(family, ground, draw),
        lambda j: {"mu": j.mu.value(), "delta": j.delta.value(), "bound_log": j.bound.log, "bound": j.bound.value()}),
    "pairgraph": Command(
        "forbidden-pair graph on the top half", (N, S, ("--excluded", _parse_values, "")),
        lambda n, s, excluded: bounds.build_pair_graph(n, s, excluded),
        lambda g: {**_pick(g, "edge_count", "max_degree", "edges"), "vertex_count": len(g.vertices)}),
    "bounds": Command(
        "evaluate a named closed-form bound in log domain",
        (("--name", tuple(bounds.BOUNDS), None, True), ("--n", int), ("--m", int),
         ("--bigc", float, None, False, "C for CEthm"), ("--k", int), ("--ell", int), ("--c", float),
         ("--delta", float), ("--lam", float), ("--cap", float, None, False, "N for conj"),
         ("--count", int, None, False, "also compare this count to the bound")),
        _bounds, params=lambda q: {{"bigc": "C", "cap": "N"}.get(k, k): v for k, v in q.items() if v is not None}),
    "constant": Command(
        "inverted count constant C*(n, m) from an exact count", (N, M, ("--count", int, None, True)),
        lambda n, m, count: {"c_star": bounds.empirical_constant(n, m, count)}),
    "inequalities": Command(
        "binomial-shift or gamma tail-sum inequality check",
        (("--kind", ("binom", "gamma"), None, True), ("--a", int), ("--b", int), ("--c", int), ("--d", int),
         ("--gamma-b", float)), _inequalities,
        params=lambda q: {"kind": "gamma", "a": q["a"], "b": q["gamma_b"]} if q["kind"] == "gamma"
        else {"kind": "binom", "a": q["a"], "b": q["b"], "c": q["c"], "d": q["d"] or 0}),
    "sample": Command(
        "uniform random sum-free m-sets, exact by unranking on the count memo",
        (N, M, ("--count", int, None, True), DISTINCT, SEED), sampling.sample_uniform,
        project=lambda rep: {"histogram": {f"{ell},{k},{int(odd)}": c for (ell, k, odd), c in rep.histogram.items()},
                             **_pick(rep, "ell_quantiles", "k_quantiles", "acceptance")}, budget="node_budget"),
    "trend": Command(
        "scaled low-part statistics across n",
        (("--n-list", _parse_values, None, True, "e.g. 12,16,20"),
         ("--m-rule", str, "sqrt", False, "sqrt | half | div:K | fixed:M")), sampling.structure_trend,
        project=lambda rows: [{**asdict(r), "ell_scaled": round(r.ell_scaled, 6), "k_scaled": round(r.k_scaled, 6)}
                              for r in rows], budget="node_budget"),
    "verify": Command("run the acceptance checks", (("--suite", ("small", "full"), "full"),)),
}

RENAMES = {"distinct_only": "allow_equal"}


def _add_arguments(parser, specs):
    for spec in specs:
        flag, kind, default, required, help_text = spec + (None, False, None)[len(spec) - 2 :]
        how = {"action": "store_true"} if kind is bool else {"choices" if isinstance(kind, tuple) else "type": kind}
        parser.add_argument(flag, default=default, required=required, help=help_text, **how)


class _Parser(argparse.ArgumentParser):
    """argparse with a one-line usage error, like every other error here (`--help` shows the usage)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser(config: Optional[dict] = None) -> argparse.ArgumentParser:
    """The parser; `config` values become the defaults of the flags they name, so flags win."""
    description = "Exact enumeration and bounds for sum-free integer sets"
    parser = _Parser(prog="sumfree", description=description)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        budget = (BUDGET,) if command.budget else ()
        _add_arguments(subparser, (COMMON if command.call else ()) + command.args + budget)  # verify: --suite only
        subparser.set_defaults(**(config or {}))
    return parser


def _params(command: Command, ns) -> dict:
    """The query's params: every argument by its dest, with RENAMES, then the entry's rewrite."""
    names = [spec[0][2:].replace("-", "_") for spec in command.args]
    params = {RENAMES.get(name, name): getattr(ns, name) for name in names}
    if "allow_equal" in params:
        params["allow_equal"] = not params["allow_equal"]
    return command.params(params) if command.params else params


def _load_config(path):
    """The settings of a key = value config file; argparse checks each value like its flag, a bad one exits 2."""
    argv = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, sep, value = (part.strip() for part in line.partition("="))
                if not sep or key not in CONFIG:
                    raise ValueError(f"bad config line {line!r}: want key = value with a key in {tuple(CONFIG)}")
                argv.append(f"--{key}={value}")
    parser = _Parser(prog="sumfree config file")
    _add_arguments(parser, CONFIG.values())
    return {key: value for key, value in vars(parser.parse_args(argv)).items() if value is not None}


def _cache_path(cache_dir: str, op: str, params: dict, budget: Optional[int], fmt: str) -> str:
    canon = json.dumps({"schema_version": SCHEMA_VERSION, "op": op, "params": params, "budget": budget,
                        "format": fmt}, sort_keys=True)
    return os.path.join(cache_dir, f"{hashlib.sha256(canon.encode()).hexdigest()}.json")


def _cache_write(path: str, payload: str):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        if getattr(ns, "config", None):  # verify takes no --config
            ns = build_parser(_load_config(ns.config)).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (OSError, ValueError) as exc:
        print(f"error: config file: {exc}", file=sys.stderr)
        return 2

    if ns.command == "verify":
        return 0 if all(r.passed for r in verify.run_all(ns.suite)) else 1

    command = COMMANDS[ns.command]
    try:
        params = _params(command, ns)
        record_params = _jsonable(params)
        budget = ns.budget if command.budget else None  # a config file's budget included
        path = ns.cache and _cache_path(ns.cache, ns.command, record_params, budget, ns.format)
        if path:
            os.makedirs(ns.cache, exist_ok=True)  # an unusable directory exits 2 before the query runs
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    sys.stdout.write(fh.read())
                return 0
        t0 = time.perf_counter()
        result = command.project(command.call(**params, **({} if budget is None else {command.budget: budget})))
        elapsed_ms = round((time.perf_counter() - t0) * 1000, 3)
        record = {"schema_version": SCHEMA_VERSION, "op": ns.command, "params": record_params,
                  "result": _jsonable(result), "elapsed_ms": elapsed_ms, "version": __version__,
                  "timestamp": datetime.now(timezone.utc).isoformat()}
        out = io.StringIO() if path else sys.stdout
        _emit(record, ns.format, out)
        if path:
            _cache_write(path, out.getvalue())
            sys.stdout.write(out.getvalue())
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:  # the interpreter's stack or memory ran out where no budget did
        print(f"resource error: {type(exc).__name__}: {exc}".rstrip(": "), file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, OverflowError) as exc:  # OverflowError: a value past the float range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
