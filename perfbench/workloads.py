"""The workloads of the sumfree benchmark, and the CLI session of a traced run.

Each workload is a fixed list of operations (one round) built from the
seed.  The client runs rounds back to back, one operation at a time (a
closed loop with one client), and checks every result against an answer
worked out independently before timing starts.  Why each workload exists
is in README.md next to this file.

Work that sets the cost of a round is fixed; the seed draws the parts
whose cost does not depend on the draw (random sets, sampler seeds, caps,
parameters of equal cost) and the order of the operations.  Runs with
different seeds then measure the same amount of work.  count-profile's
counts are the gate's fixed cells, so there the seed sets mainly the order.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt, lgamma, log
from pathlib import Path
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent

#: by-size counts of sum-free subsets of {1..n}, n <= 34, frozen from the
#: search at the first benchmarked commit; the subset oracle agreed for n <= 20
FROZEN = {
    int(n): {int(m): c for m, c in prof.items()}
    for n, prof in json.loads((HERE / "frozen_profiles.json").read_text()).items()
}

NAMES = ("count-profile", "sets-and-sums")


@dataclass
class Op:
    """One timed call.  `check` returns None or what was wrong."""

    kind: str
    layer: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    #: exact work counts read from a checked result
    work: Optional[Callable[[Any], dict]] = None
    #: the benchmark opens a span for calls the tracer's wrappers do not
    #: see (generators consumed here, CLI processes)
    span: bool = False


@dataclass
class Probe:
    """An untimed call that shows a defect known at the first benchmarked
    commit.  `run` returns None when the behaviour is right, else the defect."""

    name: str
    run: Callable[[], Optional[str]]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    probes: list[Probe]
    #: untimed, before timing: work out the expected answers
    prepare: Callable[[], None] = lambda: None
    #: untimed, before each round
    reset: Callable[[], None] = lambda: None


@dataclass
class Context:
    root: Path  # checkout root, holds src/
    scratch: Path  # writable directory inside the checkout
    smoke: bool


def make(name: str, seed: int, ctx: Context) -> Workload:
    import sumfree.cli  # noqa: F401  -- set-up covers the CLI's import graph

    rng = random.Random(f"{name}:{seed}")
    builders = {"count-profile": _count_profile, "sets-and-sums": _sets_and_sums}
    return builders[name](rng, ctx)


def cli_session(seed: int, ctx: Context) -> Workload:
    """CLI queries run once in a traced run, for the cli layer's metrics."""
    return _cli_queries(random.Random(f"cli:{seed}"), ctx)


# ----------------------------------------------------------------------
# independent answers


def naive_sum_free(values, allow_equal: bool = True) -> bool:
    s = set(values)
    return not any(a + b in s for a in s for b in s if allow_equal or a != b)


def naive_sumset(values) -> set:
    return {a + b for a in values for b in values}


def _search_work(res) -> dict:
    return {"nodes": res.nodes, "sets": res.total}


def _profile_check(res, n: int, expected: dict[int, int]) -> Optional[str]:
    if res.by_size != expected:
        return f"by-size profile of n={n} differs from the independent answer"
    if res.total != sum(expected.values()):
        return f"total of n={n} is {res.total}"
    return None


# ----------------------------------------------------------------------
# count-profile


def _count_profile(rng: random.Random, ctx: Context) -> Workload:
    from sumfree import enumeration
    from sumfree.errors import BudgetError

    # Rounds stay near three seconds, so a 50 s run repeats each call about
    # fifteen times and the fastest repeat is steady on a shared machine;
    # n = 34 alone would take most of a round.
    top = 16 if ctx.smoke else 32
    ladder = range(10 if ctx.smoke else 20, top + 1, 2)
    strata_ns = (12, 14) if ctx.smoke else (20, 22, 24, 26)
    window_ns = (16, 18) if ctx.smoke else range(16, 29, 2)
    listing_n = 12 if ctx.smoke else 20
    oracle_n = 12 if ctx.smoke else 20
    exp: dict = {}
    ops: list[Op] = []

    def profile(n):
        # n <= 20: the subset oracle, an independent route; above: frozen
        return exp[("oracle", n)] if n <= 20 else FROZEN[n]

    for n in ladder:
        ops.append(
            Op(
                "count_sum_free_top" if n == top else "count_sum_free",
                "enumeration",
                lambda n=n: enumeration.count_sum_free(n),
                lambda r, n=n: _profile_check(r, n, profile(n)),
                _search_work,
            )
        )
    ops.append(
        Op(
            "count_sum_free_top_threads2",
            "enumeration",
            lambda: enumeration.count_sum_free(top, threads=2),
            lambda r: _profile_check(r, top, profile(top)),
            _search_work,
        )
    )

    def mlo(n):
        return isqrt(n) if isqrt(n) ** 2 == n else isqrt(n) + 1

    for n in strata_ns:
        m = mlo(n) + 1

        def check_strata(t, n=n, m=m):
            want = profile(n).get(m, 0)
            if t.total != want or sum(t.joint.values()) != want:
                return f"strata({n},{m}) total {t.total}, joint sum {sum(t.joint.values())}, want {want}"
            # every set of odd numbers is sum-free, so the odd-only stratum is a binomial
            if sum(t.odd_joint.values()) != comb((n + 1) // 2, m):
                return f"strata({n},{m}) odd-only count differs from C({(n + 1) // 2},{m})"
            return None

        ops.append(
            Op("stratified_counts", "enumeration", lambda n=n, m=m: enumeration.stratified_counts(n, m), check_strata)
        )

    # the lower-bound criterion's (n, m) cells, distinct summands
    windows = []
    for n in window_ns:
        for m in range(mlo(n), n // 2 + 1):
            windows.append((n, int(0.05 * n * n / (m * m)), m))
    for n, a, m in windows:

        def check_window(w, n=n, a=a, m=m):
            want = exp[("window", n, a)].get(m, 0)
            if w.count != want:
                return f"window({n},{a},{m}) count {w.count}, oracle {want}"
            if w.probability != Fraction(want, comb(w.window_size, m)):
                return f"window({n},{a},{m}) probability {w.probability}"
            return None

        ops.append(
            Op(
                "count_in_window",
                "enumeration",
                lambda n=n, a=a, m=m: enumeration.count_in_window(n, a, m, allow_equal=False),
                check_window,
            )
        )

    listing_m = 4 if ctx.smoke else 5

    def check_listing(sets):
        tuples = [tuple(s) for s in sets]
        want = profile(listing_n).get(listing_m, 0)
        if len(tuples) != want:
            return f"listing({listing_n},{listing_m}) gave {len(tuples)} sets, want {want}"
        if tuples != sorted(set(tuples)):
            return "listing not strictly ascending"
        if any(len(t) != listing_m or not naive_sum_free(t) for t in tuples):
            return "listing holds a set of the wrong size or not sum-free"
        return None

    ops.append(
        Op(
            "enumerate_sum_free",
            "enumeration",
            lambda: list(enumeration.enumerate_sum_free(listing_n, listing_m)),
            check_listing,
            lambda sets: {"streamed": len(sets)},
            span=True,
        )
    )
    ops.append(
        Op(
            "count_oracle",
            "enumeration",
            lambda: enumeration.count_oracle(oracle_n),
            lambda r: None if r.by_size == FROZEN[oracle_n] else f"oracle({oracle_n}) differs from frozen profile",
            lambda r: {"subsets": r.nodes},
        )
    )

    def prepare():
        for n in {*ladder, *strata_ns, listing_n}:
            if n <= 20:
                exp[("oracle", n)] = enumeration.count_oracle(n).by_size
        for n, a, m in windows:
            if ("window", n, a) not in exp:
                lo = (n + 1) // 2 - a
                universe = range(lo, n + 1)
                exp[("window", n, a)] = enumeration.count_oracle(n, universe=universe, allow_equal=False).by_size

    def budget_probe():
        # threads=1 refuses this count; the result must not depend on threads
        try:
            res = enumeration.count_sum_free(28, node_budget=100_000, threads=2)
        except BudgetError:
            return None
        return f"count_sum_free(28, node_budget=100000, threads=2) returned {res.total}; threads=1 refuses"

    rng.shuffle(ops)
    return Workload("count-profile", ops, [Probe("budget_depends_on_threads", budget_probe)], prepare)


# ----------------------------------------------------------------------
# restricted-sums


def _restricted_sums(rng: random.Random, ctx: Context) -> Workload:
    from sumfree import partitions

    ks = (12, 16, 20) if ctx.smoke else range(30, 91, 10)
    ells = range(1, 5) if ctx.smoke else range(1, 13)
    # ell distinct positive parts sum to at least ell(ell+1)/2
    cells = [(k, ell) for k in ks for ell in ells if k >= ell * (ell + 1) // 2]
    exp: dict = {}
    ops: list[Op] = []

    for k, ell in cells:

        def check_profile(prof, k=k, ell=ell):
            if sum(prof.values()) != exp[("p_star", k, ell)]:
                return f"profile({k},{ell}) holds {sum(prof.values())} sets, p*={exp[('p_star', k, ell)]}"
            # an integer set has |S+S| >= 2|S| - 1, and at most ell(ell+1)/2 distinct sums
            if prof and not (2 * ell - 1 <= min(prof) and max(prof) <= ell * (ell + 1) // 2):
                return f"profile({k},{ell}) has impossible sumset sizes"
            return None

        ops.append(
            Op(
                "sumset_size_profile",
                "partitions",
                lambda k=k, ell=ell: partitions.sumset_size_profile(k, ell),
                check_profile,
                lambda prof: {"candidates": sum(prof.values())},
            )
        )

    # sumset caps: the cost does not depend on the cap, so the seed draws it
    spot_cells = ((16, 3), (20, 4)) if ctx.smoke else ((50, 6), (60, 5), (70, 4), (80, 7))
    for k, ell in spot_cells:
        cap = rng.randint(2 * ell - 1, ell * (ell + 1) // 2)

        def check_spot(count, k=k, ell=ell, cap=cap):
            prof = exp[("profile", k, ell)]
            want = sum(c for size, c in prof.items() if size <= cap)
            return None if count == want else f"restricted({k},{ell},cap={cap}) = {count}, profile says {want}"

        ops.append(
            Op(
                "count_restricted",
                "partitions",
                lambda k=k, ell=ell, cap=cap: partitions.count_restricted(k, ell, sumset_cap=cap),
                check_spot,
            )
        )
    # part caps: checked by brute force over all ell-subsets below the cap
    part_cells = ((14, 3),) if ctx.smoke else ((40, 4), (45, 5))
    part_caps = []
    for k, ell in part_cells:
        ucap = k // ell + ell + rng.randrange(2)
        cap = rng.randint(2 * ell, ell * (ell + 1) // 2)
        part_caps.append((k, ell, cap, ucap))

        def check_parts(count, key=(k, ell, cap, ucap)):
            want = exp[("parts",) + key]
            return None if count == want else f"restricted{key} = {count}, brute force {want}"

        ops.append(
            Op(
                "count_restricted",
                "partitions",
                lambda k=k, ell=ell, cap=cap, ucap=ucap: partitions.count_restricted(
                    k, ell, sumset_cap=cap, universe_cap=ucap
                ),
                check_parts,
            )
        )

    small = ((10, 4),) if ctx.smoke else ((16, 5), (24, 5), (30, 5))
    small_cases = []
    for n, m in small:
        cap = rng.randint(2 * m + 2, 2 * m + 4)
        small_cases.append((n, m, cap))

        def check_small(count, key=(n, m, cap)):
            want = exp[("small",) + key]
            return None if count == want else f"count_small_sumset_sets{key} = {count}, brute force {want}"

        ops.append(
            Op(
                "count_small_sumset_sets",
                "partitions",
                lambda n=n, m=m, cap=cap: partitions.count_small_sumset_sets(n, m, cap),
                check_small,
            )
        )

    def prepare():
        for k, ell in cells:
            exp[("p_star", k, ell)] = partitions.p_star(k, ell)
        for k, ell in spot_cells:
            exp[("profile", k, ell)] = partitions.sumset_size_profile(k, ell)
        for k, ell, cap, ucap in part_caps:
            exp[("parts", k, ell, cap, ucap)] = sum(
                1
                for s in combinations(range(1, ucap + 1), ell)
                if sum(s) == k and len(naive_sumset(s)) <= cap
            )
        for n, m, cap in small_cases:
            exp[("small", n, m, cap)] = sum(
                1 for s in combinations(range(1, n + 1), m) if len(naive_sumset(s)) <= cap
            )

    return Workload("restricted-sums", ops, [], prepare)


# ----------------------------------------------------------------------
# random-sets


def _random_sets(rng: random.Random, ctx: Context) -> Workload:
    from sumfree import bounds, core, sampling, sumsets

    n = 60
    pool = []
    for i in range(20 if ctx.smoke else 300):
        size = rng.randint(3, 12)
        if i % 3 == 2:
            # a progression with a few terms missing: small doubling, so
            # freiman_cover has a cover to find
            d = rng.randint(1, 4)
            first = rng.randint(1, n - d * (size + 2))
            terms = [first + d * j for j in range(size + 2)]
            s = sorted(rng.sample(terms, size))
        else:
            s = sorted(rng.sample(range(1, n + 1), size))
        pool.append(s)

    ops: list[Op] = []
    #: per set: the seed's draws for its calls, and the expected answers
    inputs: list[dict] = []
    want: list[dict] = []

    def eq(kind, i, key):
        return lambda got: None if got == want[i][key] else f"{kind} gave {got!r}, want {want[i][key]!r}"

    for i, s in enumerate(pool):
        which = rng.choice(("CEthm", "parts", "S+S"))
        if which == "CEthm":
            params = {"n": n, "m": len(s), "C": 1}
        elif which == "parts":
            params = {"k": sum(s), "ell": len(s)}
        else:
            params = {"k": sum(s), "ell": len(s), "c": 2.5, "delta": 1}
        a = rng.randint(3, 1000)
        b = rng.randint(2, a - 1)
        inputs.append(
            {
                "delta": rng.choice((Fraction(0), Fraction(1, 4), Fraction(1, 2))),
                "which": which,
                "params": params,
                "family": [s[j : j + 2] for j in range(0, len(s) - 1)],
                "draw": rng.randint(1, n),
                "binom": (a, b, rng.randint(1, b - 1), rng.randint(0, b)),
            }
        )
        inp = inputs[i]

        def check_stats(st, i=i):
            got = (st.m, st.ell, st.k, st.odd_flag)
            return None if got == want[i]["stats"] else f"statistics_of gave {st}"

        def check_stability(sp, i=i, size=len(s)):
            if sp.schur_triples == want[i]["triples"] and 0 <= sp.min_escape <= size:
                return None
            return f"stability_profile gave {sp}, want {want[i]['triples']} triples"

        def check_sumset(got, i=i, s=s):
            if set(got) != want[i]["sumset"]:
                return "sumset differs from the naive sumset"
            if max(got) - min(got) != 2 * (max(s) - min(s)):
                return "span(S+S) != 2 span(S)"
            return None

        def check_b_set(got, i=i, delta=inp["delta"]):
            if len(got) * (1 - delta) > len(want[i]["sumset"]):
                return f"|b_set| = {len(got)} breaks the |S+S|/(1-delta) bound"
            return None if got == want[i]["b_set"] else "b_set differs from the naive translate set"

        def check_cover(cover, i=i, s=s):
            ss = want[i]["sumset"]
            small_doubling = len(ss) <= 3 * len(s) - 4
            if cover is None:
                return "no cover in the small-doubling regime" if small_doubling else None
            if not small_doubling:
                return "cover returned outside the small-doubling regime"
            members = set(cover.members())
            if not set(s) <= members:
                return "cover does not contain its set"
            return None if cover.length <= len(ss) - len(s) + 1 else "cover longer than |S+S|-|S|+1"

        def check_rhs(lv, i=i):
            if math.isclose(lv.log, want[i]["rhs"], rel_tol=1e-9, abs_tol=1e-9):
                return None
            return f"theorem_rhs log {lv.log}, want {want[i]['rhs']}"

        def check_janson(jq, i=i):
            mu, dlt = want[i]["mu"], want[i]["delta"]
            if not math.isclose(jq.mu.value(), float(mu), rel_tol=1e-9):
                return f"janson mu {jq.mu.value()}, exact {float(mu)}"
            if dlt and not math.isclose(jq.delta.value(), float(dlt), rel_tol=1e-9):
                return f"janson Delta {jq.delta.value()}, exact {float(dlt)}"
            return None

        ops += [
            Op("is_sum_free", "core", lambda s=s: core.is_sum_free(s), eq("is_sum_free", i, "sum_free")),
            Op("statistics_of", "core", lambda s=s: core.statistics_of(s, n), check_stats),
            Op("stability_profile", "core", lambda s=s: core.stability_profile(s, n), check_stability),
            Op("sumset", "sumsets", lambda s=s: sumsets.sumset(s), check_sumset),
            Op("span", "sumsets", lambda s=s: sumsets.span(s), eq("span", i, "span")),
            Op("b_set", "sumsets", lambda s=s, d=inp["delta"]: sumsets.b_set(s, d), check_b_set),
            Op("freiman_cover", "sumsets", lambda s=s: sumsets.freiman_cover(s), check_cover),
            Op("theorem_rhs", "bounds", lambda w=which, p=params: bounds.theorem_rhs(w, **p), check_rhs),
            Op(
                "janson_quantities",
                "bounds",
                lambda f=inp["family"], d=inp["draw"]: bounds.janson_quantities(f, n, d),
                check_janson,
            ),
            Op(
                "check_binom_inequalities",
                "bounds",
                lambda abcd=inp["binom"]: bounds.check_binom_inequalities(*abcd),
                lambda checks: None if len(checks) == 3 and all(ch.passed for ch in checks) else "a binomial inequality failed",
            ),
        ]

    # the sampler at n <= 32, where its acceptance estimate is an exact count
    uniform_nm = ((12, 3),) if ctx.smoke else ((24, 5), (28, 6), (30, 6))
    draw_nm = ((12, 3),) if ctx.smoke else ((20, 4), (26, 5), (30, 6), (32, 7))
    draws = 20 if ctx.smoke else 100
    for sn, sm in uniform_nm:
        sseed = rng.getrandbits(32)

        def check_report(rep, sn=sn, sm=sm):
            if rep.sample_count != draws or sum(rep.histogram.values()) != draws:
                return f"sample_uniform({sn},{sm}) reported {sum(rep.histogram.values())} samples"
            want = FROZEN[sn].get(sm, 0) / comb(sn, sm)
            return None if math.isclose(rep.acceptance, want, rel_tol=1e-12) else f"acceptance {rep.acceptance}, want {want}"

        ops.append(
            Op(
                "sample_uniform",
                "sampling",
                lambda sn=sn, sm=sm, sseed=sseed: sampling.sample_uniform(sn, sm, draws, seed=sseed),
                check_report,
                lambda rep: {"draws": rep.sample_count, "acceptance": rep.acceptance},
            )
        )
    for sn, sm in draw_nm:
        sseed = rng.getrandbits(32)

        def check_draws(got, sn=sn, sm=sm):
            if len(got) != draws:
                return f"draw_sum_free({sn},{sm}) gave {len(got)} sets"
            for s in got:
                if len(s) != sm or not naive_sum_free(s) or not all(1 <= v <= sn for v in s):
                    return f"draw_sum_free({sn},{sm}) gave {sorted(s)}"
            return None

        ops.append(
            Op(
                "draw_sum_free",
                "sampling",
                lambda sn=sn, sm=sm, sseed=sseed: list(sampling.draw_sum_free(sn, sm, draws, sseed)),
                check_draws,
                lambda got: {"draws": len(got)},
                span=True,
            )
        )

    def expect(s, inp) -> dict:
        low = [a for a in s if 2 * a <= n]
        m, half = len(s), (n + 1) // 2
        if inp["which"] == "CEthm":
            rhs = n / m * log(2) + lgamma(half + 1) - lgamma(m + 1) - lgamma(half - m + 1)
        elif inp["which"] == "parts":
            rhs = m * (2 + log(sum(s)) - 2 * log(m))
        else:
            rhs = m * log(2) + m * (log(2 * 2.5 * sum(s) / 3) + 1 - 2 * log(m))
        q = Fraction(inp["draw"], n)
        fam = [frozenset(u) for u in inp["family"]]
        return {
            "sum_free": naive_sum_free(s),
            "stats": (m, len(low), Fraction(sum(n - 2 * a for a in low), 2), all(a % 2 for a in s)),
            "triples": sum(1 for x in s for y in s if x < y and x + y in set(s)),
            "sumset": naive_sumset(s),
            "span": max(s) - min(s),
            "b_set": _naive_b_set(s, inp["delta"]),
            "rhs": rhs,
            "mu": sum(q ** len(u) for u in fam),
            "delta": sum(q ** len(u | w) for a, u in enumerate(fam) for b, w in enumerate(fam) if a != b and u & w),
        }

    def prepare():
        want[:] = [expect(s, inp) for s, inp in zip(pool, inputs)]

    probe_seed = rng.getrandbits(16)

    def sampler_probe():
        # n > 32 takes the pilot-stream path of the acceptance estimate
        try:
            rep = sampling.sample_uniform(40, 5, 10, seed=probe_seed)
        except Exception as exc:  # the defect is an unexpected exception
            return f"sample_uniform(40, 5, 10) raised {type(exc).__name__}: {exc}"
        return None if rep.sample_count == 10 else "sample_uniform(40, 5, 10) gave the wrong sample count"

    return Workload("random-sets", ops, [Probe("sampler_above_32", sampler_probe)], prepare)


def _sets_and_sums(rng: random.Random, ctx: Context) -> Workload:
    sets, sums = _random_sets(rng, ctx), _restricted_sums(rng, ctx)
    ops = sets.ops + sums.ops
    rng.shuffle(ops)

    def prepare():
        sets.prepare()
        sums.prepare()

    return Workload("sets-and-sums", ops, sets.probes + _cli_probes(ctx), prepare)


def _naive_b_set(values, delta) -> tuple:
    s = set(values)
    ss = naive_sumset(values)
    lo = min(ss) - max(s)
    hi = max(ss) - min(s)
    return tuple(y for y in range(lo, hi + 1) if sum(1 for a in s if a + y not in ss) <= delta * len(s))


# ----------------------------------------------------------------------
# cli-cache


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: Path, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "sumfree.cli", *argv],
        cwd=root,
        env=cli_env(root),
        capture_output=True,
        text=True,
        timeout=120,
    )


def _record(proc: subprocess.CompletedProcess):
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        return json.loads(proc.stdout), None
    except json.JSONDecodeError:
        return None, f"not a JSON record: {proc.stdout[:80]!r}"


def _cli_queries(rng: random.Random, ctx: Context) -> Workload:
    from sumfree import bounds, enumeration, partitions, sumsets

    cache_root = ctx.scratch / f"cli-cache-{os.getpid()}"
    # (argv, library call giving the fields the record's result must hold)
    queries: list[tuple[list[str], Callable[[], dict]]] = []

    def partitions_query():
        k, ell = rng.randint(20, 60), rng.randint(2, 6)
        return ["partitions", "--k", str(k), "--ell", str(ell)], lambda: {"p_star": partitions.p_star(k, ell)}

    def sumset_query():
        a = sorted(rng.sample(range(1, 40), rng.randint(4, 10)))

        def fields():
            ss = sumsets.sumset(a)
            return {"sumset": list(ss), "size": len(ss)}

        return ["sumset", "--a", ",".join(map(str, a))], fields

    def count_query():
        n, m = (14, rng.randint(3, 5)) if ctx.smoke else (24, rng.randint(4, 8))

        def fields():
            res = enumeration.count_sum_free(n, m)
            return {"total": res.total, "by_size": {str(m): c for m, c in res.by_size.items()}, "nodes": res.nodes}

        return ["count", "--n", str(n), "--m", str(m)], fields

    def restricted_query():
        k, cap = rng.randint(30, 50), rng.randint(8, 12)
        argv = ["restricted", "--k", str(k), "--ell", "4", "--sumset-cap", str(cap)]
        return argv, lambda: {"count": partitions.count_restricted(k, 4, sumset_cap=cap)}

    def bounds_query():
        n, m = rng.randint(30, 80), rng.randint(4, 10)
        argv = ["bounds", "--name", "CEthm", "--n", str(n), "--m", str(m), "--bigc", "1"]
        return argv, lambda: {"log": bounds.theorem_rhs("CEthm", n=n, m=m, C=1).log}

    def freiman_query():
        d, first, size = rng.randint(1, 3), rng.randint(1, 20), rng.randint(4, 8)
        s = sorted(rng.sample([first + d * j for j in range(size + 1)], size))

        def fields():
            cover = sumsets.freiman_cover(s)
            if cover is None:
                return {"applicable": False}
            return {"applicable": True, "first": cover.first, "difference": cover.difference, "length": cover.length}

        return ["freiman", "--s", ",".join(map(str, s))], fields

    def constant_query():
        n = rng.randint(20, 34)
        m = rng.randint(3, n // 3)
        count = FROZEN[n][m]
        argv = ["constant", "--n", str(n), "--m", str(m), "--count", str(count)]
        return argv, lambda: {"c_star": bounds.empirical_constant(n, m, count)}

    mix = (
        (partitions_query, sumset_query, count_query)
        if ctx.smoke
        else (partitions_query, sumset_query, count_query, restricted_query, bounds_query, freiman_query, constant_query)
    )
    queries.extend(make_query() for make_query in mix)

    # a query's three runs stay in order: no cache, cold cache, warm cache
    rng.shuffle(queries)
    expected: list[dict] = []
    payloads: dict = {}
    ops: list[Op] = []
    for qi, (argv, _) in enumerate(queries):
        cache = str(cache_root / f"q{qi}")

        def check_fresh(proc, qi=qi, keep=False):
            rec, err = _record(proc)
            if err:
                return err
            if keep:
                payloads[qi] = proc.stdout
            wrong = [key for key, want in expected[qi].items() if rec["result"].get(key) != want]
            return f"{rec['op']} record differs from the library in {wrong}" if wrong else None

        def check_hit(proc, qi=qi):
            if proc.returncode != 0:
                return f"exit {proc.returncode}"
            return None if proc.stdout == payloads.get(qi) else "cache hit payload differs from the miss payload"

        ops.append(
            Op(
                "cli.nocache",
                "cli",
                lambda argv=argv: run_cli(ctx.root, argv),
                check_fresh,
                lambda proc: {"record_elapsed_s": json.loads(proc.stdout)["elapsed_ms"] / 1e3},
                span=True,
            )
        )
        ops.append(
            Op(
                "cli.miss",
                "cli",
                lambda argv=argv, cache=cache: run_cli(ctx.root, argv + ["--cache", cache]),
                lambda p, f=check_fresh: f(p, keep=True),
                span=True,
            )
        )
        ops.append(
            Op(
                "cli.hit",
                "cli",
                lambda argv=argv, cache=cache: run_cli(ctx.root, argv + ["--cache", cache]),
                check_hit,
                span=True,
            )
        )

    def prepare():
        expected[:] = [fields() for _, fields in queries]

    def reset():
        shutil.rmtree(cache_root, ignore_errors=True)

    return Workload("cli", ops, [], prepare, reset)


def _cli_probes(ctx: Context) -> list[Probe]:
    def sample_probe():
        proc = run_cli(ctx.root, ["sample", "--n", "40", "--m", "7", "--count", "10"])
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            return f"sumfree sample --n 40 exits {proc.returncode} with a traceback"
        return None

    def format_probe():
        cache = ctx.scratch / f"format-probe-{os.getpid()}"
        shutil.rmtree(cache, ignore_errors=True)
        try:
            run_cli(ctx.root, ["partitions", "--k", "10", "--format", "csv", "--cache", str(cache)])
            proc = run_cli(ctx.root, ["partitions", "--k", "10", "--format", "records", "--cache", str(cache)])
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        _, err = _record(proc)
        if err:
            return f"--format records after a csv query on the same cache: {err}"
        return None

    return [Probe("cli_sample_above_32", sample_probe), Probe("cache_key_ignores_format", format_probe)]
