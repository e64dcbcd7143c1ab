"""Log-domain evaluation of closed-form bounds and moment quantities.

Quantities like 2^(Cn/m) * C(ceil(n/2), m) or (e^2 k / l^2)^l overflow any
fixed-width float long before the interesting parameter range, so every
bound here lives in the natural-log domain (LogValue).  Comparisons use a
relative tolerance of REL_TOL = 1e-9 on the logs.  The five named bounds
that theorem_rhs evaluates are declared once each, in BOUNDS.

Also here: the standard binomial-coefficient inequalities

    C(a, b-c)    <= (b/(a-b))^c * C(a, b)
    C(a-c, b)    <= ((a-c)/a)^b * C(a, b)
    C(a-c, b-d)  <= ((a-c)/a)^(b-d) * (b/(a-b))^d * C(a, b)

for a > b > c >= 0, d <= b; the tail-sum bound
sum_{j>=1} j^a e^(-bj) <= GAMMA_CAP Gamma(a+1) / b^(a+1) with GAMMA_CAP = 2;
the first and second moments mu, Delta of the hypergeometric
dependency-graph inequality for a family of subsets; and the
forbidden-pair graph on the top half of {1, ..., n} whose edges are
{x, x+s} for s in a fixed low set S, with k edges and maximum degree at
most 2|S|.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import exp, inf, lgamma, log
from typing import Optional, Sequence

from .intset import IntSet, coerce_bits, iter_bits

REL_TOL = 1e-9
GAMMA_CAP = 2.0  # check_gamma_sum passes a tail sum up to this multiple of Gamma(a+1) / b^(a+1)
GAMMA_MAX_TERMS = 10**5  # check_gamma_sum adds more than a / b terms, and refuses more than this
LOG_FLOAT_MAX = log(sys.float_info.max)


@dataclass(frozen=True)
class LogValue:
    """A nonnegative real stored as its natural log (-inf encodes exact 0)."""

    log: float

    @classmethod
    def of(cls, value) -> "LogValue":
        if value < 0:
            raise ValueError("LogValue holds nonnegative reals")
        if value == 0:
            return cls(-inf)
        return cls(log(value))

    @property
    def is_zero(self) -> bool:
        return self.log == -inf

    def value(self) -> float:
        return exp(self.log)

    def __mul__(self, other: "LogValue") -> "LogValue":
        return LogValue(self.log + other.log)

    def leq(self, other: "LogValue") -> bool:
        """self <= other up to relative tolerance REL_TOL on the logs."""
        if self.is_zero:
            return True
        if other.is_zero:
            return False
        return self.log <= other.log + REL_TOL * max(1.0, abs(self.log), abs(other.log))

    def close(self, other: "LogValue") -> bool:
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return abs(self.log - other.log) <= REL_TOL * max(1.0, abs(self.log), abs(other.log))


def log_binom(a: int, b: int) -> LogValue:
    """ln C(a, b) via log-gamma; zero for b outside [0, a]."""
    if a < 0:
        raise ValueError("a must be >= 0")
    if b < 0 or b > a:
        return LogValue(-inf)
    return LogValue(lgamma(a + 1) - lgamma(b + 1) - lgamma(a - b + 1))


def log_binom_real(a: float, b: int) -> LogValue:
    """ln C(a, b) for real a >= b (generalized binomial via log-gamma)."""
    if b < 0 or a < b:
        return LogValue(-inf)
    return LogValue(lgamma(a + 1) - lgamma(b + 1) - lgamma(a - b + 1))


# ----------------------------------------------------------------------
# Inequality checkers


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: LogValue
    rhs: LogValue

    @property
    def passed(self) -> bool:
        return self.lhs.leq(self.rhs)


def check_binom_inequalities(a: int, b: int, c: int, d: int = 0) -> list[InequalityCheck]:
    """Evaluate the three binomial-shift inequalities at (a, b, c, d)."""
    if not (a > b > c >= 0):
        raise ValueError("need a > b > c >= 0")
    if not (0 <= d <= b):
        raise ValueError("need 0 <= d <= b")
    ratio_down = LogValue(c * (log(b) - log(a - b)))
    ratio_shrink = LogValue(b * (log(a - c) - log(a)))
    checks = [
        InequalityCheck("shift-second-index", log_binom(a, b - c), ratio_down * log_binom(a, b)),
        InequalityCheck("shift-first-index", log_binom(a - c, b), ratio_shrink * log_binom(a, b)),
    ]
    both = LogValue((b - d) * (log(a - c) - log(a)) + d * (log(b) - log(a - b)))
    checks.append(
        InequalityCheck("shift-both-indices", log_binom(a - c, b - d), both * log_binom(a, b))
    )
    return checks


@dataclass(frozen=True)
class GammaSumCheck:
    a: int
    b: float
    tail_sum: float
    gamma_bound: float  # Gamma(a+1) / b^(a+1)
    constant: float  # tail_sum / gamma_bound
    passed: bool  # tail_sum <= GAMMA_CAP * gamma_bound


def check_gamma_sum(a: int, b: float) -> GammaSumCheck:
    """Sum j^a e^(-bj) to convergence and compare with GAMMA_CAP * Gamma(a+1)/b^(a+1).

    Terms are added until they drop below 1e-15 of the partial sum (and the
    summand is already decreasing, past j = a/b), so a b below
    a / GAMMA_MAX_TERMS is refused before summing.  The terms are summed in
    log space, relative to the largest, so none overflows or underflows to
    zero; a sum or bound past the float range is refused.
    """
    if a < 1 or not 0 < b < inf:
        raise ValueError(f"need a >= 1 and a finite b > 0, not a = {a}, b = {b}")
    if a / b > GAMMA_MAX_TERMS:
        raise ValueError(f"b = {b} too small: the sum needs over a / b = {a / b:.3g} terms (at most {GAMMA_MAX_TERMS})")
    peak = max(a * log(j) - b * j for j in (max(1, math.floor(a / b)), math.floor(a / b) + 1))  # the largest log term
    total = 0.0  # the sum over e^peak
    j = 1
    while True:
        term = exp(a * log(j) - b * j - peak)
        total += term
        if j > a / b and term < 1e-15 * total:
            break
        j += 1
    log_total, log_bound = peak + log(total), lgamma(a + 1) - (a + 1) * log(b)
    if max(log_total, log_bound) > LOG_FLOAT_MAX:
        raise ValueError(f"a = {a}, b = {b}: the sum is about e^{log_total:.6g}, past the float range")
    return GammaSumCheck(
        a=a,
        b=b,
        tail_sum=exp(log_total),
        gamma_bound=exp(log_bound),
        constant=exp(log_total - log_bound),
        passed=log_total <= log(GAMMA_CAP) + log_bound,
    )


# ----------------------------------------------------------------------
# First/second moments of the dependency family


@dataclass(frozen=True)
class JansonQuantities:
    mu: LogValue
    delta: LogValue
    bound: LogValue  # max(e^(-mu/2), e^(-mu^2 / (2*Delta)))


def janson_quantities(family: Sequence, ground_size: int, draw_size: int) -> JansonQuantities:
    """Moments of the family {U_i} under a uniform draw of draw_size elements.

    mu    = sum_i (m/n)^|U_i|
    Delta = sum over ordered pairs i != j with U_i and U_j intersecting of
            (m/n)^|U_i union U_j|
    bound = max(e^(-mu/2), e^(-mu^2/(2 Delta))), second term dropped when
            Delta = 0.

    Members are labels of ground elements, not necessarily 1..ground_size,
    but the family as a whole must fit in the ground set.
    """
    sets = [frozenset(u) for u in family]
    if any(not u for u in sets):
        raise ValueError("family members must be nonempty")
    n, m = ground_size, draw_size
    if not (0 <= m <= n) or n < 1:
        raise ValueError("need 0 <= draw_size <= ground_size and ground_size >= 1")
    if len(frozenset().union(*sets)) > n:
        raise ValueError(f"the family spans more than ground_size = {n} elements")
    q = m / n
    mu = 0.0
    for u in sets:
        mu += q ** len(u)
    delta = 0.0
    for i, u in enumerate(sets):
        for j, w in enumerate(sets):
            if i != j and u & w:
                delta += q ** len(u | w)
    terms = [-mu / 2.0]
    if delta > 0:
        terms.append(-(mu * mu) / (2.0 * delta))
    return JansonQuantities(
        mu=LogValue.of(mu),
        delta=LogValue.of(delta),
        bound=LogValue(max(terms)),
    )


# ----------------------------------------------------------------------
# Forbidden-pair graph on the top half


@dataclass(frozen=True)
class PairGraph:
    """Graph on {ceil(n/2)+1, ..., n} minus `excluded`, edges {x, x+s}, s in S."""

    n: int
    vertices: IntSet
    edges: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        deg: dict[int, int] = {}
        for x, y in self.edges:
            deg[x] = deg.get(x, 0) + 1
            deg[y] = deg.get(y, 0) + 1
        return max(deg.values(), default=0)


def build_pair_graph(n: int, s_values, excluded=()) -> PairGraph:
    """Build the forbidden-pair graph for a low set S.

    With nothing excluded and n even, the edge count equals
    sum over s in S of (n/2 - s), the total low-part deficiency, and the
    maximum degree is at most 2|S|.  Excluded values must lie in
    {1, ..., n}.
    """
    s_bits = coerce_bits(s_values)
    half = (n + 1) // 2
    if s_bits.bit_length() - 1 > half:
        raise ValueError("S must lie in {1, ..., ceil(n/2)}")
    ex_bits = coerce_bits(excluded)
    if ex_bits.bit_length() - 1 > n:
        raise ValueError(f"excluded values must lie in {{1, ..., {n}}}")
    vbits = (((1 << (n + 1)) - 1) ^ ((1 << (half + 1)) - 1)) & ~ex_bits
    edges = []
    for s in iter_bits(s_bits):
        for x in iter_bits(vbits):
            y = x + s
            if y > n:
                break
            if (vbits >> y) & 1:
                edges.append((x, y))
    edges.sort()
    return PairGraph(n=n, vertices=IntSet.from_bits(n, vbits), edges=tuple(edges))


# ----------------------------------------------------------------------
# Closed-form right-hand sides


LN2 = log(2.0)
#: each named bound: its parameters, the range of each one it takes the log of (lowest value, whether that
#: value is allowed), and its log as a function of the parameters in their order
BOUNDS = {
    "CEthm": (("n", "m", "C"), {"m": (1, True)}, lambda n, m, c: c * n / m * LN2 + log_binom((n + 1) // 2, m).log),
    "S+S": (("k", "ell", "c", "delta"), {"k": (0, False), "ell": (0, True), "c": (0, False)},
            lambda k, ell, c, delta: delta * 0.0 if ell == 0
            else delta * ell * LN2 + ell * (log(2 * c * k / 3) + 1 - 2 * log(ell))),
    "S+S2": (("ell", "lam", "delta"), {"ell": (0, True), "lam": (0.75, False)},
             lambda ell, lam, delta: delta * ell * LN2 + ell * (log((4 * lam - 3) / 6) + 1)),
    "parts": (("k", "ell"), {"k": (0, True), "ell": (0, True)},
              lambda k, ell: 0.0 if ell == 0 else -inf if k == 0 else ell * (2 + log(k) - 2 * log(ell))),
    "conj": (("N", "m", "delta"), {}, lambda cap_n, m, delta: delta * m * LN2 + log_binom_real(cap_n / 2, m).log),
}


def theorem_rhs(name: str, **params) -> LogValue:
    """Log of a named closed-form bound, as declared in BOUNDS.

    CEthm : 2^(C n / m) * C(ceil(n/2), m)          params n, m, C
    S+S   : 2^(delta l) * (2 c e k / (3 l^2))^l    params k, ell, c, delta
    S+S2  : 2^(delta l) * ((4 lam - 3) e / 6)^l    params ell, lam, delta (k ignored)
    parts : (e^2 k / l^2)^l                        params k, ell
    conj  : 2^(delta m) * C(N/2, m)                params N, m, delta

    A missing parameter, a non-finite float one, or one outside the range
    BOUNDS gives it (where the formula would take the log of a value <= 0)
    raises ValueError naming the parameter and its range.
    """
    if name not in BOUNDS:
        raise ValueError(f"unknown bound name {name!r}")
    needs, ranges, formula = BOUNDS[name]
    missing = [p for p in needs if params.get(p) is None]
    if missing:
        raise ValueError(f"{name} needs {', '.join(needs)}; missing {', '.join(missing)}")
    for p in needs:
        if isinstance(params[p], float) and not math.isfinite(params[p]):
            raise ValueError(f"{name} needs a finite {p}, not {params[p]}")
    for p, (low, closed) in ranges.items():
        if not (params[p] >= low if closed else params[p] > low):
            raise ValueError(f"{name} needs {p} {'>=' if closed else '>'} {low}, not {params[p]}")
    return LogValue(formula(*[params[p] for p in needs]))


def empirical_constant(n: int, m: int, exact_count: int) -> Optional[float]:
    """Invert the count bound: C*(n, m) = (m/n) log2(count / C(ceil(n/2), m)).

    None when the count is zero (the constant is undefined).  Outside
    0 <= m <= ceil(n/2) the binomial is zero and the constant infinite, so
    such an m is refused.
    """
    if n < 1 or exact_count < 0 or not 0 <= m <= (n + 1) // 2:
        raise ValueError("need n >= 1, 0 <= m <= ceil(n/2) and count >= 0")
    if exact_count == 0:
        return None
    log2_count = log(exact_count) / LN2
    log2_binom = log_binom((n + 1) // 2, m).log / LN2
    return m / n * (log2_count - log2_binom)
