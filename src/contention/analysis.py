"""Closed-form latency analysis for the 3-player contention game.

Everything here is a pure function of the protocol parameters (c, p).
Threshold comparisons and the divergence certificates are carried out in
exact rational arithmetic so that feasibility verdicts cannot flip on
floating-point rounding; results are reported as floats where a real
number is all that is needed.

Notation used throughout (per-round non-departure probabilities when
m, 3 or 2 players remain, and the persistent deviator's survival rate):

    gamma  = 1 - (1-p)^2          a lone scheduled slot fails to clear the
                                  persistent deviator
    beta_m = 1 - m p(1-p)^(m-1)   none of m pending players departs, so
                                  beta_1 = 1-p, beta_2 = delta, beta_3 = beta
    delta  = 1 - 2p(1-p)          neither of 2 pending players departs
    beta   = 1 - 3p(1-p)^2        none of 3 pending players departs
"""

from __future__ import annotations

import dataclasses
import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .schedule import Schedule, format_rational


def _check_cp(c, p) -> tuple:
    """(c, p) as fractions, checked against the protocol's domain
    c >= 1, 0 < p < 1."""
    c, p = Fraction(c), Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    return c, p


def _log2(x: Fraction) -> float:
    return math.log2(x.numerator) - math.log2(x.denominator)  # no float overflow


def _check_fits(name: str, log2_lower: float) -> None:
    """Name a value as too large for a float before the exact work that builds it, from log2_lower,
    a lower bound on its log2: _to_float names a magnitude of 2^1024 or more, so one past 2^1025 for certain."""
    if log2_lower > 1025:
        raise ValueError(f"{name} is too large for a float")


def _to_float(name: str, num: int, den: int, up: bool | None = None) -> float:
    """num/den (den > 0) as the nearest float or, when up is True (False), the float at or above (below) it:
    num/den times 2^k rounded the same way to an integer of 54 bits or more, cut by _fixed_to_float.  A value is
    named when its float would be infinite, and always at a magnitude of 2^1024 or more; below that, rounding
    toward zero gives a finite float."""
    if up is not None:
        k = max(54 + den.bit_length() - num.bit_length(), 0)
        return _fixed_to_float(name, _scaled(num, den, k, up), k, up)
    try:
        return num / den
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


# --- derived constants and feasibility --------------------------------------

@dataclass(frozen=True)
class _Report:
    """A report at one parameter point (c, p): its JSON opens with c as exact text and p as a float,
    then holds every other field, as the report holds it, in declaration order."""
    c: Fraction
    p: Fraction

    def _payload(self, **fields) -> dict:
        return {"c": format_rational(self.c), "p": float(self.p), **fields}

    def to_json(self) -> dict:
        return self._payload(**{field.name: getattr(self, field.name) for field in dataclasses.fields(self)[2:]})


@dataclass(frozen=True)
class DerivedConstants:
    gamma: Fraction
    delta: Fraction
    beta: Fraction


def derive_constants(p) -> DerivedConstants:
    """Per-round non-departure probabilities, exactly in p."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return DerivedConstants(
        gamma=1 - (1 - p) ** 2,
        delta=1 - 2 * p * (1 - p),
        beta=1 - 3 * p * (1 - p) ** 2,
    )


@dataclass(frozen=True)
class FeasibilityReport(_Report):
    thresholds: dict  # name -> Fraction
    finite_all_P: bool
    persistent_diverges: bool
    feasible: bool

    def to_json(self) -> dict:  # each threshold as exact text and as a float, in the thresholds' place
        thr = {
            name: {"exact": format_rational(val), "value": _to_float(name, *val.as_integer_ratio())}
            for name, val in self.thresholds.items()
        }
        return {**super().to_json(), "thresholds": thr}


def feasibility(c, p) -> FeasibilityReport:
    """Exact verdict on the parameter region where the protocol works.

    finite_all_P: every player's expected latency is finite when all
    three run the protocol, which needs

        1 < c < min( 1/(1-p), 1/delta, 1/beta, 2 ).

    persistent_diverges: a persistent deviator faces infinite expected
    latency, which needs  1/gamma < c <= 2.  feasible is the conjunction.
    """
    c, p = _check_cp(c, p)
    consts = derive_constants(p)
    inv_1mp = 1 / (1 - p)
    inv_delta = 1 / consts.delta
    inv_beta = 1 / consts.beta
    finite_all_P = 1 < c < min(inv_1mp, inv_delta, inv_beta, Fraction(2))
    persistent_diverges = consts.gamma * c > 1 and c <= 2
    return FeasibilityReport(
        c=c,
        p=p,
        thresholds={
            "inv_1mp": inv_1mp,
            "inv_delta": inv_delta,
            "inv_beta": inv_beta,
            "persist_lb": 1 / consts.gamma,
        },
        finite_all_P=finite_all_P,
        persistent_diverges=persistent_diverges,
        feasible=finite_all_P and persistent_diverges,
    )


# --- closed-form upper bounds ------------------------------------------------

_K1_LIMIT = 50_000  # the largest least truncation settled exactly: under 2 s on a 2-core box


def min_truncation_k1(c, p) -> int:
    """Smallest truncation making the 2-pending recurrence contract, the least k >= 1
    with delta^k c^(k-1) (c+1) < 1: estimated from logarithms, settled exactly up to _K1_LIMIT."""
    c, p = _check_cp(c, p)
    rate, grow = derive_constants(p).delta * c, (c + 1) / c  # delta^k c^(k-1) (c+1) = grow rate^k
    if rate >= 1:
        raise ValueError(f"contraction rate {rate} >= 1: no finite truncation exists")
    # k ln(1/rate) > ln(grow), and ln(1/rate) = gap (1 + gap/2 + ...): just gap once float(gap) underflows
    gap = 1 - rate
    log2_k = math.log2(math.log(grow)) - (math.log2(-math.log1p(-float(gap))) if gap > 1e-300 else _log2(gap))
    if log2_k > math.log2(_K1_LIMIT):  # before any exact power is built
        e = log2_k * math.log10(2)
        raise ValueError(f"least truncation k1' ~ {10 ** (e % 1):.3g}e{int(e)} is past the limit {_K1_LIMIT}")
    k = math.ceil(2**log2_k) - 1  # the estimate is off by far less than 1, and is >= 1
    while grow * rate**k >= 1:
        k += 1
    return k


@dataclass(frozen=True)
class BoundReport(_Report):
    k1_min: int
    k1_used: int
    delta_bound: float
    y30_upper: float
    y1k_upper: list  # [{"k", "bound"}]


def bound_report(c, p, k1_prime: int | None = None, k_max: int = 10) -> BoundReport:
    """All closed-form upper bounds in one report, at truncation k1' (the least one by default).

    y1k_upper bounds the lone player's scheduled-slot latency tail, 2cp / ((c-1)(1 - c(1-p)))
    * (c/(1-p))^k for k = 0..k_max, valid for 1 < c < 1/(1-p).  delta_bound bounds the 2-pending
    expected extra latency by the truncated recurrence, a quotient with denominator
    1 - delta^k1' c^(k1'-1) (c+1); y30_upper bounds a fixed player's expected latency when
    everyone runs the protocol:

        (2 + 2p(1-p)^2 (c+1) Delta) / (1 - beta c).
    """
    c, p = _check_cp(c, p)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    k1_min = min_truncation_k1(c, p)
    k1 = k1_min if k1_prime is None else k1_prime
    if c == 1:
        raise ValueError("c = 1 makes the geometric prefactor 1/(c-1) undefined")
    if c * (1 - p) >= 1:
        raise ValueError(f"c(1-p) = {c * (1 - p)} >= 1: series diverges")
    if k1 < 1:
        raise ValueError("truncation index must be >= 1")
    if k1 < k1_min:
        raise ValueError(f"truncation {k1} too small: delta^k1' c^(k1'-1) (c+1) >= 1")
    consts = derive_constants(p)
    rate, grow = consts.delta * c, (c + 1) / c
    lone = 2 * c * p / ((c - 1) * (1 - c * (1 - p)))  # y1 at k = 0
    head, ratio = lone * c * p, rate / (1 - p)
    name = f"delta_bound at index {k1}"
    # 1 - grow rate^k1' is in (0, 1]: Delta is >= head * ratio^(k1'-1)
    _check_fits(name, _log2(head) + (k1 - 1) * _log2(ratio))
    if k1 > _K1_LIMIT:
        raise ValueError(f"truncation {k1} is past the limit {_K1_LIMIT}")
    power = rate**k1
    # Delta = (a + b) / f: three Fractions, each reduced only against small integers, combined unreduced
    an, ad = (2 * (1 - power) / (1 - rate)).as_integer_ratio()
    bn, bd = (head * (k1 if ratio == 1 else (1 - ratio**k1) / (1 - ratio))).as_integer_ratio()
    fn, fd = (1 - grow * power).as_integer_ratio()
    dn, dd = (an * bd + bn * ad) * fd, ad * bd * fn
    delta_bound = _to_float(name, dn, dd, up=True)
    beta_c = consts.beta * c
    if beta_c >= 1:
        raise ValueError(f"beta*c = {beta_c} >= 1: bound diverges")
    wn, wd = (2 * p * (1 - p) ** 2 * (c + 1)).as_integer_ratio()
    sn, sd = (1 - beta_c).as_integer_ratio()
    y30_upper = _to_float(f"y30_upper at index {k1}", (2 * wd * dd + wn * dn) * sd, wd * dd * sn, up=True)
    y1k_upper, step = [], c / (1 - p)
    for k in range(k_max + 1):
        name = f"y1_upper at index {k}"
        _check_fits(name, _log2(lone) + k * _log2(step))
        y1k_upper.append({"k": k, "bound": _to_float(name, *(lone * step**k).as_integer_ratio(), up=True)})
    return BoundReport(c=c, p=p, k1_min=k1_min, k1_used=k1, delta_bound=delta_bound, y30_upper=y30_upper,
                       y1k_upper=y1k_upper)


# --- recurrence interval solver ----------------------------------------------

SEMANTICS = ("literal", "paper-series")
_LONE_TERMS = 80  # steps of the lone player's recurrence run above K
_BITS = 128  # the enclosures' fixed-point scale: units of 2^-_BITS


@dataclass(frozen=True)
class ExpectationTable(_Report):
    semantics: str
    truncation_K: int
    y1: list  # [{"lower", "upper", "truncation_K", "semantics"}] for k = 0..truncation_K
    y2: list
    y3: list


def _scaled(num: int, den: int, k: int, up: bool) -> int:
    """num * 2^k / den (den > 0) rounded up (down) to an integer when up is True (False)."""
    return -(-(num << k) // den) if up else (num << k) // den


def _fixed_to_float(name: str, num: int, scale: int, up: bool) -> float:
    """num * 2^-scale as the float at or above (below) it when up is True (False): num cut by one
    shift that rounds the same way, to 53 bits or to a subnormal float's last bit, 2^-1074.
    A value whose float would be infinite is named: so every magnitude of 2^1024 or more."""
    shift = max(num.bit_length() - 53, scale - 1074, 0)
    try:
        return math.ldexp(-(-num >> shift) if up else num >> shift, shift - scale)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def _rule(m: int, c: Fraction, p: Fraction, below: Fraction) -> tuple:
    """(a_m, beta_m, pd^m, C_m) for m pending players: a_m = (m-1) p (1-p)^(m-1) and beta_m as integers
    over pd^m (p = pn/pd), and C_m = (2 + a_m c C_{m-1}) / (1 - beta_m c) from below = C_{m-1}."""
    pn, pd = p.numerator, p.denominator
    den = pd**m
    depart = pn * (pd - pn) ** (m - 1)  # p (1-p)^(m-1): a given one of m pending players departs
    a, beta = (m - 1) * depart, den - m * depart
    return a, beta, den, (2 * den + a * c * below) / (den - beta * c)


def _enclosures(sched: Schedule, c: Fraction, rule: tuple, top: int, below: list | None) -> list:
    """E[Y_m,k] for k = 0..top as integer intervals in units of 2^-_BITS, by m's _rule: seeded with
    [0, C_m c^top] at k = top and run down, reading E[Y_{m-1},k+1] from below (None when m = 1).
    Every coefficient is nonnegative, so each step maps endpoints to endpoints, rounded outward."""
    a, beta, den, bound = rule
    sched.extend_to(top)
    rows = [(0, _scaled(*(bound * c**top).as_integer_ratio(), _BITS, True))] * (top + 1)
    for i in range(top - 1, -1, -1):
        lo, hi = rows[i + 1]
        lo, hi = beta * lo, beta * hi
        if below is not None:
            blo, bhi = below[i + 1]
            lo, hi = lo + a * blo, hi + a * bhi
        x = sched.x[i] << _BITS
        rows[i] = x + lo // den, x - (-hi // den)
    return rows


def solve_expectations(c, p, semantics: str = "literal", truncation_K: int = 60) -> ExpectationTable:
    """Certified enclosures of the expected extra latencies E[Y_m,k]
    for m = 1, 2, 3 pending players and k = 0..truncation_K.

    For m pending players the recurrence T, with a_m = (m-1) p (1-p)^(m-1), is

        E[Y_m,i] = x_i + a_m E[Y_{m-1},i+1] + beta_m E[Y_m,i+1].

    Its table is seeded at its top index k with [0, C_m c^k], where
    C_m = (2 + a_m c C_{m-1}) / (1 - beta_m c): as x_k <= 2c^k and
    E[Y_{m-1},k] <= C_{m-1} c^k, C_m c^k is a supersolution (T(u) <= u), so it
    lies above the expectation, T's least nonnegative solution (Norris,
    Markov Chains, 1997, Thm 1.3.5).  Each 1 - beta_m c is positive in the
    finite-latency region, which is checked first.  T runs down to k = 0 in
    interval arithmetic on integers in units of 2^-128, with the exact
    coefficients, integers over pd^m for p = pn/pd.  Endpoints are reported
    as floats rounded outward, so each interval encloses the exact recurrence.
    Each of y1, y2, y3 holds its rows as the report prints them, one dict
    {"lower", "upper", "truncation_K", "semantics"} per k, made where its
    endpoints become floats.

    semantics "literal": a lone player succeeds at the next slot, where the
    protocol transmits with probability 1, so E[Y_1,k] = 1 = C_1, and T runs
    for m = 2, 3.  semantics "paper-series": the lone player departs only at
    scheduled slots, which is m = 1 (a_1 = 0, beta_1 = 1-p), run down from
    k = truncation_K + _LONE_TERMS; m = 2, 3 then run from truncation_K.
    """
    c, p = _check_cp(c, p)
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}")
    if truncation_K < 1:
        raise ValueError("truncation_K must be >= 1")
    if not feasibility(c, p).finite_all_P:
        raise ValueError("parameters outside the finite-latency region: the expectations diverge")

    K, lone = truncation_K, semantics == "paper-series"
    rules, below = {}, 0 if lone else 1  # C_0 = 0 where m = 1 runs, else literal's C_1 = 1
    for m in (1, 2, 3) if lone else (2, 3):
        rules[m] = _rule(m, c, p, below)
        below = rules[m][3]
    # the tables are emitted y1 first.  In paper-series E[Y_1,K] >= x_K >= c^K, and every
    # E[Y_1,k] fits when C_1 c^K (plus K + _LONE_TERMS units) is below 2^1022.  E[Y_2,K]'s upper end is C_2 c^K
    if lone:
        _check_fits("an enclosure of E[Y_1,k]", K * _log2(c))
    if not lone or _log2(rules[1][3]) + K * _log2(c) < 1022:
        _check_fits("an enclosure of E[Y_2,k]", _log2(rules[2][3]) + K * _log2(c))
    sched = Schedule(c, K)
    tables = {} if lone else {1: [(1 << _BITS,) * 2] * (K + 1)}  # literal's E[Y_1,k] = 1
    for m, rule in rules.items():
        top = K + _LONE_TERMS if m == 1 else K
        tables[m] = _enclosures(sched, c, rule, top, tables.get(m - 1))[: K + 1]

    for m in (1, 2, 3):
        name = f"an enclosure of E[Y_{m},k]"
        tables[m] = [{"lower": _fixed_to_float(name, lo, _BITS, False),
                      "upper": _fixed_to_float(name, hi, _BITS, True),
                      "truncation_K": K, "semantics": semantics} for lo, hi in tables[m]]
    return ExpectationTable(c=c, p=p, semantics=semantics, truncation_K=K, y1=tables[1], y2=tables[2], y3=tables[3])


# --- persistent deviator ------------------------------------------------------

@dataclass(frozen=True)
class PersistentDistribution(_Report):
    support: list  # s_z, exact ints
    exact: list  # integers (pmf(z), partial expectation at z, den): numerators over den = pd^(2(z+1))
    term_ratios: list  # float, growth of consecutive expectation terms
    divergent: bool
    growth_rate: float  # c * gamma, the ratio-test certificate
    expected_rounds: float  # E[Z+1] = 1/(1-p)^2
    jensen_lower: int | None  # s at floor(E[Z]), None when that exceeds z_max

    @functools.cached_property
    def pmf(self) -> list:  # Fraction: gamma^z (1-p)^2, made on the first read
        return [Fraction(num, den) for num, _, den in self.exact]

    @functools.cached_property
    def partial_expectations(self) -> list:  # Fraction: cumulative sum of s_z * pmf(z), made on the first read
        return [Fraction(num, den) for _, num, den in self.exact]

    def to_json(self) -> dict:
        return self._payload(
            support=list(self.support),
            # the nearest floats: int / int rounds correctly, as float(Fraction) does
            pmf=[num / den for num, _, den in self.exact],
            partial_expectations=[num / den for _, num, den in self.exact],
            term_ratios=list(self.term_ratios),
            divergent=self.divergent,
            growth_rate=self.growth_rate,
            expected_rounds=self.expected_rounds,
            jensen_lower=self.jensen_lower,
        )


def _exact_law(support: list, p: Fraction):
    """Yield, for z = 0, 1, ..., the integers (a, b, d) with a/d the
    persistent deviator's pmf(z) = (1-p)^2 gamma^z, b/d her partial
    expectation sum_{j <= z} s_j pmf(j) and d = pd^(2(z+1)), given the
    support points s_0, s_1, ... and with pd the denominator of p."""
    pn, pd = p.numerator, p.denominator
    pd2 = pd * pd
    qn2 = (pd - pn) ** 2
    # (1-p)^2 gamma^j = qn^2 (pd^2 - qn^2)^j / pd^(2(j+1))
    weight, total, den = qn2, 0, pd2
    for s_z in support:
        total = total * pd2 + s_z * weight
        yield weight, total, den
        weight *= pd2 - qn2
        den *= pd2


def persistent_distribution(c, p, z_max: int) -> PersistentDistribution:
    """Exact latency law of a persistent deviator against two protocol
    players.

    The deviator transmits every slot, so she can only succeed at a
    scheduled slot, and she does as soon as both others stay quiet
    there: her latency is s_Z with Z + 1 geometric of success (1-p)^2.
    The expectation series has term ratio tending to c*gamma, giving a
    machine-checkable divergence certificate whenever c*gamma > 1.
    """
    c, p = _check_cp(c, p)
    if z_max < 0:
        raise ValueError("z_max must be >= 0")
    gamma = derive_constants(p).gamma
    # the checks go in the order below, so each is made here only once those before it certainly pass:
    # every term ratio (<= (1 + 2c) gamma) and c*gamma fit, then 1/(1-p)^2, then the partial
    # expectation at z_max, which is >= s_z pmf(z) >= (c gamma)^z (1-p)^2
    if _log2(c) < 1000:
        _check_fits("expected rounds 1/(1-p)^2", -2 * _log2(1 - p))
        if _log2(1 - p) > -500:
            _check_fits(f"partial expectation at z = {z_max}", z_max * _log2(c * gamma) + 2 * _log2(1 - p))
    support = Schedule(c, z_max).s
    exact = list(_exact_law(support, p))
    gn, gd = gamma.numerator, gamma.denominator
    ratios = [_to_float(f"term ratio at z = {z}", support[z + 1] * gn, support[z] * gd) for z in range(z_max)]
    growth_rate = _to_float("growth rate c*gamma", *(c * gamma).as_integer_ratio())
    qn2, _, pd2 = exact[0]  # pmf(0) = (1-p)^2 = qn^2 / pd^2
    expected_rounds = _to_float("expected rounds 1/(1-p)^2", pd2, qn2)
    _to_float(f"partial expectation at z = {z_max}", *exact[-1][1:])  # the largest: all fit
    jensen_k = pd2 // qn2 - 1  # floor of E[Z] = 1/(1-p)^2 - 1
    return PersistentDistribution(
        c=c,
        p=p,
        support=support,
        exact=exact,
        term_ratios=ratios,
        divergent=c * gamma > 1,
        growth_rate=growth_rate,
        expected_rounds=expected_rounds,
        jensen_lower=support[jensen_k] if jensen_k <= z_max else None,
    )


# --- deadline deviators --------------------------------------------------------

@dataclass(frozen=True)
class DeadlineComparison(_Report):
    t0: int
    xi: int
    prE_lower: float
    diverges: bool
    truncated_lower_bounds: list  # [{"z_max", "bound"}]: a lower bound on E[latency] at each z_max


def deadline_comparison(c, p, t0: int, z_grid: tuple = (25, 50, 100, 200, 400)) -> DeadlineComparison:
    """Lower-bound evidence that a deadline-t0 deviator loses.

    xi counts scheduled slots strictly before the deadline.  With
    probability at least delta^xi neither protocol player departs before
    t0 (event E); conditioned on E the deviator's remaining game
    dominates the persistent one shifted by xi rounds, so for any z_max

        E[latency] >= delta^xi * c^(xi-1) (c-1) * partial_expectation(z_max) - t0^2,

    which is unbounded in z_max exactly when the persistent expectation
    diverges.
    """
    c, p = _check_cp(c, p)
    if t0 < 1:
        raise ValueError("deadline must be >= 1")
    if not z_grid or min(z_grid) < 0:
        raise ValueError(f"z_grid must be a non-empty list of z_max >= 0, got {list(z_grid)}")
    consts = derive_constants(p)
    z_max = max(z_grid)
    sched = Schedule(c, 0)
    if c == 1:  # s_k = 2(k + 1): xi needs no schedule up to t0
        xi = (t0 + 1) // 2 - 1
    else:
        sched.ensure_covers_time(t0)
        xi = bisect_left(sched.s, t0)
    # delta^xi and c^(xi-1) (c-1) stay Fractions (powers do not reduce; xi = 0 gives 1/c),
    # and the factor, their product, is num/den unreduced.  At c = 1 the factor is 0 and
    # delta^xi serves only prE_lower, which is 0.0 once delta^xi < 2^-1075: logarithms decide
    # that before the power is built
    if c == 1 and xi * -_log2(consts.delta) > 1075:
        dn, dd = 0, 1
    else:
        dn, dd = (consts.delta**xi).as_integer_ratio()
    gn, gd = (c ** (xi - 1) * (c - 1)).as_integer_ratio()
    num, den = dn * gn, dd * gd
    # a bound is X - t0^2 with X = factor * partial_expectation(z) in [2^L, 2^U]: s_z >= c^z gives
    # L = log2(factor (c gamma)^z (1-p)^2), and s_j <= 2(j+1) c^j gives U = log2(factor 2(z+1)^2
    # (1-p)^2 max(1, c gamma)^z); X = 0 when c = 1.  With T = log2(t0^2), the first z in grid order
    # not certain to fit is named here if it certainly does not: X - t0^2 >= 2^(L-1) when L > T + 1,
    # and t0^2 - X >= 2^(T-1) when U < T - 1
    log2_factor = math.log2(num) - math.log2(den) if num else -math.inf
    log2_t0_sq, log2_cg = 2 * math.log2(t0), _log2(c * consts.gamma)
    for z in z_grid:
        upper = log2_factor + 1 + 2 * math.log2(z + 1) + 2 * _log2(1 - p) + z * max(0.0, log2_cg)
        if max(upper, log2_t0_sq) >= 1023:
            lower = log2_factor + z * log2_cg + 2 * _log2(1 - p)
            name = f"truncated lower bound at z_max = {z}"
            if lower > log2_t0_sq + 1:
                _check_fits(name, lower - 1)
            elif upper < log2_t0_sq - 1:
                _check_fits(name, log2_t0_sq - 1)
            break
    law = dict.fromkeys(z_grid, (0, 1))  # (total, zden) at the grid's z only, one walk of the law
    if num:  # num = 0 exactly at c = 1: every bound is -t0^2 and the law is not needed
        sched.extend_to(z_max)
        law.update((z, row[1:]) for z, row in enumerate(_exact_law(sched.s[: z_max + 1], p)) if z in law)
    bounds = []
    for z in z_grid:  # factor * total / zden - t0^2, with zden = pd^(2(z+1)) from the law
        total, zden = law[z]
        low = num * total - t0**2 * den * zden
        name = f"truncated lower bound at z_max = {z}"
        bounds.append({"z_max": z, "bound": _to_float(name, low, den * zden, up=False)})
    return DeadlineComparison(
        c=c,
        p=p,
        t0=t0,
        xi=xi,
        prE_lower=_to_float("prE_lower", dn, dd, up=False),
        diverges=c * consts.gamma > 1,
        truncated_lower_bounds=bounds,
    )
