"""Closed-form latency analysis for the 3-player contention game.

Everything here is a pure function of the protocol parameters (c, p).
Threshold comparisons and the divergence certificates are carried out in
exact rational arithmetic so that feasibility verdicts cannot flip on
floating-point rounding; results are reported as floats where a real
number is all that is needed.

Notation used throughout (per-round non-departure probabilities when
3, 2 players remain, and the persistent deviator's survival rate):

    gamma = 1 - (1-p)^2        a lone scheduled slot fails to clear the
                               persistent deviator
    delta = 1 - 2p(1-p)        neither of 2 pending players departs
    beta  = 1 - 3p(1-p)^2      none of 3 pending players departs
"""

from __future__ import annotations

import math
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


def _bound_float(name: str, index: int, log2_lower: float, exact) -> float:
    """float(exact()), or a ValueError naming the bound when it overflows.
    exact() and its powers are not built when log2_lower, a lower bound on
    log2 of the value up to rounding, already puts it past the float range."""
    if log2_lower <= 1025:
        try:
            return float(exact())
        except OverflowError:
            pass
    raise ValueError(f"{name} at index {index} is too large for a float")


def _geom_sum(r: Fraction, n: int) -> Fraction:
    """sum_{i=0}^{n-1} r^i, exact, valid for r == 1 too."""
    if r == 1:
        return Fraction(n)
    return (1 - r**n) / (1 - r)


# --- derived constants and feasibility --------------------------------------

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
class FeasibilityReport:
    c: Fraction
    p: Fraction
    thresholds: dict  # name -> Fraction (None when undefined)
    finite_all_P: bool
    persistent_diverges: bool
    feasible: bool

    def to_json(self) -> dict:
        thr = {
            name: None if val is None else {"exact": format_rational(val), "value": float(val)}
            for name, val in self.thresholds.items()
        }
        return {
            "c": format_rational(self.c),
            "p": float(self.p),
            "thresholds": thr,
            "finite_all_P": self.finite_all_P,
            "persistent_diverges": self.persistent_diverges,
            "feasible": self.feasible,
        }


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
    persist_lb = None if consts.gamma == 0 else 1 / consts.gamma
    finite_all_P = 1 < c < min(inv_1mp, inv_delta, inv_beta, Fraction(2))
    persistent_diverges = consts.gamma * c > 1 and c <= 2
    return FeasibilityReport(
        c=c,
        p=p,
        thresholds={
            "inv_1mp": inv_1mp,
            "inv_delta": inv_delta,
            "inv_beta": inv_beta,
            "persist_lb": persist_lb,
        },
        finite_all_P=finite_all_P,
        persistent_diverges=persistent_diverges,
        feasible=finite_all_P and persistent_diverges,
    )


# --- closed-form upper bounds ------------------------------------------------

def _series_params(c, p) -> tuple:
    """(c, p) as fractions, checked for the lone player's series."""
    c, p = _check_cp(c, p)
    if c == 1:
        raise ValueError("c = 1 makes the geometric prefactor 1/(c-1) undefined")
    if c * (1 - p) >= 1:
        raise ValueError(f"c(1-p) = {c * (1 - p)} >= 1: series diverges")
    return c, p


def y1_upper(c, p, k: int) -> float:
    """Closed-form bound on the lone player's scheduled-slot latency tail:

        2cp / ((c-1)(1 - c(1-p))) * (c/(1-p))^k

    Valid for 1 < c < 1/(1-p).
    """
    c, p = _series_params(c, p)
    if k < 0:
        raise ValueError("k must be >= 0")
    head, ratio = 2 * c * p / ((c - 1) * (1 - c * (1 - p))), c / (1 - p)
    return _bound_float("y1_upper", k, _log2(head) + k * _log2(ratio), lambda: head * ratio**k)


def min_truncation_k1(c, p) -> int:
    """Smallest truncation making the 2-pending recurrence contract:
    the least k >= 1 with delta^k c^(k-1) (c+1) < 1."""
    c, p = _check_cp(c, p)
    delta = derive_constants(p).delta
    if delta * c >= 1:
        raise ValueError(f"contraction rate {delta * c} >= 1: no finite truncation exists")
    k = 1
    term = delta * (c + 1)
    while term >= 1:
        k += 1
        term *= delta * c
    return k


def delta_bound(c, p, k1_prime: int) -> float:
    """Truncated-recurrence upper bound on the 2-pending expected extra
    latency (the quotient with denominator 1 - delta^k1' c^(k1'-1) (c+1)).
    """
    c, p = _series_params(c, p)
    if k1_prime < 1:
        raise ValueError("truncation index must be >= 1")
    delta = derive_constants(p).delta
    head, ratio = 2 * c**2 * p**2 / ((c - 1) * (1 - c * (1 - p))), delta * c / (1 - p)

    def exact():
        denom = 1 - delta**k1_prime * c ** (k1_prime - 1) * (c + 1)
        if denom <= 0:
            raise ValueError(f"truncation {k1_prime} too small: contraction factor {1 - denom} >= 1")
        return (2 * _geom_sum(delta * c, k1_prime) + head * _geom_sum(ratio, k1_prime)) / denom

    # a factor below 1/2 puts denom in (1/2, 1): the value is >= head * ratio^(k1'-1)
    log2_factor = k1_prime * _log2(delta) + (k1_prime - 1) * _log2(c) + _log2(c + 1)
    lower = _log2(head) + (k1_prime - 1) * _log2(ratio) if log2_factor < -1 else 0.0
    return _bound_float("delta_bound", k1_prime, lower, exact)


def y30_upper(c, p, k1_prime: int) -> float:
    """Closed-form upper bound on a fixed player's expected latency when
    everyone runs the protocol:

        (2 + 2p(1-p)^2 (c+1) Delta) / (1 - beta c).
    """
    c, p = _check_cp(c, p)
    beta = derive_constants(p).beta
    if beta * c >= 1:
        raise ValueError(f"beta*c = {beta * c} >= 1: bound diverges")
    bound2 = Fraction(delta_bound(c, p, k1_prime))
    value = (2 + 2 * p * (1 - p) ** 2 * (c + 1) * bound2) / (1 - beta * c)
    return _bound_float("y30_upper", k1_prime, 0.0, lambda: value)


@dataclass(frozen=True)
class BoundReport:
    c: Fraction
    p: Fraction
    k1_min: int
    k1_used: int
    delta_bound: float
    y30_upper: float
    y1k_upper: list  # [(k, bound)]

    def to_json(self) -> dict:
        return {
            "c": format_rational(self.c),
            "p": float(self.p),
            "k1_min": self.k1_min,
            "k1_used": self.k1_used,
            "delta_bound": self.delta_bound,
            "y30_upper": self.y30_upper,
            "y1k_upper": [{"k": k, "bound": b} for k, b in self.y1k_upper],
        }


def bound_report(c, p, k1_prime: int | None = None, k_max: int = 10) -> BoundReport:
    """All closed-form upper bounds in one report."""
    c, p = _check_cp(c, p)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    k1_min = min_truncation_k1(c, p)
    k1_used = k1_min if k1_prime is None else k1_prime
    return BoundReport(
        c=c,
        p=p,
        k1_min=k1_min,
        k1_used=k1_used,
        delta_bound=delta_bound(c, p, k1_used),
        y30_upper=y30_upper(c, p, k1_used),
        y1k_upper=[(k, y1_upper(c, p, k)) for k in range(k_max + 1)],
    )


# --- recurrence interval solver ----------------------------------------------

SEMANTICS = ("literal", "paper-series")


@dataclass(frozen=True)
class ExpectationInterval:
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack


@dataclass(frozen=True)
class ExpectationTable:
    c: Fraction
    p: Fraction
    semantics: str
    truncation_K: int
    y1: list
    y2: list
    y3: list

    def to_json(self) -> dict:
        return {
            "c": format_rational(self.c),
            "p": float(self.p),
            "semantics": self.semantics,
            "truncation_K": self.truncation_K,
            "y1": self._rows(self.y1),
            "y2": self._rows(self.y2),
            "y3": self._rows(self.y3),
        }

    def _rows(self, intervals: list) -> list:
        table = {"truncation_K": self.truncation_K, "semantics": self.semantics}
        return [{"lower": iv.lower, "upper": iv.upper, **table} for iv in intervals]


def _lone_series_numerators(sched: Schedule, c: Fraction, p: Fraction, K: int, terms: int = 80) -> tuple:
    """Enclosures of the lone player's expected extra latency after the
    (k-1)-th scheduled slot, k = 0..K, under the reading where she departs
    only at scheduled slots: sum over ell >= k of (s_ell - s_{k-1}) p (1-p)^(ell-k),
    truncated after `terms` terms with a geometric tail bound T c^k.

    Returns ([(lo_k, hi_k)], V): integer numerators over the one common
    denominator V = pd^(terms+1) * T.den * cd^K."""
    sched.extend_to(K + terms)
    pn, pd = p.numerator, p.denominator
    cn, cd = c.numerator, c.denominator
    qn = pd - pn
    r = c * (1 - p)
    # terms beyond the cutoff: (s_ell - s_prev) <= 2 c^(ell+1) / (c-1)
    tail = (2 * p * c / (c - 1)) * r ** (terms + 1) / (1 - r)
    # p (1-p)^i = pn qn^i pd^(terms-i) / pd^(terms+1), and
    # c^k = cn^k cd^(K-k) / cd^K
    common = tail.denominator * cd**K
    partial_scale = pn * common
    tail_scale = tail.numerator * pd ** (terms + 1)
    weights = [qn**i * pd ** (terms - i) for i in range(terms + 1)]
    weight_sum = sum(weights)
    s = sched.s
    power = cd**K  # cn^k cd^(K-k)
    nums = []
    for k in range(K + 1):
        s_prev = s[k - 1] if k >= 1 else 0
        dot = sum(s_ell * w for s_ell, w in zip(s[k : k + terms + 1], weights)) - s_prev * weight_sum
        lo = dot * partial_scale
        nums.append((lo, lo + tail_scale * power))
        power = power // cd * cn
    return nums, pd ** (terms + 1) * common


def solve_expectations(c, p, semantics: str = "literal", truncation_K: int = 60) -> ExpectationTable:
    """Certified enclosures of the expected extra latencies E[Y_{n,k}]
    for n = 1, 2, 3 pending players and k = 0..truncation_K.

    The tail at k = truncation_K is seeded with [0, closed-form bound
    scaled by the geometric domination factor c^(K-1)(c+1)] and the
    linear recurrences

        E[Y_2,i] = x_i + p(1-p)   E[Y_1,i+1] + delta E[Y_2,i+1]
        E[Y_3,i] = x_i + 2p(1-p)^2 E[Y_2,i+1] + beta  E[Y_3,i+1]

    are propagated down to k = 0 in interval arithmetic (all
    coefficients are nonnegative, so endpoints map to endpoints).

    The recurrence runs in exact integers with no gcd reduction.  With
    p = pn/pd and qn = pd - pn, the coefficients are a2 = pn qn / pd^2,
    delta = (pd^2 - 2 pn qn) / pd^2, a3 = 2 pn qn^2 / pd^3 and
    beta = (pd^3 - 3 pn qn^2) / pd^3, so every endpoint is an integer
    numerator over a known denominator that each step multiplies by pd^2
    (for E[Y_2]) or pd^3 (for E[Y_3]).  The seed denominators are chosen
    so that E[Y_1]'s divides E[Y_2]'s, which divides E[Y_3]'s.  Each
    endpoint is reported as num / den, which Python rounds correctly,
    i.e. to the float nearest the exact value.

    semantics "literal": a lone player succeeds at the next slot, where
    the protocol transmits with probability 1, so E[Y_1,k] = 1.
    semantics "paper-series": the lone player departs only at scheduled
    slots, giving the dominating series enclosed by _lone_series_numerators.
    """
    c, p = _check_cp(c, p)
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}")
    if truncation_K < 1:
        raise ValueError("truncation_K must be >= 1")
    if not feasibility(c, p).finite_all_P:
        raise ValueError("parameters outside the finite-latency region: the expectations diverge")
    K = truncation_K
    sched = Schedule(c, K)

    if semantics == "literal":
        n1, d1 = [(1, 1)] * (K + 1), 1
    else:
        n1, d1 = _lone_series_numerators(sched, c, p, K)

    k1 = min_truncation_k1(c, p)
    grow = c ** (K - 1) * (c + 1)
    seed2 = Fraction(delta_bound(c, p, k1)) * grow
    seed3 = Fraction(y30_upper(c, p, k1)) * grow
    d2 = math.lcm(d1, seed2.denominator)
    d3 = math.lcm(d2, seed3.denominator)
    n2 = (0, seed2.numerator * (d2 // seed2.denominator))
    n3 = (0, seed3.numerator * (d3 // seed3.denominator))
    scale21, scale32 = d2 // d1, d3 // d2

    pn, pd = p.numerator, p.denominator
    qn = pd - pn
    pd2, pd3 = pd**2, pd**3
    a2, delta = pn * qn, pd2 - 2 * pn * qn
    a3, beta = 2 * pn * qn**2, pd3 - 3 * pn * qn**2
    e2: list = [None] * (K + 1)
    e3: list = [None] * (K + 1)
    e2[K] = ExpectationInterval(n2[0] / d2, n2[1] / d2)
    e3[K] = ExpectationInterval(n3[0] / d3, n3[1] / d3)
    for i in range(K - 1, -1, -1):
        # over the new denominators pd^2 d2 and pd^3 d3, reading
        # E[Y_1,i+1] and E[Y_2,i+1] before E[Y_2,i] replaces the latter
        d2 *= pd2
        d3 *= pd3
        x2, x3 = sched.x[i] * d2, sched.x[i] * d3
        w1, w2 = a2 * scale21, a3 * scale32
        n2, n3 = (
            tuple(x2 + w1 * u + delta * v for u, v in zip(n1[i + 1], n2)),
            tuple(x3 + w2 * u + beta * v for u, v in zip(n2, n3)),
        )
        scale21 *= pd2
        scale32 *= pd
        e2[i] = ExpectationInterval(n2[0] / d2, n2[1] / d2)
        e3[i] = ExpectationInterval(n3[0] / d3, n3[1] / d3)

    e1 = [ExpectationInterval(lo / d1, hi / d1) for lo, hi in n1]
    return ExpectationTable(c=c, p=p, semantics=semantics, truncation_K=K, y1=e1, y2=e2, y3=e3)


# --- persistent deviator ------------------------------------------------------

@dataclass(frozen=True)
class PersistentDistribution:
    c: Fraction
    p: Fraction
    support: list  # s_z, exact ints
    pmf: list  # Fraction: gamma^z (1-p)^2
    partial_expectations: list  # Fraction, cumulative sum of s_z * pmf(z)
    term_ratios: list  # float, growth of consecutive expectation terms
    divergent: bool
    growth_rate: float  # c * gamma, the ratio-test certificate
    expected_rounds: float  # E[Z+1] = 1/(1-p)^2
    jensen_lower: int | None  # s at floor(E[Z]), None when that exceeds z_max

    def to_json(self) -> dict:
        return {
            "c": format_rational(self.c),
            "p": float(self.p),
            "support": list(self.support),
            "pmf": [float(v) for v in self.pmf],
            "partial_expectations": [float(v) for v in self.partial_expectations],
            "term_ratios": list(self.term_ratios),
            "divergent": self.divergent,
            "growth_rate": self.growth_rate,
            "expected_rounds": self.expected_rounds,
            "jensen_lower": self.jensen_lower,
        }


def _partial_numerators(support: list, p: Fraction):
    """Yield, for z = 0, 1, ..., the integer numerator over pd^(2(z+1))
    of the persistent deviator's partial expectation
    sum_{j <= z} s_j (1-p)^2 gamma^j, given the support points s_0,
    s_1, ... and with pd the denominator of p."""
    pn, pd = p.numerator, p.denominator
    pd2 = pd * pd
    qn2 = (pd - pn) ** 2
    # (1-p)^2 gamma^j = qn^2 (pd^2 - qn^2)^j / pd^(2(j+1))
    weight, total = qn2, 0
    for s_z in support:
        total = total * pd2 + s_z * weight
        yield total
        weight *= pd2 - qn2


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
    support = Schedule(c, z_max).s
    gamma = derive_constants(p).gamma
    # pmf(z) = (1-p)^2 gamma^z is in lowest terms over pd^(2(z+1)), as qn
    # and pd^2 - qn^2 = pn (2 pd - pn) are prime to pd; so each partial sum
    # is its numerator over pmf(z)'s denominator.
    pmf, partials, term = [], [], (1 - p) ** 2
    for total in _partial_numerators(support, p):
        pmf.append(term)
        partials.append(Fraction(total, term.denominator))
        term *= gamma
    # int / int rounds correctly, as float(Fraction) does
    gn, gd = gamma.numerator, gamma.denominator
    ratios = [support[z + 1] * gn / (support[z] * gd) for z in range(z_max)]
    expected_rounds = 1 / pmf[0]
    jensen_k = int(expected_rounds - 1)  # floor of E[Z]
    return PersistentDistribution(
        c=c,
        p=p,
        support=support,
        pmf=pmf,
        partial_expectations=partials,
        term_ratios=ratios,
        divergent=c * gamma > 1,
        growth_rate=float(c * gamma),
        expected_rounds=float(expected_rounds),
        jensen_lower=support[jensen_k] if jensen_k <= z_max else None,
    )


# --- deadline deviators --------------------------------------------------------

@dataclass(frozen=True)
class DeadlineComparison:
    c: Fraction
    p: Fraction
    t0: int
    xi: int
    prE_lower: float
    diverges: bool
    truncated_lower_bounds: list  # [(z_max, lower bound on E[latency])]

    def to_json(self) -> dict:
        return {
            "c": format_rational(self.c),
            "p": float(self.p),
            "t0": self.t0,
            "xi": self.xi,
            "prE_lower": self.prE_lower,
            "diverges": self.diverges,
            "truncated_lower_bounds": [
                {"z_max": z, "bound": b} for z, b in self.truncated_lower_bounds
            ],
        }


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
    sched = Schedule(c, z_max)
    sched.ensure_covers_time(t0)
    xi = sum(1 for s in sched.s if s < t0)
    pr_lower = consts.delta**xi
    totals = list(_partial_numerators(sched.s[: z_max + 1], p))
    partials = [Fraction(totals[z], p.denominator ** (2 * (z + 1))) for z in z_grid]
    factor = pr_lower * c ** (xi - 1) * (c - 1)
    bounds = [(z, float(factor * part - t0**2)) for z, part in zip(z_grid, partials)]
    return DeadlineComparison(
        c=c,
        p=p,
        t0=t0,
        xi=xi,
        prE_lower=float(pr_lower),
        diverges=c * consts.gamma > 1,
        truncated_lower_bounds=bounds,
    )
