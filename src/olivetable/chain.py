"""Exact and simulated analysis of the auxiliary plate-count walk.

The walk lives on the positive integers: from 1 it moves to 2 with
probability 1; from 2 it moves to 1 or 3 with probability 1/2 each; from
k >= 3 it moves down with probability 3/4 and up with probability 1/4.  It
under-estimates how often the plate-count process returns to a single plate,
and everything about its first-return time T (the first revisit of state 1)
is computable exactly.

Ground-truth ordering: the forward dynamic program (`first_return_pmf_dp`,
on :mod:`olivetable.oracle`'s exact engine) and the exhaustive path
enumeration there outrank any closed form.  The validated closed form is

    f(2t) = (3/16)^(t-1) * C(2t-3, t-1)      for t >= 2,   f(2) = 1/2,

equivalently (1/2) * (3/16)^(t-1) * C(2(t-1), t-1) for all t >= 1, which
sums to 1 and has mean 5.  `first_return_pmf_closed` evaluates it term by
term, and every table, sum and check of the validated pmf reads that one
dict.  The published closed form carries an extra factor of 4 (its
excursion exponent is off by one); `published_first_return_pmf` evaluates
it per t, from its own formula, for side-by-side discrepancy reporting only,
and it is never used as truth.  The published mean-return-time claim (19)
and limit claim (1/19) are likewise reported beside the validated values;
the only published statement asserted anywhere is the inequality
N11(t) >= t/19, which the validated values satisfy a fortiori.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, TextIO

from .oracle import _advance
from .process import Z99
from .rng import _RangeError, make_rng

CHAIN_CSV_HEADER = "t,f_num,f_den,f_paper_num,f_paper_den,cdf_num,cdf_den"

#: The published mean-return-time value, reported but never asserted.
PUBLISHED_MEAN_RETURN = Fraction(19)


def _t_max_digits_bound() -> float:
    """The largest pmf horizon T whose exact strings fit the interpreter's
    str(int) digit limit L (3573 at the default L = 4300; inf with no limit).
    The longest, the mean-return series' numerator, is just under 5 * 2^e,
    2^e = 2^(4T - 3 - popcount(T - 1)) being the denominator of f(2T), so
    it fits while e <= 1 + floor((L - 1) * log2(10))."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    if not limit:
        return math.inf
    e_max = 1 + math.floor((limit - 1) * math.log2(10))
    t = (e_max + 3) // 4  # e <= 4t - 3 here, and e grows by 3 or more per step
    while 4 * t + 1 - t.bit_count() <= e_max:  # e at T = t + 1
        t += 1
    return t


class VerificationError(AssertionError):
    """An exact identity or tolerance check failed; carries the report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class WalkRunStats(NamedTuple):
    """Outcome of one simulated walk of ``steps`` moves from state 1.

    The return durations d_1..d_n11 are kept only as exact integer moments:
    they telescope, so their sum is the step of the last return, and
    ``sum_sq_durations`` is the sum of their squares.
    """

    steps: int
    n11: int
    final_state: int
    last_return: int
    sum_sq_durations: int


def catalan(k: int) -> int:
    """Exact k-th Catalan number C(2k, k) / (k + 1)."""
    if k < 0:
        raise _RangeError(f"catalan needs k >= 0, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def _walk_num_moves(k: int) -> int:
    """M of the walk at state k >= 2, in equally likely moves."""
    return 2 if k == 2 else 4


def _walk_moves(k: int, scaled: int, out: dict[int, int]) -> None:
    """The walk's moves from state k >= 2, added into ``out`` as ``_pile_moves``
    adds a multiset's: one way each to 1 and 3, or three down and one up."""
    get = out.get
    out[k - 1] = get(k - 1, 0) + (scaled if k == 2 else 3 * scaled)
    out[k + 1] = get(k + 1, 0) + scaled


def first_return_pmf_dp(t_max: int) -> dict[int, Fraction]:
    """Exact rational f(2t) for t = 1..t_max by forward dynamic programming.

    Returns ``{2t: Pr(T = 2t)}`` for 1 <= t <= t_max in increasing order of
    time: odd times carry no mass (the walk changes parity every step), so
    they have no key.  An integer DP on the exact engine ``oracle._advance``
    over states 2..2*t_max + 1 of the walks not yet returned: the numerator
    that reaches state 1 at step 2t, taken out after the step, is f(2t).
    This is the module's ground truth.
    """
    if t_max < 1:
        raise _RangeError(f"t_max must be >= 1, got {t_max}")
    entries: dict[int, Fraction] = {}
    dist, den = {2: 1}, 1  # after the forced step 1 -> 2
    for s in range(2, 2 * t_max + 1):
        dist, den, _ = _advance(dist, den, s, 0, math.inf, _walk_num_moves, _walk_moves)
        back = dist.pop(1, 0)
        if back:
            entries[s] = Fraction(back, den)
    return entries


def first_return_pmf_closed(t_max: int) -> dict[int, Fraction]:
    """Validated closed form ``{2t: Pr(T = 2t)}`` for t = 1..t_max, the
    shape of `first_return_pmf_dp`: f(2) = 1/2 (pinned by the DP; the
    published form is exactly 4x this), then term by term by the ratio
    f(2t+2) / f(2t) = 3(2t-1) / (8t) of (1/2) (3/16)^(t-1) C(2(t-1), t-1).
    """
    if t_max < 1:
        raise _RangeError(f"t_max must be >= 1, got {t_max}")
    f = Fraction(1, 2)
    pmf = {2: f}
    for t in range(1, t_max):
        f *= Fraction(3 * (2 * t - 1), 8 * t)
        pmf[2 * t + 2] = f
    return pmf


def published_first_return_pmf(t: int) -> Fraction:
    """The as-published closed form 4 * (3/16)^(t-1) * C(2t-3, t-1).

    For side-by-side discrepancy reporting only; it exceeds the validated
    pmf by an exact factor of 4 and does not sum to 1.  Undefined at t = 1,
    where C(-1, 0) needs a convention; see published_pmf_t1_conventions.
    """
    if t < 2:
        raise _RangeError(f"published closed form needs t >= 2, got {t}")
    return 4 * Fraction(3, 16) ** (t - 1) * math.comb(2 * t - 3, t - 1)


def first_return_rows(t_max: int) -> list[tuple[int, Fraction, Optional[Fraction]]]:
    """(t, validated f(2t), published form or None at t = 1) for t = 1..t_max:
    the rows of every pmf discrepancy table and of the chain CSV.  A table
    needs a published row, so t_max < 2 is refused, and so is any t_max
    above `_t_max_digits_bound()`, whose exact strings Python cannot write."""
    if t_max < 2:
        raise _RangeError(f"t_max must be >= 2, got {t_max}")
    bound = _t_max_digits_bound()
    if t_max > bound:
        raise _RangeError(
            f"t_max must be <= {bound}, got {t_max}: its exact pmf strings would pass "
            f"Python's {sys.get_int_max_str_digits()}-digit limit on int-to-str conversion"
        )
    return [
        (t, f, published_first_return_pmf(t) if t >= 2 else None)
        for t, f in enumerate(first_return_pmf_closed(t_max).values(), 1)
    ]


def published_pmf_t1_conventions() -> dict[str, Fraction]:
    """Both readings of the published formula at t = 1 (C(-1, 0) ambiguity)."""
    return {
        "binom_neg_one_zero_is_zero": Fraction(0),
        "binom_neg_one_zero_is_one": Fraction(4),
    }


def first_return_pmf_convolution(t: int) -> Fraction:
    """Pr(T = 2t) assembled from the excursion decomposition.

    Sums over i = number of gaps between consecutive visits to state 2:
    the excursion shapes contribute the Catalan i-fold convolution
    ``catalan_convolution_closed(t, i)``, the probabilities contribute
    (1/2)^(i+1) * (1/4)^(t-i-1) * (3/4)^(t-1).  The up-step exponent
    t-i-1 is validated against the DP (the published derivation prints
    t-i-2, which is the factor-of-4 discrepancy).
    """
    if t < 2:
        raise _RangeError(f"convolution form needs t >= 2, got {t}")
    total = Fraction(0)
    powers_half = Fraction(1, 2)
    for i in range(1, t):
        prob = powers_half ** (i + 1) * Fraction(1, 4) ** (t - i - 1)
        total += catalan_convolution_closed(t, i) * prob
    return total * Fraction(3, 4) ** (t - 1)


def catalan_convolution_closed(t: int, i: int) -> Fraction:
    """Closed form [i/(2t-i-2)] * C(2t-i-2, t-1) of the i-fold convolution."""
    return Fraction(i, 2 * t - i - 2) * math.comb(2 * t - i - 2, t - 1)


def catalan_convolution_brute(t: int, i: int) -> int:
    """sum over compositions a_1+...+a_i = t-1 (a_j >= 1) of prod C_{a_j - 1}."""
    target = t - 1

    def rec(remaining: int, parts: int) -> int:
        if parts == 1:
            return catalan(remaining - 1)
        return sum(
            catalan(a - 1) * rec(remaining - a, parts - 1)
            for a in range(1, remaining - parts + 2)
        )

    if i < 1 or target < i:
        return 0
    return rec(target, i)


def mean_return_time_series(t_max: int) -> tuple[Fraction, Fraction]:
    """Partial sum for E[T] with a certified tail bound, both exact.

    ``t_max`` is the pmf horizon (return-time index j), matching
    first_return_pmf_dp: the partial sum is 1 + sum_{t=1}^{2*t_max} (1 - F(t)),
    i.e. every CDF term that the first t_max pmf entries determine.  The
    neglected tail is sum_{j>t_max} (2(j - t_max) - 1) * Pr(T = 2j), bounded
    via Pr(T = 2j) <= (1/2) * (3/4)^(j-1) (from C(2j-3, j-1) <= 2^(2j-3)) by

        tail <= 14 * (3/4)^(t_max),

    a geometric bound with ratio 3/4 per pmf term.  E[T] lies in
    [value, value + tail_bound]; at t_max = 200 the bound is below 1e-15.
    """
    if t_max < 2:
        raise _RangeError(f"t_max must be >= 2, got {t_max}")
    e, nums = _dyadic_numerators(list(first_return_pmf_closed(t_max).values()))
    total = survival = 1 << e  # the leading 1, and 1 - F(2j - 2), times 2^e
    for num in nums:
        # t = 2j - 1 and t = 2j: (1 - F(2j - 2)) + (1 - F(2j - 2) - f(2j)).
        total += 2 * survival - num
        survival -= num
    return Fraction(total, 1 << e), 14 * Fraction(3, 4) ** t_max


def _dyadic_numerators(pmf: list[Fraction]) -> tuple[int, Iterator[int]]:
    """(e, each f * 2^e in turn) for dyadic masses whose last has the
    largest denominator 2^e, as f(2t)'s grows with t, to sum in integers."""
    e = pmf[-1].denominator.bit_length() - 1
    return e, (f.numerator << (e + 1 - f.denominator.bit_length()) for f in pmf)


def stationary_distribution(k_max: int) -> dict[int, Fraction]:
    """Exact stationary vector by detailed balance, truncated at k_max.

    Returns ``{k: pi_k}`` for 1 <= k <= k_max.  pi_2 = 2 pi_1,
    pi_3 = (4/3) pi_1, and pi_{k+1} = pi_k / 3 for k >= 3; the
    normalization is pi_1 * (1 + 2 + (4/3) * (3/2)) = 5 pi_1 = 1.  The tail
    beyond k_max is geometric with ratio 1/3, so it holds pi[k_max] / 2 and
    the returned values sum to 1 - pi[k_max] / 2.
    """
    if k_max < 3:
        raise _RangeError(f"k_max must be >= 3, got {k_max}")
    pi1 = 1 / (1 + 2 + Fraction(4, 3) * Fraction(3, 2))
    pi = {1: pi1, 2: 2 * pi1, 3: Fraction(4, 3) * pi1}
    for k in range(4, k_max + 1):
        pi[k] = pi[k - 1] / 3
    return pi


def mean_return_time_stationary() -> Fraction:
    """E[T] = 1 / pi_1 by positive recurrence; an independent oracle.

    Evaluates to exactly 5.  The published claim of 19 is reported beside
    this value (see chain_report), never asserted.
    """
    return 1 / stationary_distribution(3)[1]


def simulate_walk(t: int, seed: int) -> WalkRunStats:
    """Run the walk for ``t`` steps from state 1, counting returns to 1.

    The branch probabilities 1/2 and 3/4 are dyadic, so getrandbits gives
    them exactly.
    """
    if t < 1:
        raise _RangeError(f"step count must be >= 1, got {t}")
    rng = make_rng(seed)
    getrandbits = rng.getrandbits
    k = 1
    n11 = 0
    last_return = 0
    sum_sq = 0
    for s in range(1, t + 1):
        if k == 1:
            k = 2
        elif k == 2:
            if getrandbits(1):
                k = 1
                n11 += 1
                d = s - last_return
                sum_sq += d * d
                last_return = s
            else:
                k = 3
        elif getrandbits(2):
            k -= 1
        else:
            k += 1
    return WalkRunStats(steps=t, n11=n11, final_state=k, last_return=last_return, sum_sq_durations=sum_sq)


# -- identity verification suites -----------------------------------------


def verify_catalan_convolution(t_max: int = 12) -> list[dict]:
    """Exact check of the Catalan i-fold convolution closed form.

    For every 2 <= t <= t_max and 1 <= i <= t-1, the brute-force sum over
    compositions must equal [i/(2t-i-2)] * C(2t-i-2, t-1) as an integer.
    Raises VerificationError naming the first failing (t, i).
    """
    report = []
    for t in range(2, t_max + 1):
        for i in range(1, t):
            lhs = catalan_convolution_brute(t, i)
            rhs = catalan_convolution_closed(t, i)
            ok = rhs == lhs
            report.append({"t": t, "i": i, "value": lhs, "pass": ok})
            if not ok:
                raise VerificationError(
                    f"catalan convolution mismatch at t={t}, i={i}: "
                    f"brute {lhs} vs closed {rhs}",
                    report=report,
                )
    return report


def verify_gould_identity(x_max: int = 60) -> list[dict]:
    """Exact check of sum_{k<=n} C(x+k,k) * (x-k)/(x+k) * 2^(n-k) = C(x+n,n).

    Sweeps all integer pairs 0 <= n < x <= x_max in rational arithmetic.
    The sum is carried from n - 1 to n in Horner form: doubling it doubles
    every 2^(n-k), so lhs(n) = 2 lhs(n-1) + the k = n term.
    """
    report = []
    for x in range(1, x_max + 1):
        lhs = Fraction(0)
        for n in range(0, x):
            rhs = math.comb(x + n, n)
            lhs = 2 * lhs + Fraction(rhs * (x - n), x + n)
            ok = lhs == rhs
            report.append({"x": x, "n": n, "value": rhs, "pass": ok})
            if not ok:
                raise VerificationError(
                    f"binomial sum identity failed at x={x}, n={n}: {lhs} vs {rhs}",
                    report=report,
                )
    return report


# The exact values at x = 3/4 that verify_binomial_series checks its four
# partial sums against.
_SERIES_CLOSED_FORMS = {
    "plain_sum": Fraction(2),  # 1 / sqrt(1 - x)
    "weighted_sum": Fraction(3),  # x / (2 (1 - x)^{3/2})
    "downstream_12": Fraction(12),
    "downstream_6": Fraction(6),
}


def verify_binomial_series(k_max: int = 200) -> dict:
    """Check the central-binomial generating functions at x = 3/4.

    Partial sums of sum k*C(2k,k)*(x/4)^k and sum C(2k,k)*(x/4)^k are
    compared with x / (2(1-x)^{3/2}) = 3 and 1/sqrt(1-x) = 2 within 1e-8
    plus a certified geometric tail bound (term ratio < x).  The two
    downstream sums built from C(2k-1,k) = C(2k,k)/2 --
    8*sum k*(3/16)^k*C(2k-1,k) and 4*(1 + sum_{k>=1} (3/16)^k*C(2k-1,k)) --
    are checked against 12 and 6.
    """
    x = Fraction(3, 4)
    base = x / 4
    s_plain = Fraction(0)
    s_weighted = Fraction(0)
    term = Fraction(1)  # C(0,0) * base^0
    for k in range(0, k_max + 1):
        if k:
            term = term * base * (2 * k) * (2 * k - 1) / (k * k)
        s_plain += term
        s_weighted += k * term
    next_term = term * base * (2 * k_max + 2) * (2 * k_max + 1) / ((k_max + 1) ** 2)
    tail_plain = next_term / (1 - x)
    tail_weighted = next_term * (Fraction(k_max + 1) / (1 - x) + x / (1 - x) ** 2)

    # The downstream constants, built independently from C(2k-1, k).
    d12 = Fraction(0)
    d6 = Fraction(4)  # the k = 0 term of 4 * sum, under C(-1,0) = 1
    for k in range(1, k_max + 1):
        c = math.comb(2 * k - 1, k)
        p = Fraction(3, 16) ** k
        d12 += 8 * k * c * p
        d6 += 4 * c * p

    partials = {
        "plain_sum": (s_plain, tail_plain),
        "weighted_sum": (s_weighted, tail_weighted),
        "downstream_12": (d12, 4 * tail_weighted),
        "downstream_6": (d6, 2 * tail_plain),
    }
    report = {"k_max": k_max, "checks": {}}
    for name, (partial, tail) in partials.items():
        closed = _SERIES_CLOSED_FORMS[name]
        gap = abs(closed - partial)
        ok = gap <= Fraction(1, 10**8) + tail
        report["checks"][name] = {
            "partial": partial,
            "closed": closed,
            "gap": float(gap),
            "tail_bound": float(tail),
            "pass": ok,
        }
        if not ok:
            raise VerificationError(
                f"series check {name} at x={x}: partial {float(partial)} vs "
                f"closed {float(closed)}, gap {float(gap)} > tol+tail",
                report=report,
            )
    return report


# -- reporting --------------------------------------------------------------


def write_chain_csv(rows: list[tuple[int, Fraction, Optional[Fraction]]], out: TextIO) -> None:
    """Exact pmf/CDF table: one row per return-time index t, from
    ``first_return_rows(t_max)``.

    f_* is the validated pmf, f_paper_* the as-published closed form (its
    t = 1 row uses the C(-1,0) = 0 convention; both conventions appear in
    the JSON report), cdf_* is F(2t).
    """
    out.write(CHAIN_CSV_HEADER + "\n")
    e, nums = _dyadic_numerators([f for _, f, _ in rows])
    cdf = 0  # F(2t) times 2^e; 0 < F < 1, so stripping its trailing zero bits reduces it
    for (t, f, fp), num in zip(rows, nums):
        cdf += num
        zeros = (cdf & -cdf).bit_length() - 1
        fp = fp or Fraction(0)
        out.write(
            "%d,%d,%d,%d,%d,%d,%d\n"
            % (t, f.numerator, f.denominator, fp.numerator, fp.denominator,
               cdf >> zeros, 1 << e - zeros)
        )


def _fraction_fields(value: Fraction) -> dict:
    return {"exact": f"{value.numerator}/{value.denominator}", "float": float(value)}


def _decimal_30(value: Fraction) -> str:
    """30-significant-digit decimal rendering of an exact rational."""
    from decimal import Decimal, getcontext

    ctx = getcontext().copy()
    ctx.prec = 30
    return str(ctx.divide(Decimal(value.numerator), Decimal(value.denominator)))


def chain_report(rows: list[tuple[int, Fraction, Optional[Fraction]]], simulate_steps: int, seed: int) -> dict:
    """Full mean-return-time report over ``first_return_rows(t_max)``:
    validated values, published claims, simulation, and the pmf
    discrepancy table."""
    t_max = len(rows)
    series_value, series_tail = mean_return_time_series(max(t_max, 200))
    stationary = mean_return_time_stationary()
    table = [
        {
            "t": t,
            "f_validated": _fraction_fields(validated),
            "f_published": _fraction_fields(published),
            "published_over_validated": _fraction_fields(published / validated),
        }
        for t, validated, published in rows
        if published is not None
    ]

    walk = simulate_walk(simulate_steps, seed)
    rate = walk.n11 / walk.steps
    n = walk.n11
    # Fewer than two returns give no sample variance: both stay None.
    mean_dur = rate_ci99 = None
    if n >= 2:
        mean_dur = walk.last_return / n
        # Sample variance of the durations from exact integer moments.
        var_dur = (n * walk.sum_sq_durations - walk.last_return**2) / (n * (n - 1))
        # Renewal CLT: sd(N/t) ~= sigma / sqrt(t * mu^3).
        rate_se = math.sqrt(var_dur / (walk.steps * mean_dur**3))
        rate_ci99 = [rate - Z99 * rate_se, rate + Z99 * rate_se]

    return {
        "pmf_horizon": t_max,
        "discrepancy_table": table,
        "published_pmf_factor": 4,
        "published_pmf_at_t1": {
            name: _fraction_fields(v) for name, v in published_pmf_t1_conventions().items()
        },
        "mean_return_time": {
            "validated_stationary": _fraction_fields(stationary),
            "series_partial_sum": _fraction_fields(series_value),
            "series_partial_sum_decimal30": _decimal_30(series_value),
            "series_tail_bound": float(series_tail),
            "series_interval": [float(series_value), float(series_value + series_tail)],
            "published_claim": _fraction_fields(PUBLISHED_MEAN_RETURN),
        },
        "simulation": {
            "steps": walk.steps,
            "seed": seed,
            "n11": walk.n11,
            "n11_over_t": rate,
            "rate_ci99": rate_ci99,
            "mean_return_duration": mean_dur,
            "expected_rate_validated": float(1 / stationary),
            "expected_rate_published": float(1 / PUBLISHED_MEAN_RETURN),
        },
        "return_rate_inequality": {
            "statement": "n11/t >= 1/19",
            "threshold": float(Fraction(1, 19)),
            "observed": rate,
            "holds": rate >= 1 / 19,
        },
    }
