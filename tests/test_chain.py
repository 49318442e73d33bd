import io
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from olivetable import chain, oracle
from olivetable.chain import (
    CHAIN_CSV_HEADER,
    VerificationError,
    catalan,
    chain_report,
    first_return_pmf_closed,
    first_return_pmf_convolution,
    first_return_pmf_dp,
    first_return_rows,
    mean_return_time_series,
    mean_return_time_stationary,
    published_first_return_pmf,
    published_pmf_t1_conventions,
    simulate_walk,
    stationary_distribution,
    verify_binomial_series,
    verify_catalan_convolution,
    verify_gould_identity,
    write_chain_csv,
)
from olivetable.process import Z99
from olivetable.verification import _assert_return_pmf, _assert_stationary
from olivetable.rng import make_rng


def test_catalan_small_values():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(10) == 16796
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_matches_convolution_recurrence():
    values = [1]
    for n in range(40):
        values.append(sum(values[i] * values[n - i] for i in range(n + 1)))
    assert all(catalan(k) == v for k, v in enumerate(values))


def _recording_walk(t, seed):
    """Reference walk that keeps every return duration in a list.

    Returns (durations, final_state); ``simulate_walk`` must agree with it
    on the same seed while keeping only integer moments.
    """
    getrandbits = make_rng(seed).getrandbits
    k = 1
    last_return = 0
    durations = []
    for s in range(1, t + 1):
        if k == 1:
            k = 2
        elif k == 2:
            if getrandbits(1):
                k = 1
                durations.append(s - last_return)
                last_return = s
            else:
                k = 3
        elif getrandbits(2):
            k -= 1
        else:
            k += 1
    return durations, k


def _two_pass_rate_ci99(durations, steps):
    """rate_ci99 from the recorded durations by two-pass float moments."""
    mean = sum(durations) / len(durations)
    var = sum((d - mean) ** 2 for d in durations) / (len(durations) - 1)
    rate = len(durations) / steps
    half = Z99 * math.sqrt(var / (steps * mean**3))
    return [rate - half, rate + half]


@pytest.mark.parametrize("t", [1, 2, 4, 9, 1000, 200_000])
def test_simulate_walk_matches_recording_reference(t):
    seeds = range(24) if t <= 1000 else (1, 2)
    returns_seen = set()
    for seed in seeds:
        durations, final_state = _recording_walk(t, seed)
        stats = simulate_walk(t, seed)
        assert stats.steps == t
        assert (stats.n11, stats.final_state) == (len(durations), final_state)
        assert stats.last_return == sum(durations)
        assert stats.sum_sq_durations == sum(d * d for d in durations)
        returns_seen.add(len(durations))
    if t <= 4:
        # t = 1, 2, 4 reach every return count 0..t/2; two returns by t = 4
        # are the durations (2, 2), a sample with zero variance.
        assert returns_seen == set(range(t // 2 + 1))


@pytest.mark.parametrize("t,seeds", [(2, range(4)), (4, range(16)), (9, range(8)), (200_000, (1, 2))])
def test_chain_report_matches_recorded_durations(t, seeds):
    rows = first_return_rows(2)
    zero_variance = False
    for seed in seeds:
        durations, _ = _recording_walk(t, seed)
        sim = chain_report(rows, t, seed)["simulation"]
        if len(durations) < 2:
            assert sim["mean_return_duration"] is None and sim["rate_ci99"] is None
            continue
        assert sim["mean_return_duration"] == sum(durations) / len(durations)
        expected = _two_pass_rate_ci99(durations, t)
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(sim["rate_ci99"], expected))
        zero_variance |= len(set(durations)) == 1
    if t == 4:
        assert zero_variance


def test_walk_kernel_transition_law():
    # After three moves from 1 the walk is at (n11, state) = (1, 2) with
    # probability 1/2 (2 -> 1 at 1/2), (0, 2) with 3/8 (3 -> 2 at 3/4) and
    # (0, 4) with 1/8: the forced 1 -> 2 move and both coin branches.
    n = 40_000
    counts = Counter((w.n11, w.final_state) for w in (simulate_walk(3, seed=s) for s in range(n)))
    assert set(counts) == {(1, 2), (0, 2), (0, 4)}
    for key, p in {(1, 2): 0.5, (0, 2): 0.375, (0, 4): 0.125}.items():
        assert abs(counts[key] - n * p) <= 5 * math.sqrt(n * p * (1 - p)), (key, counts[key])
    assert all(simulate_walk(1, seed=s).final_state == 2 for s in range(20))


@pytest.fixture(scope="module")
def million_returns():
    stats = simulate_walk(5_500_000, seed=606)
    assert stats.n11 >= 1_000_000
    return stats


def test_walk_return_moments_cover_the_validated_pmf(million_returns):
    # E[D^2] = 49 from the validated pmf: the partial sum of (2j)^2 f(2j)
    # plus a certified tail.  f(2j) <= (1/2)(3/4)^(j-1), so the neglected
    # terms are at most 2 j^2 (3/4)^(j-1), whose ratio for j > J is at most
    # q = (3/4)((J+2)/(J+1))^2 < 1.
    J = 200
    partial = sum(k * k * p for k, p in first_return_pmf_closed(J).items())
    q = Fraction(3, 4) * Fraction(J + 2, J + 1) ** 2
    tail = 2 * (J + 1) ** 2 * Fraction(3, 4) ** J / (1 - q)
    assert partial <= 49 <= partial + tail
    assert tail < Fraction(1, 10**15)
    var_d = 49 - mean_return_time_stationary() ** 2
    assert var_d == 24

    # 99% CIs from the walk's exact integer moments.
    n = million_returns.n11
    total, total_sq = million_returns.last_return, million_returns.sum_sq_durations
    mean = total / n
    var = (n * total_sq - total**2) / (n * (n - 1))
    half_mean = Z99 * math.sqrt(var / n)
    assert mean - half_mean <= 5 <= mean + half_mean, (mean, half_mean)
    # The sample variance has sd sqrt((mu4 - Var^2) / n); mu4 = E[(D-5)^4]
    # from the validated pmf (the neglected tail is far below float).
    mu4 = float(sum((k - 5) ** 4 * p for k, p in first_return_pmf_closed(400).items()))
    half_var = Z99 * math.sqrt((mu4 - 24**2) / n)
    assert var - half_var <= 24 <= var + half_var, (var, half_var)


def test_dp_pmf_hand_values():
    pmf = first_return_pmf_dp(10)
    _assert_return_pmf(pmf, 20)
    assert pmf.get(2, 0) == Fraction(1, 2)
    assert pmf.get(4, 0) == Fraction(3, 16)   # the single path 1-2-3-2-1
    assert pmf.get(6, 0) == Fraction(27, 256)  # 9/128 + 9/256
    assert Fraction(9, 128) + Fraction(9, 256) == Fraction(27, 256)
    assert pmf.get(3, 0) == 0 and pmf.get(5, 0) == 0  # parity
    assert all(t % 2 == 0 for t in pmf)


def test_walk_law_lists_m_moves_from_every_state():
    # The law the DP hands the exact engine: its ks sum to M from every
    # state, one way each to 1 and 3 from 2, three down and one up above.
    for k in range(2, 200):
        out = {}
        chain._walk_moves(k, 5, out)
        m = 2 if k == 2 else 4
        assert chain._walk_num_moves(k) == m, k
        assert out == ({1: 5, 3: 5} if k == 2 else {k - 1: 15, k + 1: 5}), k
        assert sum(out.values()) == 5 * m, k


def test_dp_conserves_mass_on_the_exact_engine(monkeypatch):
    # After every step of the DP, the numerators still on the walk plus the
    # mass already absorbed at state 1 make up exactly den.
    steps = []
    engine = chain._advance

    def spy(*args):
        dist, den, work = engine(*args)
        steps.append((args[2], sum(dist.values()), dist.get(1, 0), den))
        return dist, den, work

    monkeypatch.setattr(chain, "_advance", spy)
    for t_max in range(1, 61):
        steps.clear()
        pmf = first_return_pmf_dp(t_max)
        assert [s for s, *_ in steps] == list(range(2, 2 * t_max + 1)), t_max
        absorbed = Fraction(0)
        for s, total, back, den in steps:
            absorbed += pmf.get(s, 0)
            assert Fraction(back, den) == pmf.get(s, 0), (t_max, s)
            assert total - back + absorbed * den == den, (t_max, s)


def _closed_form_at(t):
    """f(2t) = (3/16)^(t-1) C(2t-3, t-1), 1/2 at t = 1, evaluated on its own."""
    return Fraction(1, 2) if t == 1 else Fraction(3, 16) ** (t - 1) * math.comb(2 * t - 3, t - 1)


def test_closed_form_matches_dp_exactly():
    pmf = first_return_pmf_closed(400)
    assert list(pmf) == [2 * t for t in range(1, 401)]
    for t in range(1, 401):
        assert pmf[2 * t] == _closed_form_at(t), t
    assert first_return_pmf_closed(30) == first_return_pmf_dp(30)
    assert first_return_pmf_closed(60) == first_return_pmf_dp(60)
    assert first_return_pmf_closed(10) == oracle.enumerate_chain_paths(10)
    assert first_return_pmf_closed(1) == {2: Fraction(1, 2)}
    with pytest.raises(ValueError, match="^t_max must be >= 1, got 0$"):
        first_return_pmf_closed(0)


def test_convolution_matches_dp_exactly():
    pmf = first_return_pmf_dp(30)
    for t in range(2, 31):
        assert first_return_pmf_convolution(t) == pmf.get(2 * t, 0), t
    with pytest.raises(ValueError):
        first_return_pmf_convolution(1)


def test_published_form_is_exactly_four_times_validated():
    assert published_first_return_pmf(2) == Fraction(3, 4)
    assert published_first_return_pmf(3) == Fraction(27, 64)
    closed = first_return_pmf_closed(30)
    for t in range(2, 31):
        assert published_first_return_pmf(t) == 4 * closed[2 * t]
    with pytest.raises(ValueError):
        published_first_return_pmf(1)
    conventions = published_pmf_t1_conventions()
    assert set(conventions.values()) == {Fraction(0), Fraction(4)}


def _cdf(pmf, t):
    """F(t) = Pr(T <= t), a partial sum of the pmf dict."""
    return sum((p for k, p in pmf.items() if k <= t), Fraction(0))


def test_cdf_values_and_monotonicity():
    pmf = first_return_pmf_closed(200)
    assert _cdf(pmf, 0) == 0
    assert _cdf(pmf, 1) == 0
    assert _cdf(pmf, 2) == Fraction(1, 2)
    assert _cdf(pmf, 3) == Fraction(1, 2)
    assert _cdf(pmf, 6) == Fraction(203, 256)
    values = [_cdf(pmf, t) for t in range(0, 60)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] < 1
    # F(2T) + analytic tail >= 1 certifies normalization.
    assert _cdf(pmf, 400) + 2 * Fraction(3, 4) ** 200 >= 1


def test_mean_return_series_and_stationary_agree():
    value, tail = mean_return_time_series(200)
    stationary = mean_return_time_stationary()
    assert stationary == 5
    assert value <= stationary <= value + tail
    assert tail < Fraction(1, 10**15)
    # Leading terms Pr(T >= 1) + Pr(T >= 2) contribute exactly 2.
    small_value, _ = mean_return_time_series(2)
    pmf = first_return_pmf_closed(2)
    assert small_value == 2 + (1 - _cdf(pmf, 2)) + (1 - _cdf(pmf, 3)) + (1 - _cdf(pmf, 4))
    # Independent partial check: E[T] = sum 2t * f(2t) from below.
    direct = sum(k * p for k, p in first_return_pmf_closed(200).items())
    assert direct < 5
    assert 5 - direct < Fraction(1, 10**10)


def test_digit_bound_follows_the_int_str_limit():
    # The series numerator, the longest exact string, has 640 digits at
    # t_max = 532, 641 at 533, 4300 at 3573 and 4301 at 3574.
    digits = {t: len(str(mean_return_time_series(t)[0].numerator)) for t in (532, 533)}
    assert digits == {532: 640, 533: 641}
    limit = sys.get_int_max_str_digits()
    try:
        for new_limit, bound in ((640, 532), (641, 533), (4300, 3573), (4301, 3574), (0, math.inf)):
            sys.set_int_max_str_digits(new_limit)
            assert chain._t_max_digits_bound() == bound, new_limit
    finally:
        sys.set_int_max_str_digits(limit)


def test_stationary_distribution_structure():
    pi = stationary_distribution(40)
    _assert_stationary(pi, 40)
    assert pi[1] == Fraction(1, 5)
    assert pi[2] == 2 * pi[1]
    assert pi[3] == Fraction(4, 3) * pi[1]
    assert pi[10] == pi[3] / 3**7
    assert pi[1] * (1 + 2 + Fraction(4, 3) * Fraction(3, 2)) == 1
    with pytest.raises(ValueError):
        stationary_distribution(2)


def test_simulate_walk_basics():
    stats = simulate_walk(2, seed=3)
    assert stats.n11 in (0, 1)
    n = 40_000
    hits = sum(simulate_walk(2, seed=s).n11 for s in range(n))
    assert abs(hits - n / 2) <= 5 * math.sqrt(n * 0.25)

    long = simulate_walk(300_000, seed=9)
    assert long.n11 <= long.steps // 2
    # Durations are even, so their sum is too and each square is 0 mod 4.
    assert long.last_return % 2 == 0 and long.sum_sq_durations % 4 == 0
    assert long.last_return <= long.steps
    assert (long.final_state - 1 - long.steps) % 2 == 0
    rate = long.n11 / long.steps
    assert abs(rate - 0.2) < 0.01  # ergodic limit 1/5
    assert rate >= 1 / 19  # the a fortiori inequality
    mean_dur = long.last_return / long.n11
    assert abs(mean_dur - 5) < 0.15


def test_walk_determinism():
    a = simulate_walk(10_000, seed=4)
    b = simulate_walk(10_000, seed=4)
    assert a == b
    assert a != simulate_walk(10_000, seed=5)


def test_ergodic_mean_duration_over_a_million_returns(million_returns):
    # The empirical mean return duration over >= 1e6 completed returns must
    # cover the stationary oracle's value within its own 99% CI.
    n = million_returns.n11
    mean = million_returns.last_return / n
    var = million_returns.sum_sq_durations / n - mean * mean
    half = Z99 * math.sqrt(var / n)
    target = float(mean_return_time_stationary())
    assert mean - half <= target <= mean + half, (mean, half)


def test_verify_catalan_convolution_rows():
    report = verify_catalan_convolution(12)
    assert all(row["pass"] for row in report)
    by_key = {(row["t"], row["i"]): row["value"] for row in report}
    assert by_key[(2, 1)] == 1
    assert by_key[(3, 2)] == 1
    assert by_key[(4, 1)] == catalan(2) == 2
    # t - 1 compositions per t: sum over i of C(t-2, i-1) rows exist.
    assert len(report) == sum(t - 1 for t in range(2, 13))


def test_verify_catalan_convolution_detects_mutation(monkeypatch):
    monkeypatch.setattr(
        chain, "catalan_convolution_closed", lambda t, i: Fraction(999)
    )
    with pytest.raises(VerificationError, match=r"t=2, i=1"):
        chain.verify_catalan_convolution(4)


def test_verify_gould_identity():
    report = verify_gould_identity(25)
    assert all(row["pass"] for row in report)
    row = next(r for r in report if r["x"] == 3 and r["n"] == 2)
    assert row["value"] == 10  # 4 + 4 + 2 = C(5, 2)
    assert any(r["n"] == 0 for r in report)


def test_verify_binomial_series_at_three_quarters():
    report = verify_binomial_series(k_max=200)
    checks = report["checks"]
    assert checks["plain_sum"]["closed"] == Fraction(2)
    assert checks["weighted_sum"]["closed"] == Fraction(3)
    assert checks["downstream_12"]["closed"] == Fraction(12)
    assert checks["downstream_6"]["closed"] == Fraction(6)
    assert all(c["pass"] for c in checks.values())
    assert all(c["tail_bound"] < 1e-20 for c in checks.values())


def test_verify_binomial_series_flags_bad_closed_form(monkeypatch):
    wrong = {**chain._SERIES_CLOSED_FORMS, "weighted_sum": Fraction(3) + Fraction(1, 10**6)}
    monkeypatch.setattr(chain, "_SERIES_CLOSED_FORMS", wrong)
    with pytest.raises(VerificationError) as caught:
        chain.verify_binomial_series(k_max=50)
    checks = caught.value.report["checks"]
    assert checks["plain_sum"]["pass"]
    assert checks["weighted_sum"]["closed"] == wrong["weighted_sum"]
    assert not checks["weighted_sum"]["pass"]


def test_chain_csv_schema():
    buf = io.StringIO()
    write_chain_csv(first_return_rows(4), buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == CHAIN_CSV_HEADER
    assert lines[1] == "1,1,2,0,1,1,2"       # f = 1/2, published undefined -> 0/1, F(2) = 1/2
    assert lines[2] == "2,3,16,3,4,11,16"    # f = 3/16, published 3/4, F(4) = 11/16
    assert lines[3].startswith("3,27,256,27,64,")
    assert lines[5] == ""
    assert "\r" not in buf.getvalue()


def test_chain_report_contents():
    report = chain_report(first_return_rows(10), simulate_steps=200_000, seed=5)
    mrt = report["mean_return_time"]
    assert mrt["validated_stationary"]["exact"] == "5/1"
    assert mrt["published_claim"]["exact"] == "19/1"
    assert mrt["series_tail_bound"] < 1e-15
    lo, hi = mrt["series_interval"]
    assert lo <= 5.0 <= hi
    assert all(row["published_over_validated"]["exact"] == "4/1" for row in report["discrepancy_table"])
    sim = report["simulation"]
    assert abs(sim["n11_over_t"] - 0.2) < 0.01
    assert report["return_rate_inequality"]["holds"] is True
    ci_lo, ci_hi = sim["rate_ci99"]
    assert ci_lo <= sim["n11_over_t"] <= ci_hi
    conventions = report["published_pmf_at_t1"]
    assert {v["exact"] for v in conventions.values()} == {"0/1", "4/1"}
    with pytest.raises(ValueError, match="^t_max must be >= 2, got 1$"):
        first_return_rows(1)
    with pytest.raises(ValueError, match="^t_max must be <= 3573, got 3574: "):
        first_return_rows(3574)
