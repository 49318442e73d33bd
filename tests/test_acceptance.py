"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every statistical
criterion uses a pinned master seed, so outcomes are deterministic; the
heavy ensembles are shared through module fixtures.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from olivetable import (
    EnsembleConfig,
    chain,
    enumerate_chain_paths,
    ensemble,
    exact_expected_olives,
    first_return_pmf_closed,
    first_return_pmf_convolution,
    first_return_pmf_dp,
    mean_return_time_series,
    mean_return_time_stationary,
    oracle,
    process,
    published_first_return_pmf,
    run_ensemble,
    simulate_walk,
)
from olivetable.ensemble import (
    summary_json,
    sweep,
    wilson_upper,
    write_ensemble_csv,
)
from olivetable.rng import derive_seed

T_LARGE = 100_000
R_LARGE = 1_000
MASTER_SEED = 20260810


def _report(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {detail}")


CONFIG_1E5 = EnsembleConfig(t=T_LARGE, replicas=R_LARGE, master_seed=MASTER_SEED)


@pytest.fixture(scope="module")
def records_1e5():
    """Shared t=1e5, R=1e3 ensemble for criteria 8 and 9."""
    return run_ensemble(CONFIG_1E5)


def test_criterion_01_pmf_triple_agreement():
    start = time.perf_counter()
    dp = first_return_pmf_dp(30)
    assert first_return_pmf_closed(30) == dp, "closed != DP"
    for t in range(2, 31):
        assert first_return_pmf_convolution(t) == dp.get(2 * t, 0), f"conv != DP at t={t}"
    enum = enumerate_chain_paths(10)
    for t in range(1, 11):
        assert enum.get(2 * t, 0) == dp.get(2 * t, 0), f"paths != DP at t={t}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"DP = closed = convolution (t <= 30) = path enumeration (t <= 10), {elapsed:.2f}s")


def test_criterion_02_discrepancy_documentation():
    start = time.perf_counter()
    closed = first_return_pmf_closed(30)
    for t in range(2, 31):
        ratio = published_first_return_pmf(t) / closed[2 * t]
        assert ratio == 4, f"published/validated != 4 at t={t}"
    value, tail = mean_return_time_series(200)
    stationary = mean_return_time_stationary()
    assert tail < Fraction(1, 10**15)
    assert value <= stationary <= value + tail
    report = chain.chain_report(chain.first_return_rows(10), simulate_steps=10_000, seed=MASTER_SEED)
    mrt = report["mean_return_time"]
    assert mrt["published_claim"]["exact"] == "19/1"
    assert mrt["validated_stationary"]["exact"] == "5/1"
    assert mrt["series_interval"][0] <= 5.0 <= mrt["series_interval"][1]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        2,
        f"published pmf = 4 x validated (t <= 30); report shows 19 beside 5 and the "
        f"series interval width {float(tail):.2e} < 1e-15, {elapsed:.2f}s",
    )


def test_criterion_03_ergodic_check():
    start = time.perf_counter()
    steps = 10_000_000
    walk = simulate_walk(steps, seed=MASTER_SEED)
    rate = walk.n11 / steps
    target = 1 / float(mean_return_time_stationary())
    assert abs(rate - target) <= 0.005, f"N11/t = {rate} vs 1/T = {target}"
    assert rate >= 1 / 19
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"N11/t = {rate:.6f} within 0.005 of 1/5 and >= 1/19 at t = 1e7, {elapsed:.2f}s")


def test_criterion_04_identity_suite():
    start = time.perf_counter()
    conv_report = chain.verify_catalan_convolution(12)
    assert all(row["pass"] for row in conv_report)
    gould_report = chain.verify_gould_identity(60)
    assert all(row["pass"] for row in gould_report)
    series_report = chain.verify_binomial_series(k_max=200)
    checks = series_report["checks"]
    assert checks["downstream_12"]["closed"] == 12 and checks["downstream_12"]["pass"]
    assert checks["downstream_6"]["closed"] == 6 and checks["downstream_6"]["pass"]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        4,
        f"catalan convolution (t <= 12), binomial partial-sum identity (x <= 60), "
        f"series values 12 and 6 at k_max = 200, {elapsed:.2f}s",
    )


def test_criterion_05_oracle_vs_monte_carlo():
    start = time.perf_counter()
    assert exact_expected_olives(2) == Fraction(1, 2)
    assert exact_expected_olives(3) == Fraction(3, 4)
    exact12 = exact_expected_olives(12)
    config = EnsembleConfig(t=12, replicas=1_000_000, master_seed=MASTER_SEED)
    est = ensemble._stats_estimate(ensemble._olive_moments(run_ensemble(config)["O"]), 12)
    mc_mean = Fraction(est["mean_O_exact"])
    se = est["sd_O"] / math.sqrt(est["n"])
    dev = abs(float(mc_mean - exact12))
    assert dev <= 4 * se, f"|MC - exact| = {dev} > 4 se = {4 * se}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        5,
        f"E(O_12) = {float(exact12):.6f} exact; MC mean {float(mc_mean):.6f} "
        f"within {dev / se:.2f} se over 1e6 replicas, {elapsed:.2f}s",
    )


def test_criterion_06_linear_bounds_every_replica():
    # Reduced scale for a pure-Python build, per the criterion's alternate.
    start = time.perf_counter()
    t, r = 10_000, 300
    records = run_ensemble(EnsembleConfig(t=t, replicas=r, master_seed=MASTER_SEED))
    lo, hi = Fraction(1, 342), Fraction(2, 3)
    o_vals = [int(v) for v in records["O"]]
    assert all(lo * t <= o <= hi * t for o in o_vals)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(
        6,
        f"O/t in [1/342, 2/3] for every one of {r} replicas at t = 1e4 "
        f"(min {min(o_vals) / t:.4f}, max {max(o_vals) / t:.4f}), {elapsed:.2f}s",
    )


def test_criterion_07_linearity_constant():
    report = sweep([10_000, 100_000], replicas=200, master_seed=MASTER_SEED)[0]
    ratios = [row["ratio"] for row in report["rows"]]
    for ratio in ratios:
        assert 0.085 <= ratio <= 0.107, f"ratio {ratio} outside the c band"
    diff = abs(ratios[0] - ratios[1])
    assert diff < 0.01
    _report(
        7,
        f"mean O/t = {ratios[0]:.5f} (t=1e4) and {ratios[1]:.5f} (t=1e5), "
        f"difference {diff:.5f} < 0.01, both in [0.085, 0.107]",
    )


def test_criterion_08_concentration_proxy(records_1e5):
    checks = summary_json(CONFIG_1E5, records_1e5)["checks"]
    sd = checks["sd"]
    assert sd < T_LARGE**0.75, f"sd {sd} vs t^0.75 = {T_LARGE ** 0.75:.0f}"
    row = next(r for r in checks["exceedance"] if r["delta"] == 0.05)
    assert row["freq"] == 0  # freq is count / R, so zero exactly when the count is
    assert row["wilson_hi"] < 0.01
    assert wilson_upper(0, R_LARGE) < 0.01
    _report(
        8,
        f"sd(O) = {sd:.1f} < t^0.75 = {T_LARGE ** 0.75:.0f}; exceedance at "
        f"delta=0.05 is 0/{R_LARGE} (Wilson hi {row['wilson_hi']:.4f})",
    )


def test_criterion_09_structural_diagnostics(records_1e5):
    recs = records_1e5
    tau1_min = int(recs["tau1"].min())
    plate_ratio_min = float(recs["t_plate"].min()) / T_LARGE
    counted = recs["plate_moves_ge3"] > 0
    moves = recs["plate_moves_ge3"][counted]
    fracs = recs["L_ge3"][counted] / moves
    assert summary_json(CONFIG_1E5, recs)["checks"]["tau1_pass"], f"tau1 min {tau1_min} < t/76 = {T_LARGE / 76:.0f}"
    assert (recs["t_plate"] * 10 >= 3 * T_LARGE).all(), f"t_plate/t min {plate_ratio_min}"
    assert (fracs >= 0.75 - 4 * np.sqrt(3 / 16 / moves)).all(), f"removal min {fracs.min()}"
    _report(
        9,
        f"every replica: tau1 >= t/76 (min {tau1_min}), t_plate/t >= 0.30 "
        f"(min {plate_ratio_min:.4f}), removal fraction at l >= 3 "
        f">= 3/4 - 4se (min {fracs.min():.4f})",
    )


def test_criterion_10_log_growth_proxy():
    report = sweep([10_000, 1_000_000], replicas=50, master_seed=MASTER_SEED)[1]
    for row in report["rows"]:
        assert row["max_other"] <= 50 * math.log(row["t"]), row
    ratio = report["growth_ratio"]
    assert ratio < 2.0, f"max grew by {ratio}"
    maxima = {row["t"]: row["max_other"] for row in report["rows"]}
    _report(
        10,
        f"max non-first-plate olives {maxima[10_000]} (t=1e4) -> {maxima[1_000_000]} "
        f"(t=1e6), growth {ratio:.2f} < 2.0, both under 50 ln t",
    )


def test_criterion_11_engineering_invariants():
    # (a) The conservation law asserted at every step of 100 trajectories,
    # which are the ensemble's replicas row for row.
    config = EnsembleConfig(t=T_LARGE, replicas=100, master_seed=MASTER_SEED + 1)
    checked = run_ensemble(config)
    assert len(checked) == 100
    for i, row in enumerate(checked.tolist()):
        seed = derive_seed(config.master_seed, i)
        s = process.run_trajectory(T_LARGE, seed, check_identity=True).final_state
        returns = s.num_returns
        assert row == (
            i, seed, s.total_olives, s.c_add_plate + s.c_merge, returns + 1, returns, s.max_other_olives,
            s.first_plate_olives, s.c_merge - returns, s.plate_moves_at_ge3,
        ), i

    # (b) Each replica re-run alone gives its row of the full run, so the
    # single-replica runs, concatenated in replica order, are the full run.
    small = EnsembleConfig(t=500, replicas=10, master_seed=3)
    full = run_ensemble(small)
    parts = [run_ensemble(small, replica_range=(i, i + 1)) for i in range(10)]
    assert np.concatenate(parts).tobytes() == full.tobytes()

    # (c) Identical seeds give byte-identical outputs.
    import io

    rerun = run_ensemble(config)
    a, b = io.StringIO(), io.StringIO()
    write_ensemble_csv(checked, a)
    write_ensemble_csv(rerun, b)
    assert a.getvalue() == b.getvalue()
    _report(
        11,
        "conservation law held at all 1e7 steps; single-replica reruns concatenate "
        "to the full run; reruns byte-identical",
    )
