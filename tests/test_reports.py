"""The columnar ensemble reports against a plain per-record reference.

The reference functions below walk the records one at a time in Python
ints, the way the reports are defined; the production reports work on
whole columns and must agree with them exactly, float bits included.
"""

import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from olivetable import ensemble
from olivetable.ensemble import (
    ENSEMBLE_CSV_HEADER,
    EnsembleConfig,
    EnsembleStats,
    bounds_check,
    concentration_report,
    plate_move_stats,
    run_ensemble,
    summary_json,
    wilson_upper,
    write_ensemble_csv,
)
from olivetable.process import C_BOUNDS, Z99


def ref_bounds_check(stats):
    lo, hi = C_BOUNDS
    t = stats.config.t
    violations = [int(r["replica"]) for r in stats.records if not (lo * t <= int(r["O"]) <= hi * t)]
    return {
        "lower": str(lo),
        "upper": str(hi),
        "violations": violations[:20],
        "violation_count": len(violations),
        "bounds_pass": not violations,
    }


def ref_moments(stats):
    o_vals = [int(v) for v in stats.records["O"]]
    return len(o_vals), sum(o_vals), sum(o * o for o in o_vals)


def ref_concentration_report(stats):
    n, total, total_sq = ref_moments(stats)
    t = stats.config.t
    o_vals = [int(v) for v in stats.records["O"]]
    rows = []
    for d in stats.config.deltas:
        threshold = Fraction(d) * t * n
        count = sum(1 for o in o_vals if abs(o * n - total) >= threshold)
        rows.append({"delta": d, "exceed_count": count, "freq": count / n, "wilson_hi": wilson_upper(count, n)})
    sd = math.sqrt(float((total_sq - Fraction(total**2, n)) / (n - 1))) if n > 1 else 0.0
    return {"t": t, "R": n, "mean_O": float(Fraction(total, n)), "sd_O": sd, "exceedance": rows}


def ref_plate_move_stats(stats):
    t = stats.config.t
    recs = stats.records
    t_plate = recs["t_plate"]
    tau1 = recs["tau1"]
    removal_ok = True
    removal_min = None
    for Li, mi in zip(recs["L_ge3"], recs["plate_moves_ge3"]):
        if mi == 0:
            continue
        frac = Li / mi
        removal_min = frac if removal_min is None else min(removal_min, frac)
        if frac < 0.75 - 4 * math.sqrt(0.75 * 0.25 / mi):
            removal_ok = False
    pooled_moves = sum(int(m) for m in recs["plate_moves_ge3"])
    pooled_removals = sum(int(x) for x in recs["L_ge3"])
    return {
        "t": t,
        "R": stats.n,
        "plate_move_ratio_min": float(t_plate.min()) / t,
        "plate_move_ratio_mean": float(t_plate.mean()) / t,
        "plate_move_ratio_ok": all(int(v) * 10 >= 3 * t for v in t_plate),
        "tau1_min": int(tau1.min()),
        "tau1_over_t_min": float(tau1.min()) / t,
        "tau1_threshold": t / 76,
        "tau1_ok": all(int(v) * 76 >= t for v in tau1),
        "two_to_one_rate_mean": float(recs["two_to_one"].mean()) / t,
        "removal_fraction_pooled": (pooled_removals / pooled_moves) if pooled_moves else None,
        "removal_fraction_min": removal_min,
        "removal_fraction_ok": removal_ok,
        "tau1_counts_initial_entry": True,
        "returns_excluding_initial_min": int(recs["two_to_one"].min()),
    }


def ref_estimates(stats):
    n, total, total_sq = ref_moments(stats)
    t = stats.config.t
    mean_o = Fraction(total, n)
    ratio = float(mean_o / t)
    if n > 1:
        var = (total_sq - Fraction(total**2, n)) / (n - 1)
        half = Z99 * (math.sqrt(float(var) / n) / t)
        ci_low, ci_high = ratio - half, ratio + half
    else:
        ci_low = ci_high = None  # no CI from one replica
    return {"mean_O": float(mean_o), "ratio": ratio, "ci_low": ci_low, "ci_high": ci_high, "c_hat": ratio}


def ref_summary_json(stats):
    conc = ref_concentration_report(stats)
    pms = ref_plate_move_stats(stats)
    bc = ref_bounds_check(stats)
    max_other = max(int(v) for v in stats.records["max_other_olives"])
    t = stats.config.t
    return {
        "config": stats.config.as_dict(),
        "estimates": ref_estimates(stats),
        "checks": {
            "bounds_pass": bc["bounds_pass"],
            "bounds_violations": bc["violation_count"],
            "tau1_pass": pms["tau1_ok"],
            "removal_fraction": pms["removal_fraction_pooled"],
            "sd": conc["sd_O"],
            "exceedance": [
                {"delta": r["delta"], "freq": r["freq"], "wilson_hi": r["wilson_hi"]} for r in conc["exceedance"]
            ],
            "max_other": max_other,
            "B_fit": max_other / math.log(t) if t > 1 else None,
        },
    }


def ref_csv(stats):
    out = io.StringIO()
    out.write(ENSEMBLE_CSV_HEADER + "\n")
    for r in stats.records:
        out.write(",".join(str(int(r[name])) for name in stats.records.dtype.names) + "\n")
    return out.getvalue()


def _same(a, b):
    """Equal documents, float bits and JSON types included."""
    return json.dumps(a, sort_keys=True, allow_nan=False) == json.dumps(b, sort_keys=True, allow_nan=False)


def _with_deltas(stats, deltas):
    return EnsembleStats(dataclasses.replace(stats.config, deltas=deltas), stats.records)


CASES = {
    "t12_default": EnsembleConfig(t=12, replicas=400, master_seed=2),
    # thresholds from 0.001 * t, below one olive, up to t
    "t300_tight": EnsembleConfig(t=300, replicas=60, master_seed=4, deltas=(0.001, 0.03, 1.0)),
    "t2000": EnsembleConfig(t=2000, replicas=12, master_seed=99),
    "t12_single": EnsembleConfig(t=12, replicas=1, master_seed=8),
    "t500_single": EnsembleConfig(t=500, replicas=1, master_seed=8),
    # the first move adds a plate, so O_1 = 0: every replica is below the band
    "t1_band": EnsembleConfig(t=1, replicas=5, master_seed=3),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def stats(request):
    return run_ensemble(CASES[request.param], threads=1)


def test_cases_cover_the_edge_cases():
    by_name = {name: run_ensemble(config, threads=1) for name, config in CASES.items()}
    assert ref_bounds_check(by_name["t12_default"])["violation_count"] > 20
    assert ref_bounds_check(by_name["t2000"])["violation_count"] == 0
    assert ref_bounds_check(by_name["t1_band"])["violation_count"] == by_name["t1_band"].n
    moves = by_name["t12_default"].records["plate_moves_ge3"]
    assert (moves == 0).any() and (moves > 0).any()
    assert (by_name["t12_single"].records["plate_moves_ge3"] == 0).all()
    assert by_name["t500_single"].n == 1


def test_bounds_check_matches_reference(stats):
    assert _same(bounds_check(stats), ref_bounds_check(stats))


def test_concentration_report_matches_reference(stats):
    assert _same(concentration_report(stats), ref_concentration_report(stats))
    other = _with_deltas(stats, (0.0001, 0.5))
    assert _same(concentration_report(other), ref_concentration_report(other))


def test_plate_move_stats_matches_reference(stats):
    assert _same(plate_move_stats(stats), ref_plate_move_stats(stats))


def test_summary_json_matches_reference(stats):
    assert _same(summary_json(stats), ref_summary_json(stats))


def test_csv_matches_reference(stats):
    out = io.StringIO()
    write_ensemble_csv(stats, out)
    assert out.getvalue() == ref_csv(stats)


def test_csv_blocks_join_seamlessly(monkeypatch):
    stats = run_ensemble(CASES["t12_default"], threads=1)
    monkeypatch.setattr(ensemble, "_CSV_BLOCK_ROWS", 7)  # 400 rows: 57 full blocks and a partial one
    out = io.StringIO()
    write_ensemble_csv(stats, out)
    assert out.getvalue() == ref_csv(stats)


def test_bounds_check_lists_first_twenty_in_replica_order():
    stats = run_ensemble(CASES["t12_default"], threads=1)
    report = bounds_check(stats)
    assert report["violations"] == sorted(report["violations"])
    assert len(report["violations"]) == 20
    assert not report["bounds_pass"]


def test_reports_read_the_exact_sums():
    # Squares of O near 2^32 overflow nothing: the sums are Python ints.
    stats = run_ensemble(CASES["t12_default"], threads=1)
    big = 3 * 2**31
    stats.records["O"] += big
    assert ref_moments(stats)[2] > np.iinfo(np.int64).max
    assert _same(concentration_report(stats), ref_concentration_report(stats))
    assert _same(summary_json(stats)["estimates"], ref_estimates(stats))


def test_exceedance_counts_the_boundary():
    # |O - mean| == delta * t for every replica: ">=" counts them all.
    stats = _with_deltas(run_ensemble(CASES["t12_default"], threads=1), (0.25,))
    stats.records["O"] = np.resize([0, 6], stats.n)
    report = concentration_report(stats)
    assert report["exceedance"][0]["exceed_count"] == stats.n
    assert _same(report, ref_concentration_report(stats))
