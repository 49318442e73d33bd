"""The columnar ensemble summary and CSV against a plain per-record reference.

The reference functions below walk the records one at a time in Python
ints, the way the summary is defined; the production summary works on
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
    run_ensemble,
    summary_json,
    wilson_upper,
    write_ensemble_csv,
)
from olivetable.process import C_BOUNDS, Z99


def ref_violations(stats):
    lo, hi = C_BOUNDS
    t = stats.config.t
    return sum(1 for r in stats.records if not (lo * t <= int(r["O"]) <= hi * t))


def ref_moments(stats):
    o_vals = [int(v) for v in stats.records["O"]]
    return len(o_vals), sum(o_vals), sum(o * o for o in o_vals)


def ref_exceedance(stats):
    n, total, _ = ref_moments(stats)
    t = stats.config.t
    rows = []
    for d in stats.config.deltas:
        threshold = Fraction(d) * t * n
        count = sum(1 for r in stats.records if abs(int(r["O"]) * n - total) >= threshold)
        rows.append({"delta": d, "freq": count / n, "wilson_hi": wilson_upper(count, n)})
    return rows


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
    n, total, total_sq = ref_moments(stats)
    t = stats.config.t
    recs = stats.records
    violations = ref_violations(stats)
    pooled_moves = sum(int(m) for m in recs["plate_moves_ge3"])
    pooled_removals = sum(int(x) for x in recs["L_ge3"])
    max_other = max(int(v) for v in recs["max_other_olives"])
    return {
        "config": stats.config.as_dict(),
        "estimates": ref_estimates(stats),
        "checks": {
            "bounds_pass": violations == 0,
            "bounds_violations": violations,
            "tau1_pass": all(int(v) * 76 >= t for v in recs["tau1"]),
            "removal_fraction": (pooled_removals / pooled_moves) if pooled_moves else None,
            "sd": math.sqrt(float((total_sq - Fraction(total**2, n)) / (n - 1))) if n > 1 else 0.0,
            "exceedance": ref_exceedance(stats),
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


def _with_columns(stats, **columns):
    """A copy of ``stats`` whose named columns repeat the given values."""
    records = stats.records.copy()
    for name, values in columns.items():
        records[name] = np.resize(values, len(records))
    return EnsembleStats(stats.config, records)


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
    assert ref_violations(by_name["t12_default"]) > 20
    assert ref_violations(by_name["t2000"]) == 0
    assert ref_violations(by_name["t1_band"]) == by_name["t1_band"].n
    moves = by_name["t12_default"].records["plate_moves_ge3"]
    assert (moves == 0).any() and (moves > 0).any()
    assert (by_name["t12_single"].records["plate_moves_ge3"] == 0).all()
    assert by_name["t500_single"].n == 1


def test_bounds_check_matches_reference(stats):
    # Replicas on and just outside each end of the band t/342 <= O <= 2t/3,
    # in unequal numbers, so a band shifted by one olive changes the count.
    t = stats.config.t
    low, high = -(-t // 342), 2 * t // 3
    edges = _with_columns(stats, O=[low - 1] + [low] * 2 + [high] * 3 + [high + 1] * 4)
    assert _same(summary_json(edges), ref_summary_json(edges))


def test_concentration_report_matches_reference(stats):
    other = _with_deltas(stats, (0.0001, 0.5))
    assert _same(summary_json(other), ref_summary_json(other))


def test_plate_move_stats_matches_reference(stats):
    # tau1 on the bound t/76 and one below it; replicas with and without
    # plate moves at >= 3 plates.
    tau1 = -(-stats.config.t // 76)
    edges = _with_columns(stats, tau1=[tau1, tau1 - 1], plate_moves_ge3=[4, 0, 7], L_ge3=[3, 0, 7])
    assert _same(summary_json(edges), ref_summary_json(edges))


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


def test_reports_read_the_exact_sums():
    # Squares of O near 2^32 overflow nothing: the sums are Python ints.
    stats = run_ensemble(CASES["t12_default"], threads=1)
    big = 3 * 2**31
    stats.records["O"] += big
    assert ref_moments(stats)[2] > np.iinfo(np.int64).max
    assert _same(summary_json(stats), ref_summary_json(stats))


def test_exceedance_counts_the_boundary():
    # |O - mean| == delta * t for every replica: ">=" counts them all.
    stats = _with_deltas(run_ensemble(CASES["t12_default"], threads=1), (0.25,))
    stats.records["O"] = np.resize([0, 6], stats.n)
    doc = summary_json(stats)
    assert doc["checks"]["exceedance"][0]["freq"] == 1.0
    assert _same(doc, ref_summary_json(stats))
