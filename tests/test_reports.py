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
from hypothesis import given, settings
from hypothesis import strategies as st

from olivetable import ensemble
from olivetable.ensemble import (
    ENSEMBLE_CSV_HEADER,
    EnsembleConfig,
    run_ensemble,
    summary_json,
    wilson_upper,
    write_ensemble_csv,
)
from olivetable.process import C_BOUNDS, Z99


def ref_violations(config, records):
    lo, hi = C_BOUNDS
    t = config.t
    return sum(1 for r in records if not (lo * t <= int(r["O"]) <= hi * t))


def ref_moments(records):
    o_vals = [int(v) for v in records["O"]]
    return len(o_vals), sum(o_vals), sum(o * o for o in o_vals)


def ref_exceedance(config, records):
    n, total, _ = ref_moments(records)
    t = config.t
    rows = []
    for d in config.deltas:
        threshold = Fraction(d) * t * n
        count = sum(1 for r in records if abs(int(r["O"]) * n - total) >= threshold)
        rows.append({"delta": d, "freq": count / n, "wilson_hi": wilson_upper(count, n)})
    return rows


def ref_estimates(config, records):
    n, total, total_sq = ref_moments(records)
    t = config.t
    mean_o = Fraction(total, n)
    ratio = float(mean_o / t)
    if n > 1:
        var = (total_sq - Fraction(total**2, n)) / (n - 1)
        half = Z99 * (math.sqrt(float(var) / n) / t)
        ci_low, ci_high = ratio - half, ratio + half
    else:
        ci_low = ci_high = None  # no CI from one replica
    return {"mean_O": float(mean_o), "ratio": ratio, "ci_low": ci_low, "ci_high": ci_high, "c_hat": ratio}


def ref_summary_json(config, records):
    n, total, total_sq = ref_moments(records)
    t = config.t
    violations = ref_violations(config, records)
    pooled_moves = sum(int(m) for m in records["plate_moves_ge3"])
    pooled_removals = sum(int(x) for x in records["L_ge3"])
    max_other = max(int(v) for v in records["max_other_olives"])
    return {
        "config": config.as_dict(),
        "estimates": ref_estimates(config, records),
        "checks": {
            "bounds_pass": violations == 0,
            "bounds_violations": violations,
            "tau1_pass": all(int(v) * 76 >= t for v in records["tau1"]),
            "removal_fraction": (pooled_removals / pooled_moves) if pooled_moves else None,
            "sd": math.sqrt(float((total_sq - Fraction(total**2, n)) / (n - 1))) if n > 1 else 0.0,
            "exceedance": ref_exceedance(config, records),
            "max_other": max_other,
            "B_fit": max_other / math.log(t) if t > 1 else None,
        },
    }


def ref_csv(records):
    out = io.StringIO()
    out.write(ENSEMBLE_CSV_HEADER + "\n")
    for r in records:
        out.write(",".join(str(int(r[name])) for name in records.dtype.names) + "\n")
    return out.getvalue()


def _same(a, b):
    """Equal documents, float bits and JSON types included."""
    return json.dumps(a, sort_keys=True, allow_nan=False) == json.dumps(b, sort_keys=True, allow_nan=False)


def _with_deltas(run, deltas):
    config, records = run
    return dataclasses.replace(config, deltas=deltas), records


def _with_columns(run, **columns):
    """A copy of the ``(config, records)`` run whose named columns repeat
    the given values."""
    config, records = run
    records = records.copy()
    for name, values in columns.items():
        records[name] = np.resize(values, len(records))
    return config, records


def _tau1_bound(t):
    """The least tau1 that passes at horizon t: ceil(t / 76)."""
    return -(-t // 76)


CASES = {
    "t12_default": EnsembleConfig(t=12, replicas=400, master_seed=2),
    # thresholds from 0.001 * t, below one olive, up to t
    "t300_tight": EnsembleConfig(t=300, replicas=60, master_seed=4, deltas=(0.001, 0.03, 1.0)),
    "t2000": EnsembleConfig(t=2000, replicas=12, master_seed=99),
    "t12_single": EnsembleConfig(t=12, replicas=1, master_seed=8),
    "t500_single": EnsembleConfig(t=500, replicas=1, master_seed=8),
    # the first move adds a plate, so O_1 = 0: every replica is below the band
    "t1_band": EnsembleConfig(t=1, replicas=5, master_seed=3),
    # ceil(t/75) > ceil(t/76): tau1 on the bound t/76 is below t/75
    "t76": EnsembleConfig(t=76, replicas=50, master_seed=6),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def run(request):
    config = CASES[request.param]
    return config, run_ensemble(config, threads=1)


def test_cases_cover_the_edge_cases():
    by_name = {name: (config, run_ensemble(config, threads=1)) for name, config in CASES.items()}
    assert ref_violations(*by_name["t12_default"]) > 20
    assert ref_violations(*by_name["t2000"]) == 0
    assert ref_violations(*by_name["t1_band"]) == len(by_name["t1_band"][1])
    moves = by_name["t12_default"][1]["plate_moves_ge3"]
    assert (moves == 0).any() and (moves > 0).any()
    assert (by_name["t12_single"][1]["plate_moves_ge3"] == 0).all()
    assert len(by_name["t500_single"][1]) == 1
    assert [name for name, config in CASES.items() if -(-config.t // 75) > _tau1_bound(config.t)] == ["t76"]


def test_band_violations_match_reference_at_the_band_edges(run):
    # Replicas on and just outside each end of the band t/342 <= O <= 2t/3,
    # in unequal numbers, so a band shifted by one olive changes the count.
    t = run[0].t
    low, high = -(-t // 342), 2 * t // 3
    edges = _with_columns(run, O=[low - 1] + [low] * 2 + [high] * 3 + [high + 1] * 4)
    assert _same(summary_json(*edges), ref_summary_json(*edges))


def test_exceedance_rows_match_reference(run):
    other = _with_deltas(run, (0.0001, 0.5))
    assert _same(summary_json(*other), ref_summary_json(*other))


def test_plate_move_columns_match_reference(run):
    # tau1 on the bound t/76 and one below it; replicas with and without
    # plate moves at >= 3 plates.
    tau1 = _tau1_bound(run[0].t)
    edges = _with_columns(run, tau1=[tau1, tau1 - 1], plate_moves_ge3=[4, 0, 7], L_ge3=[3, 0, 7])
    assert _same(summary_json(*edges), ref_summary_json(*edges))
    # Every replica on the bound passes, which pins the threshold to t/76
    # where ceil(t/75) > ceil(t/76).
    on_bound = _with_columns(run, tau1=[tau1])
    assert summary_json(*on_bound)["checks"]["tau1_pass"] is True
    assert _same(summary_json(*on_bound), ref_summary_json(*on_bound))


def test_summary_json_matches_reference(run):
    assert _same(summary_json(*run), ref_summary_json(*run))


def test_csv_matches_reference(run):
    out = io.StringIO()
    write_ensemble_csv(run[1], out)
    assert out.getvalue() == ref_csv(run[1])


def test_csv_blocks_join_seamlessly(monkeypatch):
    records = run_ensemble(CASES["t12_default"], threads=1)
    monkeypatch.setattr(ensemble, "_CSV_BLOCK_ROWS", 7)  # 400 rows: 57 full blocks and a partial one
    out = io.StringIO()
    write_ensemble_csv(records, out)
    assert out.getvalue() == ref_csv(records)


def _near_digit_boundaries(top):
    """Counts in [0, top], drawn often at 0, top and each side of every
    power of ten, where the writer's digit count changes."""
    edges = [0, top] + [10**k + d for k in range(1, len(str(top))) for d in (-1, 0)]
    return st.sampled_from(edges) | st.integers(0, top)


_counts = _near_digit_boundaries(int(np.iinfo(np.int64).max))
_seeds = _near_digit_boundaries(int(np.iinfo(np.uint64).max))
_records = st.lists(st.tuples(_counts, _seeds, *[_counts] * (len(ensemble._replica_dtype()) - 2)), max_size=20)


@pytest.mark.parametrize("block_rows", [1, 7, ensemble._CSV_BLOCK_ROWS])
@settings(max_examples=60, deadline=None)
@given(rows=_records)
def test_csv_matches_reference_at_digit_boundaries(block_rows, rows):
    records = np.array(rows, dtype=ensemble._replica_dtype())
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ensemble, "_CSV_BLOCK_ROWS", block_rows)
        write_ensemble_csv(records, out)
    assert out.getvalue() == ref_csv(records)


def test_csv_of_no_rows_is_the_header():
    out = io.StringIO()
    write_ensemble_csv(np.empty(0, dtype=ensemble._replica_dtype()), out)
    assert out.getvalue() == ENSEMBLE_CSV_HEADER + "\n"


@pytest.mark.parametrize("name", ["replica", "O", "plate_moves_ge3"])
def test_csv_refuses_a_negative_count(name):
    records = run_ensemble(CASES["t12_single"], threads=1)
    records[name] = -1
    with pytest.raises(ValueError, match=f"column {name}: -1$"):
        write_ensemble_csv(records, io.StringIO())


def test_reports_read_the_exact_sums():
    # Squares of O near 2^32 overflow nothing: the sums are Python ints.
    config = CASES["t12_default"]
    records = run_ensemble(config, threads=1)
    big = 3 * 2**31
    records["O"] += big
    assert ref_moments(records)[2] > np.iinfo(np.int64).max
    assert _same(summary_json(config, records), ref_summary_json(config, records))


def test_exceedance_counts_the_boundary():
    # |O - mean| == delta * t for every replica: ">=" counts them all.
    config = dataclasses.replace(CASES["t12_default"], deltas=(0.25,))
    records = run_ensemble(config, threads=1)
    records["O"] = np.resize([0, 6], len(records))
    doc = summary_json(config, records)
    assert doc["checks"]["exceedance"][0]["freq"] == 1.0
    assert _same(doc, ref_summary_json(config, records))
