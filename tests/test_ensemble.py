import dataclasses
import io
import math
import multiprocessing
import os
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from olivetable import ensemble, process
from olivetable.ensemble import (
    ENSEMBLE_CSV_HEADER,
    EnsembleConfig,
    pool_size,
    run_ensemble,
    summary_json,
    sweep,
    wilson_upper,
    write_ensemble_csv,
)
from olivetable.process import run_trajectory
from olivetable.rng import _RangeError, derive_seed

CFG = EnsembleConfig(t=2000, replicas=12, master_seed=99)
MID = EnsembleConfig(t=10_000, replicas=24, master_seed=7)


def _sums(records: np.ndarray) -> tuple[int, int]:
    _, total, total_sq = ensemble._olive_moments(records["O"])
    return total, total_sq


def _estimate(records: np.ndarray, t: int) -> dict:
    return ensemble._stats_estimate(ensemble._olive_moments(records["O"]), t)


def _hand_built(o_values: list[int]) -> np.ndarray:
    records = np.zeros(len(o_values), dtype=ensemble.REPLICA_DTYPE)
    records["replica"] = np.arange(len(o_values))
    records["O"] = o_values
    return records


@pytest.fixture(scope="module")
def small_records():
    return run_ensemble(CFG)


@pytest.fixture(scope="module")
def mid_records():
    return run_ensemble(MID)


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(t=0, replicas=1, master_seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(t=1, replicas=0, master_seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(t=1, replicas=1, master_seed=0, deltas=(1.5,))


def test_single_replica_reduces_to_trajectory(small_records):
    state = run_trajectory(CFG.t, derive_seed(CFG.master_seed, 0)).final_state
    row = small_records[0]
    assert int(row["O"]) == state.total_olives
    assert int(row["t_plate"]) == state.c_add_plate + state.c_merge
    assert int(row["tau1"]) == state.num_returns + 1
    assert int(row["two_to_one"]) == state.num_returns
    assert int(row["max_other_olives"]) == state.max_other_olives
    assert int(row["first_plate_olives"]) == state.first_plate_olives
    assert int(row["L_ge3"]) == state.c_merge - state.num_returns
    assert int(row["plate_moves_ge3"]) == state.plate_moves_at_ge3
    assert int(row["seed"]) == derive_seed(CFG.master_seed, 0)


def test_determinism_bitwise(small_records):
    again = run_ensemble(CFG)
    assert small_records.tobytes() == again.tobytes()
    assert _sums(small_records) == _sums(again)


def test_thread_count_does_not_change_results():
    config = EnsembleConfig(t=2000, replicas=600, master_seed=31)
    serial = run_ensemble(config, threads=1)
    pooled = run_ensemble(config, threads=2)
    assert serial.tobytes() == pooled.tobytes()
    assert _sums(serial) == _sums(pooled)


def test_pool_size_arithmetic():
    assert pool_size(threads=2, cpus=2, tasks=100) == 2
    assert pool_size(threads=64, cpus=2, tasks=100) == 2
    assert pool_size(threads=10**9, cpus=8, tasks=3) == 3
    assert pool_size(threads=1, cpus=8, tasks=100) == 1
    assert pool_size(threads=4, cpus=8, tasks=0) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError):
            pool_size(threads=bad, cpus=2, tasks=10)


@pytest.fixture
def fake_pool(monkeypatch):
    """A recording stand-in for ``ensemble._fork_pool``: no process is
    started.  Records the size of each pool started and the chunksize of
    each map."""
    seen = SimpleNamespace(started=[], chunksizes=[])

    class FakePool:
        def __init__(self, workers):
            seen.started.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            seen.chunksizes.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(ensemble, "_fork_pool", FakePool)
    return seen


def test_run_ensemble_clamps_its_pool(fake_pool, monkeypatch):
    started = fake_pool.started
    config = EnsembleConfig(t=1000, replicas=1000, master_seed=13)
    serial = run_ensemble(config, threads=1)
    assert started == []
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 3)
    clamped = run_ensemble(config, threads=10**6)
    assert started == [3]
    assert _records_equal(clamped, serial)
    with pytest.raises(ValueError):
        run_ensemble(config, threads=0)
    assert started == [3]


def _records_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.tobytes() == b.tobytes() and _sums(a) == _sums(b)


@pytest.mark.parametrize(
    "horizons, lo, hi, threads, chunksizes, sizes",
    [
        # ens_short: 24 tasks of 4166-4167, whether pooled (2 workers, 4
        # tasks each, raised to what the cap needs; pool.map's chunksize 3
        # keeps 8 dispatches) or in this process.
        ((12,), 0, 100_000, 2, [3], [4166, 4167, 4167] * 8),
        ((12,), 0, 100_000, 1, [], [4166, 4167, 4167] * 8),
        # A pooled scalar sweep: 4 tasks per worker, far below the cap.
        ((1000, 2000), 0, 600, 2, [1], [75] * 8),
        # In this process one task, unless the cap needs more.
        ((1000, 2000), 0, 600, 1, [], [600]),
        ((12,), 1234, 1234 + 9000, 2, [], [3000] * 3),
        ((12,), 5, 5, 2, [], [0]),
    ],
    ids=["pooled-lockstep", "in-process-lockstep", "pooled-sweep", "in-process-sweep", "in-process-range", "empty"],
)
def test_one_task_list_tiles_the_range(horizons, lo, hi, threads, chunksizes, sizes, fake_pool, monkeypatch):
    # Pooled and in-process runs cut [lo, hi) the same way: near-equal tasks
    # of at most the lockstep lane cap, in replica order.
    tasks = []

    def record(task):
        tasks.append(task)
        task_horizons, a, b, _ = task
        return np.zeros((len(task_horizons), b - a), dtype=ensemble.REPLICA_DTYPE)

    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ensemble, "_run_chunk", record)
    parts = list(ensemble._run_replicas(77, horizons, lo, hi, threads))
    # Each task's result comes back once, with its replica range, in task order.
    assert [(a, b) for a, b, _ in parts] == [(a, b) for _, a, b, _ in tasks]
    assert [part.shape for _, _, part in parts] == [(len(horizons), b - a) for _, a, b, _ in tasks]
    assert fake_pool.started == ([2] if chunksizes else [])
    assert fake_pool.chunksizes == chunksizes
    assert [b - a for _, a, b, _ in tasks] == sizes
    assert all(b - a <= ensemble._LOCKSTEP_MAX_LANES for _, a, b, _ in tasks)
    assert [a for _, a, _, _ in tasks] == [lo] + [b for _, _, b, _ in tasks[:-1]]
    assert tasks[-1][2] == hi
    assert {(tuple(h), seed) for h, _, _, seed in tasks} == {(horizons, 77)}


def test_single_replica_runs_concatenate_to_the_full_run(small_records):
    parts = [run_ensemble(CFG, replica_range=(i, i + 1)) for i in range(CFG.replicas)]
    assert np.concatenate(parts).tobytes() == small_records.tobytes()
    # The CSV of replica i run alone is the header and row i of the full
    # run's CSV.
    full = io.StringIO()
    write_ensemble_csv(small_records, full)
    header, *rows = full.getvalue().splitlines(keepends=True)
    for row, part in zip(rows, parts, strict=True):
        alone = io.StringIO()
        write_ensemble_csv(part, alone)
        assert alone.getvalue() == header + row


def test_replica_range_validation():
    with pytest.raises(ValueError):
        run_ensemble(CFG, replica_range=(3, 2))
    with pytest.raises(ValueError):
        run_ensemble(CFG, replica_range=(0, CFG.replicas + 1))
    assert len(run_ensemble(CFG, replica_range=(4, 4))) == 0


def test_ratio_estimate_synthetic_injection():
    est = _estimate(_hand_built([100] * 50), 1000)
    assert est["ratio"] == pytest.approx(0.1)
    assert est["ci_low"] == pytest.approx(0.1)
    assert est["ci_high"] == pytest.approx(0.1)
    assert est["sd_O"] == 0.0
    assert est["mean_O_exact"] == "100/1"


def test_wilson_upper_bounds():
    assert wilson_upper(0, 1000) < 0.01
    assert 0 < wilson_upper(0, 10) < 0.5
    assert wilson_upper(10, 10) > 0.9
    with pytest.raises(ValueError):
        wilson_upper(0, 0)


def test_concentration_report(mid_records):
    config = dataclasses.replace(MID, deltas=(0.02, 1.0))
    checks = summary_json(config, mid_records)["checks"]
    rows = {r["delta"]: r for r in checks["exceedance"]}
    assert rows[1.0]["freq"] == 0  # |O - mean| >= t is impossible here
    assert rows[1.0]["wilson_hi"] < 0.3
    assert checks["sd"] > 0
    assert set(rows) == {0.02, 1.0}


def test_plate_move_diagnostics(mid_records):
    t, recs = MID.t, mid_records
    checks = summary_json(MID, recs)["checks"]
    assert checks["tau1_pass"]
    assert (recs["tau1"] * 76 >= t).all()
    assert (recs["t_plate"] * 10 >= 3 * t).all()
    moves = recs["plate_moves_ge3"]
    assert (moves > 0).all()
    assert (recs["L_ge3"] / moves >= 0.75 - 4 * np.sqrt(3 / 16 / moves)).all()
    assert 0.70 <= checks["removal_fraction"] <= 1.0
    assert (recs["two_to_one"] > 0).all()


def test_estimate_c_runs_and_validates():
    report, _ = sweep([1000, 2000], replicas=40, master_seed=11)
    assert len(report["rows"]) == 2
    for row in report["rows"]:
        assert row["ci_low"] <= row["ratio"] <= row["ci_high"]
        assert row["within_bounds"]
    assert report["max_ratio_difference"] >= 0
    with pytest.raises(ValueError):
        sweep([10], replicas=5, master_seed=0)


def test_log_growth_check():
    _, report = sweep([1000, 4000], replicas=10, master_seed=3)
    assert [row["t"] for row in report["rows"]] == [1000, 4000]
    for row in report["rows"]:
        assert row["within_ceiling"]
        assert row["B_fit"] == pytest.approx(row["max_other"] / math.log(row["t"]))
        assert row["ceiling"] == ensemble.LOG_GROWTH_CEILING * math.log(row["t"])
    assert report["growth_ratio"] > 0
    assert report["replicas"] == 10
    # One row per distinct horizon, in increasing order.
    assert sweep([4000, 1000, 4000], replicas=10, master_seed=3)[1] == report


def test_sweep_equals_separate_reports():
    # The log-growth rows read the first SWEEP_GROWTH_REPLICAS replicas of
    # each horizon, which are exactly the replicas of a separate run with
    # that many (the README's promise).
    t_list = [2000, 1000, 2000]
    c_report, growth = sweep(t_list, replicas=60, master_seed=21)
    assert sweep(t_list, replicas=ensemble.SWEEP_GROWTH_REPLICAS, master_seed=21)[1] == growth
    assert [row["t"] for row in c_report["rows"]] == t_list
    assert c_report["rows"][0] == c_report["rows"][2]
    _, few = sweep([1000], replicas=7, master_seed=21)
    assert few["replicas"] == 7
    assert few["rows"][0]["max_other"] == int(
        run_ensemble(EnsembleConfig(t=1000, replicas=7, master_seed=21))["max_other_olives"].max()
    )
    with pytest.raises(ValueError):
        sweep([10], replicas=5, master_seed=0)


def test_sweep_rejects_an_empty_horizon_list(monkeypatch):
    # Refused with the library's range error before any replica is run.
    monkeypatch.setattr(ensemble, "_run_replicas", lambda *args: pytest.fail("replicas were run"))
    with pytest.raises(ValueError, match=r"^sweep expects at least one horizon$") as info:
        sweep([], 3, 1)
    assert type(info.value) is _RangeError


SWEEP_T = [2000, 1000, 2000]  # unsorted, with a duplicate
SWEEP_R = 500  # R * max(t) = 10^6: pooled when two threads are allowed
SWEEP_SEED = 8


@pytest.fixture(scope="module")
def separate_ensembles():
    return {
        t: run_ensemble(EnsembleConfig(t=t, replicas=SWEEP_R, master_seed=SWEEP_SEED), threads=2)
        for t in sorted(set(SWEEP_T))
    }


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_simulates_each_replica_once(threads, separate_ensembles, monkeypatch):
    # Every step the kernel is asked for, in this process or a forked pool
    # worker, lands in shared counters.
    steps = multiprocessing.Value("q", 0)
    pooled_steps = multiprocessing.Value("q", 0)
    main_pid = os.getpid()
    kernel = process._advance

    def counting(state, rng, n_steps, series=None, cadence=0, check_identity=False):
        with steps.get_lock():
            steps.value += n_steps
        if os.getpid() != main_pid:
            with pooled_steps.get_lock():
                pooled_steps.value += n_steps
        return kernel(state, rng, n_steps, series, cadence, check_identity)

    tasks = []
    real_run_replicas = ensemble._run_replicas

    def capture(*args, **kwargs):
        for task in real_run_replicas(*args, **kwargs):
            tasks.append(task)
            yield task

    monkeypatch.setattr(process, "_advance", counting)
    monkeypatch.setattr(ensemble, "_run_replicas", capture)
    c_report, growth = sweep(SWEEP_T, replicas=SWEEP_R, master_seed=SWEEP_SEED, threads=threads)

    assert steps.value == SWEEP_R * max(SWEEP_T)
    pooled = threads > 1 and ensemble._usable_cpus() > 1
    assert pooled_steps.value == (steps.value if pooled else 0)
    horizons = sorted(set(SWEEP_T))
    assert [a for a, _, _ in tasks] == [0] + [b for _, b, _ in tasks[:-1]]
    assert tasks[-1][1] == SWEEP_R
    # Every task hands back one part per horizon of plain-int row tuples,
    # and the rows equal those of a separate run_ensemble per horizon,
    # byte for byte.
    assert all(len(parts) == len(horizons) for _, _, parts in tasks)
    for k, t in enumerate(horizons):
        rows = [row for _, _, parts in tasks for row in parts[k]]
        assert {type(v) for row in rows for v in row} == {int}, t
        assert np.array(rows, dtype=ensemble.REPLICA_DTYPE).tobytes() == separate_ensembles[t].tobytes(), t
    for t, row in zip(SWEEP_T, c_report["rows"]):
        assert row == _estimate(separate_ensembles[t], t)
        assert row["within_bounds"] is True
    for t, row in zip(horizons, growth["rows"]):
        first = separate_ensembles[t]["max_other_olives"][: ensemble.SWEEP_GROWTH_REPLICAS]
        assert row["max_other"] == int(first.max())


def test_ratio_estimate_single_replica_has_no_ci():
    est = _estimate(_hand_built([7]), 100)
    assert est["ci_low"] is None and est["ci_high"] is None
    assert est["ratio"] == 0.07 and est["sd_O"] == 0.0


def test_bounds_check_exact(mid_records):
    checks = summary_json(MID, mid_records)["checks"]
    assert checks["bounds_pass"] and checks["bounds_violations"] == 0
    corrupted = mid_records.copy()
    corrupted["O"][0] = 0
    bad = summary_json(MID, corrupted)["checks"]
    assert not bad["bounds_pass"]
    assert bad["bounds_violations"] == 1


def test_summary_sorts_the_olive_column_once(mid_records, monkeypatch):
    calls = []
    real_unique = np.unique

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    summary_json(MID, mid_records)
    assert len(calls) == 1
    assert calls[0].tobytes() == mid_records["O"].tobytes()


def test_summary_json_schema(mid_records):
    doc = summary_json(MID, mid_records)
    assert set(doc) == {"config", "estimates", "checks"}  # the CLI adds the provenance
    assert set(doc["config"]) >= {"t", "R", "master_seed", "cadence", "deltas"}
    assert set(doc["estimates"]) == {"mean_O", "ratio", "ci_low", "ci_high", "c_hat"}
    checks = doc["checks"]
    assert set(checks) >= {
        "bounds_pass", "tau1_pass", "removal_fraction", "sd", "exceedance", "max_other", "B_fit",
    }
    for row in checks["exceedance"]:
        assert set(row) == {"delta", "freq", "wilson_hi"}
    assert doc["estimates"]["c_hat"] == doc["estimates"]["ratio"]


def test_ensemble_csv_schema(small_records):
    buf = io.StringIO()
    write_ensemble_csv(small_records, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == ENSEMBLE_CSV_HEADER
    assert len(lines) == 2 + CFG.replicas  # header + rows + trailing newline
    assert "\r" not in text
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(first[1]) == derive_seed(CFG.master_seed, 0)


def test_exact_integer_aggregation(small_records):
    o_vals = [int(v) for v in small_records["O"]]
    assert _sums(small_records) == (sum(o_vals), sum(v * v for v in o_vals))
    assert Fraction(_estimate(small_records, CFG.t)["mean_O_exact"]) == Fraction(sum(o_vals), len(o_vals))
    # tau1 counts the initial entry to one plate as well as every return.
    assert (small_records["tau1"] == small_records["two_to_one"] + 1).all()
