"""Replicated Monte Carlo experiments with exactly-aggregated stats.

Replica ``i`` of a run is fully determined by the config: its stream seed is
``derive_seed(master_seed, i)``, so any subset of replicas can be computed on
any worker (or re-run alone) bit-identically.  A run cuts its replica range
into tasks and copies their rows into one array in replica order, so a
pooled run equals an in-process one.  Each replica contributes one row of
integer counters, and that record array, which ``run_ensemble`` returns, is
the only store: every statistic is read off it, with the olive moments
summed in Python integers (never floats).  ``summary_json(config,
records)`` is the one report of a run: it sorts the O column once and reads
every other figure straight off the columns.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, TextIO

import numpy as np

from . import process
from .process import BOUND_ENFORCEMENT_MIN_T, Z99, TableState
from .rng import _RangeError, make_rng

REPLICA_DTYPE = np.dtype(
    [
        ("replica", np.int64),
        ("seed", np.uint64),
        ("O", np.int64),
        ("t_plate", np.int64),
        ("tau1", np.int64),
        ("two_to_one", np.int64),
        ("max_other_olives", np.int64),
        ("first_plate_olives", np.int64),
        ("L_ge3", np.int64),
        ("plate_moves_ge3", np.int64),
    ]
)

ENSEMBLE_CSV_HEADER = ",".join(REPLICA_DTYPE.names)


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters that fully determine an ensemble run.

    ``deltas`` drive the summary's exceedance rows; the per-replica O/t check
    always uses the paper's band, ``process.C_BOUNDS``.  ``cadence`` is
    carried for provenance (re-running a single replica with it reproduces
    that replica's time series); ensemble runs themselves do not retain
    per-replica series.
    """

    t: int
    replicas: int
    master_seed: int
    deltas: tuple[float, ...] = (0.005, 0.01, 0.02, 0.05)
    cadence: int = 0

    def __post_init__(self):
        if self.t < 1:
            raise _RangeError(f"t must be >= 1, got {self.t}")
        if self.replicas < 1:
            raise _RangeError(f"replicas must be >= 1, got {self.replicas}")
        if self.cadence < 0:
            raise _RangeError(f"cadence must be >= 0, got {self.cadence}")
        for d in self.deltas:
            if not 0 < d <= 1:
                raise _RangeError(f"delta must be in (0, 1], got {d}")

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "R": self.replicas,
            "master_seed": self.master_seed,
            "cadence": self.cadence,
            "deltas": list(self.deltas),
            "c_bounds": [str(b) for b in process.C_BOUNDS],
        }


def _olive_moments(o: np.ndarray) -> tuple[list[tuple[int, int]], int, int]:
    """The distinct values of the O column with their replica counts (at
    most t + 1 pairs, in increasing O), and the exact sums of O and O^2 in
    Python ints."""
    values, counts = np.unique(o, return_counts=True)
    o_counts = list(zip(values.tolist(), counts.tolist()))
    return o_counts, sum(o * c for o, c in o_counts), sum(o * o * c for o, c in o_counts)


# A replica row's counters, by TableState attribute name: the scalar kernel
# reads them off its state and the lockstep kernel hands its lanes over in
# this order.
_COUNTERS = TableState._COUNTS + ("first_plate_olives",)
_read_counters = operator.attrgetter(*_COUNTERS)


def _rows(t: int, lo: int, seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The rows of replicas lo, lo + 1, ... at horizon t, from their uint64
    seeds and their counters (one row per name in _COUNTERS, one column per
    replica); the one place a replica row is built."""
    c = dict(zip(_COUNTERS, counters))
    derived = process._derived_counts(c["c_add_plate"], c["c_merge"], c["num_returns"])
    # Every step makes one move, so the move counts sum to t at every row
    # taken: olive conservation, O = t - t_plate - 2 * removals.  A lockstep
    # lane that ran dry and was not refilled falls short.
    broken = np.flatnonzero(derived["t_plate"] + c["c_add_olive"] + c["c_remove_olive"] != t)
    if broken.size:
        raise AssertionError(f"olive conservation violated in replica {lo + int(broken[0])}")
    rows = np.empty(len(seeds), dtype=REPLICA_DTYPE)
    rows["replica"] = np.arange(lo, lo + len(seeds))
    rows["seed"] = seeds
    rows["O"] = c["c_add_olive"] - c["c_remove_olive"]
    for name, column in derived.items():
        rows[name] = column
    rows["max_other_olives"] = c["max_other_olives"]
    rows["first_plate_olives"] = c["first_plate_olives"]
    rows["plate_moves_ge3"] = c["plate_moves_at_ge3"]
    return rows


def _replica_counters(seed: int, horizons: Sequence[int]) -> list[tuple]:
    """One replica's counters, in _COUNTERS order, at each of the increasing
    ``horizons``, from one trajectory: the scalar kernel resumes from the
    state and rng it left at the previous horizon, and every counter is
    cumulative."""
    state = TableState()
    rng = make_rng(seed)
    counters = []
    for t in horizons:
        process._advance(state, rng, t - state.t)
        counters.append(_read_counters(state))
    return counters


# Which kernel runs a task: the lockstep kernel (``olivetable._lockstep``)
# takes a task of at least _LOCKSTEP_MIN_REPLICAS replicas of one horizon
# t <= _LOCKSTEP_MAX_T (no ``sweep`` horizon is that short, so it never
# gets there).  Every other task, and any lockstep lane that runs out of
# buffered random words, runs on the scalar kernel ``process._advance``.
# Both kernels hand over the same counters, and ``_rows`` builds every row.
# Lockstep pays 10-15 ms per block for seeding, so it is the slower kernel
# below about 500 replicas, and at long horizons numpy's per-call cost makes
# each of its steps dearer than the scalar kernel's.  A task holds at most
# _LOCKSTEP_MAX_LANES replicas, whose (624, lanes) uint32 MT19937 seeding
# state fits in 10 MiB; the cap is at least twice the minimum, so cutting an
# eligible range leaves no task below it.
_LOCKSTEP_MAX_T = 64
_LOCKSTEP_MIN_REPLICAS = 1024
_LOCKSTEP_MAX_LANES = (10 << 20) // (624 * 4)


def _run_chunk(task: tuple) -> np.ndarray:
    """Replicas [lo, hi) of one master seed at each of the increasing
    ``horizons``, as an array of shape (len(horizons), hi - lo): row k holds
    the records at horizons[k].  Each replica is simulated once, to the
    last horizon: an eligible task runs one lockstep block, and the scalar
    kernel runs every replica the block did not finish."""
    from . import _lockstep

    horizons, lo, hi, master_seed = task
    seeds = _lockstep.derive_seeds(master_seed, lo, hi)
    counters = np.empty((len(horizons), len(_COUNTERS), hi - lo), dtype=np.int64)
    todo = range(hi - lo)
    (t, *later) = horizons
    if not later and t <= _LOCKSTEP_MAX_T and hi - lo >= _LOCKSTEP_MIN_REPLICAS:
        counters[0], todo = _lockstep.run_block(t, seeds)
    for k in todo:
        counters[:, :, k] = _replica_counters(int(seeds[k]), horizons)
    return np.stack([_rows(t, lo, seeds, c) for t, c in zip(horizons, counters)])


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_size(threads: int, cpus: int, tasks: int) -> int:
    """Worker processes for a pool: min(threads, cpus, tasks), at least 1.

    Asking for more threads than there are usable CPUs or tasks never starts
    more processes than those; ``threads`` < 1 is an error.
    """
    if threads < 1:
        raise _RangeError(f"threads must be >= 1, got {threads}")
    return max(1, min(threads, cpus, tasks))


def run_ensemble(
    config: EnsembleConfig,
    threads: Optional[int] = None,
    replica_range: Optional[tuple[int, int]] = None,
) -> np.ndarray:
    """The records of replicas [lo, hi) of ``config`` (default: all of
    them), one row per replica in replica order, with exactly the ensemble
    CSV columns.

    ``threads`` (default: the usable CPUs) caps the worker pool, which
    ``pool_size`` also caps at the usable CPUs and the replica count; the
    result is identical for any thread count because replica seeds are
    derived from the config and each task's rows land at their replica index.
    """
    lo, hi = replica_range if replica_range is not None else (0, config.replicas)
    if not 0 <= lo <= hi <= config.replicas:
        raise _RangeError(f"bad replica range {replica_range} for R={config.replicas}")
    (records,) = _run_replicas(config.master_seed, (config.t,), lo, hi, threads)
    return records


def _run_replicas(master_seed: int, horizons: Sequence[int], lo: int, hi: int, threads: Optional[int]) -> np.ndarray:
    """Replicas [lo, hi) of ``master_seed`` at each of the increasing
    ``horizons``; row k of the result holds the records at horizons[k].

    The range is cut into near-equal ``_run_chunk`` tasks of at most
    _LOCKSTEP_MAX_LANES replicas, in replica order: 4 per worker when the
    replica-steps to the last horizon reach 10^6 and a ``_fork_pool`` of two
    or more workers maps them, one otherwise, and more where the cap needs
    them.  A dead worker raises ``BrokenProcessPool``.
    """
    cpus = _usable_cpus()
    count = hi - lo
    workers = pool_size(cpus if threads is None else threads, cpus, max(count, 1))
    pooled = workers > 1 and count * horizons[-1] >= 1_000_000
    n_tasks = max(min(count, 4 * workers) if pooled else 1, -(-count // _LOCKSTEP_MAX_LANES))
    bounds = [lo + count * k // n_tasks for k in range(n_tasks + 1)]
    tasks = [(horizons, a, b, master_seed) for a, b in zip(bounds, bounds[1:])]
    records = np.empty((len(horizons), count), dtype=REPLICA_DTYPE)
    with _fork_pool(workers) if pooled else contextlib.nullcontext() as pool:
        # In task order either way; each part is copied out and freed as it
        # arrives instead of all parts being held for one concatenation.
        chunksize = -(-len(tasks) // (4 * workers))
        parts = pool.map(_run_chunk, tasks, chunksize=chunksize) if pooled else map(_run_chunk, tasks)
        for (_, a, b, _), part in zip(tasks, parts):
            records[:, a - lo : b - lo] = part
    return records


def _fork_pool(workers: int) -> ProcessPoolExecutor:
    """The one worker pool in the package: ``workers`` forked processes that
    see this process's modules as they are, patched ones included.  All are
    forked before the executor starts its own thread.  A worker that dies
    breaks the pool, so waiting on it raises ``BrokenProcessPool``."""
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


# -- statistics helpers -------------------------------------------------------


def wilson_upper(successes: int, n: int) -> float:
    """Upper end of the 99% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise _RangeError(f"n must be positive, got {n}")
    phat = successes / n
    denom = 1 + Z99 * Z99 / n
    center = phat + Z99 * Z99 / (2 * n)
    half = Z99 * math.sqrt(phat * (1 - phat) / n + Z99 * Z99 / (4 * n * n))
    return (center + half) / denom


def _stats_estimate(moments: tuple[list[tuple[int, int]], int, int], t: int) -> dict:
    """Mean O/t with a 99% normal-approximation CI over the replicas, and
    whether the exact mean O/t lies in the paper's band ``process.C_BOUNDS``,
    from the ``_olive_moments`` of the O column at horizon t.

    Exact integer sums feed the point estimate and the band test; the CI
    uses the sample sd.  Degenerate samples (all equal) get a zero-width
    interval; a single replica has no CI, so ``ci_low`` and ``ci_high`` are
    None.
    """
    o_counts, total, total_sq = moments
    n = sum(c for _, c in o_counts)
    if n < 1:
        raise ValueError("need at least one replica")
    mean_o = Fraction(total, n)
    ratio = float(mean_o / t)
    if n > 1:
        # The sample variance from the exact sums of O and O^2: an integer
        # quotient, so the float is correctly rounded.
        var = (n * total_sq - total**2) / (n * (n - 1))
        half = Z99 * (math.sqrt(var / n) / t)
        ci_low, ci_high, sd = ratio - half, ratio + half, math.sqrt(var)
    else:
        ci_low = ci_high = None
        sd = 0.0
    return {
        "n": n,
        "t": t,
        "mean_O": float(mean_o),
        "mean_O_exact": f"{mean_o.numerator}/{mean_o.denominator}",
        "ratio": ratio,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "sd_O": sd,
        "within_bounds": process._in_band(mean_o, t),
    }


# -- reports ------------------------------------------------------------------

LOG_GROWTH_CEILING = 50.0
SWEEP_GROWTH_REPLICAS = 50


def sweep(
    t_list: Sequence[int],
    replicas: int,
    master_seed: int,
    threads: Optional[int] = None,
) -> tuple[dict, dict]:
    """The linear-growth estimate and the log-growth check, at horizons
    t >= BOUND_ENFORCEMENT_MIN_T that share one ensemble.

    Every horizon uses the same master seed, hence common random numbers
    across horizons: replica i at a shorter horizon is exactly the first
    steps of replica i at the longest one.  So each replica is simulated
    once, to max(t_list), and its row at each distinct horizon is taken on
    the way; the rows equal those of a separate ``run_ensemble`` per horizon.

    The estimate has one row per entry of ``t_list``: mean O/t with a 99% CI
    and whether it lies within the paper's band ``process.C_BOUNDS``, plus the largest
    pairwise ratio difference as a stability diagnostic.

    The log-growth check has one row per distinct horizon, read off the
    first min(replicas, SWEEP_GROWTH_REPLICAS) replicas: the largest olive
    count of any plate but the first, over those replicas and all times,
    its fitted coefficient max/ln(t), and whether it stays within
    LOG_GROWTH_CEILING * ln(t); plus the growth ratio between the first and
    last horizon.  Replica i has the same derived seed for any R, so these
    rows do not depend on ``replicas`` once it is at least
    SWEEP_GROWTH_REPLICAS.
    """
    if not t_list:
        raise _RangeError("sweep expects at least one horizon")
    if any(t < BOUND_ENFORCEMENT_MIN_T for t in t_list):
        raise _RangeError(f"sweep expects horizons t >= {BOUND_ENFORCEMENT_MIN_T}")
    if replicas < 1:
        raise _RangeError(f"replicas must be >= 1, got {replicas}")
    horizons = sorted(set(t_list))
    runs = dict(zip(horizons, _run_replicas(master_seed, horizons, 0, replicas, threads)))

    c_rows = [_stats_estimate(_olive_moments(runs[t]["O"]), t) for t in t_list]
    ratios = [r["ratio"] for r in c_rows]
    c_report = {
        "replicas": replicas,
        "master_seed": master_seed,
        "rows": c_rows,
        "max_ratio_difference": max(abs(a - b) for a in ratios for b in ratios) if len(ratios) > 1 else 0.0,
    }

    n_growth = min(replicas, SWEEP_GROWTH_REPLICAS)
    growth_rows = []
    for t, records in runs.items():
        max_other = int(records["max_other_olives"][:n_growth].max())
        ceiling = LOG_GROWTH_CEILING * math.log(t)
        growth_rows.append(
            {
                "t": t,
                "max_other": max_other,
                "B_fit": max_other / math.log(t),
                "ceiling": ceiling,
                "within_ceiling": max_other <= ceiling,
            }
        )
    growth_report = {
        "replicas": n_growth,
        "master_seed": master_seed,
        "ceiling_coefficient": LOG_GROWTH_CEILING,
        "rows": growth_rows,
        "growth_ratio": (
            growth_rows[-1]["max_other"] / growth_rows[0]["max_other"]
            if len(growth_rows) > 1 and growth_rows[0]["max_other"]
            else None
        ),
    }
    return c_report, growth_report


# -- the summary and the CSV --------------------------------------------------


def summary_json(config: EnsembleConfig, records: np.ndarray) -> dict:
    """The summary document of ``run_ensemble(config)``'s ``records``,
    without its provenance, which the CLI adds (schema is stable; see
    README).

    This is the one ensemble report.  The O column is sorted once, by
    ``_olive_moments``; the estimates come from ``_stats_estimate``, and the
    band and exceedance tests are made once per distinct O in exact
    rationals, weighted by its replica count (exceedance is |O - mean| >=
    delta * t, compared as |O*R - sum| >= delta * t * R).  Zero counts come
    with Wilson 99% upper bounds.  ``tau1_pass`` is tau1 >= t/76 for every
    replica, and ``removal_fraction`` is pooled over the plate moves made
    at >= 3 plates.
    """
    t = config.t
    moments = _olive_moments(records["O"])
    est = _stats_estimate(moments, t)
    o_counts, total, _ = moments
    n = est["n"]
    outside = sum(c for o, c in o_counts if not process._in_band(o, t))
    exceedance = []
    for d in config.deltas:
        threshold = Fraction(d) * t * n
        count = sum(c for o, c in o_counts if abs(o * n - total) >= threshold)
        exceedance.append({"delta": d, "freq": count / n, "wilson_hi": wilson_upper(count, n)})
    moves = int(records["plate_moves_ge3"].sum())
    max_other = int(records["max_other_olives"].max())
    return {
        "config": config.as_dict(),
        "estimates": {
            "mean_O": est["mean_O"],
            "ratio": est["ratio"],
            "ci_low": est["ci_low"],
            "ci_high": est["ci_high"],
            "c_hat": est["ratio"],
        },
        "checks": {
            "bounds_pass": outside == 0,
            "bounds_violations": outside,
            "tau1_pass": bool((records["tau1"] * 76 >= t).all()),
            "removal_fraction": int(records["L_ge3"].sum()) / moves if moves else None,
            "sd": est["sd_O"],
            "exceedance": exceedance,
            "max_other": max_other,
            "B_fit": max_other / math.log(t) if t > 1 else None,
        },
    }


_CSV_BLOCK_ROWS = 8192
_COMMA, _NEWLINE, _ZERO = b",\n0"  # ASCII codes
_TEN = np.uint64(10)


def _decimal(column: np.ndarray, name: str) -> np.ndarray:
    """The decimal digits of a count column as ASCII bytes, one row per
    value, right-aligned in a uint8 matrix as wide as the largest value;
    the cells left of a value's leading digit are 0."""
    if column.dtype.kind == "i" and column.min() < 0:
        raise ValueError(f"negative count in CSV column {name}: {int(column.min())}")
    value = column.astype(np.uint64)
    width = len(str(int(value.max())))
    cells = np.empty((len(value), width), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        # Floor division and a multiply-subtract: np.divmod skips numpy's
        # fast division by a scalar and costs several times as much.
        quotient = value // _TEN
        cells[:, k] = value - quotient * _TEN + _ZERO
        if k < width - 1:
            cells[:, k] *= value > 0  # units always print, 0 included
        value = quotient
    return cells


def write_ensemble_csv(records: np.ndarray, out: TextIO) -> None:
    """Per-replica rows, in the order of ``records`` (replica order for a
    ``run_ensemble`` result); LF endings, no quoting.

    Rows are formatted and written a block at a time, so the text of the
    whole table is never held in memory.  A block is formatted column by
    column in numpy: each column's digits come from repeated division by 10
    into a right-aligned uint8 matrix (``_decimal``), the matrices are
    joined side by side with ``,`` and ``\\n`` columns, and the 0 bytes of
    the padding are deleted from the flat bytes.  Every column is a
    non-negative count; a negative one raises ``ValueError`` instead of
    wrapping.
    """
    out.write(ENSEMBLE_CSV_HEADER + "\n")
    for lo in range(0, len(records), _CSV_BLOCK_ROWS):
        block = records[lo : lo + _CSV_BLOCK_ROWS]
        parts = []
        for name in REPLICA_DTYPE.names:
            parts += [_decimal(block[name], name), np.full((len(block), 1), _COMMA, dtype=np.uint8)]
        parts[-1][:] = _NEWLINE
        out.write(np.hstack(parts).tobytes().translate(None, b"\0").decode("ascii"))
