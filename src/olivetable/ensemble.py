"""Replicated Monte Carlo experiments with exactly-aggregated stats.

Replica ``i`` of a run is fully determined by the config: its stream seed is
``derive_seed(master_seed, i)``, so any subset of replicas can be computed on
any worker (or re-run alone) bit-identically.  A run cuts its replica range
into tasks and takes their rows in replica order, so a pooled run equals an
in-process one.  Each replica contributes one row of integer counters, with
the olive moments summed in Python integers (never floats).

``run_ensemble`` copies the rows into a numpy record array, which it returns
and which is the run's only store: ``summary_json(config, records)`` is the
one report of a run, sorting the O column once and reading every other
figure straight off the columns.  ``sweep`` runs only the scalar kernel,
whose tasks hand back rows of plain ints, and reads its reports off those.
So importing this module loads no numpy, and neither does ``sweep``: numpy
is imported only where the lockstep kernel or the record array needs it,
and ``REPLICA_DTYPE`` is built on first access.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
import operator
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, TextIO

from . import process
from .process import BOUND_ENFORCEMENT_MIN_T, Z99, TableState
from .rng import _RangeError, derive_seed, make_rng

if TYPE_CHECKING:
    import numpy as np

# The columns of a replica row, in CSV order: all counts, int64 in the
# record array except the uint64 seed.
_COLUMNS = (
    "replica", "seed", "O", "t_plate", "tau1", "two_to_one",
    "max_other_olives", "first_plate_olives", "L_ge3", "plate_moves_ge3",
)

ENSEMBLE_CSV_HEADER = ",".join(_COLUMNS)


@functools.cache
def _replica_dtype() -> np.dtype:
    """The numpy record dtype of a replica row: one field per column."""
    import numpy as np

    return np.dtype([(name, np.uint64 if name == "seed" else np.int64) for name in _COLUMNS])


def __getattr__(name: str):
    # REPLICA_DTYPE is a numpy dtype, so it is built on first access
    # instead of when the module is imported.
    if name == "REPLICA_DTYPE":
        return _replica_dtype()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _olive_moments(o) -> tuple[list[tuple[int, int]], int, int]:
    """The distinct values of an O column with their replica counts (at
    most t + 1 pairs, in increasing O), and the exact sums of O and O^2 in
    Python ints.  A record array's numpy column is counted by ``np.unique``,
    many times faster than ``Counter`` at 10^5 replicas; a list or tuple of
    ints (``sweep``'s) by ``Counter``, which needs no numpy."""
    if isinstance(o, (list, tuple)):
        o_counts = sorted(Counter(o).items())
    else:
        import numpy as np

        values, counts = np.unique(o, return_counts=True)
        o_counts = list(zip(values.tolist(), counts.tolist()))
    return o_counts, sum(o * c for o, c in o_counts), sum(o * o * c for o, c in o_counts)


# A replica row's counters, by TableState attribute name: the scalar kernel
# reads them off its state and the lockstep kernel hands its lanes over in
# this order.
_COUNTERS = TableState._COUNTS + ("first_plate_olives",)
_read_counters = operator.attrgetter(*_COUNTERS)


def _row(replica, seed, counters) -> tuple[dict, object]:
    """A replica's row, by column name in _COLUMNS order, from its index,
    seed and counters (in _COUNTERS order), and its move count, which
    ``_check_conservation`` holds to the horizon.  Plain ints give one
    replica's row; numpy columns with one value per replica give a lockstep
    block's (``replica`` then holding the block's indices).  The one place
    a row is built."""
    c = dict(zip(_COUNTERS, counters))
    derived = process._derived_counts(c["c_add_plate"], c["c_merge"], c["num_returns"])
    row = {
        "replica": replica,
        "seed": seed,
        "O": c["c_add_olive"] - c["c_remove_olive"],
        "t_plate": derived["t_plate"],
        "tau1": derived["tau1"],
        "two_to_one": derived["two_to_one"],
        "max_other_olives": c["max_other_olives"],
        "first_plate_olives": c["first_plate_olives"],
        "L_ge3": derived["L_ge3"],
        "plate_moves_ge3": c["plate_moves_at_ge3"],
    }
    return row, derived["t_plate"] + c["c_add_olive"] + c["c_remove_olive"]


def _check_conservation(t: int, lo: int, moves: Iterable[int]) -> None:
    """Raise unless ``moves``, the move counts of replicas lo, lo + 1, ...
    at horizon t, all equal t: the one check of every row either kernel
    hands over.

    Every step makes one move, so the move counts sum to t at every row
    taken: olive conservation, O = t - t_plate - 2 * removals.  A lockstep
    lane that ran dry and was not refilled falls short.
    """
    for k, total in enumerate(moves):
        if total != t:
            raise AssertionError(f"olive conservation violated in replica {lo + k}")


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
# Both kernels hand over the same counters, and ``_row`` builds every row.
# Lockstep pays 10-15 ms per block for seeding, so it is the slower kernel
# below about 500 replicas, and at long horizons numpy's per-call cost makes
# each of its steps dearer than the scalar kernel's.  A task holds at most
# _LOCKSTEP_MAX_LANES replicas, whose (624, lanes) uint32 MT19937 seeding
# state fits in 10 MiB; the cap is at least twice the minimum, so cutting an
# eligible range leaves no task below it.
_LOCKSTEP_MAX_T = 64
_LOCKSTEP_MIN_REPLICAS = 1024
_LOCKSTEP_MAX_LANES = (10 << 20) // (624 * 4)


def _run_chunk(task: tuple) -> list:
    """Replicas [lo, hi) of one master seed at each of the increasing
    ``horizons``, as one part per horizon holding their rows in replica
    order.  Each replica is simulated once, to the last horizon.  An
    eligible task runs one lockstep block, and its one part is a numpy
    record array.  Any other task runs on the scalar kernel alone, taking
    its seeds from ``derive_seed``, and each part is a list of row tuples
    of plain ints, in _COLUMNS order: such a task loads no numpy."""
    horizons, lo, hi, master_seed = task
    (t, *later) = horizons
    if not later and t <= _LOCKSTEP_MAX_T and hi - lo >= _LOCKSTEP_MIN_REPLICAS:
        return [_lockstep_rows(t, lo, hi, master_seed)]
    parts = [[] for _ in horizons]
    moves = [[] for _ in horizons]
    for i in range(lo, hi):
        seed = derive_seed(master_seed, i)
        for part, taken, counters in zip(parts, moves, _replica_counters(seed, horizons)):
            row, total = _row(i, seed, counters)
            part.append(tuple(row.values()))
            taken.append(total)
    for t, taken in zip(horizons, moves):
        _check_conservation(t, lo, taken)
    return parts


def _lockstep_rows(t: int, lo: int, hi: int, master_seed: int) -> np.ndarray:
    """The record array of replicas [lo, hi) at horizon t from one lockstep
    block, with the scalar kernel refilling every lane that ran dry."""
    import numpy as np

    from . import _lockstep

    seeds = _lockstep.derive_seeds(master_seed, lo, hi)
    counters, dry = _lockstep.run_block(t, seeds)
    for k in dry:
        (counters[:, k],) = _replica_counters(int(seeds[k]), (t,))
    row, moves = _row(np.arange(lo, hi), seeds, counters)
    _check_conservation(t, lo, moves.tolist())
    rows = np.empty(hi - lo, dtype=_replica_dtype())
    for name, column in row.items():
        rows[name] = column
    return rows


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
    them) as a numpy record array of ``REPLICA_DTYPE``, one row per replica
    in replica order, with exactly the ensemble CSV columns.

    ``threads`` (default: the usable CPUs) caps the worker pool, which
    ``pool_size`` also caps at the usable CPUs and the replica count; the
    result is identical for any thread count because replica seeds are
    derived from the config and each task's rows land at their replica index.
    """
    import numpy as np

    lo, hi = replica_range if replica_range is not None else (0, config.replicas)
    if not 0 <= lo <= hi <= config.replicas:
        raise _RangeError(f"bad replica range {replica_range} for R={config.replicas}")
    records = np.empty(hi - lo, dtype=_replica_dtype())
    # Each part is copied out and freed as it arrives instead of all parts
    # being held for one concatenation.
    for a, b, (rows,) in _run_replicas(config.master_seed, (config.t,), lo, hi, threads):
        records[a - lo : b - lo] = rows
    return records


def _run_replicas(master_seed: int, horizons: Sequence[int], lo: int, hi: int, threads: Optional[int]) -> Iterator[tuple]:
    """Replicas [lo, hi) of ``master_seed`` at each of the increasing
    ``horizons``, as ``(a, b, parts)`` per task in replica order, where
    ``parts`` is ``_run_chunk``'s result for replicas [a, b).

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
    with _fork_pool(workers) if pooled else contextlib.nullcontext() as pool:
        # In task order either way.
        chunksize = -(-len(tasks) // (4 * workers))
        parts = pool.map(_run_chunk, tasks, chunksize=chunksize) if pooled else map(_run_chunk, tasks)
        for (_, a, b, _), part in zip(tasks, parts):
            yield a, b, part


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
    rows = [[] for _ in horizons]
    for _, _, parts in _run_replicas(master_seed, horizons, 0, replicas, threads):
        for taken, part in zip(rows, parts):
            taken += part
    # Each horizon's rows as columns by name, like a record array's.
    runs = {t: dict(zip(_COLUMNS, zip(*taken))) for t, taken in zip(horizons, rows)}

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
        max_other = max(records["max_other_olives"][:n_growth])
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


def _decimal(column: np.ndarray, name: str) -> np.ndarray:
    """The decimal digits of a count column as ASCII bytes, one row per
    value, right-aligned in a uint8 matrix as wide as the largest value;
    the cells left of a value's leading digit are 0."""
    import numpy as np

    if column.dtype.kind == "i" and column.min() < 0:
        raise ValueError(f"negative count in CSV column {name}: {int(column.min())}")
    value = column.astype(np.uint64)
    ten = np.uint64(10)
    width = len(str(int(value.max())))
    cells = np.empty((len(value), width), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        # Floor division and a multiply-subtract: np.divmod skips numpy's
        # fast division by a scalar and costs several times as much.
        quotient = value // ten
        cells[:, k] = value - quotient * ten + _ZERO
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
    import numpy as np

    out.write(ENSEMBLE_CSV_HEADER + "\n")
    for lo in range(0, len(records), _CSV_BLOCK_ROWS):
        block = records[lo : lo + _CSV_BLOCK_ROWS]
        parts = []
        for name in _COLUMNS:
            parts += [_decimal(block[name], name), np.full((len(block), 1), _COMMA, dtype=np.uint8)]
        parts[-1][:] = _NEWLINE
        out.write(np.hstack(parts).tobytes().translate(None, b"\0").decode("ascii"))
