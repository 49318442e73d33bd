"""The olivetable benchmark: whole CLI commands, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs the real CLI (``python -m olivetable.cli``) in a fresh
interpreter, one invocation at a time: a closed loop with one client.  The
commands that pool use ``--threads 2``.  Every invocation is checked for
correctness and its payload digest (timing and path fields removed) must
equal that of every other invocation in the run, and, for the seeds in
``golden.json``, the digest recorded from the code the benchmark was built
against.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates an untraced invocation with one run under
``trace_cli.py`` and derives the per-layer metrics from the traced one; the
two must produce the same payload digest.

A report goes to standard output; its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
of the run (machine, every sample, the per-layer detail) is written to
``.bench_build/perfbench/results/``.

    python3 perfbench/run.py --record-golden --seeds 0-15

re-records ``golden.json`` from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = BENCH_DIR / "golden.json"

SETUP_REPEATS = 7
MIN_INVOCATIONS = 2  # untraced, per run, however long one takes
INVOCATION_TIMEOUT_S = 150
THREADS = 2
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

ENS_T, ENS_R = 12, 100_000
SWEEP_T, SWEEP_R = (10_000, 100_000), 64
EXACT_T = 20
VERIFY_CHECKS = (
    "catalan_values",
    "catalan_convolution",
    "gould_identity",
    "binomial_series",
    "pmf_triple_agreement",
    "pmf_published_ratio",
    "path_enumeration",
    "cdf_normalization",
    "mean_return_time",
    "olive_oracle_small_t",
    "lumping_soundness",
    "transition_mass",
    "sampler_vs_oracle",
    "accounting_identity",
    "oracle_vs_mc",
    "walk_structure",
    "seed_derivation",
)


class CheckFailed(Exception):
    """An invocation's output is wrong."""


class BenchError(Exception):
    """The benchmark itself cannot run or is inconsistent."""


# -- the program, imported from the checkout for the output checks --------------


def _program():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import olivetable.ensemble
    import olivetable.oracle

    return olivetable


_exact_mean_cache: dict[int, Fraction] = {}


def _exact_mean(t: int) -> Fraction:
    if t not in _exact_mean_cache:
        _exact_mean_cache[t] = _program().oracle.exact_expected_olives(t)
    return _exact_mean_cache[t]


# -- per-workload correctness checks ------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _load_json(files: dict[str, bytes], suffix: str) -> dict:
    try:
        return json.loads(files[suffix])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"{suffix}: {exc}") from None


def check_ens_short(files: dict[str, bytes], seed: int) -> None:
    lines = files[".csv"].decode().split("\n")
    _require(lines[-1] == "", "csv does not end with a newline")
    rows = lines[1:-1]
    _require(len(rows) == ENS_R, f"csv has {len(rows)} rows, expected {ENS_R}")
    o_values = [int(row.split(",")[2]) for row in rows]
    n = len(o_values)
    total = sum(o_values)
    var = Fraction(sum(o * o for o in o_values) * n - total * total, n * (n - 1))
    se = math.sqrt(float(var) / n)
    dev = abs(float(Fraction(total, n) - _exact_mean(ENS_T)))
    _require(dev <= 4 * se, f"mean O is {dev / se:.2f} se from the exact E[O_{ENS_T}]")
    program = _program()
    config = program.ensemble.EnsembleConfig(t=ENS_T, replicas=ENS_R, master_seed=seed)
    for i in sorted(random.Random(seed).sample(range(ENS_R), 16)):
        stats = program.ensemble.run_ensemble(config, threads=1, replica_range=(i, i + 1))
        buf = io.StringIO()
        program.ensemble.write_ensemble_csv(stats, buf)
        _require(buf.getvalue().split("\n")[1] == rows[i], f"replica {i} does not re-run to its csv row")
    summary = _load_json(files, ".summary.json")
    _require(summary["config"]["R"] == ENS_R and summary["config"]["t"] == ENS_T, "summary config")


def check_sweep_long(files: dict[str, bytes], seed: int) -> None:
    doc = _load_json(files, ".sweep.json")
    rows = doc["c_estimate"]["rows"]
    growth = doc["log_growth"]["rows"]
    _require([r["t"] for r in rows] == list(SWEEP_T), "c_estimate horizons")
    _require([r["t"] for r in growth] == list(SWEEP_T), "log_growth horizons")
    _require(all(r["within_bounds"] is True for r in rows), "a c_estimate row is out of bounds")
    _require(all(r["within_ceiling"] is True for r in growth), "a log_growth row is over its ceiling")


def check_exact_t20(files: dict[str, bytes], seed: int) -> None:
    pmf: dict[int, dict[int, Fraction]] = {}
    lines = files[".pmf.csv"].decode().split("\n")
    _require(lines[0] == "t,O,prob_num,prob_den" and lines[-1] == "", "pmf csv framing")
    for line in lines[1:-1]:
        t, o, num, den = (int(x) for x in line.split(","))
        pmf.setdefault(t, {})[o] = Fraction(num, den)
    _require(sorted(pmf) == list(range(1, EXACT_T + 1)), "pmf csv steps")
    for t, law in pmf.items():
        _require(sum(law.values(), Fraction(0)) == 1, f"pmf at t={t} does not sum to 1")
    lines = files[".mean.csv"].decode().split("\n")
    _require(len(lines) == EXACT_T + 2, "mean csv rows")
    for line in lines[1:-1]:
        t, num, den = (int(x) for x in line.split(","))
        _require(Fraction(num, den) == sum((o * p for o, p in pmf[t].items()), Fraction(0)), f"mean at t={t}")


def check_verify_full(files: dict[str, bytes], seed: int) -> None:
    doc = _load_json(files, ".verify.json")
    checks = doc["checks"]
    _require(tuple(c["name"] for c in checks) == VERIFY_CHECKS, "verify ran another set of checks")
    failed = [c["name"] for c in checks if c["pass"] is not True]
    _require(not failed and doc["all_passed"] is True, f"checks failed: {failed}")


# Deliberately corrupted payloads, built here, that each check must reject.


def _corrupt_ens_short(files: dict[str, bytes]) -> dict[str, bytes]:
    text = files[".csv"].decode()
    return {**files, ".csv": text[: text.rindex("\n", 0, len(text) - 1) + 1].encode()}


def _corrupt_sweep_long(files: dict[str, bytes]) -> dict[str, bytes]:
    doc = json.loads(files[".sweep.json"])
    doc["c_estimate"]["rows"][0]["within_bounds"] = False
    return {**files, ".sweep.json": json.dumps(doc).encode()}


def _corrupt_exact_t20(files: dict[str, bytes]) -> dict[str, bytes]:
    lines = files[".pmf.csv"].decode().split("\n")
    t, o, num, den = lines[-2].split(",")
    lines[-2] = f"{t},{o},{int(num) + 1},{den}"
    return {**files, ".pmf.csv": "\n".join(lines).encode()}


def _corrupt_verify_full(files: dict[str, bytes]) -> dict[str, bytes]:
    doc = json.loads(files[".verify.json"])
    doc["checks"][-1]["pass"] = False
    return {**files, ".verify.json": json.dumps(doc).encode()}


# -- workloads ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list[str]]  # CLI arguments for a seed, without --out
    outputs: tuple[str, ...]  # suffixes the CLI appends to the --out prefix
    check: Callable[[dict[str, bytes], int], None]
    corrupt: Callable[[dict[str, bytes]], dict[str, bytes]]
    seeded: bool
    replica_steps: int  # requested R x sum(t); 0 when the command names no replicas


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ens_short",
            "acceptance criterion 5 regime (t=12): per-replica overhead, pool fan-out and merge, report writing",
            lambda seed: ["ensemble", "--t", str(ENS_T), "--replicas", str(ENS_R),
                          "--seed", str(seed), "--threads", str(THREADS)],
            (".csv", ".summary.json"),
            check_ens_short,
            _corrupt_ens_short,
            True,
            ENS_R * ENS_T,
        ),
        Workload(
            "sweep_long",
            "long trajectories: the process kernel and RNG draws, and the duplicated log-growth work",
            lambda seed: ["sweep", "--t-list", ",".join(map(str, SWEEP_T)), "--replicas", str(SWEEP_R),
                          "--seed", str(seed), "--threads", str(THREADS)],
            (".sweep.json",),
            check_sweep_long,
            _corrupt_sweep_long,
            True,
            SWEEP_R * sum(SWEEP_T),
        ),
        Workload(
            "exact_t20",
            "the oracle layer alone: canonical pushforward and Fraction arithmetic, one process",
            lambda seed: ["exact", "--t", str(EXACT_T)],
            (".pmf.csv", ".mean.csv", ".meta.json"),
            check_exact_t20,
            _corrupt_exact_t20,
            False,
            0,
        ),
        Workload(
            "verify_full",
            "the id-based step API, chain DP and identities, enumerations and small-t oracle calls",
            lambda seed: ["verify", "--level", "full"],
            (".verify.json",),
            check_verify_full,
            _corrupt_verify_full,
            False,
            0,
        ),
    )
}

# -- metrics ------------------------------------------------------------------------

# name -> (unit, better); measured with tracing off, one value per workload.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed with the end-to-end metrics but not part of the JSON result:
# replica_steps_per_s exists only on ens_short and sweep_long (and is the
# fixed R x sum(t) over wall_s), fail_frac is carried by attempted/failed.
DERIVED = {"replica_steps_per_s": "1/s", "fail_frac": "ratio"}

# name -> (unit, better); from the traced run.
PER_LAYER = {
    "rng.make_rng_calls": ("count", "lower"),
    "rng.make_rng_us": ("us", "lower"),
    "rng.derive_seed_calls": ("count", "lower"),
    "rng.draws_per_step": ("draws/step", "lower"),
    "process.run_trajectory_calls": ("count", "lower"),
    "process.run_trajectory_s": ("s", "lower"),
    "process.ns_per_step": ("ns", "lower"),
    "process.step_calls": ("count", "lower"),
    "process.step_us": ("us", "lower"),
    "ensemble.run_ensemble_s": ("s", "lower"),
    "ensemble.kernel_share": ("ratio", "higher"),
    "ensemble.replica_overhead_us": ("us", "lower"),
    "ensemble.useful_ratio": ("ratio", "higher"),
    "ensemble.summary_s": ("s", "lower"),
    "ensemble.csv_s": ("s", "lower"),
    "ensemble.estimate_c_s": ("s", "lower"),
    "ensemble.log_growth_s": ("s", "lower"),
    "oracle.table_s": ("s", "lower"),
    "oracle.transitions_calls": ("count", "lower"),
    "oracle.successors": ("count", "lower"),
    "oracle.states_final": ("count", "lower"),
    "oracle.den_bits_max": ("bits", "lower"),
    "oracle.us_per_transition": ("us", "lower"),
    "chain.dp_s": ("s", "lower"),
    "chain.walk_ns_per_step": ("ns", "lower"),
    "chain.identities_s": ("s", "lower"),
    **{f"verification.{name}_s": ("s", "lower") for name in VERIFY_CHECKS},
    "verification.suite_report_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Which end-to-end metric, on which workload, each layer metric should move.
LAYER_MOVES = {
    "rng": "cpu_s and wall_s on ens_short (seeding) and sweep_long (draws)",
    "process.ns_per_step": "cpu_s and replica_steps_per_s on sweep_long; little on ens_short",
    "process.step_us": "wall_s on verify_full only",
    "ensemble overhead, summary, csv": "wall_s and peak_rss_mb on ens_short",
    "ensemble.useful_ratio, log_growth_s": "wall_s and cpu_s on sweep_long",
    "oracle": "wall_s on exact_t20; a little on verify_full",
    "chain": "wall_s on verify_full",
    "verification": "wall_s on verify_full",
    "cli": "wall_s on every workload",
}

_MAX_COUNTERS = ("oracle.states_last", "oracle.den_bits_max")


def _merge_trace(doc: dict) -> tuple[dict, dict, list]:
    """Sum the stats and counters of the main process and its workers."""
    stats: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    spans = []
    for part in [doc, *doc["workers"]]:
        for name, values in part["stats"].items():
            acc = stats.setdefault(name, [0, 0, 0])
            for k in range(3):
                acc[k] += values[k]
        for name, value in part["counters"].items():
            if name in _MAX_COUNTERS:
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        spans.extend(part["spans"])
    return stats, counters, spans


def layer_metrics(doc: dict, workload: Workload) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced invocation, plus derived checks."""
    stats, counters, spans = _merge_trace(doc)

    def calls(name: str) -> int:
        return stats.get(name, [0, 0, 0])[0]

    def total_s(*names: str) -> float:
        return sum(stats.get(n, [0, 0, 0])[1] for n in names) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = counters.get("process.steps", 0)
    chunk_spans = [s for s in spans if s[2] == "ensemble._run_chunk"]
    chunk_busy_ns = sum(s[4] - s[3] for s in chunk_spans)
    kernel_ns = counters.get("ensemble.chunk_kernel_ns", 0)
    kernel_self_ns = counters.get("ensemble.chunk_kernel_self_ns", 0)
    replicas = counters.get("ensemble.chunk_replicas", 0)
    capacity_ns = 0
    for run in (s for s in spans if s[2] == "ensemble.run_ensemble"):
        workers = {s[5] for s in chunk_spans if s[1] == run[0]}
        capacity_ns += max(1, len(workers)) * (run[4] - run[3])
    requested = workload.replica_steps or steps

    m = {
        "rng.make_rng_calls": calls("rng.make_rng"),
        "rng.make_rng_us": ratio(total_s("rng.make_rng") * 1e6, calls("rng.make_rng")),
        "rng.derive_seed_calls": calls("rng.derive_seed"),
        "rng.draws_per_step": ratio(counters.get("rng.draws", 0), counters.get("process.counted_steps", 0)),
        "process.run_trajectory_calls": calls("process.run_trajectory"),
        "process.run_trajectory_s": total_s("process.run_trajectory"),
        # run_trajectory's self time (make_rng is its only traced callee), on
        # the trajectories whose draws were not counted
        "process.ns_per_step": ratio(counters.get("process.plain_self_ns", 0), counters.get("process.plain_steps", 0)),
        "process.step_calls": calls("process.apply_move"),
        "process.step_us": ratio(
            total_s("process.sample_move", "process.apply_move") * 1e6, calls("process.apply_move")
        ),
        "ensemble.run_ensemble_s": total_s("ensemble.run_ensemble"),
        "ensemble.kernel_share": ratio(kernel_ns, capacity_ns),
        "ensemble.replica_overhead_us": ratio((chunk_busy_ns - kernel_self_ns) / 1e3, replicas),
        "ensemble.useful_ratio": ratio(requested, steps) if steps else 1.0,
        "ensemble.summary_s": total_s("ensemble.summary_json"),
        "ensemble.csv_s": total_s("ensemble.write_ensemble_csv"),
        "ensemble.estimate_c_s": total_s("ensemble.estimate_c"),
        "ensemble.log_growth_s": total_s("ensemble.log_growth_check"),
        "oracle.table_s": total_s("oracle.olive_distribution_table"),
        "oracle.transitions_calls": calls("oracle.transitions"),
        "oracle.successors": counters.get("oracle.successors", 0),
        "oracle.states_final": counters.get("oracle.states_last", 0),
        "oracle.den_bits_max": counters.get("oracle.den_bits_max", 0),
        # pushforward time (transitions and Fraction accumulation) per successor
        "oracle.us_per_transition": ratio(total_s("oracle._advance") * 1e6, counters.get("oracle.successors", 0)),
        "chain.dp_s": total_s("chain.first_return_pmf_dp"),
        "chain.walk_ns_per_step": ratio(total_s("chain.simulate_walk") * 1e9, counters.get("chain.walk_steps", 0)),
        "chain.identities_s": total_s(
            "chain.verify_catalan_convolution", "chain.verify_gould_identity", "chain.verify_binomial_series"
        ),
        **{
            f"verification.{name}_s": counters.get(f"verification.check_ns.{name}", 0) / 1e9
            for name in VERIFY_CHECKS
        },
        "verification.suite_report_s": total_s("verification.suite_report"),
        "cli.main_s": total_s("cli.main"),
        # main minus the calls it makes into the other layers
        "cli.self_s": sum(stats.get(n, [0, 0, 0])[2] for n in ("cli.main", "cli.build_parser")) / 1e9,
    }
    detail = {
        "spans": len(spans),
        "worker_processes": len(doc["workers"]),
        "worker_busy_s": chunk_busy_ns / 1e9,
        "kernel_of_worker_busy": ratio(kernel_ns, chunk_busy_ns),
        "replicas_in_chunks": replicas,
        "kernel_self_s": kernel_self_ns / 1e9,
        "summary_csv_overhead_s": m["ensemble.summary_s"] + m["ensemble.csv_s"] + (chunk_busy_ns - kernel_self_ns) / 1e9,
        "rng_draws": counters.get("rng.draws", 0),
        "simulated_replica_steps": steps,
    }
    return m, detail


# -- running the program ------------------------------------------------------------


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def child_env() -> dict[str, str]:
    """The package from this checkout, with a bytecode cache kept inside it."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


def invoke(args: list[str], log: Path) -> Sample:
    """Run ``python <args>`` to completion; CPU and RSS include its workers.

    ``wait4`` reports the child's usage together with that of the pool
    workers it has reaped, and the largest RSS among them.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers a killed invocation left behind
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def _kill_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _strip_volatile(node):
    """Drop timing and output-path fields, which differ between repeats."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key == "elapsed_seconds":
                continue
            if key == "flags" and isinstance(value, dict):
                value = {k: v for k, v in value.items() if k != "out"}
            out[key] = _strip_volatile(value)
        return out
    if isinstance(node, list):
        return [_strip_volatile(v) for v in node]
    return node


def payload_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for suffix in sorted(files):
        data = files[suffix]
        if suffix.endswith(".json"):
            data = json.dumps(_strip_volatile(json.loads(data)), sort_keys=True).encode()
        h.update(suffix.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


@dataclass
class Attempt:
    sample: Sample
    traced: bool
    ok: bool
    reason: str
    digest: Optional[str]


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


class Runner:
    """Invokes one workload and judges each invocation."""

    def __init__(self, workload: Workload, seed: int, golden: dict):
        self.w = workload
        self.seed = seed
        self.dir = WORK / "work" / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.prefix = self.dir / "out"
        key = str(seed) if workload.seeded else "*"
        self.golden = golden.get(workload.name, {}).get(key)
        self.reference: Optional[str] = None
        self.first_files: Optional[dict[str, bytes]] = None
        self.attempts: list[Attempt] = []

    def run(self, traced: bool = False, trace_out: Optional[Path] = None) -> Attempt:
        for suffix in self.w.outputs:
            Path(str(self.prefix) + suffix).unlink(missing_ok=True)
        cli_args = [*self.w.argv(self.seed), "--out", str(self.prefix)]
        if traced:
            args = [str(BENCH_DIR / "trace_cli.py"), str(trace_out), "--", *cli_args]
        else:
            args = ["-m", "olivetable.cli", *cli_args]
        sample = invoke(args, self.dir / "log.txt")
        attempt = self.judge(sample, traced)
        self.attempts.append(attempt)
        return attempt

    def judge(self, sample: Sample, traced: bool) -> Attempt:
        if sample.returncode != 0:
            log = (self.dir / "log.txt").read_text(errors="replace")[-2000:]
            return Attempt(sample, traced, False, f"exit code {sample.returncode}: {log}", None)
        files = {}
        for suffix in self.w.outputs:
            path = Path(str(self.prefix) + suffix)
            if not path.exists():
                return Attempt(sample, traced, False, f"missing output {path.name}", None)
            files[suffix] = path.read_bytes()
        ok, reason, digest = self.evaluate(files)
        if self.first_files is None:
            self.first_files = files
        return Attempt(sample, traced, ok, reason, digest)

    def evaluate(self, files: dict[str, bytes]) -> tuple[bool, str, str]:
        digest = payload_digest(files)
        if digest != self.reference:  # a payload not checked yet
            try:
                self.w.check(files, self.seed)
            except CheckFailed as exc:
                return False, f"check failed: {exc}", digest
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                return False, f"check failed: unreadable output ({exc!r})", digest
            if self.reference is not None:
                return False, "payload digest differs from the other repeats", digest
            self.reference = digest
        if self.golden is not None and digest != self.golden:
            return False, "payload digest differs from the recorded one", digest
        return True, "", digest


def tally(attempts: list[Attempt]) -> tuple[int, int]:
    return len(attempts), sum(1 for a in attempts if not a.ok)


# -- self-checks --------------------------------------------------------------------


def self_check_static() -> None:
    for name in [*END_TO_END, *DERIVED, *PER_LAYER]:
        if not METRIC_NAME.fullmatch(name) or len(name) > 64:
            raise BenchError(f"bad metric name {name!r}")
    for w in WORKLOADS.values():
        if not callable(w.check) or not callable(w.corrupt):
            raise BenchError(f"workload {w.name} has no correctness check")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        declared = (
            [w["name"] for w in spec["workloads"]],
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
        )
        if declared != (list(WORKLOADS), END_TO_END, PER_LAYER):
            raise BenchError("BENCHMARK.json does not declare the workloads and metrics run.py measures")


def self_check_corruption(runner: Runner) -> None:
    """A corrupted copy of a real payload must be rejected and counted."""
    if runner.first_files is None:
        return  # nothing to corrupt: every invocation already failed
    corrupted = runner.w.corrupt(runner.first_files)
    try:
        runner.w.check(corrupted, runner.seed)
    except CheckFailed:
        pass
    else:
        raise BenchError(f"{runner.w.name}: the check accepted a corrupted payload")
    ok, _, _ = runner.evaluate(corrupted)
    fake = Attempt(Sample(0.0, 0.0, 0.0, 0), False, ok, "", None)
    attempted, failed = tally(runner.attempts + [fake])
    if (attempted, failed) != (len(runner.attempts) + 1, tally(runner.attempts)[1] + 1):
        raise BenchError(f"{runner.w.name}: a corrupted payload is not counted as failed")


# -- machine record ------------------------------------------------------------------


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
    ).stdout.strip() or None
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


# -- a run ---------------------------------------------------------------------------


def measure_setup(repeats: int) -> list[float]:
    """Wall times of a fresh interpreter running ``import olivetable.cli``."""
    log = WORK / "setup.log"
    samples = []
    for _ in range(repeats):
        s = invoke(["-c", "import olivetable.cli"], log)
        if s.returncode != 0:
            raise BenchError("cannot import olivetable.cli:\n" + log.read_text(errors="replace")[-2000:])
        samples.append(s.wall_s)
    return samples


def _spread(values: list[float]) -> str:
    return f"min {min(values):.4f} max {max(values):.4f}"


def run(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "olivetable" / "cli.py").is_file():
        raise BenchError(f"no olivetable sources under {ROOT / 'src'}")
    self_check_static()
    WORK.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    machine = machine_record()
    runner = Runner(workload, seed, load_golden())
    measure_setup(1)  # fills the bytecode cache, as an installed package has one
    # Set-up probes before and after the invocations, so that they see the
    # same machine as the invocations do.
    setup = [] if trace else measure_setup(SETUP_REPEATS // 2)

    traces = []
    start = time.perf_counter()
    while True:
        if trace:
            runner.run()
            trace_out = runner.dir / "trace.json"
            trace_out.unlink(missing_ok=True)
            attempt = runner.run(traced=True, trace_out=trace_out)
            if attempt.sample.returncode == 0:
                traces.append(layer_metrics(json.loads(trace_out.read_text()), workload))
        else:
            runner.run()
        walls = [a.sample.wall_s for a in runner.attempts]
        per_round = statistics.median(walls) * (2 if trace else 1)
        enough = trace or len(walls) >= MIN_INVOCATIONS
        if enough and time.perf_counter() - start + per_round > seconds:
            break
    if not trace:
        setup += measure_setup(SETUP_REPEATS - len(setup))
    load_end = os.getloadavg()

    self_check_corruption(runner)
    attempted, failed = tally(runner.attempts)
    plain = [a.sample for a in runner.attempts if not a.traced]
    traced = [a.sample for a in runner.attempts if a.traced]
    nproc = machine["nproc"] or 1
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {
            **machine,
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "loaded_workloads": [workload.name] if max(load_start[0], load_end[0]) > nproc else [],
        },
        "attempted": attempted,
        "failed": failed,
        "failures": [a.reason for a in runner.attempts if not a.ok],
        "digest": runner.reference,
        "golden_digest": runner.golden,
        "samples": [vars(a.sample) | {"traced": a.traced, "ok": a.ok} for a in runner.attempts],
        "setup_samples": setup,
    }
    if trace:
        layer = {
            name: statistics.median(m[name] for m, _ in traces) if traces else 0.0
            for name in PER_LAYER if name != "trace.overhead_s"
        }
        layer["trace.overhead_s"] = (
            statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain)
            if traced else 0.0
        )
        result["metrics"] = {n: {"value": layer[n], "unit": PER_LAYER[n][0]} for n in PER_LAYER}
        result["detail"] = traces[-1][1] if traces else {}
        result["layer_moves"] = LAYER_MOVES
    else:
        values = {
            "wall_s": [s.wall_s for s in plain],
            "cpu_s": [s.cpu_s for s in plain],
            "setup_s": setup,
            "peak_rss_mb": [s.peak_rss_mb for s in plain],
        }
        result["metrics"] = {
            n: {"value": statistics.median(v), "unit": END_TO_END[n][0], "n": len(v), "spread": _spread(v)}
            for n, v in values.items()
        }
        if workload.replica_steps:
            rate = [workload.replica_steps / s.wall_s for s in plain]
            result["metrics"]["replica_steps_per_s"] = {
                "value": statistics.median(rate), "unit": DERIVED["replica_steps_per_s"],
                "n": len(rate), "spread": _spread(rate),
            }
        result["metrics"]["fail_frac"] = {"value": failed / attempted, "unit": DERIVED["fail_frac"], "n": attempted}
    return result


def report(result: dict) -> None:
    m = result["machine"]
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"seconds={result['seconds']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} numpy={m['numpy']} "
          f"commit={m['git_commit']} src={m['src_sha256'][:12]}")
    print(f"load average: start {m['loadavg_start'][0]:.2f} end {m['loadavg_end'][0]:.2f}; "
          f"ran above nproc: {m['loaded_workloads'] or 'none'}")
    for name, metric in result["metrics"].items():
        extra = f"  n={metric['n']}" if "n" in metric else ""
        extra += f"  ({metric['spread']})" if "spread" in metric else ""
        print(f"  {name:<36s} {metric['value']:>16.6f} {metric['unit']:<10s}{extra}")
    for key, value in result.get("detail", {}).items():
        print(f"  detail {key:<29s} {value}")
    for layer, moves in result.get("layer_moves", {}).items():
        print(f"  {layer} should move {moves}")
    print(f"attempted={result['attempted']} failed={result['failed']} digest={result['digest']}")
    for reason in result["failures"]:
        print(f"  FAILED: {reason[:400]}")


def contract_line(result: dict) -> str:
    names = PER_LAYER if result["trace"] else END_TO_END
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]} for n in names},
    })


def record_golden(seeds: list[int]) -> None:
    golden = load_golden()
    for w in WORKLOADS.values():
        entry = golden.setdefault(w.name, {})
        for seed in seeds if w.seeded else [0]:
            runner = Runner(w, seed, {})
            attempt = runner.run()
            if not attempt.ok:
                raise BenchError(f"{w.name} seed {seed}: {attempt.reason[:400]}")
            entry[str(seed) if w.seeded else "*"] = attempt.digest
            print(f"{w.name} seed={seed if w.seeded else '*'} {attempt.digest}", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--seeds", type=_parse_seeds, default=[1])
    args = parser.parse_args(argv)
    try:
        if args.record_golden:
            record_golden(args.seeds)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = WORK / "results" / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
