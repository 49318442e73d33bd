"""Run the olivetable CLI in this interpreter with every layer call traced.

    python3 perfbench/trace_cli.py TRACE_JSON -- <olivetable CLI arguments>

Before the CLI starts, every public function of the layer modules (``rng``,
``process``, ``ensemble``, ``oracle``, ``chain``, ``verification``, ``cli``)
is replaced, in every module that binds it, by a wrapper that times the
call.  Nothing in the package is edited; the wrappers live here.

* Coarse calls (one per phase, check or report) are kept as spans:
  ``(id, parent, name, start_ns, end_ns, pid)``.
* Hot calls (one per replica, step, draw or oracle state) are only counted,
  as calls, inclusive ns and self ns per name, so that tracing a 10^6-call
  layer does not keep 10^6 records.
* Every other call of ``process.make_rng`` returns a ``random.Random``
  subclass that counts its ``getrandbits`` draws.  It produces the same
  stream, which the benchmark proves by comparing payload digests of traced
  and untraced runs.  Draws per step are counted exactly on the trajectories
  that got one; the kernel's time per step is taken from the others, which
  do not pay for the counting.
* Two private boundaries are wrapped as well: ``ensemble._run_chunk`` (one
  pool task) and ``oracle._advance`` (one pushforward step).  A forked pool
  worker inherits the wrappers; after each task it writes its spans and
  counters to ``<TRACE_JSON>.workers/<pid>.json``, and this process merges
  those files into TRACE_JSON once the CLI returns.

The CLI's exit code is passed through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import random
import sys
import time
from pathlib import Path

LAYERS = ("rng", "process", "ensemble", "oracle", "chain", "verification", "cli")

# Called once per replica, step, draw or oracle state: counted, not spanned.
HOT = frozenset(
    {
        "rng.splitmix64",
        "rng.derive_seed",
        "rng.make_rng",
        "rng.randbelow",
        "process.new_table",
        "process.move_counts",
        "process.sample_move",
        "process.apply_move",
        "process.step",
        "process.run_trajectory",
        "oracle.canonical_of",
        "oracle.transitions",
        "oracle.exact_transition_check",
        "chain.catalan",
        "chain.chain_step",
        "chain.catalan_convolution_closed",
        "chain.catalan_convolution_brute",
        "chain.first_return_pmf_closed",
        "chain.published_first_return_pmf",
        "chain.first_return_pmf_convolution",
    }
)

_MASK64 = (1 << 64) - 1


class Tracer:
    """Spans and per-name counters of one process."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.spans: list[tuple] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}
        self.draws = [0]
        self.counting = False  # whether the last process.make_rng counted
        # One frame per open traced call: [child_ns, span id of the nearest
        # enclosing span].  Hot frames inherit their parent's span id.
        self.frames: list[list] = []
        self.next_id = 0

    def stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0])

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def new_span_id(self) -> str:
        self.next_id += 1
        return f"{self.pid}.{self.next_id}"

    def after_fork_in_child(self) -> None:
        # Keep the list objects (wrappers hold them), drop the parent's data.
        self.pid = os.getpid()
        self.spans.clear()
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        self.counters.clear()
        self.draws[0] = 0
        self.counting = False
        self.next_id = 0

    def snapshot(self) -> dict:
        counters = dict(self.counters)
        counters["rng.draws"] = counters.get("rng.draws", 0) + self.draws[0]
        return {
            "pid": self.pid,
            "spans": [list(s) for s in self.spans],
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counters": counters,
        }

    def flush_worker(self) -> None:
        if self.pid == self.main_pid:
            return
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        path = self.worker_dir / f"{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


def _wrap(tracer: Tracer, name: str, fn, post=None):
    """A timing wrapper for ``fn``.

    ``post(args, kwargs, result, self_ns)`` runs after the call, untimed.
    """
    perf = time.perf_counter_ns
    frames = tracer.frames
    stat = tracer.stat(name)
    hot = name in HOT

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = frames[-1][1] if frames else None
        sid = parent if hot else tracer.new_span_id()
        frame = [0, sid]
        frames.append(frame)
        t0 = perf()
        try:
            return_value = fn(*args, **kwargs)
        finally:
            t1 = perf()
            frames.pop()
            dt = t1 - t0
            if frames:
                frames[-1][0] += dt
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - frame[0]
            if not hot:
                tracer.spans.append((sid, parent, name, t0, t1, tracer.pid))
        if post is not None:
            post(args, kwargs, return_value, dt - frame[0])
        return return_value

    return wrapper


def _counting_random(draws: list):
    getrandbits = random.Random.getrandbits

    class CountingRandom(random.Random):
        """``random.Random`` that counts ``getrandbits`` calls."""

        def getrandbits(self, k):
            draws[0] += 1
            return getrandbits(self, k)

    return CountingRandom


def install(tracer: Tracer) -> None:
    """Patch every binding of every public layer function in the package."""
    package = importlib.import_module("olivetable")
    modules = {layer: importlib.import_module(f"olivetable.{layer}") for layer in LAYERS}
    all_modules = [package, *modules.values()]
    counting_random = _counting_random(tracer.draws)

    def post_run_trajectory(args, kwargs, rec, self_ns):
        tracer.count("process.steps", rec.t_max)
        if tracer.counting:
            tracer.count("process.counted_steps", rec.t_max)
        else:
            tracer.count("process.plain_steps", rec.t_max)
            tracer.count("process.plain_self_ns", self_ns)

    def post_transitions(args, kwargs, law, self_ns):
        tracer.count("oracle.successors", len(law))

    def post_advance(args, kwargs, result, self_ns):
        dist = result[0]
        tracer.counters["oracle.states_last"] = len(dist)
        tracer.maximum("oracle.den_bits_max", max(p.denominator.bit_length() for p in dist.values()))

    def post_table(args, kwargs, rows, self_ns):
        bits = max(p.denominator.bit_length() for _, pmf in rows for p in pmf.values())
        tracer.maximum("oracle.den_bits_max", bits)

    def post_simulate_walk(args, kwargs, stats, self_ns):
        tracer.count("chain.walk_steps", stats.steps)

    def post_run_suite(args, kwargs, results, self_ns):
        for r in results:
            tracer.counters[f"verification.check_ns.{r.name}"] = int(r.elapsed_seconds * 1e9)

    posts = {
        "process.run_trajectory": post_run_trajectory,
        "oracle.transitions": post_transitions,
        "oracle.olive_distribution_table": post_table,
        "chain.simulate_walk": post_simulate_walk,
        "verification.run_suite": post_run_suite,
    }

    replacements = {}
    for layer, module in modules.items():
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            replacements[fn] = _wrap(tracer, name, fn, posts.get(name))
    for module in all_modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(module, attr, replacements[value])

    # make_rng is documented as random.Random(seed masked to 64 bits).
    plain_make_rng = modules["rng"].make_rng.__wrapped__

    @functools.wraps(plain_make_rng)
    def alternating_make_rng(seed):
        tracer.counting = not tracer.counting
        return counting_random(seed & _MASK64) if tracer.counting else plain_make_rng(seed)

    modules["process"].make_rng = _wrap(tracer, "rng.make_rng", alternating_make_rng)

    oracle = modules["oracle"]
    oracle._advance = _wrap(tracer, "oracle._advance", oracle._advance, post_advance)

    ensemble = modules["ensemble"]
    run_chunk = _wrap(tracer, "ensemble._run_chunk", ensemble._run_chunk)
    rt_stat = tracer.stat("process.run_trajectory")

    @functools.wraps(ensemble._run_chunk)
    def traced_chunk(task):
        # Per task: replicas run and the kernel time spent on them, so the
        # ensemble layer's overhead can be separated from the kernel's.
        total0, self0 = rt_stat[1], rt_stat[2]
        result = run_chunk(task)
        _, lo, hi, _ = task
        tracer.count("ensemble.chunk_replicas", hi - lo)
        tracer.count("ensemble.chunk_kernel_ns", rt_stat[1] - total0)
        tracer.count("ensemble.chunk_kernel_self_ns", rt_stat[2] - self0)
        tracer.flush_worker()
        return result

    # Pickled by reference into the pool: the module attribute must be it.
    ensemble._run_chunk = traced_chunk
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)


def merge_workers(tracer: Tracer) -> dict:
    doc = tracer.snapshot()
    doc["workers"] = []
    if tracer.worker_dir.is_dir():
        for path in sorted(tracer.worker_dir.glob("*.json")):
            doc["workers"].append(json.loads(path.read_text()))
            path.unlink()
        tracer.worker_dir.rmdir()
    return doc


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 1
    out = Path(argv[0])
    tracer = Tracer(out.with_name(out.name + ".workers"))
    for stale in tracer.worker_dir.glob("*.json"):
        stale.unlink()
    install(tracer)
    code = importlib.import_module("olivetable.cli").main(argv[2:])
    out.write_text(json.dumps(merge_workers(tracer)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
