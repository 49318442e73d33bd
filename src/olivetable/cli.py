"""Command-line front door: simulations, ensembles, exact oracles, checks.

Exit codes: 0 success, 1 usage or validation problem or a failed write, 2 a
verification or hard bound check failed.  Seeds are always explicit; no
command falls back to entropy, so every emitted number is reproducible from
the flags alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence, TextIO

# ``ensemble`` (worker pools; numpy only where the ensemble command needs
# it) and ``verification``, which imports it and numpy, are imported only
# inside the commands that run them: ``ensemble``, ``sweep`` and ``verify``.
from . import __version__, chain, oracle, process
from .rng import _RangeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _provenance(args: argparse.Namespace, elapsed: float) -> dict:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    return {"version": __version__, "elapsed_seconds": elapsed, "flags": flags}


def _write_atomic(path: Path, write: Callable[[TextIO], None]) -> None:
    """Stream ``write``'s output into ``path`` atomically.

    The text goes to a temp file in the target directory, which is renamed
    over ``path`` only once ``write`` has returned; if it raises, the temp
    file is removed and ``path`` is left as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    _write_atomic(path, lambda fh: fh.write(text))


def _dumps(doc: dict) -> str:
    """Strict JSON: a NaN or infinity is a bug, never output."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, _dumps(doc))


def _parse_list(text: str, kind: type, what: str) -> tuple:
    """A comma list of ``kind`` values, e.g. ``--t-list`` or ``--deltas``."""
    try:
        values = tuple(kind(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise _UsageError(f"bad {what} list {text!r}") from None
    if not values:
        raise _UsageError(f"empty {what} list")
    return values


# -- subcommands ---------------------------------------------------------------


def _report_stream(args) -> TextIO:
    """Where the human summary lines go: stdout, unless the payload went there.

    Without ``--out`` the payload is written to stdout, which then carries
    only that payload.
    """
    return sys.stdout if args.out else sys.stderr


def _cmd_simulate(args) -> int:
    cadence = args.cadence if args.cadence is not None else max(1, args.t // 100_000)
    rows = process._series_rows(args.t, cadence)
    start = time.perf_counter()
    # The JSON summary reports only how many rows there are, so that run
    # records none: the row count follows from t and the cadence.
    record = process.run_trajectory(args.t, args.seed, cadence=0 if args.format == "json" else cadence)
    elapsed = time.perf_counter() - start
    state = record.final_state
    row, _ = process._row(0, args.seed, process._read_counters(state))
    ratio = Fraction(row["O"], args.t)
    lo, hi = process.C_BOUNDS
    summary = {
        "final_olives": row["O"],
        "plates": state.num_plates,
        "nonempty": state.num_nonempty,
        "olives_over_t": float(ratio),
        "olives_over_t_exact": f"{ratio.numerator}/{ratio.denominator}",
        "bounds_band": [str(lo), str(hi)],
        "within_bounds": process._in_band(row["O"], args.t),
        "t_plate": row["t_plate"],
        "tau1": row["tau1"],
        "two_to_one": row["two_to_one"],
        "max_other_olives": row["max_other_olives"],
        "first_plate_olives": row["first_plate_olives"],
        "series_rows": rows,
    }
    if args.format == "json":
        doc = {"summary": summary, "provenance": _provenance(args, elapsed)}
        text = _dumps(doc)
        if args.out:
            _write_text(Path(args.out), text)
        else:
            sys.stdout.write(text)
    else:
        if args.out:
            _write_atomic(Path(args.out), lambda fh: process.write_trajectory_csv(record, fh))
            _write_json(Path(args.out + ".meta.json"), _provenance(args, elapsed))
        else:
            process.write_trajectory_csv(record, sys.stdout)
    print(
        f"simulate t={args.t} seed={args.seed}: O={row['O']} "
        f"plates={state.num_plates} O/t={float(ratio):.6f}",
        file=_report_stream(args),
    )
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    from . import ensemble

    # Without --deltas, EnsembleConfig's default deltas apply.
    given = {} if args.deltas is None else {"deltas": _parse_list(args.deltas, float, "delta")}
    config = ensemble.EnsembleConfig(
        t=args.t,
        replicas=args.replicas,
        master_seed=args.seed,
        cadence=args.cadence,
        **given,
    )
    start = time.perf_counter()
    records = ensemble.run_ensemble(config, threads=args.threads)
    elapsed = time.perf_counter() - start
    doc = ensemble.summary_json(config, records)
    doc["provenance"] = _provenance(args, elapsed)
    if args.out:
        _write_atomic(Path(args.out + ".csv"), lambda fh: ensemble.write_ensemble_csv(records, fh))
        _write_json(Path(args.out + ".summary.json"), doc)
    else:
        sys.stdout.write(_dumps(doc))
    checks = doc["checks"]
    print(
        f"ensemble t={config.t} R={config.replicas}: mean O/t="
        f"{doc['estimates']['ratio']:.6f} sd={checks['sd']:.2f} "
        f"bounds_pass={checks['bounds_pass']} tau1_pass={checks['tau1_pass']}",
        file=_report_stream(args),
    )
    if config.t >= process.BOUND_ENFORCEMENT_MIN_T and not (checks["bounds_pass"] and checks["tau1_pass"]):
        print("hard bound check failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_chain(args) -> int:
    start = time.perf_counter()
    rows = chain.first_return_rows(args.t_max)  # for the report and the CSV
    report = chain.chain_report(rows, args.simulate_steps, args.seed)
    elapsed = time.perf_counter() - start
    report["provenance"] = _provenance(args, elapsed)
    if args.out:
        _write_atomic(Path(args.out + ".csv"), lambda fh: chain.write_chain_csv(rows, fh))
        _write_json(Path(args.out + ".report.json"), report)
    else:
        sys.stdout.write(_dumps(report))
    mrt = report["mean_return_time"]
    sim = report["simulation"]
    verdict = report["return_rate_inequality"]
    stream = _report_stream(args)
    print(
        f"mean return time: validated {mrt['validated_stationary']['exact']} "
        f"(series in {mrt['series_interval']}, tail {mrt['series_tail_bound']:.2e}); "
        f"published claim {mrt['published_claim']['exact']}",
        file=stream,
    )
    print(
        f"simulated N11/t = {sim['n11_over_t']:.6f} over {sim['steps']} steps; "
        f"N11/t >= 1/19 holds: {verdict['holds']}",
        file=stream,
    )
    return EXIT_OK


def _cmd_exact(args) -> int:
    start = time.perf_counter()
    rows = oracle.olive_distribution_table(args.t, budget=args.budget)
    elapsed = time.perf_counter() - start
    mean = oracle._mean(rows[-1][1])
    if args.out:
        _write_atomic(Path(args.out + ".pmf.csv"), lambda fh: oracle.write_olive_pmf_csv(rows, fh))
        _write_atomic(Path(args.out + ".mean.csv"), lambda fh: oracle.write_expected_olives_csv(rows, fh))
        _write_json(Path(args.out + ".meta.json"), _provenance(args, elapsed))
    print(
        f"exact t={args.t}: E(O_t) = {mean.numerator}/{mean.denominator} "
        f"~= {float(mean):.6f} ({len(rows[-1][1])} support points)"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verification

    start = time.perf_counter()
    results = verification.run_suite(args.level, emit=print)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.out:
        doc = verification.suite_report(results, args.level)
        doc["provenance"] = _provenance(args, time.perf_counter() - start)
        _write_json(Path(args.out + ".verify.json"), doc)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_sweep(args) -> int:
    from . import ensemble

    t_list = _parse_list(args.t_list, int, "t")
    start = time.perf_counter()
    # sweep rejects short horizons and replicas or threads below 1 with a
    # _RangeError before any work, which main maps to exit 1.
    c_report, growth = ensemble.sweep(t_list, args.replicas, args.seed, threads=args.threads)
    elapsed = time.perf_counter() - start
    doc = {
        "c_estimate": c_report,
        "log_growth": growth,
        "provenance": _provenance(args, elapsed),
    }
    if args.out:
        _write_json(Path(args.out + ".sweep.json"), doc)
    else:
        sys.stdout.write(_dumps(doc))
    stream = _report_stream(args)
    for row in c_report["rows"]:
        ci = "n/a" if row["ci_low"] is None else f"[{row['ci_low']:.6f}, {row['ci_high']:.6f}]"
        print(f"t={row['t']}: c_hat={row['ratio']:.6f} CI99={ci}", file=stream)
    print(f"max pairwise ratio difference: {c_report['max_ratio_difference']:.6f}", file=stream)
    # Every sweep horizon is >= process.BOUND_ENFORCEMENT_MIN_T, so its bounds are hard.
    held = [row["within_bounds"] for row in c_report["rows"]] + [row["within_ceiling"] for row in growth["rows"]]
    if not all(held):
        print("hard bound check failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="olivetable",
        description="Simulation and exact-analytics lab for the random plates-and-olives process.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory")
    p.add_argument("--t", type=int, required=True, help="number of steps (>= 1)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cadence", type=int, default=None, help="series sampling stride (default auto)")
    p.add_argument("--out", type=str, default=None, help="output file path")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ensemble", help="run replicated trajectories")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--deltas", type=str, default=None, help="comma list, e.g. 0.01,0.02")
    p.add_argument("--cadence", type=int, default=0)
    p.add_argument("--threads", type=int, default=None, help="worker processes (>= 1)")
    p.add_argument("--out", type=str, default=None, help="output prefix (.csv / .summary.json)")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("chain", help="auxiliary-walk analytics and simulation")
    p.add_argument(
        "--t-max", dest="t_max", type=int, required=True, help=f"pmf horizon (2 to {chain._t_max_digits_bound()})"
    )
    p.add_argument("--simulate-steps", dest="simulate_steps", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=str, default=None, help="output prefix (.csv / .report.json)")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("exact", help="exact olive distribution by pushforward")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_STATE_BUDGET)
    p.add_argument("--out", type=str, default=None, help="output prefix (.pmf.csv / .mean.csv)")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", help="run the exact verification suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--out", type=str, default=None, help="output prefix (.verify.json)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="linearity-constant and log-growth sweep")
    p.add_argument("--t-list", dest="t_list", type=str, required=True, help="comma list of horizons")
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=None, help="worker processes (>= 1)")
    p.add_argument("--out", type=str, default=None, help="output prefix (.sweep.json)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Importing numpy starts OpenBLAS helper threads (one per extra CPU)
    # that busy-wait and burn CPU time, and no command makes a BLAS call.
    # This must run before a command imports numpy; a value the user
    # exported wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        code = exc.code or 0
        return EXIT_USAGE if code not in (0,) else EXIT_OK
    except (_RangeError, OSError) as exc:  # a call the library refused, or a failed write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
