import argparse
import hashlib
import inspect
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import olivetable
from olivetable import chain, cli, ensemble, oracle, process, verification
from olivetable.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main


def test_simulate_is_byte_identical_across_runs(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--t", "10", "--seed", "7", "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--t", "10", "--seed", "7", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == (
        "step,olives,plates,nonempty,first_plate_olives,max_other_olives"
    )
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["version"]
    assert meta["flags"]["seed"] == 7
    assert "O=" in capsys.readouterr().out


def test_simulate_rejects_bad_t(capsys):
    assert main(["simulate", "--t", "0", "--seed", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage" in err or "error" in err


def test_simulate_json_summary(capsys):
    assert main(["simulate", "--t", "20000", "--seed", "1", "--format", "json"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "O=" in captured.err  # human summary stays off the JSON stream
    doc = json.loads(captured.out)
    summary = doc["summary"]
    assert summary["within_bounds"] is True
    lo, hi = summary["bounds_band"]
    assert Fraction(lo) == Fraction(1, 342) and Fraction(hi) == Fraction(2, 3)
    assert summary["olives_over_t"] * 20000 == pytest.approx(summary["final_olives"])
    assert Fraction(summary["olives_over_t_exact"]) == Fraction(summary["final_olives"], 20000)
    assert doc["provenance"]["flags"]["t"] == 20000


def _simulate_json(argv, capsys):
    """The summary of ``simulate ... --format json`` on stdout."""
    assert main(["simulate", *argv, "--format", "json"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)["summary"]


def test_simulate_json_records_no_series(monkeypatch, capsys):
    records = []
    run = process.run_trajectory
    monkeypatch.setattr(process, "run_trajectory", lambda *a, **k: records.append(run(*a, **k)) or records[-1])
    summary = _simulate_json(["--t", "20000", "--seed", "1", "--cadence", "7"], capsys)
    assert summary["series_rows"] == 20000 // 7
    assert [record.series for record in records] == [[]]
    # The same trajectory as the CSV path's, which does record the rows.
    assert main(["simulate", "--t", "20000", "--seed", "1", "--cadence", "7"]) == EXIT_OK
    capsys.readouterr()
    assert len(records[1].series) == 20000 // 7
    assert records[0].final_state.plates == records[1].final_state.plates


@pytest.mark.parametrize("argv", [["--t", "1"], ["--t", "999"], ["--t", "250000"], ["--t", "1000", "--cadence", "3"],
                                  ["--t", "1000", "--cadence", "1000"], ["--t", "999", "--cadence", "1000"]])
def test_simulate_json_series_rows_count_the_csv_rows(argv, tmp_path, capsys):
    summary = _simulate_json([*argv, "--seed", "2"], capsys)
    assert main(["simulate", *argv, "--seed", "2", "--out", str(tmp_path / "run.csv")]) == EXIT_OK
    rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
    assert summary["series_rows"] == len(rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_refuses_a_too_fine_cadence(fmt, capsys):
    assert main(["simulate", "--t", "3000000", "--seed", "1", "--cadence", "1", "--format", fmt]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cadence 1 over 3000000 steps would record 3000000 rows (cap 2000000)\n"


def test_simulate_cadence_cap_is_the_process_one(monkeypatch, capsys):
    # The CLI keeps no copy of the cap: lowering process's lowers the CLI's,
    # on both formats.
    assert "MAX_SERIES_ROWS" not in inspect.getsource(cli)
    monkeypatch.setattr(process, "MAX_SERIES_ROWS", 3)
    for fmt in ("csv", "json"):
        assert main(["simulate", "--t", "10", "--seed", "1", "--cadence", "2", "--format", fmt]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: cadence 2 over 10 steps would record 5 rows (cap 3)\n"
    assert _simulate_json(["--t", "10", "--seed", "1", "--cadence", "3"], capsys)["series_rows"] == 3
    with pytest.raises(ValueError, match=r"^cadence 2 over 10 steps would record 5 rows \(cap 3\)$"):
        process.run_trajectory(10, 1, cadence=2)


def test_simulate_has_no_new_flag():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for action in sub.choices["simulate"]._actions for flag in action.option_strings}
    assert flags == {"-h", "--help", "--t", "--seed", "--cadence", "--out", "--format"}


def test_ensemble_outputs_and_exit(tmp_path):
    prefix = tmp_path / "run"
    code = main(
        [
            "ensemble", "--t", "2000", "--replicas", "6", "--seed", "3",
            "--deltas", "0.01,0.02", "--out", str(prefix),
        ]
    )
    assert code == EXIT_OK
    csv_text = (tmp_path / "run.csv").read_text()
    assert csv_text.splitlines()[0] == ensemble.ENSEMBLE_CSV_HEADER
    assert len(csv_text.splitlines()) == 7
    doc = json.loads((tmp_path / "run.summary.json").read_text())
    assert [row["delta"] for row in doc["checks"]["exceedance"]] == [0.01, 0.02]
    assert doc["config"]["R"] == 6
    assert doc["provenance"]["flags"]["seed"] == 3


def test_ensemble_merge_of_parts_equals_monolithic(tmp_path):
    # The CLI wraps run_ensemble, whose chunked/parallel result is pinned to
    # the monolithic one; here the same command twice must be byte-identical.
    p1, p2 = tmp_path / "x", tmp_path / "y"
    args = ["ensemble", "--t", "1500", "--replicas", "4", "--seed", "11"]
    assert main(args + ["--out", str(p1)]) == EXIT_OK
    assert main(args + ["--out", str(p2), "--threads", "2"]) == EXIT_OK
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()


def test_ensemble_bound_failure_exits_two(monkeypatch):
    real = ensemble.run_ensemble

    def corrupt(config, threads=None, replica_range=None):
        records = real(config, threads=threads, replica_range=replica_range)
        records["O"][0] = 0  # below t/342 at t >= 1000
        return records

    monkeypatch.setattr(ensemble, "run_ensemble", corrupt)
    code = main(["ensemble", "--t", "1000", "--replicas", "3", "--seed", "5"])
    assert code == EXIT_CHECK_FAILED


def test_ensemble_without_deltas_uses_the_config_default(tmp_path):
    argv = ["ensemble", "--t", "50", "--replicas", "4", "--seed", "5", "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_OK
    doc = json.loads((tmp_path / "run.summary.json").read_text())
    default = ensemble.EnsembleConfig(t=1, replicas=1, master_seed=0).deltas
    assert doc["config"]["deltas"] == list(default)
    assert [row["delta"] for row in doc["checks"]["exceedance"]] == list(default)


def test_ensemble_bounds_not_enforced_below_gate():
    # Small horizons report the bound flags but do not fail the run.
    code = main(["ensemble", "--t", "50", "--replicas", "4", "--seed", "5"])
    assert code == EXIT_OK


def test_chain_outputs(tmp_path, capsys):
    prefix = tmp_path / "chain"
    code = main(
        [
            "chain", "--t-max", "10", "--simulate-steps", "50000",
            "--seed", "2", "--out", str(prefix),
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "chain.csv").read_text().splitlines()
    assert lines[0] == chain.CHAIN_CSV_HEADER
    assert lines[2] == "2,3,16,3,4,11,16"
    report = json.loads((tmp_path / "chain.report.json").read_text())
    assert report["mean_return_time"]["published_claim"]["exact"] == "19/1"
    assert report["mean_return_time"]["validated_stationary"]["exact"] == "5/1"
    assert report["return_rate_inequality"]["holds"] is True
    out = capsys.readouterr().out
    assert "N11/t" in out and "1/19" in out


def test_chain_refuses_a_horizon_past_the_digit_limit(tmp_path, capsys):
    # Past the bound the exact strings cannot be written, so the call is
    # refused before any pmf work: one error line, exit 1, no output file.
    bound = chain._t_max_digits_bound()
    argv = ["chain", "--t-max", str(bound + 1), "--simulate-steps", "1000", "--seed", "1"]
    start = time.process_time()
    assert main([*argv, "--out", str(tmp_path / "chain")]) == EXIT_USAGE
    assert time.process_time() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"<= {bound}, got {bound + 1}" in lines[0]
    assert not list(tmp_path.iterdir())


def test_chain_digit_bound_follows_the_interpreter_limit(monkeypatch, tmp_path):
    # At a 640-digit limit the series numerator has 640 digits at
    # t_max = 532 and 641 at 533: 533 is refused before any pmf work.
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")

    def chain_run(t_max: str, prefix: Path) -> subprocess.CompletedProcess:
        argv = ["chain", "--t-max", t_max, "--simulate-steps", "1000", "--seed", "1", "--out", str(prefix)]
        code = f"""
import sys, time
from olivetable.cli import main
start = time.process_time()
code = main({argv!r})
print(f"cpu_s={{time.process_time() - start}}", file=sys.stderr)
sys.exit(code)
"""
        return _fresh_interpreter(code)

    refused = chain_run("533", tmp_path / "refused")
    assert refused.returncode == EXIT_USAGE, refused.stderr
    *lines, cpu = refused.stderr.splitlines()
    assert float(cpu.removeprefix("cpu_s=")) < 1.0
    assert len(lines) == 1 and lines[0].startswith("error: "), refused.stderr
    assert "<= 532, got 533" in lines[0] and "640-digit limit" in lines[0]
    assert refused.stdout == "" and not list(tmp_path.iterdir())
    written = chain_run("532", tmp_path / "written")
    assert written.returncode == EXIT_OK, written.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["written.csv", "written.report.json"]
    usage = _fresh_interpreter("from olivetable.cli import main\nmain(['chain', '--help'])")
    assert "pmf horizon (2 to 532)" in " ".join(usage.stdout.split()), usage.stdout


def test_chain_out_builds_the_pmf_rows_once(monkeypatch, tmp_path, capsys):
    calls = Counter()
    real = chain.published_first_return_pmf

    def counted(t):
        calls[t] += 1
        return real(t)

    monkeypatch.setattr(chain, "published_first_return_pmf", counted)
    argv = ["chain", "--t-max", "12", "--simulate-steps", "1000", "--seed", "3"]
    assert main([*argv, "--out", str(tmp_path / "chain")]) == EXIT_OK
    capsys.readouterr()
    # One row per t = 2..12 serves both the report's table and the CSV.
    assert calls == {t: 1 for t in range(2, 13)}


def test_chain_rejects_small_horizon(capsys):
    # The library refuses the horizon as given, not a count of rows.
    assert main(["chain", "--t-max", "1", "--seed", "2"]) == EXIT_USAGE
    assert main(["chain", "--t-max", "-5", "--seed", "2"]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: t_max must be >= 2, got 1",
        "error: t_max must be >= 2, got -5",
    ]


def test_exact_prints_exact_mean(tmp_path, capsys):
    prefix = tmp_path / "oracle"
    assert main(["exact", "--t", "3", "--out", str(prefix)]) == EXIT_OK
    assert "E(O_t) = 3/4" in capsys.readouterr().out
    pmf_lines = (tmp_path / "oracle.pmf.csv").read_text().splitlines()
    assert pmf_lines[0] == "t,O,prob_num,prob_den"
    assert "2,0,1,2" in pmf_lines and "2,1,1,2" in pmf_lines
    mean_lines = (tmp_path / "oracle.mean.csv").read_text().splitlines()
    assert mean_lines[0] == "t,mean_num,mean_den"
    assert mean_lines[1:] == ["1,0,1", "2,1,2", "3,3,4"]


def test_exact_budget_error_exits_one(capsys):
    assert main(["exact", "--t", "40", "--budget", "20000"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: exact pushforward exceeded its state budget at step 16: "
        "28133 successor states enumerated > budget 20000\n"
    )


def test_verify_quick_passes(capsys):
    assert main(["verify", "--level", "quick"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "checks passed" in out


def test_verify_writes_json_report(tmp_path, capsys):
    prefix = tmp_path / "report"
    assert main(["verify", "--level", "quick", "--out", str(prefix)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads((tmp_path / "report.verify.json").read_text())
    assert doc["all_passed"] is True
    assert doc["provenance"]["flags"]["level"] == "quick"
    assert any(row.get("ratio") == "4/1" for row in doc["pmf_discrepancy_table"])


def test_verify_detects_mutated_constant(monkeypatch, capsys):
    # Corrupting the validated closed form must fail the suite, on the
    # triple agreement's assert rather than by a crash.
    monkeypatch.setattr(
        chain, "first_return_pmf_closed", lambda t_max: {2 * t: Fraction(3, 4) ** t for t in range(1, t_max + 1)}
    )
    assert main(["verify", "--level", "quick"]) == EXIT_CHECK_FAILED
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    [triple] = [line for line in failed if "pmf_triple_agreement" in line]
    assert triple.endswith(")  closed form != DP"), triple


@pytest.mark.parametrize("field", ["final_state", "last_return"])
def test_verify_detects_a_broken_walk(monkeypatch, capsys, field):
    # A final state of the wrong parity, or an odd sum of return durations,
    # cannot come from a walk that moves by +-1 from state 1.
    real = chain.simulate_walk

    def broken(t, seed):
        stats = real(t, seed)
        return stats._replace(**{field: getattr(stats, field) + 1})

    monkeypatch.setattr(chain, "simulate_walk", broken)
    assert main(["verify", "--level", "quick"]) == EXIT_CHECK_FAILED
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and "walk_structure" in failed[0]
    # A parity assert failed; the check did not crash on the patched stats.
    assert failed[0].endswith(")  AssertionError"), failed[0]


def test_verify_out_reports_a_failed_check(monkeypatch, tmp_path, capsys):
    # One wrong value of the Catalan convolution closed form fails that check,
    # and the convolution route of the pmf, which is built on it, fails the
    # triple agreement; the JSON report is still written and holds the
    # failing row.
    real = chain.catalan_convolution_closed
    monkeypatch.setattr(
        chain, "catalan_convolution_closed", lambda t, i: real(t, i) + ((t, i) == (5, 2))
    )
    prefix = tmp_path / "report"
    assert main(["verify", "--level", "quick", "--out", str(prefix)]) == EXIT_CHECK_FAILED
    assert "15/17 checks passed" in capsys.readouterr().out
    doc = _strict_loads((tmp_path / "report.verify.json").read_text())
    assert doc["all_passed"] is False
    assert sorted(c["name"] for c in doc["checks"] if not c["pass"]) == ["catalan_convolution", "pmf_triple_agreement"]
    rows = doc["identities"]["catalan_convolution"]
    assert rows[-1] == {"t": 5, "i": 2, "value": chain.catalan_convolution_brute(5, 2), "pass": False}
    assert all(row["pass"] for row in rows[:-1])


def _spy(real, log, line):
    # Checks run in forked workers, so each call appends ``line()`` to a
    # file that every process shares.
    def spy(*args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{line()}\n")
        return real(*args, **kwargs)

    return spy


def _logged(log) -> list[str]:
    return log.read_text().split() if log.exists() else []


@pytest.mark.parametrize(
    "module, name, error",
    [(oracle, "_law", ValueError("broken law")), (chain, "catalan", IndexError("broken catalan"))],
    ids=["law-ValueError", "catalan-IndexError"],
)
def test_verify_out_reports_a_raising_check(module, name, error, monkeypatch, tmp_path, capsys):
    # A check that raises something other than an AssertionError is one FAIL
    # row: every other check still runs and the JSON report is written.
    # Each check names itself in its worker before it runs, and the spy logs
    # the name of the check that called it.
    running, checks = [None], verification.build_checks

    def named(name, fn):
        def run():
            running[0] = name
            return fn()

        return run

    monkeypatch.setattr(verification, "build_checks", lambda level: [(n, named(n, fn)) for n, fn in checks(level)])
    log = tmp_path / "calls"
    monkeypatch.setattr(module, name, _spy(getattr(module, name), log, lambda: running[0]))
    clean = verification.run_suite("quick")
    reached = set(_logged(log))
    assert all(r.passed for r in clean) and reached

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, name, broken)
    prefix = tmp_path / "report"
    assert main(["verify", "--level", "quick", "--out", str(prefix)]) == EXIT_CHECK_FAILED
    capsys.readouterr()
    doc = _strict_loads((tmp_path / "report.verify.json").read_text())
    assert [c["name"] for c in doc["checks"]] == [r.name for r in clean]
    assert len(doc["checks"]) == 17
    assert {c["name"] for c in doc["checks"] if not c["pass"]} == reached
    expected = f"{type(error).__name__}: {error}"
    for check, before in zip(doc["checks"], clean):
        assert check["detail"] == (before.detail if check["pass"] else expected)


def test_verify_out_computes_each_result_once(monkeypatch, tmp_path, capsys):
    # The spies log from the workers that run the checks and from this
    # process, which builds the report.
    log = tmp_path / "calls"
    sweeps = ["verify_catalan_convolution", "verify_gould_identity", "verify_binomial_series"]
    for name in sweeps + ["published_first_return_pmf"]:
        monkeypatch.setattr(chain, name, _spy(getattr(chain, name), log, lambda name=name: name))
    assert main(["verify", "--level", "quick", "--out", str(tmp_path / "report")]) == EXIT_OK
    capsys.readouterr()
    # Each identity sweep runs once, and the published pmf once per row
    # t = 2..30 of the discrepancy table.
    assert Counter(_logged(log)) == {**{name: 1 for name in sweeps}, "published_first_return_pmf": 29}


def test_sweep_outputs(tmp_path, capsys):
    prefix = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--t-list", "1000,2000", "--replicas", "25",
            "--seed", "6", "--out", str(prefix),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "sweep.sweep.json").read_text())
    assert [row["t"] for row in doc["c_estimate"]["rows"]] == [1000, 2000]
    assert [row["t"] for row in doc["log_growth"]["rows"]] == [1000, 2000]
    assert "c_hat" in capsys.readouterr().out
    # ensemble.sweep rejects these before any work; main maps that to exit 1.
    assert main(["sweep", "--t-list", "10", "--replicas", "5", "--seed", "1"]) == EXIT_USAGE
    assert main(["sweep", "--t-list", "1000", "--replicas", "0", "--seed", "1"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "module, name, value",
    [(ensemble, "LOG_GROWTH_CEILING", 0.0), (process, "C_BOUNDS", (Fraction(0), Fraction(1, 342)))],
    ids=["log_growth", "c_estimate"],
)
def test_sweep_hard_bound_failure_exits_two(module, name, value, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(module, name, value)
    prefix = tmp_path / "failed"
    code = main(["sweep", "--t-list", "1000,2000", "--replicas", "5", "--seed", "6", "--out", str(prefix)])
    assert code == EXIT_CHECK_FAILED
    assert "hard bound check failed" in capsys.readouterr().err
    doc = json.loads((tmp_path / "failed.sweep.json").read_text())
    held = [row["within_ceiling"] for row in doc["log_growth"]["rows"]]
    held += [row["within_bounds"] for row in doc["c_estimate"]["rows"]]
    assert not all(held)


@pytest.mark.parametrize("olives, inside", [(2, False), (3, True), (684, True), (685, False)])
def test_band_ends_are_inside(olives, inside, monkeypatch, capsys):
    # At t = 1026 the band t/342 <= O <= 2t/3 is exactly 3 <= O <= 684.
    t = 1026
    assert process._in_band(olives, t) is inside
    config = ensemble.EnsembleConfig(t=t, replicas=1, master_seed=0)
    records = np.array([(0, 0, olives, 0, 0, 0, 0, 0, 0, 0)], dtype=ensemble._replica_dtype())
    assert ensemble._stats_estimate(ensemble._olive_moments(records["O"]), t)["within_bounds"] is inside
    assert ensemble.summary_json(config, records)["checks"]["bounds_pass"] is inside
    state = process.TableState.from_plates([(1, olives)])
    record = process.TrajectoryRecord(t_max=t, final_state=state, series=[])
    monkeypatch.setattr(process, "run_trajectory", lambda *args, **kwargs: record)
    assert main(["simulate", "--t", str(t), "--seed", "1", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["summary"]["within_bounds"] is inside


def _traced_payload_equals_plain(argv, suffix, tmp_path, pools=True):
    """Run the CLI plainly and through the benchmark's tracer, which wraps
    ensemble._run_chunk and unpacks each pool task as (_, lo, hi, _): the
    payloads must be equal, and with two usable CPUs a command that
    ``pools`` must start a pool in the traced run.  Returns the trace."""
    assert main([*argv, "--out", str(tmp_path / "plain")]) == EXIT_OK
    root = Path(__file__).resolve().parents[1]
    src = str(Path(olivetable.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_cli.py"), str(trace), "--",
         *argv, "--out", str(tmp_path / "traced")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    plain, traced = (
        _strip_volatile(_strict_loads((tmp_path / f"{name}{suffix}").read_text())) for name in ("plain", "traced")
    )
    assert traced == plain
    doc = json.loads(trace.read_text())
    if pools and ensemble._usable_cpus() > 1:
        assert doc["workers"], "the traced run did not pool"
    return doc


def test_traced_harness_runs_a_pooled_sweep(tmp_path):
    # R * max(t) = 1.2e6, so two threads run a pool of scalar tasks.
    argv = ["sweep", "--t-list", "1000,2000", "--replicas", "600", "--seed", "4", "--threads", "2"]
    _traced_payload_equals_plain(argv, ".sweep.json", tmp_path)


def test_traced_harness_runs_a_pooled_lockstep_ensemble(tmp_path):
    # R * t = 1.2e6, so two threads run a pool of 24 lockstep tasks, the
    # benchmark's ens_short workload.
    argv = ["ensemble", "--t", "12", "--replicas", "100000", "--seed", "4", "--threads", "2"]
    _traced_payload_equals_plain(argv, ".summary.json", tmp_path)
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_traced_harness_runs_chain(tmp_path):
    # The tracer reads the walk's step count off simulate_walk's result.
    argv = ["chain", "--t-max", "8", "--simulate-steps", "1000", "--seed", "1"]
    trace = _traced_payload_equals_plain(argv, ".report.json", tmp_path, pools=False)
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert trace["counters"]["chain.walk_steps"] == 1000


def test_traced_harness_runs_simulate(tmp_path):
    # The tracer reads the step count off run_trajectory's record.
    argv = ["simulate", "--t", "1000", "--seed", "1", "--format", "json"]
    trace = _traced_payload_equals_plain(argv, "", tmp_path, pools=False)
    assert trace["counters"]["process.steps"] == 1000


def test_usage_errors_exit_one():
    assert main([]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["simulate", "--seed", "1"]) == EXIT_USAGE  # missing --t
    for deltas in ("abc", ""):
        assert main(["ensemble", "--t", "10", "--replicas", "2", "--seed", "1",
                     "--deltas", deltas]) == EXIT_USAGE


def test_only_a_refused_argument_exits_one(monkeypatch, capsys):
    assert main(["exact", "--t", "0"]) == EXIT_USAGE
    assert main(["ensemble", "--t", "0", "--replicas", "3", "--seed", "1"]) == EXIT_USAGE
    assert main(["sweep", "--t-list", "1000", "--replicas", "0", "--seed", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: t_max must be >= 1, got 0",
        "error: t must be >= 1, got 0",
        "error: replicas must be >= 1, got 0",
    ]

    # A ValueError from inside the library is a fault, not bad flags.
    def broken(key, scaled, out, fields):
        raise ValueError("broken pile moves")

    monkeypatch.setattr(oracle, "_pile_moves", broken)
    with pytest.raises(ValueError, match="^broken pile moves$"):
        main(["exact", "--t", "5"])


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "olivetable" in capsys.readouterr().out


def _strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_ensemble_single_replica_is_strict_json(tmp_path, capsys):
    args = ["ensemble", "--t", "12", "--replicas", "1", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "one")]) == EXIT_OK
    doc = _strict_loads((tmp_path / "one.summary.json").read_text())
    assert doc["estimates"]["ci_low"] is None and doc["estimates"]["ci_high"] is None
    assert doc["checks"]["sd"] == 0.0
    capsys.readouterr()
    assert main(args) == EXIT_OK  # the summary goes to stdout, the one-line report to stderr
    captured = capsys.readouterr()
    assert _strict_loads(captured.out)["estimates"] == doc["estimates"]
    assert "mean O/t=" in captured.err


def test_sweep_single_replica_is_strict_json(tmp_path, capsys):
    prefix = tmp_path / "one"
    assert main(["sweep", "--t-list", "1000", "--replicas", "1", "--seed", "3", "--out", str(prefix)]) == EXIT_OK
    (row,) = _strict_loads((tmp_path / "one.sweep.json").read_text())["c_estimate"]["rows"]
    assert row["ci_low"] is None and row["ci_high"] is None
    assert "CI99=n/a" in capsys.readouterr().out


def test_chain_single_step_is_strict_json(tmp_path):
    prefix = tmp_path / "chain"
    assert main(["chain", "--t-max", "3", "--simulate-steps", "1", "--seed", "2", "--out", str(prefix)]) == EXIT_OK
    sim = _strict_loads((tmp_path / "chain.report.json").read_text())["simulation"]
    assert sim["steps"] == 1
    assert sim["mean_return_duration"] is None and sim["rate_ci99"] is None


@pytest.mark.parametrize(
    "argv,report",
    [
        (["ensemble", "--t", "12", "--replicas", "20", "--seed", "4"], "mean O/t="),
        (["sweep", "--t-list", "1000", "--replicas", "3", "--seed", "4"], "c_hat="),
        (["chain", "--t-max", "6", "--simulate-steps", "2000", "--seed", "4"], "N11/t"),
    ],
    ids=["ensemble", "sweep", "chain"],
)
def test_stdout_is_one_json_document_without_out(argv, report, capsys):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert isinstance(_strict_loads(captured.out), dict)
    assert report in captured.err


def test_threads_below_one_exit_one(capsys):
    # ensemble.pool_size owns the rule; main reports its refusal.
    for threads in ("0", "-4"):
        for argv in (
            ["ensemble", "--t", "12", "--replicas", "3", "--seed", "1", "--threads", threads],
            ["sweep", "--t-list", "1000", "--replicas", "2", "--seed", "1", "--threads", threads],
        ):
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: threads must be >= 1, got {threads}\n"


def test_failed_write_leaves_no_partial_output(tmp_path, monkeypatch):
    def write_then_fail(records, out):
        out.write(ensemble.ENSEMBLE_CSV_HEADER + "\n")
        raise RuntimeError("disk gone")

    monkeypatch.setattr(ensemble, "write_ensemble_csv", write_then_fail)
    args = ["ensemble", "--t", "12", "--replicas", "5", "--seed", "1", "--out", str(tmp_path / "run")]
    with pytest.raises(RuntimeError):
        main(args)
    assert list(tmp_path.iterdir()) == []
    # An earlier complete output is left exactly as it was.
    (tmp_path / "run.csv").write_text("earlier\n")
    with pytest.raises(RuntimeError):
        main(args)
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]
    assert (tmp_path / "run.csv").read_text() == "earlier\n"


def test_write_error_is_one_error_line_and_exit_one(tmp_path):
    # --out names an existing directory, so the rename over it fails.
    target = tmp_path / "D"
    target.mkdir()
    (target / "kept.txt").write_text("earlier\n")
    argv = ["simulate", "--t", "10", "--seed", "1", "--out", str(target)]
    proc = _fresh_interpreter(f"import sys\nfrom olivetable.cli import main\nsys.exit(main({argv!r}))")
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["D"]  # no temp file left beside it
    assert [p.name for p in target.iterdir()] == ["kept.txt"]
    assert (target / "kept.txt").read_text() == "earlier\n"


def _strip_volatile(node):
    if isinstance(node, dict):
        return {
            k: _strip_volatile({f: x for f, x in v.items() if f != "out"} if k == "flags" else v)
            for k, v in node.items()
            if k != "elapsed_seconds"
        }
    if isinstance(node, list):
        return [_strip_volatile(v) for v in node]
    return node


# sha256 of each command's output files (JSON with timing and flags.out
# removed): the ensemble and sweep digests were recorded before the report
# functions were made columnar, the verify, chain and exact digests before
# verify stopped recomputing its identity sweeps and pmf table, the simulate
# digests before trajectories stopped keeping per-return lists, the
# ``exact --t 14`` digest before the pushforward moved to integer numerators.
# The chain digest was re-recorded when ``rate_ci99`` moved to the walk's
# exact integer moments, which changes only that field's low bits.
# With ``--format json`` the ``--out`` file itself is the JSON document.
GOLDEN = {
    ("ensemble", "--t", "12", "--replicas", "3000", "--seed", "5"): (
        [".csv", ".summary.json"],
        "a47e9c53a8979ae4cd5a598cb64419ca0912aef280afe32224b6909908161c0f",
    ),
    # Pooled chunks of 7,500 replicas (on two CPUs), each on the lockstep kernel.
    ("ensemble", "--t", "20", "--replicas", "60000", "--seed", "11", "--threads", "2"): (
        [".csv", ".summary.json"],
        "ed04654788f58fa49164324672e7607aadd53a2faeb9a00f100c6e7575e5d942",
    ),
    ("sweep", "--t-list", "1000,2000", "--replicas", "60", "--seed", "9"): (
        [".sweep.json"],
        "282c67adf0b693cf0a3e5eda3e76936f7a5ef15a8b0fece288dcf749ba20d9f8",
    ),
    ("verify", "--level", "quick"): (
        [".verify.json"],
        "7b1d1f02d2cc2572951d3d65aafb17d6512dc95462d5ff286ea169ab7430316e",
    ),
    ("chain", "--t-max", "12", "--simulate-steps", "20000", "--seed", "3"): (
        [".csv", ".report.json"],
        "62455f2590caf26970908842b2b17a6cdb3cb65bc87a7857f2bea21e1cd09c8a",
    ),
    # Exact strings of hundreds of digits: the pmf to t = 600 and the
    # mean-return series over it.
    ("chain", "--t-max", "600", "--simulate-steps", "1000", "--seed", "1"): (
        [".csv", ".report.json"],
        "fa1467bc508333828189ab09d342b4c4115a63ee9eb8395631efdd199f1109e4",
    ),
    ("exact", "--t", "8"): (
        [".mean.csv", ".meta.json", ".pmf.csv"],
        "80dfac6028cb7c946b0b878ae18e0ae75ffe862914e7a5601f501e5a9b596e5c",
    ),
    ("exact", "--t", "14"): (
        [".mean.csv", ".meta.json", ".pmf.csv"],
        "24a0157381b48c9074733028b0d7c31c3233368dd38fc831d37c2342897c2457",
    ),
    # The benchmark's exact_t20 horizon; recorded before the multiset keys
    # became bit fields.
    ("exact", "--t", "20"): (
        [".mean.csv", ".meta.json", ".pmf.csv"],
        "2f45aa74276a540e493849bd9bd58a78d6a725525229fb89b51a14a624c89002",
    ),
    ("simulate", "--t", "100000", "--seed", "1", "--format", "json"): (
        [""],
        "a1f4bf115faa535bf2f5646dd26b52724c263520dd7e686a6409352027bca4e4",
    ),
    ("simulate", "--t", "20000", "--seed", "4", "--cadence", "500"): (
        ["", ".meta.json"],
        "9372e5c1659bf0067a08e10dcf7b25508150ba32496d9e78aa85bd125eb5fffe",
    ),
    # Every series row, whose olive total the kernel reads off the plates;
    # recorded while the kernel still kept an O+ tally.
    ("simulate", "--t", "20000", "--seed", "4", "--cadence", "1"): (
        ["", ".meta.json"],
        "fd8335fb422e2a93380407245e78b5d6c511da7ddca828519bee27b42b9ea932",
    ),
}


# Test ids name the command (pytest numbers repeats); an entry added for a
# command that was already pinned has its own id, so earlier ids stay put.
GOLDEN_IDS = {
    ("chain", "--t-max", "600", "--simulate-steps", "1000", "--seed", "1"): "chain_t600",
    ("exact", "--t", "14"): "exact_t14",
    ("exact", "--t", "20"): "exact_t20",
    ("ensemble", "--t", "20", "--replicas", "60000", "--seed", "11", "--threads", "2"): "ensemble_t20_pooled",
    ("simulate", "--t", "20000", "--seed", "4", "--cadence", "1"): "simulate_cadence1",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=lambda argv: GOLDEN_IDS.get(argv, argv[0]))
def test_golden_payload_digest(argv, tmp_path):
    suffixes, digest = GOLDEN[argv]
    assert main([*argv, "--out", str(tmp_path / "run")]) == EXIT_OK
    h = hashlib.sha256()
    paths = sorted(tmp_path.iterdir())
    assert [p.name for p in paths] == sorted("run" + s for s in suffixes)  # no temp files left
    for path in paths:
        data = path.read_bytes()
        if path.suffix == ".json" or "json" in argv:
            data = json.dumps(_strip_volatile(_strict_loads(data)), sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    assert h.hexdigest() == digest


def _fresh_interpreter(code: str, *flags: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter, started with ``flags``, that
    imports this olivetable.  It runs in a session of its own, so past
    ``timeout`` seconds its whole process group is killed, pool workers it
    forked included, and ``TimeoutExpired`` fails the test."""
    src = str(Path(olivetable.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    with subprocess.Popen(
        [sys.executable, *flags, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # A worker left behind holds the pipes open, so communicate()
            # returns only once the whole group is gone.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_fresh_interpreter_kills_what_it_forked_on_timeout(tmp_path):
    # The interpreter forks a child, as a pool does, and both hang.
    pid_file = tmp_path / "child.pid"
    code = f"""
import os, time
pid = os.fork()
if pid == 0:
    time.sleep(300)
    os._exit(0)
with open({str(pid_file)!r}, "w") as fh:
    fh.write(str(pid))
time.sleep(300)
"""
    with pytest.raises(subprocess.TimeoutExpired):
        _fresh_interpreter(code, timeout=3)
    child = int(pid_file.read_text())

    def gone() -> bool:
        # A killed process may stay a zombie until its new parent reaps it.
        try:
            return Path(f"/proc/{child}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
        except FileNotFoundError:
            return True

    deadline = time.monotonic() + 10
    while not gone() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert gone(), f"forked child {child} outlived the timeout"


def test_only_numpy_commands_import_numpy():
    code = """
import sys
import olivetable.cli
assert "numpy" not in sys.modules, "import olivetable.cli loaded numpy"
assert "olivetable._lockstep" not in sys.modules, "import olivetable.cli loaded the lockstep kernel"
assert "olivetable.verification" not in sys.modules, "import olivetable.cli loaded the verification suite"
assert "concurrent.futures" not in sys.modules, "import olivetable.cli loaded concurrent.futures"
from olivetable.cli import main
assert main(["exact", "--t", "3"]) == 0
assert main(["simulate", "--t", "100", "--seed", "1"]) == 0
assert main(["chain", "--t-max", "3", "--simulate-steps", "100", "--seed", "1"]) == 0
assert "numpy" not in sys.modules, "exact, simulate or chain loaded numpy"
assert "dataclasses" not in sys.modules, "exact, simulate or chain loaded dataclasses"
assert "inspect" not in sys.modules, "exact, simulate or chain loaded inspect"
from olivetable import ensemble
assert "numpy" not in sys.modules, "import olivetable.ensemble loaded numpy"
# A pooled sweep (two workers, whatever the host has) whose workers check
# that their tasks loaded no numpy either, and an in-process one.
pools = []
fork_pool, run_chunk = ensemble._fork_pool, ensemble._run_chunk
def counted_pool(workers):
    pools.append(workers)
    return fork_pool(workers)
def checked_chunk(task):
    parts = run_chunk(task)
    assert "numpy" not in sys.modules, "a sweep task loaded numpy"
    return parts
ensemble._fork_pool, ensemble._run_chunk, ensemble._usable_cpus = counted_pool, checked_chunk, lambda: 2
assert main(["sweep", "--t-list", "1000,2000", "--replicas", "600", "--seed", "1", "--threads", "2"]) == 0
assert pools == [2], pools
assert main(["sweep", "--t-list", "1000,2000", "--replicas", "5", "--seed", "1", "--threads", "1"]) == 0
assert pools == [2], pools
assert "numpy" not in sys.modules, "sweep loaded numpy"
ensemble._fork_pool, ensemble._run_chunk = fork_pool, run_chunk
assert main(["ensemble", "--t", "12", "--replicas", "10", "--seed", "1"]) == 0
assert "numpy" in sys.modules
"""
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr


def test_main_pins_openblas_to_one_thread_unless_set(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["exact", "--t", "2"]) == EXIT_OK
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")  # the user's own setting wins
    assert main(["exact", "--t", "2"]) == EXIT_OK
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_ensemble_leaves_no_idle_blas_thread(tmp_path):
    # Without the pin, numpy's OpenBLAS keeps a busy-waiting helper thread
    # per extra CPU alive after an in-process (unpooled) ensemble.
    code = f"""
import os
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.pop(name, None)
from olivetable.cli import main
argv = ["ensemble", "--t", "12", "--replicas", "3000", "--seed", "1", "--threads", "1"]
assert main([*argv, "--out", {str(tmp_path / "run")!r}]) == 0
threads = len(os.listdir("/proc/self/task"))
assert threads == 1, f"{{threads}} threads left"
"""
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr


def test_verify_refuses_to_run_without_asserts(tmp_path):
    # python -O strips assert statements, so every check would pass.
    code = f"""
import sys
if __debug__:
    sys.exit("the interpreter was not started with -O")
from olivetable.cli import main
sys.exit(main(["verify", "--out", {str(tmp_path / "run")!r}]))
"""
    proc = _fresh_interpreter(code, "-O")
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_run_suite_refuses_to_run_without_asserts():
    # The refusal belongs to the suite, so a caller from Python gets it too.
    code = """
import sys
if __debug__:
    sys.exit("the interpreter was not started with -O")
from olivetable import verification
from olivetable.rng import _RangeError
lines = []
verification.ensemble._fork_pool = lambda *args, **kwargs: sys.exit("a worker pool started under -O")
try:
    results = verification.run_suite("quick", emit=lines.append)
except _RangeError as exc:
    assert "-O" in str(exc), exc
else:
    sys.exit(f"run_suite returned {len(results)} results under -O")
assert lines == [], lines
"""
    proc = _fresh_interpreter(code, "-O")
    assert proc.returncode == 0, proc.stderr


def test_a_dead_worker_fails_its_check_and_verify_exits_two():
    # A check whose worker process dies is a FAIL row naming the pool's
    # exception, and verify still ends instead of waiting for the result.
    code = """
import os, sys
from olivetable import verification
from olivetable.cli import main
checks = verification.build_checks
def dies():
    os._exit(3)
verification.build_checks = lambda level: [*checks(level)[:3], ("dies", dies)]
sys.exit(main(["verify", "--level", "quick"]))
"""
    proc = _fresh_interpreter(code)
    assert proc.returncode == EXIT_CHECK_FAILED, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == ["catalan_values", "catalan_convolution", "gould_identity", "dies"]
    assert lines[3].startswith("FAIL") and lines[3].split(")  ", 1)[1].startswith("BrokenProcessPool: "), lines[3]
    assert lines[-1].endswith("/4 checks passed"), lines[-1]


# Every ensemble task kills the worker process that runs it, and the run is
# pooled even on one CPU.  A pool that waits on a dead worker would hang, so
# these tests give their interpreter far less time than a hang would take.
_KILL_ENSEMBLE_WORKERS = """
import os, signal, sys
from olivetable import ensemble
def dies(task):
    os.kill(os.getpid(), signal.SIGKILL)
ensemble._run_chunk = dies
ensemble._usable_cpus = lambda: 2
"""
_DEAD_WORKER_TIMEOUT_S = 60


def test_a_dead_ensemble_worker_raises_broken_process_pool():
    code = _KILL_ENSEMBLE_WORKERS + """
from concurrent.futures.process import BrokenProcessPool
try:
    ensemble.run_ensemble(ensemble.EnsembleConfig(12, 100_000, 1), threads=2)
except BrokenProcessPool:
    pass
else:
    sys.exit("run_ensemble returned")
"""
    proc = _fresh_interpreter(code, timeout=_DEAD_WORKER_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["ensemble", "--t", "12", "--replicas", "100000", "--seed", "1", "--threads", "2"],
        ["sweep", "--t-list", "10000,100000", "--replicas", "64", "--seed", "1", "--threads", "2"],
    ],
    ids=["ensemble", "sweep"],
)
def test_a_dead_worker_fails_the_command_and_writes_nothing(argv, tmp_path):
    code = _KILL_ENSEMBLE_WORKERS + f"""
from olivetable.cli import main
sys.exit(main({[*argv, "--out", str(tmp_path / "run")]!r}))
"""
    proc = _fresh_interpreter(code, timeout=_DEAD_WORKER_TIMEOUT_S)
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_dead_ensemble_worker_fails_oracle_vs_mc_and_verify_exits_two():
    # At the full level oracle_vs_mc pools its replicas inside its suite
    # worker; that nested pool breaks, and only its check fails.
    code = _KILL_ENSEMBLE_WORKERS + """
from olivetable.cli import main
sys.exit(main(["verify", "--level", "full"]))
"""
    proc = _fresh_interpreter(code, timeout=_DEAD_WORKER_TIMEOUT_S)
    assert proc.returncode == EXIT_CHECK_FAILED, proc.stderr
    lines = proc.stdout.splitlines()
    failed = [line for line in lines[:-1] if not line.startswith("PASS")]
    assert len(failed) == 1 and failed[0].split()[:2] == ["FAIL", "oracle_vs_mc"], lines
    assert failed[0].split(")  ", 1)[1].startswith("BrokenProcessPool: "), failed[0]
    assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} checks passed", lines[-1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_verify_payload_is_the_same_on_one_cpu(tmp_path, capsys):
    # One usable CPU: one suite worker, and the ensemble check runs its
    # replicas in that worker without a pool of its own.
    code = f"""
import os, sys
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from olivetable import ensemble
from olivetable.cli import main
assert ensemble._usable_cpus() == 1
sys.exit(main(["verify", "--level", "quick", "--out", {str(tmp_path / "one")!r}]))
"""
    proc = _fresh_interpreter(code)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(["verify", "--level", "quick", "--out", str(tmp_path / "all")]) == EXIT_OK
    capsys.readouterr()

    one, every = (_strict_loads((tmp_path / f"{p}.verify.json").read_text()) for p in ("one", "all"))
    assert _strip_volatile(one) == _strip_volatile(every)


def test_every_public_name_resolves():
    code = """
import olivetable
namespace = {}
exec("from olivetable import *", namespace)
missing = [name for name in olivetable.__all__ if name not in namespace]
assert not missing, missing
assert namespace["run_ensemble"] is olivetable.ensemble.run_ensemble
try:
    olivetable.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("olivetable.no_such_name resolved")
"""
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr
