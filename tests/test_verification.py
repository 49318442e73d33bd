import math
from collections import Counter
from fractions import Fraction

import pytest

from olivetable import _lockstep, chain, oracle, process, verification
from olivetable.cli import EXIT_CHECK_FAILED, main
from olivetable.rng import make_rng
from olivetable.verification import build_checks, run_suite, suite_report


def test_quick_suite_all_pass():
    results = run_suite("quick")
    assert results, "no checks ran"
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    names = {r.name for r in results}
    assert {
        "pmf_triple_agreement",
        "path_enumeration",
        "lumping_soundness",
        "sampler_vs_oracle",
        "oracle_vs_mc",
        "mean_return_time",
    } <= names


def test_pooled_suite_equals_an_in_process_loop():
    # The checks run in worker processes; each result, and the order they
    # are emitted and returned in, is what running them here gives.
    expected = []
    for name, fn in build_checks("quick"):
        out = fn()
        detail, report = out if isinstance(out, tuple) else (out, None)
        expected.append((name, True, detail, report))
    lines = []
    results = run_suite("quick", emit=lines.append)
    assert [(r.name, r.passed, r.detail, r.report) for r in results] == expected
    assert lines == [r.line() for r in results]


def test_full_level_widens_ranges():
    quick = dict(build_checks("quick"))
    full = dict(build_checks("full"))
    assert set(quick) == set(full)


def test_suite_detects_broken_closed_form(monkeypatch):
    monkeypatch.setattr(chain, "first_return_pmf_closed", lambda t: Fraction(1, 7))
    results = run_suite("quick")
    failed = {r.name for r in results if not r.passed}
    assert "pmf_triple_agreement" in failed


def test_seed_derivation_fails_on_a_shifted_derive_seeds(monkeypatch):
    # The check reads the seeds the ensemble uses, so seeds shifted by one
    # replica fail it, though they are still distinct.
    real = _lockstep.derive_seeds
    monkeypatch.setattr(_lockstep, "derive_seeds", lambda master, lo, hi: real(master, lo + 1, hi + 1))
    checks = build_checks
    monkeypatch.setattr(
        verification, "build_checks", lambda level: [c for c in checks(level) if c[0] == "seed_derivation"]
    )
    [result] = run_suite("quick")
    assert not result.passed
    assert result.detail == "derive_seeds differs from derive_seed at replica 0"


def test_gould_identity_names_a_perturbed_term(monkeypatch):
    # The k = n term at x = 12, n = 5 (unreduced 7 C(17, 5) / 17) is off by 1.
    real = Fraction
    monkeypatch.setattr(
        chain, "Fraction", lambda num=0, den=1: real(num, den) + (num == 7 * math.comb(17, 5) and den == 17)
    )
    with pytest.raises(chain.VerificationError, match=r"^binomial sum identity failed at x=12, n=5: ") as info:
        chain.verify_gould_identity(20)
    assert info.value.report[-1] == {"x": 12, "n": 5, "value": math.comb(17, 5), "pass": False}
    assert all(row["pass"] for row in info.value.report[:-1])


def test_sampler_matches_exact_law_on_twenty_states():
    # The full-level pairing of the live sampler with the exact one-step law,
    # detail string included.
    assert verification._check_sampler_against_oracle(20, 40_000) == (
        "sampler matches the exact law on 20 states (worst 2.72 se)"
    )


def _per_draw_counts(plates, rng, draws):
    # The sampler check as it once ran: one production-kernel step per draw,
    # each from a fresh copy of the base state.
    base = process.TableState.from_plates(plates)
    counts = Counter()
    for _ in range(draws):
        succ = base.copy()
        process._advance(succ, rng, 1)
        counts[oracle.canonical_of(succ)] += 1
    return counts


def test_sampler_counts_equal_the_per_draw_kernel():
    # Decode-then-count reads the same words of the stream as stepping the
    # kernel once per draw, so every count agrees, state by state.
    rng, ref_rng = make_rng(77), make_rng(77)
    states = verification._sampler_states(rng, 20)
    assert verification._sampler_states(ref_rng, 20) == states
    for plates in states:
        _, law, counts = verification._sampler_counts(plates, rng, 3_000)
        assert +counts == _per_draw_counts(plates, ref_rng, 3_000), plates
        assert counts.keys() <= law.keys()
    assert rng.getrandbits(64) == ref_rng.getrandbits(64)


@pytest.fixture
def skewed_law(monkeypatch):
    # Move one unit of multiplicity between two successors of the eighth
    # fixed base state; the row still sums to M.
    target = oracle.canonical_of(process.TableState.from_plates([(1, 5), (2, 1), (3, 1)]))
    real = oracle._law

    def skewed(state):
        m_total, law = real(state)
        if state == target:
            law = dict(law)
            donor = next(s for s, k in law.items() if k >= 2)
            taker = next(s for s in law if s != donor)
            law[donor] -= 1
            law[taker] += 1
        return m_total, law

    monkeypatch.setattr(oracle, "_law", skewed)


def test_sampler_check_fails_on_any_decode_bias(skewed_law):
    # Ten draws cannot see a 1/10 shift at 4 se; the exact decode does.
    with pytest.raises(AssertionError, match=r"kernel decode off from exact law at \[\(1, 5\)"):
        verification._check_sampler_against_oracle(8, 10)


def test_verify_fails_on_a_skewed_law(skewed_law, capsys):
    assert main(["verify", "--level", "quick"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAIL")]
    # transition_mass checks only that each row sums to M, so it passes.
    assert failed == ["sampler_vs_oracle"]
    assert any(line.startswith("PASS") and "transition_mass" in line for line in lines)


def _over_counted(m_total, law):
    # One move too many in M; the multiplicities are untouched.
    return m_total + 1, law


def _one_move_dropped(m_total, law):
    # One unit of multiplicity gone from the first successor; M is untouched.
    law = dict(law)
    succ = next(iter(law))
    law[succ] -= 1
    return m_total, law


@pytest.mark.parametrize(
    "corrupt, message",
    [(_over_counted, r"^M = \d+ is not the move count of "), (_one_move_dropped, r"^mass != 1 from ")],
    ids=["M-plus-one", "one-move-dropped"],
)
def test_transition_mass_fails_on_a_corrupt_law(corrupt, message, monkeypatch, capsys):
    real = oracle._law
    monkeypatch.setattr(oracle, "_law", lambda state: corrupt(*real(state)))
    with pytest.raises(AssertionError, match=message):
        verification._check_transition_mass(50)
    assert main(["verify", "--level", "quick"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL") and line.split()[1] == "transition_mass" for line in lines)


def _odd_time(pmf):
    return {**pmf, 3: Fraction(1, 64)}


def _past_horizon(pmf):
    return {**pmf, 22: Fraction(1, 10**9)}


def _over_one(pmf):
    # Every entry stays in (0, 1), but the partial sums pass 1.
    return {**pmf, 20: Fraction(3, 4)}


@pytest.mark.parametrize(
    "corrupt, message",
    [(_odd_time, r"^mass at bad time 3$"), (_past_horizon, r"^$"), (_over_one, r"^$")],
    ids=["odd-time", "past-horizon", "partial-sum-over-one"],
)
def test_assert_return_pmf_rejects_a_corrupt_pmf(corrupt, message):
    pmf = chain.first_return_pmf_dp(10)
    verification._assert_return_pmf(pmf, 20)
    with pytest.raises(AssertionError, match=message):
        verification._assert_return_pmf(corrupt(pmf), 20)


@pytest.mark.parametrize("moved", [False, True], ids=["one-entry", "mass-moved"])
def test_assert_stationary_rejects_a_perturbed_entry(moved):
    pi = chain.stationary_distribution(20)
    verification._assert_stationary(pi, 20)
    eps = pi[8] / 7
    bad = {**pi, 7: pi[7] + eps}
    if moved:  # the sum stays 1, so only a balance equation can fail
        bad[8] -= eps
        assert sum(bad.values()) == sum(pi.values())
    with pytest.raises(AssertionError):
        verification._assert_stationary(bad, 20)


def test_verify_fails_on_a_perturbed_stationary_distribution(monkeypatch, capsys):
    real = chain.stationary_distribution

    def perturbed(k_max):
        pi = real(k_max)
        if k_max >= 10:
            pi[9] += pi[10]
        return pi

    monkeypatch.setattr(chain, "stationary_distribution", perturbed)
    assert chain.mean_return_time_stationary() == 5  # reads only pi_1
    assert main(["verify", "--level", "quick"]) == EXIT_CHECK_FAILED
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split()[1] for line in failed] == ["mean_return_time"]
    assert failed[0].endswith(")  AssertionError"), failed[0]


def test_suite_report_structure():
    results = run_suite("quick")
    doc = suite_report(results, "quick")
    assert doc["all_passed"] is True
    assert {c["name"] for c in doc["checks"]} == {r.name for r in results}
    assert all({"name", "pass", "detail", "elapsed_seconds"} <= set(c) for c in doc["checks"])
    conv = doc["identities"]["catalan_convolution"]
    assert {"t": 2, "i": 1, "value": 1, "pass": True} in conv
    series = doc["identities"]["binomial_series"]
    assert series["downstream_12"]["closed"] == "12/1"
    assert series["downstream_6"]["closed"] == "6/1"
    table = doc["pmf_discrepancy_table"]
    assert table[0]["t"] == 1 and "f_published_conventions" in table[0]
    assert all(row["ratio"] == "4/1" for row in table if "ratio" in row)
