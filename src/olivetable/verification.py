"""Cross-cutting verification suite: every exact identity and oracle pairing.

Each check pits an independent derivation against the implementation it
guards (dynamic program vs closed form vs path enumeration, multiset vs
labeled pushforward, exact transition law vs the live sampler, ...).  The
suite is what ``olivetable verify`` runs; checks resolve their targets
through module attributes so a deliberately broken constant is caught.

``run_suite`` runs the checks concurrently in forked worker processes and
reports them in list order; each check's elapsed time is measured in its
worker, so it includes CPU time shared with the other checks.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

__all__ = ["CheckResult", "build_checks", "run_suite", "suite_report"]

from . import _lockstep, chain, ensemble, oracle, process
from .rng import _RangeError, derive_seed, make_rng


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_seconds: float
    #: What the check computed for the JSON report (after a failure, the
    #: partial report its VerificationError carries), or None.
    report: object = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<28s} ({self.elapsed_seconds:6.2f}s)  {self.detail}"


def _check_catalan_values() -> str:
    known = {0: 1, 1: 1, 2: 2, 3: 5, 4: 14, 10: 16796}
    for k, v in known.items():
        assert chain.catalan(k) == v, f"catalan({k}) = {chain.catalan(k)} != {v}"
    # Segner's recurrence as an independent derivation.
    values = [1]
    for n in range(30):
        values.append(sum(values[i] * values[n - i] for i in range(n + 1)))
    for k, v in enumerate(values):
        assert chain.catalan(k) == v, f"recurrence mismatch at {k}"
    return "closed form matches the convolution recurrence to k = 30"


def _assert_return_pmf(pmf: dict[int, Fraction], horizon: int) -> None:
    """A first-return pmf ``{2t: Pr(T = 2t)}`` computed up to time ``horizon``:
    mass only at even times 2 <= 2t <= horizon, every entry in (0, 1), and
    partial sums that never pass 1."""
    total = Fraction(0)
    for time in sorted(pmf):
        assert time % 2 == 0 and time >= 2, f"mass at bad time {time}"
        p = pmf[time]
        assert 0 < p < 1
        total += p
        assert total <= 1
    assert horizon % 2 == 0
    assert max(pmf, default=0) <= horizon


def _assert_stationary(pi: dict[int, Fraction], k_max: int) -> None:
    """The walk's stationary vector truncated at ``k_max``: positive, summing
    to 1 with its geometric tail pi[k_max] / 2, and balanced at every
    interior state."""
    assert all(p > 0 for p in pi.values())
    assert sum(pi.values(), Fraction(0)) + pi[k_max] / 2 == 1
    # Balance equations at every interior state (needs pi[k_max + 1]
    # from the geometric tail for the last one).
    pi = {**pi, k_max + 1: pi[k_max] / 3}
    assert pi[1] == pi[2] / 2
    assert pi[2] == pi[1] + Fraction(3, 4) * pi[3]
    assert pi[3] == pi[2] / 2 + Fraction(3, 4) * pi[4]
    for k in range(4, k_max):
        assert pi[k] == Fraction(1, 4) * pi[k - 1] + Fraction(3, 4) * pi[k + 1]


def _check_pmf_triple(t_hi: int) -> str:
    pmf = chain.first_return_pmf_dp(t_hi)
    _assert_return_pmf(pmf, 2 * t_hi)
    assert pmf.get(2, 0) == Fraction(1, 2)
    assert pmf.get(4, 0) == Fraction(3, 16)
    assert pmf.get(6, 0) == Fraction(27, 256)
    assert chain.first_return_pmf_closed(t_hi) == pmf, "closed form != DP"
    for t in range(2, t_hi + 1):
        conv = chain.first_return_pmf_convolution(t)
        assert conv == pmf.get(2 * t, 0), f"convolution != DP at t={t}"
    return f"DP = closed form = convolution exactly for t <= {t_hi}"


def _check_pmf_published_ratio(t_hi: int) -> tuple[str, list]:
    rows = chain.first_return_rows(t_hi)
    for t, validated, published in rows[1:]:  # the published form starts at t = 2
        ratio = published / validated
        if ratio != 4:
            raise chain.VerificationError(f"published/validated = {ratio} != 4 at t={t}", report=rows)
    return f"published closed form = 4 x validated for 2 <= t <= {t_hi}", rows


def _check_path_enumeration(t_hi: int) -> str:
    enum = oracle.enumerate_chain_paths(t_hi)
    _assert_return_pmf(enum, 2 * t_hi)
    assert enum == chain.first_return_pmf_dp(t_hi), "path enumeration disagrees with DP"
    return f"exhaustive path enumeration matches the DP for t <= {t_hi}"


def _check_cdf_normalization(t_hi: int) -> str:
    pmf = chain.first_return_pmf_closed(t_hi)
    cdf = sum(pmf.values(), Fraction(0))
    tail = 2 * Fraction(3, 4) ** t_hi  # sum_{j>T} (1/2)(3/4)^{j-1}
    assert cdf <= 1
    assert cdf + tail >= 1
    assert pmf[2] + pmf[4] + pmf[6] == Fraction(203, 256)
    return f"F(2T) <= 1 and F(2T) + tail bound >= 1 at T = {t_hi}"


def _check_mean_return(t_hi: int) -> str:
    value, tail = chain.mean_return_time_series(t_hi)
    stationary = chain.mean_return_time_stationary()
    assert value <= stationary <= value + tail, "stationary value not in series interval"
    _assert_stationary(chain.stationary_distribution(60), 60)
    return (
        f"series interval width {float(tail):.2e} contains 1/pi_1 = {stationary} "
        f"(published claim: {chain.PUBLISHED_MEAN_RETURN})"
    )


def _check_olive_oracle() -> str:
    assert oracle.exact_olive_distribution(1) == {0: Fraction(1)}
    assert oracle.exact_olive_distribution(2) == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert oracle.exact_expected_olives(1) == 0
    assert oracle.exact_expected_olives(2) == Fraction(1, 2)
    assert oracle.exact_expected_olives(3) == Fraction(3, 4)
    return "exact olive law matches hand enumeration at t = 1, 2, 3"


def _check_lumping(t_hi: int) -> str:
    for t in range(1, t_hi + 1):
        lumped = oracle.exact_olive_distribution(t)
        labeled = oracle.labeled_olive_distribution(t)
        assert lumped == labeled, f"lumping mismatch at t={t}"
    return f"canonical pushforward equals the labeled tree for t <= {t_hi}"


def _check_transition_mass(n_states: int) -> str:
    rng = make_rng(20240917)
    for _ in range(n_states):
        n_others = rng.randrange(0, 6)
        first = rng.randrange(0, 5)
        others = tuple(sorted(rng.randrange(0, 4) for _ in range(n_others)))
        state = (first, others)
        m_total, law = oracle._law(state)
        # l and n_e from the state itself, not from oracle._num_moves.
        l, n_e = 1 + n_others, (first > 0) + sum(o > 0 for o in others)
        assert m_total == 1 + l * (l - 1) // 2 + l + n_e, f"M = {m_total} is not the move count of {state}"
        assert sum(law.values()) == m_total, f"mass != 1 from {state}"
    return f"one-step law sums to 1 exactly from {n_states} random states"


def _sampler_states(rng, n_states: int) -> list[list[tuple[int, int]]]:
    """The sampler check's base states as (plate id, olives) lists: eight
    fixed ones, then random ones drawn from ``rng``."""
    configs = [
        [(1, 0)],
        [(1, 0), (2, 0)],
        [(1, 1)],
        [(1, 2), (2, 0)],
        [(1, 0), (2, 3)],
        [(1, 1), (2, 1), (3, 0)],
        [(1, 0), (2, 0), (3, 0), (4, 2)],
        [(1, 5), (2, 1), (3, 1)],
    ]
    while len(configs) < n_states:
        l = rng.randrange(1, 6)
        configs.append([(i + 1, rng.randrange(0, 4)) for i in range(l)])
    return configs[:n_states]


class _FixedDraw:
    """An rng whose one ``getrandbits`` call returns ``u``; it records the
    k it was asked for and refuses a second call (a rejected u)."""

    def __init__(self, u: int) -> None:
        self.u = u
        self.bits: list[int] = []

    def getrandbits(self, k: int) -> int:
        assert not self.bits, f"the kernel rejected u = {self.u} with {k} bits"
        self.bits.append(k)
        return self.u


def _sampler_counts(plates, rng, draws: int) -> tuple[int, dict, Counter]:
    """Decode every u in [0, M) from ``plates`` through the production
    kernel, then draw ``draws`` values of u from ``rng``.

    The decode must reproduce ``oracle._law`` exactly, multiplicity for
    multiplicity, and ask for ``M.bit_length()`` bits.  Returns M, the law
    and the draws counted per canonical successor.
    """
    base = process.TableState.from_plates(plates)
    m_total, law = oracle._law(oracle.canonical_of(base))
    k = m_total.bit_length()
    decoded = []
    for u in range(m_total):
        stub = _FixedDraw(u)
        succ = base.copy()
        process._advance(succ, stub, 1)
        assert stub.bits == [k], f"the kernel drew {stub.bits} bits at u = {u} from {plates}, not [{k}]"
        decoded.append(oracle.canonical_of(succ))
    table = Counter(decoded)
    for succ in sorted(table.keys() | law.keys()):
        assert table[succ] == law.get(succ, 0), (
            f"kernel decode off from exact law at {plates} -> {succ}: "
            f"{table[succ]} of {m_total} values of u vs {law.get(succ, 0)}"
        )
    # The kernel's rejection draw, word for word: getrandbits(k) is the top
    # k bits of one 32-bit word, and getrandbits(32 n) is the next n words,
    # least significant first.  No batch asks for more words than draws
    # still missing, so the stream is left where the per-draw loop leaves it.
    hits = np.zeros(m_total, dtype=np.int64)
    need = draws
    while need:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), "<u4") >> (32 - k)
        u = words[words < m_total]
        hits += np.bincount(u, minlength=m_total)
        need -= u.size
    counts: Counter = Counter()
    for succ, n in zip(decoded, hits.tolist()):
        counts[succ] += n
    return m_total, law, counts


def _check_sampler_against_oracle(n_states: int, draws: int) -> str:
    """The kernel's one-step law against ``oracle._law``, in two parts.

    Exact: every u in [0, M) is decoded once through ``process._advance``
    (via a stub rng), and the successors must equal the law's multiplicities,
    so a decode bias of any size fails.  Statistical: ``draws`` values of u
    come from ``make_rng(77)`` by a 3-line rejection loop that mirrors
    ``_advance``'s, and each successor's frequency must lie within 4 se of
    its exact probability.  The stub's recorded k guards that mirror, and
    ``tests/test_verification.py`` pins its counts to the per-draw kernel's.
    """
    rng = make_rng(77)
    worst = 0.0
    for plates in _sampler_states(rng, n_states):
        m_total, law, counts = _sampler_counts(plates, rng, draws)
        for succ, k in law.items():
            pf = k / m_total
            se = (pf * (1 - pf) / draws) ** 0.5
            dev = abs(counts[succ] / draws - pf)
            worst = max(worst, dev / se if se else 0.0)
            assert dev <= 4 * se + 1e-12, (
                f"sampler off from exact law at {plates} -> {succ}: "
                f"freq {counts[succ] / draws} vs {pf} ({dev / se:.1f} se)"
            )
    return f"sampler matches the exact law on {n_states} states (worst {worst:.2f} se)"


def _check_accounting_identity(t_steps: int) -> str:
    rec = process.run_trajectory(t_steps, seed=4242, check_identity=True)
    rec.final_state.check_invariants()
    return f"olive conservation held at every one of {t_steps} steps"


def _check_oracle_vs_mc(replicas: int) -> str:
    t = 12
    exact_mean = oracle.exact_expected_olives(t)
    config = ensemble.EnsembleConfig(t=t, replicas=replicas, master_seed=97531)
    records = ensemble.run_ensemble(config)
    est = ensemble._stats_estimate(ensemble._olive_moments(records["O"]), t)
    mc_mean = Fraction(est["mean_O_exact"])
    se = est["sd_O"] / replicas**0.5
    dev = abs(float(mc_mean - exact_mean))
    assert dev <= 4 * se, f"MC mean {float(mc_mean)} vs exact {float(exact_mean)}: {dev / se:.1f} se"
    return (
        f"ensemble mean at t={t} within {dev / se:.2f} se of the exact value "
        f"{float(exact_mean):.9f} over {replicas} replicas"
    )


def _check_walk_structure(steps: int) -> str:
    stats = chain.simulate_walk(steps, seed=11)
    assert stats.n11 <= steps // 2
    assert stats.last_return % 2 == 0
    assert stats.final_state >= 1
    # Every move is +-1, so the state's parity flips on each step.
    assert (stats.final_state - 1 - steps) % 2 == 0
    return f"walk parity and support hold over {steps} steps ({stats.n11} returns)"


def _sample(n: int) -> list[int]:
    """About 50 evenly spaced indices in [0, n), the first and last included."""
    return sorted({*range(0, n, max(1, n // 50)), n - 1})


def _check_seed_derivation(n: int) -> str:
    """The seeds and first words of the lockstep kernel, from
    ``_lockstep.derive_seeds`` and ``_lockstep.first_words``: all distinct,
    and equal to ``rng.derive_seed`` (which the scalar tasks use) and
    ``make_rng``'s first draws on a fixed sample of replicas that includes
    the first and the last."""
    seeds = _lockstep.derive_seeds(123, 0, n)
    assert np.unique(seeds).size == n, "derived seeds collide"
    for i in _sample(n):
        assert int(seeds[i]) == derive_seed(123, i), f"derive_seeds differs from derive_seed at replica {i}"
    words = _lockstep.first_words(seeds[:1000], 8)  # column i: stream i's first 8 words
    assert np.unique(words, axis=1).shape[1] == words.shape[1], "replica streams overlap"
    for i in _sample(words.shape[1]):
        rng = make_rng(int(seeds[i]))
        first = [rng.getrandbits(32) for _ in range(8)]
        assert words[:, i].tolist() == first, f"first_words differs from make_rng at replica {i}"
    return f"{n} derived seeds distinct; first draws of 1000 streams all differ"


def build_checks(level: str) -> list[tuple[str, Callable[[], str | tuple[str, object]]]]:
    """(name, check) pairs; a check returns its detail, or (detail, report)."""
    if level not in ("quick", "full"):
        raise _RangeError(f"level must be 'quick' or 'full', got {level!r}")
    full = level == "full"
    return [
        ("catalan_values", _check_catalan_values),
        ("catalan_convolution", lambda: (
            "convolution closed form exact for all (t, i)",
            chain.verify_catalan_convolution(12 if full else 9),
        )),
        ("gould_identity", lambda: (
            "partial-sum identity exact over the sweep",
            chain.verify_gould_identity(60 if full else 25),
        )),
        ("binomial_series", lambda: (
            "generating-function values (incl. 12 and 6) reproduced",
            chain.verify_binomial_series(k_max=200 if full else 100),
        )),
        ("pmf_triple_agreement", lambda: _check_pmf_triple(30 if full else 20)),
        ("pmf_published_ratio", lambda: _check_pmf_published_ratio(30)),
        ("path_enumeration", lambda: _check_path_enumeration(10 if full else 7)),
        ("cdf_normalization", lambda: _check_cdf_normalization(200)),
        ("mean_return_time", lambda: _check_mean_return(200)),
        ("olive_oracle_small_t", _check_olive_oracle),
        ("lumping_soundness", lambda: _check_lumping(6 if full else 5)),
        ("transition_mass", lambda: _check_transition_mass(1000 if full else 200)),
        ("sampler_vs_oracle", lambda: _check_sampler_against_oracle(
            20 if full else 8, 40_000 if full else 20_000
        )),
        ("accounting_identity", lambda: _check_accounting_identity(100_000 if full else 20_000)),
        ("oracle_vs_mc", lambda: _check_oracle_vs_mc(100_000 if full else 20_000)),
        ("walk_structure", lambda: _check_walk_structure(200_000 if full else 50_000)),
        ("seed_derivation", lambda: _check_seed_derivation(100_000 if full else 10_000)),
    ]


def _run_check(level: str, index: int) -> CheckResult:
    """Run check ``index`` of ``build_checks(level)``; a failed assert or a
    crash is a failed result, never an exception."""
    name, fn = build_checks(level)[index]
    start = time.perf_counter()
    try:
        out = fn()
        detail, report = out if isinstance(out, tuple) else (out, None)
        passed = True
    except AssertionError as exc:  # chain.VerificationError included
        detail = str(exc) or exc.__class__.__name__
        report = getattr(exc, "report", None)
        passed = False
    except Exception as exc:  # a check that crashed: its type and message
        detail, report, passed = f"{exc.__class__.__name__}: {exc}", None, False
    return CheckResult(name, passed, detail, time.perf_counter() - start, report)


def run_suite(level: str = "quick", emit: Optional[Callable[[str], None]] = None) -> list[CheckResult]:
    """Run every check at the given level; never raises on check failure.

    The checks run concurrently on ``ensemble._fork_pool``, one worker per
    usable CPU at most, and each worker sees this process's modules,
    patched ones included.  Results are emitted and returned in list order,
    each as it arrives; a check's ``elapsed_seconds`` is its own wall time
    in its worker, so it includes CPU time shared with the other checks.  A
    worker that dies fails its check with the pool's exception.

    The checks are assert statements, which ``python -O`` strips, so that
    every check would pass whatever the code computes: under ``-O`` it
    refuses to run (a ``_RangeError``) before any worker starts.
    """
    if not __debug__:
        raise _RangeError("the checks need assert statements; run them without python -O")
    checks = build_checks(level)
    cpus = ensemble._usable_cpus()
    results = []
    with ensemble._fork_pool(ensemble.pool_size(cpus, cpus, len(checks))) as pool:
        futures = [pool.submit(_run_check, level, index) for index in range(len(checks))]
        for (name, _), future in zip(checks, futures):
            try:
                check = future.result()
            except Exception as exc:  # the worker died, or its result did not pickle
                check = CheckResult(name, False, f"{exc.__class__.__name__}: {exc}", 0.0)
            if emit is not None:
                emit(check.line())
            results.append(check)
    return results


def suite_report(results: list[CheckResult], level: str) -> dict:
    """Structured JSON document: per-check pass/fail plus the identity rows
    and the first-return pmf discrepancy table, as the checks computed them
    (a failed check contributes the rows it had reached, or null if none)."""

    def frac(value: Fraction) -> str:
        return f"{value.numerator}/{value.denominator}"

    computed = {r.name: r.report for r in results}
    t1 = {name: frac(v) for name, v in chain.published_pmf_t1_conventions().items()}
    discrepancy = computed["pmf_published_ratio"] and [
        {"t": t, "f_validated": frac(f), "f_published_conventions": t1}
        if fp is None
        else {"t": t, "f_validated": frac(f), "f_published": frac(fp), "ratio": frac(fp / f)}
        for t, f, fp in computed["pmf_published_ratio"]
    ]
    series = computed["binomial_series"]
    return {
        "level": level,
        "all_passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "pass": r.passed, "detail": r.detail, "elapsed_seconds": r.elapsed_seconds}
            for r in results
        ],
        "identities": {
            "catalan_convolution": computed["catalan_convolution"],
            "binomial_partial_sum": computed["gould_identity"],
            "binomial_series": series and {
                name: {
                    "partial": frac(c["partial"]),
                    "closed": frac(c["closed"]),
                    "tail_bound": c["tail_bound"],
                    "pass": c["pass"],
                }
                for name, c in series["checks"].items()
            },
        },
        "pmf_discrepancy_table": discrepancy,
    }
