"""Desk-scale exact ground truth for the process and the auxiliary walk.

Two independent exact engines:

* a rational pushforward over the multiset of plate olive counts (an
  ascending tuple of every plate's count), which yields the exact law of
  the olive total for small step counts; it carries integer numerators
  over one common denominator and builds a ``Fraction`` only for what it
  returns, and
* exhaustive path enumeration for the auxiliary walk's first-return time,
  deliberately sharing neither code nor types with the dynamic program in
  :mod:`olivetable.chain` that it cross-checks: both return a plain
  ``{2t: Fraction}`` dict, and this module imports nothing from ``chain``.

One function lists moves: ``_pile_moves`` takes an ascending tuple of
plate counts and lists every move among those plates.  The pushforward runs
it on the multiset of all counts.  A merge leaves the combined pile on the
table whichever plate survives, and M reads only l and n_e, so that is the
whole one-step law of the multiset and the chain on multisets is exactly
lumpable (Kemeny & Snell, *Finite Markov Chains*, 1960, section 6.3).
``_law`` runs it on the non-first plates and adds plate 1's own moves,
which gives the law of canonical states that the sampler check and
anything that follows plate 1 need.  A canonical state is the plain tuple
``(first, others)`` of a table with at least one plate: the first plate's
count and the ascending tuple of the others' counts.  The empty table needs
no canonical form, because only the multiset layer starts from it.  Lumping
non-first plates is sound because the uniform move choice treats them
exchangeably.
``labeled_olive_distribution`` re-derives the same olive law from the
fully labeled process (no lumping) to guard both lumpings.  Each
successor's multiplicity counts the moves that reach it: a merge of plates
holding counts v and w counts every unordered pair of plate positions
holding them, so multiplicities in the multiset are weighted correctly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterator, TextIO

from .process import TableState
from .rng import _RangeError

# Caps the cumulative state expansions of one pushforward.  It admits
# t <= 34 (8.5e6 expansions; step 35 would need 1.10e7), which takes 6.4-7.1 s
# CPU and 63 MB peak RSS for ``exact --t 34`` on a 2-vCPU x86-64 box with
# CPython 3.11, against about 0.17-0.23 s and 17 MB at t = 20.
DEFAULT_STATE_BUDGET = 10_000_000

OLIVE_PMF_CSV_HEADER = "t,O,prob_num,prob_den"
EXPECTED_OLIVES_CSV_HEADER = "t,mean_num,mean_den"


class BudgetExceededError(_RangeError, RuntimeError):
    """The exact pushforward grew past the configured state-count budget.

    The budget caps the cumulative number of successor states enumerated
    over all steps (the pushforward's total work), so infeasible horizons
    fail loudly instead of grinding; nothing is ever truncated silently.
    A refusal (``_RangeError``: the CLI exits 1), still a ``RuntimeError``.
    """

    def __init__(self, step: int, state_count: int, budget: int):
        super().__init__(
            f"exact pushforward exceeded its state budget at step {step}: "
            f"{state_count} successor states enumerated > budget {budget}"
        )
        self.step = step
        self.state_count = state_count
        self.budget = budget


def canonical_of(state: TableState) -> tuple[int, tuple[int, ...]]:
    """Canonical form ``(first, others)`` of a table with at least one plate:
    the olive count of the distinguished plate, the minimum-id plate (plate
    1 in any state evolved from the empty table), and the ascending tuple of
    the other plates' counts."""
    ids = state._ids
    olives = state._olives
    p = ids.index(min(ids))
    return olives[p], tuple(sorted(olives[:p] + olives[p + 1 :]))


def _pile_moves(piles: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Every move among the ascending tuple of counts ``piles``, as
    ``{successor: k}`` with k the number of moves that reach it: a new
    plate, a merge of two piles, or an olive added to or taken from one.

    This is the one place that lists successors.  On every plate's count it
    is the whole law of the multiset and the ks sum to M (a merge keeps the
    combined pile whichever plate survives), so ``_pile_moves(())`` is
    ``{(0,): 1}``.  ``_law`` adds plate 1's own moves to it.
    """
    # Piles of equal count lead to the same successor, so they are walked by
    # distinct count v, held by piles[lo:hi].  Each successor is built by
    # slicing the sorted tuple, so it stays sorted.
    n = len(piles)
    groups = []
    lo = 0
    while lo < n:
        v = piles[lo]
        hi = bisect_right(piles, v, lo)
        groups.append((v, lo, hi))
        lo = hi
    zeros = groups[0][2] if groups and groups[0][0] == 0 else 0
    nonzero = groups[1:] if zeros else groups
    # P+: one new empty plate.
    out = {(0,) + piles: 1}
    # P-: one way per unordered pair of piles.  Every merge with an empty
    # pile just drops it, so all of them lead to one successor: C(z, 2) among
    # the z empty piles and z (n - z) with the non-empty ones.  Every other
    # merge leads to a successor of its own.
    if zeros and n > 1:
        out[piles[1:]] = zeros * (zeros - 1) // 2 + zeros * (n - zeros)
    for i, (v, lo, hi) in enumerate(nonzero):
        c = hi - lo
        if c > 1:
            s = 2 * v
            p = bisect_left(piles, s, hi)
            out[piles[:lo] + piles[lo + 2 : p] + (s,) + piles[p:]] = c * (c - 1) // 2
        for w, lo2, hi2 in nonzero[i + 1 :]:
            s = v + w
            p = bisect_left(piles, s, hi2)
            out[piles[:lo] + piles[lo + 1 : lo2] + piles[lo2 + 1 : p] + (s,) + piles[p:]] = c * (hi2 - lo2)
    # O+: one way per pile; a count's last pile is the one raised.
    for v, lo, hi in groups:
        out[piles[: hi - 1] + (v + 1,) + piles[hi:]] = hi - lo
    # O-: one way per non-empty pile; a count's first pile is the one lowered.
    for v, lo, hi in nonzero:
        out[piles[:lo] + (v - 1,) + piles[lo + 1 :]] = hi - lo
    return out


def _num_moves(l: int, n_e: int) -> int:
    """M = 1 + C(l, 2) + l + n_e, the number of equally likely moves from a
    table of l plates, n_e of them non-empty."""
    return 1 + l * (l - 1) // 2 + l + n_e


def _law(state: tuple[int, tuple[int, ...]]) -> tuple[int, dict[tuple[int, tuple[int, ...]], int]]:
    """Exact one-step law from a canonical state ``(first, others)`` as
    ``(M, {successor: k})``.

    The process picks one of M equally likely moves and ``k`` counts the
    moves that lead to each successor, so the multiplicities sum to M.  It
    is ``_pile_moves`` on the non-first plates plus plate 1's own moves; the
    sampler and transition-mass checks read it.
    """
    first, others = state
    out = {(first, succ): k for succ, k in _pile_moves(others).items()}
    # Plate 1 has the lowest id, so it survives every merge it joins: one
    # way per plate holding count v.  With v = 0 that is the successor the
    # merges among the others with an empty plate already reach.
    n = len(others)
    lo = 0
    while lo < n:
        v = others[lo]
        hi = bisect_right(others, v, lo)
        succ = (first + v, others[:lo] + others[lo + 1 :])
        out[succ] = out.get(succ, 0) + hi - lo
        lo = hi
    out[first + 1, others] = 1
    if first > 0:
        out[first - 1, others] = 1
    return _num_moves(n + 1, (first > 0) + n - bisect_right(others, 0)), out


def _advance(
    dist: dict[tuple[int, ...], int], den: int, step: int, work_done: int, budget: int
) -> tuple[dict[tuple[int, ...], int], int, int]:
    """One exact pushforward step under a cumulative work budget.

    ``dist`` maps each multiset of plate counts (an ascending tuple) to the
    integer numerator of its probability over the common denominator
    ``den``; it is consumed (left empty).  Returns the next step's
    numerators, denominator and the work done so far.  The projected work
    for the step (the sum of each key's M, read off its length and its
    zeros) is charged before any successor is listed.  Each key's successors
    come from ``_pile_moves`` on the key itself, its numerator scaled to the
    lcm of the live Ms; one gcd is divided out at the end.
    """
    moves = [_num_moves(len(key), len(key) - bisect_right(key, 0)) for key in dist]
    projected = work_done + sum(moves)
    if projected > budget:
        raise BudgetExceededError(step, projected, budget)
    lcm = math.lcm(*set(moves))
    nxt: dict[tuple[int, ...], int] = {}
    get = nxt.get
    while dist:  # emptied as it is read, so old and new numerators never both peak
        key, num = dist.popitem()
        scaled = num * (lcm // moves.pop())  # popitem is LIFO, so this is key's M
        for succ, k in _pile_moves(key).items():
            nxt[succ] = get(succ, 0) + scaled * k
    den *= lcm
    g = math.gcd(den, *nxt.values())
    if g > 1:
        den //= g
        for succ in nxt:
            nxt[succ] //= g
    return nxt, den, projected


def _pushforward(t: int, budget: int) -> Iterator[tuple[dict[tuple[int, ...], int], int]]:
    """The exact law of the plate-count multiset after steps 0, 1, ..., t,
    in turn, each as (integer numerators, common denominator).  A yielded
    dict is emptied when the next step is computed, so read it before
    advancing."""
    dist: dict[tuple[int, ...], int] = {(): 1}
    den = 1
    yield dist, den
    work = 0
    for s in range(1, t + 1):
        dist, den, work = _advance(dist, den, s, work, budget)
        yield dist, den


def _final(t: int) -> tuple[dict[tuple[int, ...], int], int]:
    """Numerators and common denominator of the multiset law at t."""
    if t < 0:
        raise _RangeError(f"t must be >= 0, got {t}")
    for dist, den in _pushforward(t, DEFAULT_STATE_BUDGET):
        pass
    return dist, den


def _olive_pmf(dist: dict[tuple[int, ...], int], den: int) -> dict[int, Fraction]:
    """Olive-total pmf of a multiset law, in ascending olive count."""
    nums: dict[int, int] = {}
    for key, num in dist.items():
        o = sum(key)
        nums[o] = nums.get(o, 0) + num
    return {o: Fraction(nums[o], den) for o in sorted(nums)}


def _mean(pmf: dict[int, Fraction]) -> Fraction:
    """Exact mean sum(o * p) of an olive pmf."""
    return sum((o * p for o, p in pmf.items()), Fraction(0))


def exact_olive_distribution(t: int) -> dict[int, Fraction]:
    """Exact pmf of the olive total after t steps; masses sum to 1."""
    return _olive_pmf(*_final(t))


def exact_expected_olives(t: int) -> Fraction:
    """Exact expected olive total after t steps."""
    return _mean(exact_olive_distribution(t))


def olive_distribution_table(
    t_max: int, budget: int = DEFAULT_STATE_BUDGET
) -> list[tuple[int, dict[int, Fraction]]]:
    """Exact olive pmf at every step 1..t_max from one incremental pushforward."""
    if t_max < 1:
        raise _RangeError(f"t_max must be >= 1, got {t_max}")
    return [(s, _olive_pmf(*step)) for s, step in enumerate(_pushforward(t_max, budget)) if s > 0]


# -- labeled (unlumped) cross-check ----------------------------------------


def labeled_olive_distribution(t: int) -> dict[int, Fraction]:
    """Olive pmf from the fully labeled process: no canonicalization.

    States are (sorted (id, olives) tuples, next id).  Exponentially larger
    than the multiset pushforward, so t is limited to 0 <= t <= 8 (a
    ValueError otherwise); used only to guard the lumping assumption.
    """
    if t < 0 or t > 8:
        raise _RangeError(f"labeled tree is only tractable for 0 <= t <= 8, got {t}")
    start = ((), 1)
    dist: dict[tuple, Fraction] = {start: Fraction(1)}
    for _ in range(t):
        nxt: dict[tuple, Fraction] = {}

        def add(key: tuple, mass: Fraction) -> None:
            nxt[key] = nxt.get(key, Fraction(0)) + mass

        for (plates, next_id), p in dist.items():
            l = len(plates)
            w = p / _num_moves(l, sum(1 for _, o in plates if o > 0))
            add((tuple(sorted(plates + ((next_id, 0),))), next_id + 1), w)
            for a in range(l):
                for b in range(a + 1, l):
                    ida, oa = plates[a]
                    idb, ob = plates[b]
                    keep = tuple(pl for i, pl in enumerate(plates) if i not in (a, b))
                    survivor = (min(ida, idb), oa + ob)
                    add((tuple(sorted(keep + (survivor,))), next_id), w)
            for a in range(l):
                ida, oa = plates[a]
                rest = plates[:a] + plates[a + 1 :]
                add((tuple(sorted(rest + ((ida, oa + 1),))), next_id), w)
            for a in range(l):
                ida, oa = plates[a]
                if oa > 0:
                    rest = plates[:a] + plates[a + 1 :]
                    add((tuple(sorted(rest + ((ida, oa - 1),))), next_id), w)
        dist = nxt
    pmf: dict[int, Fraction] = {}
    for (plates, _), p in dist.items():
        o = sum(olives for _, olives in plates)
        pmf[o] = pmf.get(o, Fraction(0)) + p
    return dict(sorted(pmf.items()))


# -- walk path enumeration ---------------------------------------------------


def enumerate_chain_paths(t_max: int) -> dict[int, Fraction]:
    """First-return pmf by explicit enumeration of every walk path.

    Returns ``{2t: Pr(T = 2t)}`` for 1 <= t <= t_max in increasing order of
    time, the same shape as ``chain.first_return_pmf_dp``.  Sums the
    probability of each path 1 -> 2 -> ... -> 2 -> 1 of length
    2t <= 2*t_max that avoids state 1 in the interior.  Path probabilities
    are products of 1/2, 3/4 and 1/4, tracked as exact 3^a / 2^b pairs.
    Exponential in t_max, so t_max is limited to 1 <= t_max <= 10 (a
    ValueError otherwise).
    """
    if not 1 <= t_max <= 10:
        raise _RangeError(f"path enumeration is only tractable for 1 <= t_max <= 10, got {t_max}")
    horizon = 2 * t_max
    # Every path probability is a multiple of 1 / 2^den_bits, so the sums
    # are kept as integer numerators over that one denominator.
    den_bits = 2 * horizon + 1
    totals: dict[int, int] = {}

    # Depth-first over (state, step, pow3, pow2) with p = 3^pow3 / 2^pow2;
    # the walk sits at `state` after `step` steps, having left from 1.
    stack = [(2, 1, 0, 0)]
    while stack:
        state, step_count, pow3, pow2 = stack.pop()
        remaining = horizon - step_count
        if state == 2:
            # return now (probability 1/2)
            time = step_count + 1
            if time <= horizon:
                totals[time] = totals.get(time, 0) + (3**pow3 << (den_bits - pow2 - 1))
            if remaining >= 3:  # go up to 3 and still be able to return in time
                stack.append((3, step_count + 1, pow3, pow2 + 1))
        else:
            down = state - 1
            if down - 1 <= remaining - 1:
                stack.append((down, step_count + 1, pow3 + 1, pow2 + 2))
            up = state + 1
            if up - 1 <= remaining - 1:
                stack.append((up, step_count + 1, pow3, pow2 + 2))
    return {time: Fraction(totals[time], 1 << den_bits) for time in sorted(totals)}


# -- CSV emission -------------------------------------------------------------


def write_olive_pmf_csv(rows: list[tuple[int, dict[int, Fraction]]], out: TextIO) -> None:
    out.write(OLIVE_PMF_CSV_HEADER + "\n")
    for t, pmf in rows:
        for o, p in pmf.items():
            out.write("%d,%d,%d,%d\n" % (t, o, p.numerator, p.denominator))


def write_expected_olives_csv(rows: list[tuple[int, dict[int, Fraction]]], out: TextIO) -> None:
    out.write(EXPECTED_OLIVES_CSV_HEADER + "\n")
    for t, pmf in rows:
        mean = _mean(pmf)
        out.write("%d,%d,%d\n" % (t, mean.numerator, mean.denominator))
