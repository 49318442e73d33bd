"""Desk-scale exact ground truth for the process and the auxiliary walk.

Two independent exact engines:

* a rational pushforward over canonical table states (the first plate's
  olive count plus the sorted multiset of the other plates' counts), which
  yields the exact law of the olive total for small step counts, and
* exhaustive path enumeration for the auxiliary walk's first-return time,
  deliberately sharing no code with the dynamic program in
  :mod:`olivetable.chain` that it cross-checks.

Lumping non-first plates is sound because the uniform move choice treats
them exchangeably; ``labeled_olive_distribution`` re-derives the same olive
law from the fully labeled process (no lumping) to guard that assumption.
Merges are enumerated over unordered pairs of plate positions, so
multiplicities in the multiset are weighted correctly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, TextIO

from .chain import ReturnTimePMF
from .process import TableState

DEFAULT_STATE_BUDGET = 10_000_000

OLIVE_PMF_CSV_HEADER = "t,O,prob_num,prob_den"
EXPECTED_OLIVES_CSV_HEADER = "t,mean_num,mean_den"


class BudgetExceededError(RuntimeError):
    """The exact pushforward grew past the configured state-count budget.

    The budget caps the cumulative number of successor states enumerated
    over all steps (the pushforward's total work), so infeasible horizons
    fail loudly instead of grinding; nothing is ever truncated silently.
    """

    def __init__(self, step: int, state_count: int, budget: int):
        super().__init__(
            f"exact pushforward exceeded its state budget at step {step}: "
            f"{state_count} successor states enumerated > budget {budget}"
        )
        self.step = step
        self.state_count = state_count
        self.budget = budget


class CanonicalState(NamedTuple):
    """Process state up to relabeling of the non-first plates.

    ``first`` is the olive count of the first plate (-1 encodes the empty
    table, which only occurs at step 0); ``others`` is the ascending tuple
    of the remaining plates' olive counts.
    """

    first: int
    others: tuple[int, ...]

    @property
    def num_plates(self) -> int:
        return (1 if self.first >= 0 else 0) + len(self.others)

    @property
    def total_olives(self) -> int:
        return max(self.first, 0) + sum(self.others)

    @property
    def num_nonempty(self) -> int:
        return (1 if self.first > 0 else 0) + sum(1 for o in self.others if o > 0)


EMPTY_TABLE = CanonicalState(-1, ())


def canonical_of(state: TableState) -> CanonicalState:
    """Canonical form of a full process state.

    The distinguished plate is the minimum-id plate (plate 1 in any state
    evolved from the empty table).
    """
    ids = state._ids
    if not ids:
        return EMPTY_TABLE
    olives = state._olives
    p = ids.index(min(ids))
    return CanonicalState(olives[p], tuple(sorted(olives[:p] + olives[p + 1 :])))


def transitions(state: CanonicalState) -> dict[CanonicalState, Fraction]:
    """Exact one-step law from a canonical state; probabilities sum to 1."""
    if state.first < 0:
        return {CanonicalState(0, ()): Fraction(1)}
    first = state.first
    others = state.others
    n_others = len(others)
    l = 1 + n_others
    n_e = state.num_nonempty
    m_total = 1 + l * (l - 1) // 2 + l + n_e
    weight = Fraction(1, m_total)
    out: dict[CanonicalState, Fraction] = {}

    def add(succ: CanonicalState) -> None:
        out[succ] = out.get(succ, Fraction(0)) + weight

    def drop_sorted(seq: tuple[int, ...], index: int) -> tuple[int, ...]:
        return seq[:index] + seq[index + 1 :]

    def insert_sorted(seq: tuple[int, ...], value: int) -> tuple[int, ...]:
        lst = list(seq)
        lo = 0
        while lo < len(lst) and lst[lo] < value:
            lo += 1
        lst.insert(lo, value)
        return tuple(lst)

    # P+: one new empty plate (never the first plate).
    add(CanonicalState(first, (0,) + others))
    # P-: one way per unordered position pair.  The first plate has the
    # lowest id and survives any merge it joins; a merge of two non-first
    # plates keeps the combined count among the others either way.
    for j in range(n_others):
        add(CanonicalState(first + others[j], drop_sorted(others, j)))
    for a in range(n_others):
        for b in range(a + 1, n_others):
            rest = others[:a] + others[a + 1 : b] + others[b + 1 :]
            add(CanonicalState(first, insert_sorted(rest, others[a] + others[b])))
    # O+: one way per plate.
    add(CanonicalState(first + 1, others))
    for j in range(n_others):
        add(CanonicalState(first, insert_sorted(drop_sorted(others, j), others[j] + 1)))
    # O-: one way per non-empty plate.
    if first > 0:
        add(CanonicalState(first - 1, others))
    for j in range(n_others):
        if others[j] > 0:
            add(CanonicalState(first, insert_sorted(drop_sorted(others, j), others[j] - 1)))
    return out


def exact_transition_check(state: TableState) -> dict[CanonicalState, Fraction]:
    """Exact one-step law of a full process state, keyed canonically."""
    return transitions(canonical_of(state))


def _advance(
    dist: dict[CanonicalState, Fraction], step: int, work_done: int, budget: int
) -> tuple[dict[CanonicalState, Fraction], int]:
    """One exact pushforward step under a cumulative work budget.

    The projected work for the step (sum of branching factors, computable
    without any rational arithmetic) is charged before the step runs.
    """
    projected = work_done
    for state in dist:
        l = state.num_plates
        projected += 1 + l * (l - 1) // 2 + l + state.num_nonempty
    if projected > budget:
        raise BudgetExceededError(step, projected, budget)
    nxt: dict[CanonicalState, Fraction] = {}
    for state, p in dist.items():
        for succ, q in transitions(state).items():
            nxt[succ] = nxt.get(succ, Fraction(0)) + p * q
    return nxt, projected


def _pushforward(t: int, budget: int) -> Iterator[dict[CanonicalState, Fraction]]:
    """The exact state distribution after steps 0, 1, ..., t, in turn."""
    dist: dict[CanonicalState, Fraction] = {EMPTY_TABLE: Fraction(1)}
    yield dist
    work = 0
    for s in range(1, t + 1):
        dist, work = _advance(dist, s, work, budget)
        yield dist


def _olive_pmf(dist: dict[CanonicalState, Fraction]) -> dict[int, Fraction]:
    """Olive-total pmf of a state distribution, in ascending olive count."""
    pmf: dict[int, Fraction] = {}
    for state, p in dist.items():
        o = state.total_olives
        pmf[o] = pmf.get(o, Fraction(0)) + p
    return dict(sorted(pmf.items()))


def _mean(pmf: dict[int, Fraction]) -> Fraction:
    """Exact mean sum(o * p) of an olive pmf."""
    return sum((o * p for o, p in pmf.items()), Fraction(0))


def state_distribution(t: int, budget: int = DEFAULT_STATE_BUDGET) -> dict[CanonicalState, Fraction]:
    """Exact distribution over canonical states after t steps.

    Raises BudgetExceededError once the cumulative state expansions would
    pass ``budget``; never truncates silently.  The default budget admits
    t <= 29 (7.5e6 expansions; step 30 would need 1.02e7), which takes
    about 95 s on a 2-vCPU x86-64 box with CPython 3.11, against about 5 s
    at t = 20.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    for dist in _pushforward(t, budget):
        pass
    return dist


def exact_olive_distribution(t: int, budget: int = DEFAULT_STATE_BUDGET) -> dict[int, Fraction]:
    """Exact pmf of the olive total after t steps; masses sum to 1."""
    return _olive_pmf(state_distribution(t, budget))


def exact_expected_olives(t: int, budget: int = DEFAULT_STATE_BUDGET) -> Fraction:
    """Exact expected olive total after t steps."""
    return _mean(exact_olive_distribution(t, budget))


def olive_distribution_table(
    t_max: int, budget: int = DEFAULT_STATE_BUDGET
) -> list[tuple[int, dict[int, Fraction]]]:
    """Exact olive pmf at every step 1..t_max from one incremental pushforward."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    return [(s, _olive_pmf(dist)) for s, dist in enumerate(_pushforward(t_max, budget)) if s > 0]


# -- labeled (unlumped) cross-check ----------------------------------------


def labeled_olive_distribution(t: int) -> dict[int, Fraction]:
    """Olive pmf from the fully labeled process: no canonicalization.

    States are (sorted (id, olives) tuples, next id).  Exponentially larger
    than the canonical pushforward, so keep t <= 6; used only to guard the
    lumping assumption.
    """
    if t < 0 or t > 8:
        raise ValueError(f"labeled tree is only tractable for 0 <= t <= 8, got {t}")
    start = ((), 1)
    dist: dict[tuple, Fraction] = {start: Fraction(1)}
    for _ in range(t):
        nxt: dict[tuple, Fraction] = {}

        def add(key: tuple, mass: Fraction) -> None:
            nxt[key] = nxt.get(key, Fraction(0)) + mass

        for (plates, next_id), p in dist.items():
            l = len(plates)
            n_e = sum(1 for _, o in plates if o > 0)
            m_total = 1 + l * (l - 1) // 2 + l + n_e
            w = p / m_total
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


def enumerate_chain_paths(t_max: int) -> ReturnTimePMF:
    """First-return pmf by explicit enumeration of every walk path.

    Sums the probability of each path 1 -> 2 -> ... -> 2 -> 1 of length
    2t <= 2*t_max that avoids state 1 in the interior.  Path probabilities
    are products of 1/2, 3/4 and 1/4, tracked as exact 3^a / 2^b pairs.
    Exponential in t_max; refuses t_max > 10.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if t_max > 10:
        raise BudgetExceededError(t_max, 2 ** (2 * t_max), 2**20)
    horizon = 2 * t_max
    totals: dict[int, Fraction] = {}

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
                totals[time] = totals.get(time, Fraction(0)) + Fraction(3**pow3, 2 ** (pow2 + 1))
            if remaining >= 3:  # go up to 3 and still be able to return in time
                stack.append((3, step_count + 1, pow3, pow2 + 1))
        else:
            down = state - 1
            if down - 1 <= remaining - 1:
                stack.append((down, step_count + 1, pow3 + 1, pow2 + 2))
            up = state + 1
            if up - 1 <= remaining - 1:
                stack.append((up, step_count + 1, pow3, pow2 + 2))
    entries = dict(sorted(totals.items()))
    return ReturnTimePMF(entries=entries, horizon=horizon)


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
