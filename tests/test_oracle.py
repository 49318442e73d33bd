from bisect import insort
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olivetable import oracle, process
from olivetable.chain import first_return_pmf_dp
from olivetable.oracle import (
    BudgetExceededError,
    canonical_of,
    enumerate_chain_paths,
    exact_expected_olives,
    exact_olive_distribution,
    labeled_olive_distribution,
    olive_distribution_table,
)
from olivetable.process import TableState
from olivetable.rng import make_rng
from olivetable.verification import _assert_return_pmf

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def _law_fractions(state):
    """``oracle._law`` as probabilities: {successor: Fraction(k, M)}."""
    m_total, law = oracle._law(state)
    return {succ: Fraction(k, m_total) for succ, k in law.items()}


def _state_fractions(t):
    """The exact law of the plate-count multiset after t steps, from ``oracle._final``."""
    dist, den = oracle._final(t)
    return {key: Fraction(num, den) for key, num in dist.items()}


def _multiset(state):
    """The ascending tuple of every plate's count in a canonical state."""
    first, others = state
    return tuple(sorted((first,) + others))


def _plates_and_nonempty(state):
    """(l, n_e): the plates and the non-empty plates of a canonical state."""
    first, others = state
    return 1 + len(others), (first > 0) + sum(o > 0 for o in others)


def test_canonicalization():
    state = TableState.from_plates([(1, 2), (2, 0), (3, 5), (4, 0)])
    canon = canonical_of(state)
    assert canon == (2, (0, 0, 5))
    assert _plates_and_nonempty(canon) == (4, 2)
    assert sum(_multiset(canon)) == 7
    # Without plate 1 the lowest id present is the distinguished plate.
    assert canonical_of(TableState.from_plates([(3, 2), (2, 0), (5, 1)])) == (0, (1, 2))


def test_transitions_from_empty_table():
    # The empty table's one move is the multiset layer's; from the one empty
    # plate it leads to, M = 2: add a plate, or an olive onto plate 1.
    assert oracle._pile_moves(()) == {(0,): 1}
    assert oracle._law((0, ())) == (2, {(0, (0,)): 1, (1, ()): 1})


def test_transitions_two_empty_plates():
    law = _law_fractions((0, (0,)))
    assert law == {
        (0, (0, 0)): QUARTER,   # add plate
        (0, ()): QUARTER,       # merge
        (1, (0,)): QUARTER,     # olive onto the first plate
        (0, (1,)): QUARTER,     # olive onto the other plate
    }
    # Aggregated over the first-plate distinction: one olive somewhere = 1/2.
    one_olive = sum(p for s, p in law.items() if sum(_multiset(s)) == 1)
    assert one_olive == HALF


def test_transitions_weight_multiset_multiplicities():
    # Three plates holding (first=0, others=(1, 1)): merging the two equal
    # others is one pair, merging first with either is two pairs.
    law = _law_fractions((0, (1, 1)))
    m = 1 + 3 + 3 + 2  # M = 9
    assert law[0, (2,)] == Fraction(1, m)
    assert law[1, (1,)] == Fraction(2, m)
    assert sum(law.values(), Fraction(0)) == 1


def test_transition_mass_sums_to_one_for_random_states():
    rng = make_rng(864)
    for _ in range(300):
        n_others = rng.randrange(0, 6)
        state = (
            rng.randrange(0, 5),
            tuple(sorted(rng.randrange(0, 4) for _ in range(n_others))),
        )
        law = _law_fractions(state)
        assert sum(law.values(), Fraction(0)) == 1
        assert all(p > 0 for p in law.values())


def test_transitions_from_table_state():
    law = _law_fractions(canonical_of(TableState.from_plates([(1, 0), (2, 0)])))
    assert law[0, ()] == QUARTER
    assert _law_fractions(canonical_of(TableState.from_plates([(1, 0)]))) == {(0, (0,)): HALF, (1, ()): HALF}


def test_exact_olive_distribution_small_t():
    assert exact_olive_distribution(0) == {0: Fraction(1)}
    assert exact_olive_distribution(1) == {0: Fraction(1)}
    assert exact_olive_distribution(2) == {0: HALF, 1: HALF}
    assert exact_olive_distribution(3) == {
        0: Fraction(5, 12),
        1: Fraction(5, 12),
        2: Fraction(1, 6),
    }


def test_exact_expected_olives():
    assert exact_expected_olives(1) == 0
    assert exact_expected_olives(2) == HALF
    assert exact_expected_olives(3) == Fraction(3, 4)


def test_expected_olives_monotone_and_mass_one():
    rows = olive_distribution_table(12)
    prev = Fraction(-1)
    for t, pmf in rows:
        assert sum(pmf.values(), Fraction(0)) == 1
        mean = sum(o * p for o, p in pmf.items())
        assert mean >= prev, f"mean decreased at t={t}"
        prev = mean
    assert rows[1][1] == {0: HALF, 1: HALF}


def test_state_distribution_support_is_reachable():
    assert _state_fractions(0) == {(): Fraction(1)}
    dist = _state_fractions(5)
    assert sum(dist.values(), Fraction(0)) == 1
    for key in dist:
        assert type(key) is tuple and len(key) >= 1
        assert sum(key) <= 5
        assert list(key) == sorted(key) and min(key) >= 0


def test_budget_error_reports_counts():
    with pytest.raises(BudgetExceededError) as info:
        olive_distribution_table(12, 100)
    assert info.value.budget == 100
    assert info.value.state_count > 100
    assert "budget" in str(info.value)
    assert oracle.DEFAULT_STATE_BUDGET == 10**7


class _Draw:
    """An rng stub whose one ``getrandbits`` call returns ``u``."""

    def __init__(self, u):
        self.u = u

    def getrandbits(self, k):
        return self.u


def _table_of(state):
    """A labeled table in the canonical state: plate 1 first, then the others."""
    first, others = state
    return TableState.from_plates([(1, first)] + [(i + 2, o) for i, o in enumerate(others)])


def test_integer_law_matches_kernel_on_reachable_states():
    reached = {(0, ())}
    frontier = [(0, ())]
    for _ in range(9):  # every canonical state the process can reach in 1..10 steps
        frontier = [s for s in {succ for state in frontier for succ in oracle._law(state)[1]} if s not in reached]
        reached.update(frontier)
    assert len(reached) == 284
    for state in reached:
        m_total, law = oracle._law(state)
        l, n_e = _plates_and_nonempty(state)
        assert m_total == 1 + l * (l - 1) // 2 + l + n_e
        assert sum(law.values()) == m_total and min(law.values()) >= 1
        # Every one of the M moves, decoded by the production kernel.
        kernel: dict[tuple, int] = {}
        for u in range(m_total):
            table = _table_of(state)
            process._advance(table, _Draw(u), 1)
            succ = canonical_of(table)
            kernel[succ] = kernel.get(succ, 0) + 1
        assert kernel == law, state


def _reference_law(state):
    """The one-step law as ``(M, {successor: k})``, built the plain way: each
    successor from a list copy with ``list.remove`` and ``insort``, equal
    successors merged through a dict.  Shares no code with ``oracle._law``."""
    first, others = state
    out = {}

    def add(succ, k=1):
        out[succ] = out.get(succ, 0) + k

    def swap(drop, value=None):
        rest = list(others)
        for v in drop:
            rest.remove(v)
        if value is not None:
            insort(rest, value)
        return tuple(rest)

    groups = list(Counter(others).items())
    add((first, (0,) + others))
    for i, (v, c) in enumerate(groups):
        add((first + v, swap((v,))), c)
        if c > 1:
            add((first, swap((v, v), 2 * v)), c * (c - 1) // 2)
        for w, d in groups[i + 1 :]:
            add((first, swap((v, w), v + w)), c * d)
    add((first + 1, others))
    for v, c in groups:
        add((first, swap((v,), v + 1)), c)
    if first > 0:
        add((first - 1, others))
    for v, c in groups:
        if v > 0:
            add((first, swap((v,), v - 1)), c)
    l, n_e = _plates_and_nonempty(state)
    return 1 + l * (l - 1) // 2 + l + n_e, out


def _assert_law_matches_reference(state):
    m_total, law = oracle._law(state)
    assert (m_total, law) == _reference_law(state), state
    assert oracle._num_moves(*_plates_and_nonempty(state)) == m_total, state
    for succ in law:
        assert type(succ) is tuple and len(succ) == 2 and list(succ[1]) == sorted(succ[1]), (state, succ)


def _reachable_states(steps):
    """Every canonical state the process can reach in 1..``steps`` steps, by
    a BFS over ``_reference_law`` from the one empty plate of step 1."""
    reached = {(0, ())}
    frontier = [(0, ())]
    for _ in range(steps - 1):
        frontier = [s for s in {succ for state in frontier for succ in _reference_law(state)[1]} if s not in reached]
        reached.update(frontier)
    return reached


def test_sliced_law_equals_reference_on_reachable_states():
    reached = _reachable_states(14)
    assert len(reached) == 1263
    for state in reached:
        _assert_law_matches_reference(state)


@settings(max_examples=300, deadline=None)
@given(
    first=st.integers(min_value=0, max_value=6),
    others=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 30)), max_size=10),
)
def test_sliced_law_equals_reference_on_drawn_states(first, others):
    # Small counts make repeated and zero counts common.
    _assert_law_matches_reference((first, tuple(sorted(others))))


def _assert_pile_moves_match_reference(key):
    """``_pile_moves(key)`` is the reference law of the multiset ``key``:
    the law of a canonical state holding those counts, projected onto sorted
    tuples with multiplicities kept, whichever count stands for plate 1."""
    moves = oracle._pile_moves(key)
    l = len(key)
    assert sum(moves.values()) == 1 + l * (l - 1) // 2 + l + sum(v > 0 for v in key), key
    assert min(moves.values()) >= 1, key
    if not key:
        # The empty table has no canonical state: its one move is a new plate.
        assert moves == {(0,): 1}
    states = {(v, key[:i] + key[i + 1 :]) for i, v in enumerate(key)}
    for state in states:
        projected: dict[tuple, int] = {}
        for succ, k in _reference_law(state)[1].items():
            projected[_multiset(succ)] = projected.get(_multiset(succ), 0) + k
        assert moves == projected, (key, state)


def test_pile_moves_equal_projected_reference_on_reachable_multisets():
    assert oracle._pile_moves(()) == {(0,): 1}
    # One empty plate has no pair to merge, so no merge entry at all.
    assert oracle._pile_moves((0,)) == {(0, 0): 1, (1,): 1}
    keys = {_multiset(state) for state in _reachable_states(14)}
    assert len(keys) == 507 and (0,) in keys
    for key in keys:
        _assert_pile_moves_match_reference(key)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 30)), max_size=11))
def test_pile_moves_equal_projected_reference_on_drawn_multisets(counts):
    # Small counts make repeated and zero counts common.
    _assert_pile_moves_match_reference(tuple(sorted(counts)))


def test_state_distribution_equals_fraction_reference():
    # A plain Fraction pushforward of canonical states over ``_law_fractions``,
    # sharing nothing with the integer numerators and common denominator of
    # ``_advance``, then projected onto multisets: a check across the two
    # lumpings.  Step 0 is the empty table; step 1 its one empty plate.
    assert _state_fractions(0) == {(): Fraction(1)}
    assert labeled_olive_distribution(0) == {0: Fraction(1)}
    ref = {(0, ()): Fraction(1)}
    for t in range(1, 13):
        projected: dict[tuple, Fraction] = {}
        for state, p in ref.items():
            key = _multiset(state)
            projected[key] = projected.get(key, Fraction(0)) + p
        assert _state_fractions(t) == projected, t
        if t <= 6:
            pmf: dict[int, Fraction] = {}
            for state, p in ref.items():
                o = sum(_multiset(state))
                pmf[o] = pmf.get(o, Fraction(0)) + p
            assert pmf == labeled_olive_distribution(t), t
        nxt: dict[tuple, Fraction] = {}
        for state, p in ref.items():
            for succ, q in _law_fractions(state).items():
                nxt[succ] = nxt.get(succ, Fraction(0)) + p * q
        ref = nxt


def _multiset_successors(key):
    """Every multiset one move reaches from ``key``, each made by editing a
    list of all the counts and sorting it; shares no code with ``oracle``."""
    out = {tuple(sorted(key + (0,)))}
    for a, b in combinations(range(len(key)), 2):
        rest = [v for i, v in enumerate(key) if i not in (a, b)]
        out.add(tuple(sorted(rest + [key[a] + key[b]])))
    for a, v in enumerate(key):
        out.add(tuple(sorted(key[:a] + (v + 1,) + key[a + 1 :])))
        if v:
            out.add(tuple(sorted(key[:a] + (v - 1,) + key[a + 1 :])))
    return out


def _budget_overrun(budget):
    """(step, work) at which the summed move count M over each step's
    reachable multisets first passes ``budget``, from a plain support BFS."""
    support, work, step = {()}, 0, 0
    while True:
        step += 1
        work += sum(1 + len(key) * (len(key) + 1) // 2 + sum(v > 0 for v in key) for key in support)
        if work > budget:
            return step, work
        support = set().union(*map(_multiset_successors, support))


@pytest.mark.parametrize(
    "budget, fail_step, state_count", [(100, 6, 143), (20_000, 16, 28_133), (10**6, 27, 1_222_590)]
)
def test_budget_is_charged_before_any_successor_is_listed(budget, fail_step, state_count, monkeypatch):
    assert _budget_overrun(budget) == (fail_step, state_count)
    expanded = sum(len(dist) for dist, _ in oracle._pushforward(fail_step - 2, budget))
    calls = []
    moves = oracle._pile_moves
    monkeypatch.setattr(oracle, "_pile_moves", lambda key: calls.append(key) or moves(key))
    with pytest.raises(BudgetExceededError) as info:
        olive_distribution_table(40, budget)
    assert (info.value.step, info.value.state_count, info.value.budget) == (fail_step, state_count, budget)
    # Only the states of the steps that completed were expanded.
    assert len(calls) == expanded


def test_lumping_soundness_against_labeled_tree():
    for t in range(0, 7):
        assert exact_olive_distribution(t) == labeled_olive_distribution(t), t
    with pytest.raises(ValueError):
        labeled_olive_distribution(9)


def test_enumerate_chain_paths_hand_values():
    pmf = enumerate_chain_paths(3)
    assert pmf == {
        2: HALF,
        4: Fraction(3, 16),
        6: Fraction(27, 256),
    }
    # The two length-6 interior paths: 1232321 and 1234321.
    assert Fraction(9, 128) + Fraction(9, 256) == Fraction(27, 256)
    _assert_return_pmf(pmf, 6)


def test_enumerate_chain_paths_matches_dp():
    enum = enumerate_chain_paths(10)
    dp = first_return_pmf_dp(10)
    assert enum == dp


def test_enumerate_chain_paths_budget():
    for t_max in (0, 11):
        with pytest.raises(ValueError, match=rf"^path enumeration is only tractable for 1 <= t_max <= 10, got {t_max}$"):
            enumerate_chain_paths(t_max)
