import hashlib
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from olivetable import process, verification
from olivetable.oracle import _fields, _law, _pile_moves, canonical_of
from olivetable.process import (
    TRAJECTORY_CSV_HEADER,
    TableState,
    run_trajectory,
    write_trajectory_csv,
)
from olivetable.rng import _RangeError, make_rng


class _Draws:
    """An rng stub whose ``getrandbits`` returns the given values in order."""

    def __init__(self, *values):
        self.values = list(values)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return self.values.pop(0)


def _step_with(state, u):
    """``state`` after the move that the draw ``u`` decodes to."""
    process._advance(state, _Draws(u), 1)
    return state


def test_new_table_is_empty():
    state = TableState()
    assert state.num_plates == 0
    assert state.total_olives == 0
    assert state.t == 0
    assert state.counters() == (0, 0, 0, 0)
    state.check_invariants()


def test_first_step_is_forced():
    state = TableState()
    process._advance(state, make_rng(0), 1)
    assert state.counters() == (1, 0, 0, 0)
    assert state.num_plates == 1
    assert state.total_olives == 0
    assert state.plates == [(1, 0)]


MOVE_COUNTS = [
    ([(1, 0), (2, 0)], (1, 1, 2, 0, 4)),
    ([(1, 1), (2, 2), (3, 3), (4, 0), (5, 0)], (1, 10, 5, 3, 19)),
    ([(1, 0), (2, 0), (3, 0)], (1, 3, 3, 0, 7)),
    ([(1, 0)], (1, 0, 1, 0, 2)),
    ([(1, 2)], (1, 0, 1, 1, 3)),
    ([], (1, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("plates,expected", MOVE_COUNTS)
def test_move_counts_formula(plates, expected):
    # (P+, P-, O+, O-, M) with M = 1 + C(l,2) + l + n_e, read off the kernel:
    # draws u >= M are rejected, and each u < M takes one move of one kind.
    base = TableState.from_plates(plates)
    base.check_invariants()
    m_total = expected[-1]
    draws = _Draws(m_total, m_total - 1)
    process._advance(base.copy(), draws, 1)
    assert draws.widths == [m_total.bit_length()] * 2 and not draws.values
    kinds = [0, 0, 0, 0]
    for u in range(m_total):
        after = _step_with(base.copy(), u).counters()
        (kind,) = [i for i, (a, b) in enumerate(zip(after, base.counters())) if a != b]
        kinds[kind] += 1
    assert (*kinds, m_total) == expected


@pytest.mark.parametrize(
    "plates",
    [plates for plates, _ in MOVE_COUNTS] + [[(1, 0), (2, 1), (5, 4)], [(1, 0), (3, 2), (2, 2), (7, 2)]],
)
def test_step_decode_matches_exact_law(plates):
    # Every u in [0, M) through the kernel: the successors, weighted 1/M each,
    # are exactly the lumped one-step law, and the lowest id always survives.
    # The empty table has no canonical state, so its successors are lumped
    # onto sorted plate counts and compared with the multiset layer's law.
    base = TableState.from_plates(plates)
    m_total = 1 + base.num_plates * (base.num_plates - 1) // 2 + base.num_plates + base.num_nonempty
    law = {}
    for u in range(m_total):
        trial = _step_with(base.copy(), u)
        trial.check_invariants()
        assert min(i for i, _ in trial.plates) == min((i for i, _ in plates), default=1)
        key = canonical_of(trial) if plates else tuple(sorted(o for _, o in trial.plates))
        law[key] = law.get(key, 0) + Fraction(1, m_total)
    if plates:
        m_law, counts = _law(canonical_of(base))
    else:
        fields = _fields(1)
        moves = {}
        _pile_moves(fields.key(()), 1, moves, fields)
        counts = {fields.piles(succ): k for succ, k in moves.items()}
        m_law = sum(counts.values())
    assert m_law == m_total and law == {succ: Fraction(k, m_total) for succ, k in counts.items()}


def test_plate_move_probability_at_least_one_third():
    # (C(l,2) + 1) / M >= 1/3 for every l >= 1 and every n_e <= l.
    for l in range(1, 1001):
        n_merge = l * (l - 1) // 2
        for n_e in range(0, l + 1):
            m_total = 1 + n_merge + l + n_e
            assert 3 * (n_merge + 1) >= m_total, (l, n_e)
        assert m_total <= 2 * l + n_merge + 1


def test_conditional_merge_probability_at_least_three_quarters():
    for l in range(3, 1001):
        n_merge = l * (l - 1) // 2
        assert 4 * n_merge >= 3 * (n_merge + 1), l


def test_empty_table_always_adds_plate_one():
    rng = make_rng(1)
    for _ in range(100):
        state = TableState()
        process._advance(state, rng, 1)
        assert state.plates == [(1, 0)]


def test_step_from_two_empty_plates_is_uniform():
    # l=2 both empty: M=4 moves, each frequency within 5 sigma of 1/4.
    base = TableState.from_plates([(1, 0), (2, 0)])
    rng = make_rng(123)
    n = 1_000_000
    counts = {}
    for _ in range(n):
        trial = base.copy()
        process._advance(trial, rng, 1)
        plates = tuple(trial.plates)
        counts[plates] = counts.get(plates, 0) + 1
    assert len(counts) == 4
    tol = 5 * math.sqrt(n * 0.25 * 0.75)
    chi2 = 0.0
    for plates, c in counts.items():
        assert abs(c - n / 4) <= tol, (plates, c)
        chi2 += (c - n / 4) ** 2 / (n / 4)
    # chi-square with 3 df: mean 3, sd sqrt(6); 5 sigma above the mean.
    assert chi2 <= 3 + 5 * math.sqrt(6)


def test_step_from_one_full_and_one_empty_plate_merges_one_time_in_five():
    # l=2, n_e=1: M = 1 + 1 + 2 + 1 = 5, so Pr(P-) = 1/5.
    base = TableState.from_plates([(1, 1), (2, 0)])
    rng = make_rng(321)
    n = 200_000
    merges = 0
    for _ in range(n):
        trial = base.copy()
        process._advance(trial, rng, 1)
        merges += trial.num_plates == 1
    tol = 5 * math.sqrt(n * 0.2 * 0.8)
    assert abs(merges - n / 5) <= tol


def test_merge_conserves_olives_and_keeps_lower_id():
    # u = 1 merges the plates at positions 0 and 1: the first plate survives.
    state = _step_with(TableState.from_plates([(1, 3), (2, 2)]), 1)
    assert state.plates == [(1, 5)]
    assert state.total_olives == 5
    assert state.num_nonempty == 1
    state.check_invariants()
    # u = 3 merges positions (1, 2), here ids 5 and 2: plate 2 survives, and
    # the swap-removal of plate 5 by the last plate moves it to position 1.
    state = _step_with(TableState.from_plates([(1, 0), (5, 4), (2, 1)]), 3)
    assert state.plates == [(1, 0), (2, 5)]
    assert state.total_olives == 5
    state.check_invariants()


def test_from_plates_refuses_a_first_plate_that_is_not_the_lowest_id():
    for plates in ([(2, 2), (1, 3)], [(3, 2), (2, 0), (5, 1)], [(4, 2), (1, 7), (3, 0)]):
        with pytest.raises(_RangeError, match="lower id than the first plate"):
            TableState.from_plates(plates)


def test_merge_of_non_first_plates_keeps_lower_id():
    # u = 3 is the merge of pair rank 2, positions (1, 2): ids 2 and 5.
    state = _step_with(TableState.from_plates([(1, 0), (2, 1), (5, 4)]), 3)
    assert sorted(state.plates) == [(1, 0), (2, 5)]
    state.check_invariants()


def test_from_plates_writes_the_history_its_ids_imply():
    # Plates 1..5 added, ids 3 and 4 merged away at 5 and 4 plates.
    state = TableState.from_plates([(1, 0), (2, 1), (5, 4)])
    state.check_invariants()
    assert state.counters() == (5, 2, 5, 0)
    assert (state.num_returns, state.plate_moves_at_ge3) == (0, 4)
    _step_with(state, 0)  # P+: the sixth plate added gets id 6
    assert sorted(state.plates) == [(1, 0), (2, 1), (5, 4), (6, 0)]
    state.check_invariants()
    # Plates 1..3 added, then merges at 3 plates and from 2 plates to 1.
    state = TableState.from_plates([(3, 2)])
    state.check_invariants()
    assert state.counters() == (3, 2, 2, 0)
    assert (state.num_returns, state.plate_moves_at_ge3) == (1, 1)


def test_remove_last_olive_updates_nonempty():
    # l=2, n_e=2: u = 1 + 1 + 2 = 4 removes from the first non-empty plate.
    state = TableState.from_plates([(1, 1), (2, 3)])
    assert state.num_nonempty == 2
    _step_with(state, 4)
    assert state.num_nonempty == 1
    assert dict(state.plates)[1] == 0
    state.check_invariants()


def test_one_kernel_serves_production_and_checks(monkeypatch):
    calls = []
    kernel = process._advance

    def counting(*args, **kwargs):
        calls.append(args[2])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(process, "_advance", counting)
    run_trajectory(50, 1)
    assert calls == [50]
    calls.clear()
    # One kernel step per u: M = 2 from [(1, 0)] and M = 4 from [(1, 0), (2, 0)].
    verification._check_sampler_against_oracle(2, 50)
    assert calls == [1] * 6


def test_single_move_deltas_are_bounded():
    rng = make_rng(5150)
    state = TableState()
    for _ in range(2000):
        before = (state.total_olives, state.num_plates, state.counters())
        process._advance(state, rng, 1)
        after = (state.total_olives, state.num_plates, state.counters())
        assert abs(after[0] - before[0]) <= 1
        assert abs(after[1] - before[1]) <= 1
        bumped = [a - b for a, b in zip(after[2], before[2])]
        assert sorted(bumped) == [0, 0, 0, 1]
    state.check_invariants()


def test_step_from_single_empty_plate_adds_olive_half_the_time():
    # l=1, n_e=0: M = 2 (P+ or O+), so Pr(O=1 after the step) = 1/2.
    base = TableState.from_plates([(1, 0)])
    rng = make_rng(2718)
    n = 100_000
    hits = 0
    for _ in range(n):
        trial = base.copy()
        process._advance(trial, rng, 1)
        hits += trial.total_olives
    tol = 5 * math.sqrt(n * 0.25)
    assert abs(hits - n / 2) <= tol


@given(seed=st.integers(min_value=0, max_value=2**64 - 1), t=st.integers(min_value=1, max_value=300))
@settings(max_examples=25, deadline=None)
def test_accounting_identity_and_structure_hold(seed, t):
    rng = make_rng(seed)
    state = TableState()
    for _ in range(t):
        process._advance(state, rng, 1)
        assert state.total_olives == state.t - (state.c_add_plate + state.c_merge) - 2 * state.c_remove_olive
        assert state.num_plates >= 1, "table re-emptied"
        assert state.plates[0][0] == 1, "plate 1 left position 0"
    state.check_invariants()


def test_fast_loop_matches_step_by_step():
    # One state advanced a step at a time by _advance: it counts a return
    # exactly on the steps that take the plate count from 2 to 1, and ends
    # equal, every counter included, to the state of one run_trajectory
    # call.  Every plate move enters a new plate-count level, and the entries
    # into one plate are the returns and the arrival on step 1 (the tau1 of
    # the ensemble CSV).  The merges and plate moves made at >= 3 plates,
    # counted here step by step, are the ensemble's L_ge3 (merges less
    # returns) and plate_moves_ge3.
    t = 5000
    for seed in (0, 1, 910, 2**63):
        fast = run_trajectory(t, seed).final_state
        rng = make_rng(seed)
        state = TableState()
        entries = {}
        returns = merges_ge3 = moves_ge3 = 0
        for _ in range(t):
            before = state.num_plates
            process._advance(state, rng, 1)
            if state.num_plates != before:
                entries[state.num_plates] = entries.get(state.num_plates, 0) + 1
                if before >= 3:
                    moves_ge3 += 1
                    merges_ge3 += state.num_plates < before
            if before == 2 and state.num_plates == 1:
                returns += 1
            assert state.num_returns == returns, state.t
        assert fast == state
        assert fast.counters() == state.counters()
        assert entries[1] == fast.num_returns + 1
        assert sum(entries.values()) == fast.c_add_plate + fast.c_merge
        assert fast.num_returns == returns > 0
        assert fast.c_merge - fast.num_returns == merges_ge3 > 0
        assert fast.plate_moves_at_ge3 == moves_ge3 > merges_ge3
        fast.check_invariants()


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=6),
    cadence=st.integers(min_value=0, max_value=9),
    check_identity=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_kernel_resumes_in_segments(seed, cuts, cadence, check_identity):
    # Snapshots rest on this: _advance cut at any steps (empty segments
    # included) ends where one call ends, with the same state and series.
    t = 400
    whole = run_trajectory(t, seed, cadence=cadence, check_identity=check_identity)
    state = TableState()
    series = []
    rng = make_rng(seed)
    for cut in sorted(cuts) + [t]:
        process._advance(state, rng, cut - state.t, series, cadence, check_identity)
    assert state == whole.final_state
    assert series == whole.series


def test_a_snapshot_row_passes_the_conservation_check():
    from olivetable import ensemble

    seed = 4242

    def row(counters, columns):
        # A scalar task builds a row from plain ints; a lockstep block from
        # numpy columns, here a block of one replica.
        if columns:
            counters = np.array([counters]).T
            built, moves = ensemble._row(np.arange(7, 8), np.array([seed], dtype=np.uint64), counters)
            return int(built["O"][0]), moves.tolist()
        built, moves = ensemble._row(7, seed, counters)
        return built["O"], [moves]

    # One trajectory read at 1200 steps on its way to 5000, as the scalar
    # kernel reads a replica at each sweep horizon: the snapshot is the state
    # of a 1200-step run, and each row is checked against its own t.
    snapshot, final = ensemble._replica_counters(seed, (1200, 5000))
    short, long = (run_trajectory(t, seed).final_state for t in (1200, 5000))
    assert snapshot == ensemble._read_counters(short)
    bumped = list(snapshot)
    bumped[ensemble._COUNTERS.index("total_olives")] += 1
    for columns in (False, True):
        (o_short, moves_short), (o_long, moves_long) = row(snapshot, columns), row(final, columns)
        assert (o_short, o_long) == (short.total_olives, long.total_olives)
        ensemble._check_conservation(1200, 7, moves_short)
        ensemble._check_conservation(5000, 7, moves_long)
        with pytest.raises(AssertionError, match="replica 7"):
            ensemble._check_conservation(5000, 7, moves_short)
        with pytest.raises(AssertionError, match="replica 7"):
            ensemble._check_conservation(1200, 7, row(bumped, columns)[1])


def test_plates_that_gain_an_olive_fail_the_conservation_checks():
    # Both checks read O off the plates, so they hold the plates to the
    # moves: a row read off a 1200-step table that gained an olive fails the
    # row check, and a checked _advance fails at the step in which an olive
    # appears on its plates.
    from olivetable import ensemble

    state = run_trajectory(1200, 4242).final_state
    _, moves = ensemble._row(7, 4242, ensemble._read_counters(state))
    ensemble._check_conservation(1200, 7, [moves])
    state._olives[0] += 1
    _, moves = ensemble._row(7, 4242, ensemble._read_counters(state))
    with pytest.raises(AssertionError, match="replica 7"):
        ensemble._check_conservation(1200, 7, [moves])

    class BumpOnSecondDraw(_Draws):
        def getrandbits(self, k):
            if len(self.widths) == 1:
                state._olives[1] += 1
            return super().getrandbits(k)

    # u = 2 adds an olive to the first plate: M = 6 on this table of t = 7,
    # and the plates gain one more during step 9.
    table = TableState.from_plates([(1, 2), (3, 1)])
    state = table.copy()
    process._advance(state, _Draws(2, 2, 2), 3, check_identity=True)
    assert state.plates == [(1, 5), (3, 1)]
    state = table.copy()
    with pytest.raises(AssertionError, match="olive conservation violated at step 9"):
        process._advance(state, BumpOnSecondDraw(2, 2, 2), 3, check_identity=True)


def test_trajectory_determinism_and_seed_sensitivity():
    a = run_trajectory(20_000, 42, cadence=1000)
    b = run_trajectory(20_000, 42, cadence=1000)
    c = run_trajectory(20_000, 43, cadence=1000)
    assert a.final_state == b.final_state
    assert a.series == b.series
    assert a == b
    assert c.final_state != a.final_state or c.series != a.series


def test_trajectory_t1_conventions():
    rec = run_trajectory(1, 7)
    assert rec.final_state.num_plates == 1
    assert rec.final_state.total_olives == 0
    assert rec.final_state.c_add_plate + rec.final_state.c_merge == 1  # the one entry into one plate
    assert rec.final_state.num_returns == 0


def test_trajectory_record_invariants():
    state = run_trajectory(100_000, 1234, check_identity=True).final_state
    state.check_invariants()
    # Every merge is a return (from two plates) or a removal at >= 3 plates,
    # and those removals are among the plate moves made at >= 3 plates.
    assert 0 < state.num_returns <= state.c_merge
    assert 0 < state.c_merge - state.num_returns <= state.plate_moves_at_ge3


def test_trajectory_memory_does_not_grow_with_t():
    # The record keeps counters only (no per-return or per-step lists), so a
    # long run allocates no more than a short one.
    tracemalloc.start()
    try:
        run_trajectory(200_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_max_other_olives_tracks_non_first_plates():
    t = 3000
    seed = 88
    rec = run_trajectory(t, seed)
    rng = make_rng(seed)
    state = TableState()
    max_other = 0
    for _ in range(t):
        process._advance(state, rng, 1)
        max_other = max(max_other, max((o for _, o in state.plates[1:]), default=0))
    assert rec.final_state.max_other_olives == state.max_other_olives == max_other
    assert rec.final_state.first_plate_olives == state.first_plate_olives


# sha256 of the plate lists, positions included, and the seven counts after
# run_trajectory(10**5, seed): any change to the decode or the
# swap-removal order of _ids, _olives and _ne_pos changes them.
LAYOUT_COUNTS = (
    "c_add_plate", "c_merge", "c_add_olive", "c_remove_olive",
    "num_returns", "plate_moves_at_ge3", "max_other_olives",
)
LAYOUT_DIGESTS = {
    1: "84f86054863db718766010031145d6e075d16cbe15d862a4f05f80faff178016",
    34: "a69fe8e504a209f0142bc158de3611fd0e93981491b88870b7f32119b4423c40",
    39: "8c9841a32d5bc91c4558ac1c47471a3827cbfb764dc007797fd0f94340d4a4ec",
}


@pytest.mark.parametrize("seed", sorted(LAYOUT_DIGESTS))
def test_plate_layout_is_pinned(seed):
    state = run_trajectory(10**5, seed).final_state
    counts = tuple(getattr(state, name) for name in LAYOUT_COUNTS)
    blob = repr((state._ids, state._olives, state._ne_pos, counts))
    assert hashlib.sha256(blob.encode()).hexdigest() == LAYOUT_DIGESTS[seed]


def test_series_row_reads_plate_one_as_the_state_does():
    # On a table with no plate 1 the lowest id, plate 2, is the first plate
    # in every layer: u = 2 puts an olive on it, at position 0.
    state = TableState.from_plates([(2, 0), (3, 5)])
    series = []
    process._advance(state, _Draws(2), 1, series, 1)
    assert state.plates == [(2, 1), (3, 5)]
    assert series[0][4] == state.first_plate_olives == canonical_of(state)[0] == 1
    assert series[0][5] == state.max_other_olives == 5
    state.check_invariants()
    # From the empty table the first plate is plate 1.
    state = TableState()
    series = []
    process._advance(state, make_rng(0), 50, series, 1)
    assert state.plates[0][0] == 1
    assert series[-1][4] == state.first_plate_olives == canonical_of(state)[0]


def test_equal_states_share_their_storage_layout():
    # The same plates in two storage orders decode one draw to different
    # moves, so they are different states: u = 5 adds an olive at position 1.
    a = TableState.from_plates([(1, 0), (2, 1), (3, 4)])
    b = TableState.from_plates([(1, 0), (3, 4), (2, 1)])
    assert sorted(a.plates) == sorted(b.plates) and a.counters() == b.counters()
    assert a != b
    assert a == a.copy()
    assert sorted(_step_with(a.copy(), 5).plates) == [(1, 0), (2, 2), (3, 4)]
    assert sorted(_step_with(b.copy(), 5).plates) == [(1, 0), (2, 1), (3, 5)]
    # Under one seed they take different paths of canonical states.
    paths = [[], []]
    for state, path in zip((a, b), paths):
        rng = make_rng(11)
        for _ in range(20):
            process._advance(state, rng, 1)
            path.append(canonical_of(state))
    assert paths[0] != paths[1]


_hand_built = st.integers(min_value=1, max_value=4).flatmap(
    lambda first: st.tuples(
        st.just(first),
        st.lists(st.integers(min_value=first + 1, max_value=9), unique=True, max_size=4),
        st.lists(st.integers(min_value=0, max_value=5), min_size=5, max_size=5),
    )
)


@given(table=st.one_of(st.none(), _hand_built), seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(table=(2, [3], [4, 5]), seed=0)
@settings(max_examples=60, deadline=None)
def test_every_layer_reads_the_first_plate_at_position_0(table, seed):
    # Hand-built tables with the lowest id first, plate 1 or not, and runs
    # from the empty table (None): process and oracle agree on the first
    # plate after every step, and the kernel keeps the position-0 contract.
    if table is None:
        state = TableState()
    else:
        first, others, olives = table
        state = TableState.from_plates(zip([first] + others, olives))
    rng = make_rng(seed)
    for _ in range(60):
        process._advance(state, rng, 1)
        state.check_invariants()
        assert canonical_of(state)[0] == state.first_plate_olives
        assert all(o <= state.max_other_olives for o in state._olives[1:])


def test_trajectory_series_and_csv_schema():
    rec = run_trajectory(1000, 5, cadence=100)
    assert len(rec.series) == 10
    steps = [row[0] for row in rec.series]
    assert steps == list(range(100, 1001, 100))
    final_row = rec.series[-1]
    assert final_row[1] == rec.final_state.total_olives
    assert final_row[2] == rec.final_state.num_plates
    assert final_row[4] == rec.final_state.first_plate_olives
    assert final_row[5] == rec.final_state.max_other_olives
    buf = io.StringIO()
    write_trajectory_csv(rec, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == TRAJECTORY_CSV_HEADER
    assert len(lines) == 12  # header + 10 rows + trailing newline
    assert "\r" not in text
    assert lines[1].count(",") == 5


def test_trajectory_validation():
    with pytest.raises(ValueError):
        run_trajectory(0, 1)
    with pytest.raises(ValueError):
        run_trajectory(10, 1, cadence=-1)
    with pytest.raises(ValueError):
        run_trajectory(3_000_000, 1, cadence=1)  # too many series rows


def test_bounds_hold_at_moderate_horizon():
    # Olive total grows linearly: O/t within [1/342, 2/3] at t = 1e5.
    rec = run_trajectory(100_000, 777)
    ratio = rec.final_state.total_olives / 100_000
    assert 1 / 342 <= ratio <= 2 / 3
