"""State machine for the random plates-and-olives process.

A table holds distinguishable plates; each plate carries an unordered pile
of olives.  At every step one move is chosen uniformly at random from the
currently available moves:

* add an empty plate (always exactly 1 way),
* merge two plates onto one (one way per unordered pair; the olives are
  combined, the higher-id plate leaves the table),
* add an olive to a plate (one way per plate),
* remove an olive from a plate (one way per non-empty plate).

So with ``l`` plates of which ``n_e`` are non-empty there are
``M = 1 + C(l,2) + l + n_e`` available moves.  The table starts empty and,
because a merge needs two plates, can never re-empty after the first move.
The lower-id plate survives a merge, which makes plate 1 immortal and keeps
"the first plate" well defined; the combined olive count is the same under
either survivor convention.

The per-step work is O(1): plates live in contiguous parallel lists with
swap-removal, non-empty plates are tracked in an index list, and the single
uniform draw in [0, M) is rejection-sampled and decoded positionally.  One
kernel, ``_advance``, holds that code: :func:`run_trajectory` is one call
to it, and the ensemble's scalar replicas call it once per horizon,
resuming where the last call stopped.  Every
count a trajectory reports lives on its :class:`TableState`, so resuming
needs nothing else.  The state stores only independent counts
(``TableState._COUNTS``: the move counts P+, P-, O+ and O- and the run's
diagnostics); the step count ``t`` (their sum) and the olive total
(O+ - O-) are derived, so no kernel keeps them in step.

The ensemble has a second, lockstep path for short horizons
(``olivetable._lockstep``; ``ensemble._run_chunk`` states which tasks it
runs).  It advances one task's replicas as numpy lanes with ``_advance``'s
positional decode and swap-removal order, and hands over the same counters
(``ensemble._COUNTERS``: ``TableState._COUNTS`` and plate 1's olives), so
the ensemble's one row builder gives bit-identical rows either way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Iterable, NamedTuple, TextIO

from .rng import _RangeError, make_rng

MAX_SERIES_ROWS = 2_000_000

# The paper's band for the olive rate: t/342 <= O_t <= 2t/3.
C_BOUNDS = (Fraction(1, 342), Fraction(2, 3))

#: Hard bound checks are only enforced (exit 2) at horizons where the
#: asymptotic bands are meaningful; shorter runs still report them.
BOUND_ENFORCEMENT_MIN_T = 1000

Z99 = 2.576  # two-sided 99% normal quantile, fixed for every CI here

TRAJECTORY_CSV_HEADER = "step,olives,plates,nonempty,first_plate_olives,max_other_olives"


def _in_band(olives, t: int) -> bool:
    """Whether ``olives`` (an int or a ``Fraction``) lies in the paper's band
    at horizon ``t``, exactly and ends included."""
    lo, hi = C_BOUNDS
    return lo * t <= olives <= hi * t


def _derived_counts(c_add_plate, c_merge, num_returns) -> dict:
    """The report columns that no kernel stores, from a run's move and
    return counts: ints for one trajectory or numpy count columns for an
    ensemble's rows alike.  The one place each is derived."""
    return {
        "t_plate": c_add_plate + c_merge,
        "tau1": num_returns + 1,  # every return, and the arrival on step 1
        "two_to_one": num_returns,
        "L_ge3": c_merge - num_returns,  # every other merge is made at >= 3 plates
    }


class TableState:
    """Full mutable process state.

    Tracks the plates, the per-kind move counters and the run's diagnostics;
    the step count ``t`` (the sum of the move counts) and ``total_olives``
    (olive adds minus olive removals) are read off the counters, never
    stored.  ``num_returns`` counts the merges that took the plate count
    from 2 to 1 (the returns to one plate): the entries into the one-plate
    level are these returns plus the forced arrival on step 1, so a run's
    ``tau1`` is ``num_returns + 1``.  Every other merge is made at >= 3
    plates, so the removals at >= 3 plates are ``c_merge - num_returns``;
    ``plate_moves_at_ge3`` counts the plate moves (adds and merges) made at
    >= 3 plates.  ``max_other_olives`` is the maximum, over the whole run
    and over every plate other than plate 1, of that plate's olive count.
    A plate's id is its place among the adds: the next plate gets id
    ``c_add_plate + 1``.
    :meth:`check_invariants` asserts that the plates hold ``total_olives``.
    """

    # Every count the state keeps, all independent: each starts at 0, and
    # copy() and __eq__ cover them all.
    _COUNTS = (
        "c_add_plate", "c_merge", "c_add_olive", "c_remove_olive",
        "num_returns", "plate_moves_at_ge3", "max_other_olives",
    )
    __slots__ = ("_ids", "_olives", "_ne_pos", "_ne_idx", "_pos1") + _COUNTS

    def __init__(self) -> None:
        self._ids: list[int] = []
        self._olives: list[int] = []
        self._ne_pos: list[int] = []
        self._ne_idx: list[int] = []
        self._pos1 = -1
        for name in self._COUNTS:
            setattr(self, name, 0)

    # -- read-only views -------------------------------------------------

    @property
    def num_plates(self) -> int:
        return len(self._ids)

    @property
    def num_nonempty(self) -> int:
        return len(self._ne_pos)

    @property
    def plates(self) -> list[tuple[int, int]]:
        """Every plate as an (id, olives) pair, in storage order."""
        return list(zip(self._ids, self._olives))

    @property
    def first_plate_olives(self) -> int:
        """Olives on plate id 1 (0 if the table is still empty)."""
        return self._olives[self._pos1] if self._pos1 >= 0 else 0

    @property
    def t(self) -> int:
        """Steps taken: every step makes exactly one move."""
        return sum(self.counters())

    @property
    def total_olives(self) -> int:
        return self.c_add_olive - self.c_remove_olive

    def copy(self) -> "TableState":
        dup = TableState.__new__(TableState)
        dup._ids = self._ids[:]
        dup._olives = self._olives[:]
        dup._ne_pos = self._ne_pos[:]
        dup._ne_idx = self._ne_idx[:]
        dup._pos1 = self._pos1
        for name in self._COUNTS:
            setattr(dup, name, getattr(self, name))
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableState):
            return NotImplemented
        return (
            sorted(zip(self._ids, self._olives)) == sorted(zip(other._ids, other._olives))
            and all(getattr(self, name) == getattr(other, name) for name in self._COUNTS)
        )

    def counters(self) -> tuple[int, int, int, int]:
        """(P+, P-, O+, O-) move counts so far."""
        return (self.c_add_plate, self.c_merge, self.c_add_olive, self.c_remove_olive)

    @classmethod
    def from_plates(cls, plates: Iterable[tuple[int, int]]) -> "TableState":
        """Build a frozen test state from (plate id, olive count) pairs.

        The counters are set to the history the ids imply: plates 1..max(id)
        added, the missing ids merged away (at >= 3 plates, except that a
        merge from 2 plates to 1 is a return), then all olives added; so
        the next plate added gets id max(id) + 1.  The sampling
        distribution only depends on the plate configuration.
        """
        state = cls()
        seen: set[int] = set()
        for plate_id, olives in plates:
            if plate_id in seen:
                raise _RangeError(f"duplicate plate id {plate_id}")
            if plate_id < 1 or olives < 0:
                raise _RangeError(f"bad plate ({plate_id}, {olives})")
            seen.add(plate_id)
            pos = len(state._ids)
            state._ids.append(plate_id)
            state._olives.append(olives)
            if olives > 0:
                state._ne_idx.append(len(state._ne_pos))
                state._ne_pos.append(pos)
            else:
                state._ne_idx.append(-1)
            if plate_id == 1:
                state._pos1 = pos
        added = max(seen, default=0)
        state.c_add_plate = added
        state.c_merge = added - len(seen)
        state.num_returns = int(len(seen) == 1 and added > 1)
        state.c_add_olive = sum(state._olives)
        state.plate_moves_at_ge3 = max(0, added - 3) + state.c_merge - state.num_returns
        state.max_other_olives = max((o for i, o in zip(state._ids, state._olives) if i != 1), default=0)
        return state

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert every structural invariant; raises AssertionError on a bug."""
        l = len(self._ids)
        assert l == self.c_add_plate - self.c_merge
        assert self.total_olives == sum(self._olives)
        assert sorted(self._ne_pos) == [p for p, o in enumerate(self._olives) if o > 0]
        for pos in range(l):
            slot = self._ne_idx[pos]
            assert (slot >= 0 and self._ne_pos[slot] == pos) or (slot == -1 and self._olives[pos] == 0)
        assert len(set(self._ids)) == l
        assert all(o >= 0 for o in self._olives)
        assert self.total_olives <= self.t and l <= self.t
        if self.t >= 1 and self.c_add_plate >= 1 and min(self._ids, default=0) == 1:
            assert self._ids[self._pos1] == 1
        if self.t >= 1:
            assert l >= 1, "the table can never re-empty"
        assert 0 <= self.num_returns <= self.c_merge
        t_plate = _derived_counts(self.c_add_plate, self.c_merge, self.num_returns)["t_plate"]
        assert self.c_merge - self.num_returns <= self.plate_moves_at_ge3 <= t_plate
        assert all(o <= self.max_other_olives for i, o in zip(self._ids, self._olives) if i != 1)


class TrajectoryRecord(NamedTuple):
    """Everything one trajectory run reports, in O(1) memory in ``t_max``.

    Every count, plate 1's olives included, is read off ``final_state``;
    ``series`` holds the cadence rows, capped at ``MAX_SERIES_ROWS``.
    """

    t_max: int
    final_state: TableState
    series: list[tuple[int, int, int, int, int, int]]


def _advance(
    state: TableState,
    rng,
    n_steps: int,
    series: list | None = None,
    cadence: int = 0,
    check_identity: bool = False,
) -> None:
    """Advance ``state`` in place by ``n_steps`` moves; the only transition code.

    Each step draws one rejection-sampled u in [0, M) and decodes it
    positionally: 0 adds a plate, the next C(l,2) values pick an unordered
    plate pair by rank in the order (0,1),(0,2),(1,2),..., the next l values
    pick a plate for an olive, the last n_e values pick a non-empty plate
    for a removal.  It resumes from any state, and every count it keeps is
    on the state.  ``cadence`` > 0 appends a row to ``series`` at every
    step divisible by it; ``check_identity`` asserts olive conservation
    after every step.
    """
    getrandbits = rng.getrandbits
    bit_length = int.bit_length
    isqrt = math.isqrt

    # Hot loop: every list is aliased and every scalar is local; the state
    # is synced at the end.
    ids = state._ids
    olives = state._olives
    ne_pos = state._ne_pos
    ne_idx = state._ne_idx
    pos1 = state._pos1
    num_plates = len(ids)
    c_pp, c_pm, c_op, c_om = state.counters()
    t0 = c_pp + c_pm + c_op + c_om
    num_returns = state.num_returns
    plate_moves_ge3 = state.plate_moves_at_ge3
    max_other = state.max_other_olives

    # The decode's boundaries: u in [1, n_merge] merges, u in (n_merge, n_pm]
    # adds an olive.  Only plate moves change them; M = m_total and its bit
    # width k change only when a plate is added or removed or a plate's
    # olive count leaves or reaches zero.
    n_merge = num_plates * (num_plates - 1) // 2
    n_pm = n_merge + num_plates
    m_total = n_pm + 1 + len(ne_pos)
    k = bit_length(m_total)

    # Steps run in segments that end only where a flag can fire: after
    # every step under check_identity, else at the next cadence row, else
    # at the end; the inner loop tests neither flag.
    t = t0
    end = t0 + n_steps
    while t < end:
        if check_identity:
            stop = t + 1
        elif cadence:
            stop = min(end, t - t % cadence + cadence)
        else:
            stop = end
        for _ in repeat(None, stop - t):
            u = getrandbits(k)
            while u >= m_total:
                u = getrandbits(k)

            # The olive moves come first: they are about 60% of the steps.
            if u > n_merge:
                if u <= n_pm:
                    # O+: add an olive
                    p = u - 1 - n_merge
                    val = olives[p]
                    if val == 0:
                        ne_idx[p] = len(ne_pos)
                        ne_pos.append(p)
                        m_total += 1
                        k = bit_length(m_total)
                    val += 1
                    olives[p] = val
                    if val > max_other and p != pos1:
                        max_other = val
                    c_op += 1
                else:
                    # O-: remove an olive from a non-empty plate
                    p = ne_pos[u - 1 - n_pm]
                    val = olives[p] - 1
                    olives[p] = val
                    if val == 0:
                        slot = ne_idx[p]
                        last = ne_pos.pop()
                        if last != p:
                            ne_pos[slot] = last
                            ne_idx[last] = slot
                        ne_idx[p] = -1
                        m_total -= 1
                        k = bit_length(m_total)
                    c_om += 1
            elif u:
                # P-: merge pair rank u-1; lower id survives
                r = u - 1
                j = (1 + isqrt(1 + 8 * r)) // 2
                i = r - j * (j - 1) // 2
                if ids[i] > ids[j]:
                    i, j = j, i
                moved = olives[j]
                if moved:
                    if olives[i] == 0:
                        ne_idx[i] = len(ne_pos)
                        ne_pos.append(i)
                    merged = olives[i] + moved
                    olives[i] = merged
                    if merged > max_other and i != pos1:
                        max_other = merged
                    slot = ne_idx[j]
                    last = ne_pos.pop()
                    if last != j:
                        ne_pos[slot] = last
                        ne_idx[last] = slot
                last_pos = num_plates - 1
                if j != last_pos:
                    ids[j] = ids[last_pos]
                    olives[j] = olives[last_pos]
                    slot = ne_idx[last_pos]
                    ne_idx[j] = slot
                    if slot >= 0:
                        ne_pos[slot] = j
                    if pos1 == last_pos:
                        pos1 = j
                ids.pop()
                olives.pop()
                ne_idx.pop()
                if num_plates >= 3:
                    plate_moves_ge3 += 1
                elif num_plates == 2:
                    num_returns += 1
                num_plates -= 1
                n_merge -= num_plates
                n_pm = n_merge + num_plates
                m_total = n_pm + 1 + len(ne_pos)
                k = bit_length(m_total)
                c_pm += 1
            else:
                # P+: new empty plate, whose id is its place among the adds
                if num_plates >= 3:
                    plate_moves_ge3 += 1
                if c_pp == 0:
                    pos1 = num_plates
                ids.append(c_pp + 1)
                olives.append(0)
                ne_idx.append(-1)
                n_merge += num_plates
                num_plates += 1
                n_pm = n_merge + num_plates
                m_total = n_pm + 1 + len(ne_pos)
                k = bit_length(m_total)
                c_pp += 1

        t = stop
        if check_identity and c_op - c_om != t - c_pp - c_pm - 2 * c_om:
            raise AssertionError(f"olive conservation violated at step {t}")
        if cadence and t % cadence == 0:
            series.append((t, c_op - c_om, num_plates, len(ne_pos), olives[pos1], max_other))

    state._pos1 = pos1
    state.c_add_plate = c_pp
    state.c_merge = c_pm
    state.c_add_olive = c_op
    state.c_remove_olive = c_om
    state.num_returns = num_returns
    state.plate_moves_at_ge3 = plate_moves_ge3
    state.max_other_olives = max_other


def run_trajectory(
    t_max: int,
    seed: int,
    cadence: int = 0,
    check_identity: bool = False,
) -> TrajectoryRecord:
    """Run ``t_max`` steps from the empty table with full diagnostics.

    ``cadence`` > 0 samples a (step, olives, plates, nonempty,
    first_plate_olives, max_other_olives) row every ``cadence`` steps;
    per-step recording of long runs is refused to bound memory.
    ``check_identity`` asserts the olive conservation law after every step.
    Identical (t_max, seed, cadence) always reproduce the identical record.
    """
    if t_max < 1:
        raise _RangeError(f"t_max must be >= 1, got {t_max}")
    if cadence < 0:
        raise _RangeError(f"cadence must be >= 0, got {cadence}")
    if cadence and t_max // cadence > MAX_SERIES_ROWS:
        raise _RangeError(
            f"cadence {cadence} over {t_max} steps would record "
            f"{t_max // cadence} rows (cap {MAX_SERIES_ROWS})"
        )
    record = TrajectoryRecord(t_max=t_max, final_state=TableState(), series=[])
    _advance(record.final_state, make_rng(seed), t_max, record.series, cadence, check_identity)
    return record


def write_trajectory_csv(record: TrajectoryRecord, out: TextIO) -> None:
    """Cadence-sampled trajectory rows; LF endings, no quoting."""
    out.write(TRAJECTORY_CSV_HEADER + "\n")
    for row in record.series:
        out.write("%d,%d,%d,%d,%d,%d\n" % row)
