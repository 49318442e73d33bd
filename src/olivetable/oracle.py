"""Desk-scale exact ground truth for the process and the auxiliary walk.

One exact engine, ``_advance``, pushes a law forward a step in integer
numerators over one common denominator; the law is two functions of a
state key, its move count M and its successors.  It runs two laws: the
multiset of plate olive counts here, which gives the exact law of the olive
total for small step counts, and the auxiliary walk's plate count, for the
first-return DP in :mod:`olivetable.chain`.  Exhaustive path enumeration of
the walk's first-return time still shares neither code nor types with that
DP, which it cross-checks: both return a plain ``{2t: Fraction}`` dict, and
this module imports nothing from ``chain``.

The pushforward keys each multiset by one ``int`` of fixed-width bit fields
(``_Fields``): the olive total O, the plate count l and, for each count v,
the number of plates holding v.  The width comes from the horizon, so every
key up to it fits, and a move is one addition of a precomputed constant.

One function lists a multiset's moves: ``_pile_moves`` takes a key and adds
every move among those plates into a caller's dict.  The pushforward runs
it on the multiset of all counts.  A merge leaves the combined pile on the
table whichever plate survives, and M reads only l and n_e, so that is the
whole one-step law of the multiset and the chain on multisets is exactly
lumpable (Kemeny & Snell, *Finite Markov Chains*, 1960, section 6.3).
``_law`` runs it on the non-first plates, decodes the successors into
ascending tuples and adds the first plate's own moves, which gives the law
of canonical states that the sampler check and anything that follows the
first plate need.  A canonical state is the plain tuple ``(first, others)``
of a table with at least one plate: the count of the first plate, which
sits at position 0 (``process.TableState`` states that contract), and the
ascending tuple of the others' counts.  The empty table needs no canonical
form, because only the multiset layer starts from it.  Lumping non-first
plates is sound because the uniform move choice treats them exchangeably.
``labeled_olive_distribution`` re-derives the same olive law from the
fully labeled process (no lumping) to guard both lumpings.  Each
successor's multiplicity counts the moves that reach it: a merge of plates
holding counts v and w counts every unordered pair of plate positions
holding them, so multiplicities in the multiset are weighted correctly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, TextIO

from .process import TableState
from .rng import _RangeError

# Caps the cumulative state expansions of one pushforward.  It admits
# t <= 34 (8.5e6 expansions; step 35 would need 1.10e7), which takes 4.2-4.8 s
# CPU and 61 MB peak RSS for ``exact --t 34`` on a 2-vCPU x86-64 box with
# CPython 3.11, against about 0.16-0.17 s and 16 MB at t = 20.
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
    the first plate's olive count, at position 0 (see ``TableState``), and
    the ascending tuple of the other plates' counts."""
    olives = state._olives
    return olives[0], tuple(sorted(olives[1:]))


class _Table(dict):
    """A dict that builds each missing entry once, as ``build(key)``."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Fields:
    """The bit-field layout of a multiset key: one ``int`` per multiset of
    plate counts.

    Every field is ``width`` bits wide.  From the lowest bits up they hold
    the olive total O, the plate count l, and then, for each count v = 0,
    1, 2, ..., the number of plates holding v.  While no field exceeds
    ``mask`` none carries into the next, and each move adds one constant
    to a key: ``new_plate`` (P+), ``raise_[v]`` and ``lower[v]`` (an olive
    onto or off a pile of v), ``drop_empty`` (a merge with an empty pile)
    and ``merges[v][u]`` (a merge of piles of v and u).  Each table entry is
    built on first use, so a layout costs only the counts it meets,
    whatever the horizon.
    """

    __slots__ = ("width", "mask", "unit", "new_plate", "drop_empty", "raise_", "lower", "merges")

    def __init__(self, width: int):
        w = self.width = width
        self.mask = (1 << w) - 1
        plate = 1 << w
        unit = self.unit = _Table(lambda v: 1 << (v + 2) * w)
        self.new_plate = plate + unit[0]
        self.drop_empty = -self.new_plate
        self.raise_ = _Table(lambda v: unit[v + 1] - unit[v] + 1)
        self.lower = _Table(lambda v: unit[v - 1] - unit[v] - 1)
        self.merges = _Table(lambda v: _Table(lambda u: unit[v + u] - unit[v] - unit[u] - plate))

    def key(self, piles: tuple[int, ...]) -> int:
        """The key of a tuple of counts."""
        key = sum(piles) + (len(piles) << self.width)
        unit = self.unit
        for v in piles:
            key += unit[v]
        return key

    def piles(self, key: int) -> tuple[int, ...]:
        """The ascending tuple of counts that ``key`` holds."""
        w, mask = self.width, self.mask
        out: list[int] = []
        k = key >> 2 * w
        v = 0
        while k:
            out += (v,) * (k & mask)
            k >>= w
            v += 1
        return tuple(out)

    def moves(self, key: int) -> int:
        """M of the table ``key`` holds, off its l and zero-count fields."""
        w, mask = self.width, self.mask
        l = key >> w & mask
        return _num_moves(l, l - (key >> 2 * w & mask))


def _fields(n: int) -> _Fields:
    """The layout whose fields hold every value up to n: after t steps from
    the empty table l <= t and O <= t - 1, so ``_fields(t)`` holds every
    key the pushforward to t meets."""
    return _layout(max(n, 1).bit_length())


@lru_cache(maxsize=None)
def _layout(width: int) -> _Fields:
    """One shared layout per width; its tables only ever gain entries."""
    return _Fields(width)


def _pile_moves(key: int, scaled: int, out: dict[int, int], fields: _Fields) -> None:
    """Every move among the piles of the multiset ``key``, added into
    ``out``: ``out[successor] += scaled * k``, with k the number of moves
    that reach it (a new plate, a merge of two piles, or an olive added to
    or taken from one).

    This is the one place that lists a multiset's successors, each as
    ``key`` plus one of ``fields``' constants.  On every plate's count it is
    the whole law of the multiset and the ks sum to M (a merge keeps the
    combined pile whichever plate survives), so the empty key 0 lists only
    the key of one empty plate.  It is ``_pushforward``'s lister; ``_law``
    runs it on the non-first plates and adds the first plate's own moves.
    """
    get = out.get
    w, mask = fields.width, fields.mask
    l = key >> w & mask
    counts = key >> 2 * w
    zeros = counts & mask
    # P+: one new empty plate.
    succ = key + fields.new_plate
    out[succ] = get(succ, 0) + scaled
    if zeros:
        # O+ on one of the empty piles.
        succ = key + fields.raise_[0]
        out[succ] = get(succ, 0) + scaled * zeros
        # Every merge with an empty pile just drops it, so all of them lead
        # to one successor: C(z, 2) among the z empty piles and z (l - z)
        # with the non-empty ones.
        if l > 1:
            succ = key + fields.drop_empty
            out[succ] = get(succ, 0) + scaled * (zeros * (zeros - 1) // 2 + zeros * (l - zeros))
    # The non-empty piles by distinct count v, c of them holding it.
    groups = []
    v = 0
    counts >>= w
    while counts:
        v += 1
        c = counts & mask
        if c:
            groups.append((v, c))
        counts >>= w
    raise_, lower, merges = fields.raise_, fields.lower, fields.merges
    for i, (v, c) in enumerate(groups):
        each = scaled * c
        # O+ and O-: one way per pile of v.
        succ = key + raise_[v]
        out[succ] = get(succ, 0) + each
        succ = key + lower[v]
        out[succ] = get(succ, 0) + each
        # P-: one way per unordered pair of piles.
        row = merges[v]
        if c > 1:
            succ = key + row[v]
            out[succ] = get(succ, 0) + scaled * (c * (c - 1) // 2)
        for u, d in groups[i + 1 :]:
            succ = key + row[u]
            out[succ] = get(succ, 0) + each * d


def _num_moves(l: int, n_e: int) -> int:
    """M = 1 + C(l, 2) + l + n_e, the number of equally likely moves from a
    table of l plates, n_e of them non-empty."""
    return 1 + l * (l - 1) // 2 + l + n_e


def _law(state: tuple[int, tuple[int, ...]]) -> tuple[int, dict[tuple[int, tuple[int, ...]], int]]:
    """Exact one-step law from a canonical state ``(first, others)`` as
    ``(M, {successor: k})``.

    The process picks one of M equally likely moves and ``k`` counts the
    moves that lead to each successor, so the multiplicities sum to M.  It
    is ``_pile_moves`` on the non-first plates, as tuples, plus the first
    plate's own moves; the sampler and transition-mass checks read it.
    """
    first, others = state
    n = len(others)
    fields = _fields(max(sum(others), n) + 1)
    moves: dict[int, int] = {}
    _pile_moves(fields.key(others), 1, moves, fields)
    piles = fields.piles
    out = {(first, piles(succ)): k for succ, k in moves.items()}
    # The first plate has the lowest id, so it survives every merge it
    # joins: one way per plate holding count v.  With v = 0 that is the
    # successor the merges among the others with an empty plate already
    # reach.
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
    dist: dict[int, int], den: int, step: int, work_done: int, budget: float, moves, lister
) -> tuple[dict[int, int], int, int]:
    """One exact pushforward step of a law under a cumulative work budget.

    The law is ``moves(key)``, a state's number M of equally likely moves,
    and ``lister(key, scaled, out)``, which adds ``scaled * k`` into ``out``
    for each successor that k of them reach.  ``dist`` maps each key to the
    integer numerator of its probability over the common denominator
    ``den``; it is consumed (left empty).  Returns the next step's
    numerators, denominator and the work done so far.  The step's work, the
    sum of the Ms, is charged before any successor is listed; each
    numerator is scaled to the lcm of the live Ms, and one gcd is divided
    out at the end.
    """
    ms = [moves(key) for key in dist]
    projected = work_done + sum(ms)
    if projected > budget:
        raise BudgetExceededError(step, projected, budget)
    lcm = math.lcm(*set(ms))
    nxt: dict[int, int] = {}
    while dist:  # emptied as it is read, so old and new numerators never both peak
        key, num = dist.popitem()
        # popitem is LIFO, so ms.pop() is key's M.
        lister(key, num * (lcm // ms.pop()), nxt)
    den *= lcm
    g = math.gcd(den, *nxt.values())
    if g > 1:
        den //= g
        for succ in nxt:
            nxt[succ] //= g
    return nxt, den, projected


def _pushforward(t: int, budget: int) -> Iterator[tuple[dict[int, int], int]]:
    """The exact law of the plate-count multiset after steps 0, 1, ..., t,
    in turn, each as (integer numerators keyed as ``_fields(t)`` lays
    out, common denominator).  A yielded dict is emptied when the next
    step is computed, so read it before advancing."""
    fields = _fields(t)
    law = fields.moves, lambda key, scaled, out: _pile_moves(key, scaled, out, fields)
    dist, den, work = {0: 1}, 1, 0  # the empty table, before any work
    yield dist, den
    for s in range(1, t + 1):
        dist, den, work = _advance(dist, den, s, work, budget, *law)
        yield dist, den


def _final(t: int) -> tuple[dict[int, int], int]:
    """Numerators (keyed as ``_fields(t)`` lays out) and common denominator
    of the multiset law at t."""
    if t < 0:
        raise _RangeError(f"t must be >= 0, got {t}")
    for dist, den in _pushforward(t, DEFAULT_STATE_BUDGET):
        pass
    return dist, den


def _olive_pmf(dist: dict[int, int], den: int, fields: _Fields) -> dict[int, Fraction]:
    """Olive-total pmf of a multiset law, in ascending olive count."""
    mask = fields.mask
    nums: dict[int, int] = {}
    for key, num in dist.items():
        o = key & mask
        nums[o] = nums.get(o, 0) + num
    return {o: Fraction(nums[o], den) for o in sorted(nums)}


def _mean(pmf: dict[int, Fraction]) -> Fraction:
    """Exact mean sum(o * p) of an olive pmf."""
    return sum((o * p for o, p in pmf.items()), Fraction(0))


def exact_olive_distribution(t: int) -> dict[int, Fraction]:
    """Exact pmf of the olive total after t steps; masses sum to 1."""
    return _olive_pmf(*_final(t), _fields(t))


def exact_expected_olives(t: int) -> Fraction:
    """Exact expected olive total after t steps."""
    return _mean(exact_olive_distribution(t))


def olive_distribution_table(
    t_max: int, budget: int = DEFAULT_STATE_BUDGET
) -> list[tuple[int, dict[int, Fraction]]]:
    """Exact olive pmf at every step 1..t_max from one incremental pushforward."""
    if t_max < 1:
        raise _RangeError(f"t_max must be >= 1, got {t_max}")
    fields = _fields(t_max)
    return [(s, _olive_pmf(*step, fields)) for s, step in enumerate(_pushforward(t_max, budget)) if s > 0]


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
