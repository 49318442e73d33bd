"""Lockstep numpy kernel for short ensembles, bit-identical to the scalar one.

A block of replicas runs as lanes of numpy arrays, one step of every lane at
a time.  Three parts reproduce the scalar path exactly:

* seeds: replica ``i``'s seed is ``rng.derive_seed(master_seed, i)``, here a
  vectorised SplitMix64 over a replica range;
* draws: ``random.Random(seed)`` seeds MT19937 by ``init_by_array`` on the
  seed's 32-bit words (one word below 2**32, two above), and
  ``getrandbits(k <= 32)`` returns ``word >> (32 - k)``.  The seeding, the
  first twist and the tempering run across lanes, giving each lane its
  first ``_buffer_words(t)`` words;
* moves: ``process._advance``'s positional decode of the rejection-sampled
  u and its swap-removal order of the plates and of the non-empty index,
  on padded (lanes, t) plate arrays.

``run_block`` hands each lane's counters over as the scalar kernel leaves
them on a ``TableState``, in ``ensemble._COUNTERS`` order: the independent
counts of ``TableState._COUNTS``, then plate 1's olives.  Like the scalar
kernel it keeps no olive total or step count; both follow from the four
move counts.  The ensemble builds every row from these counters.  A lane
that needs a word past its buffer leaves the block; ``run_block`` returns
its index, and the caller refills that lane's counters from the scalar
kernel.  ``ensemble._run_chunk`` runs this module: an eligible task takes
its seeds from ``derive_seeds`` and runs one block (any other task derives
them with ``rng.derive_seed`` and loads no numpy).  The
``seed_derivation`` check in ``olivetable.verification`` holds
``derive_seeds`` and ``first_words`` to ``rng.derive_seed`` and
``make_rng``.  The ensemble's task size cap,
``ensemble._LOCKSTEP_MAX_LANES``, keeps a block's (624, lanes) uint32
seeding state within 10 MiB.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import _GOLDEN_GAMMA, _MASK64

_N, _M = 624, 397  # MT19937 state words and twist offset
TWIST_WORDS = _N - _M  # outputs of the first twist that read only the seeded state

_U64 = np.uint64
_U32 = np.uint32


def _init_genrand(s: int) -> list[np.ndarray]:
    mt = [s]
    for i in range(1, _N):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xFFFFFFFF)
    return [np.array(v, dtype=np.uint32) for v in mt]


# Every init_by_array starts from this state; 0-d uint32 arrays are the
# cheapest ufunc operands, as are the other constants below.
_GENRAND_19650218 = _init_genrand(19650218)
_MINUS = [np.array(i, dtype=np.uint32) for i in range(_N)]
_C30 = np.array(30, dtype=np.uint32)
_C1664525 = np.array(1664525, dtype=np.uint32)
_C1566083941 = np.array(1566083941, dtype=np.uint32)


def derive_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """``[rng.derive_seed(master_seed, i) for i in range(lo, hi)]`` as uint64."""
    x = _U64(master_seed & _MASK64) + np.arange(lo, hi, dtype=np.uint64) * _U64(_GOLDEN_GAMMA)
    z = x + _U64(_GOLDEN_GAMMA)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def first_words(seeds: np.ndarray, n_words: int) -> np.ndarray:
    """(n_words, lanes) uint32: the first ``getrandbits(32)`` outputs of
    ``random.Random(seed)`` for each uint64 seed, ``n_words <= TWIST_WORDS``."""
    if not 0 < n_words <= TWIST_WORDS:
        raise ValueError(f"n_words must be in [1, {TWIST_WORDS}], got {n_words}")
    lanes = len(seeds)
    key0 = (seeds & _U64(0xFFFFFFFF)).astype(np.uint32)
    key1 = (seeds >> _U64(32)).astype(np.uint32)
    # init_by_array adds key[j] + j, with j cycling over the key's words.
    add = (key0, np.where(key1 != 0, key1 + _U32(1), key0))
    mt = np.empty((_N, lanes), dtype=np.uint32)
    row = list(mt)  # row views, made once
    tmp = np.empty(lanes, dtype=np.uint32)
    rshift, xor, mul = np.right_shift, np.bitwise_xor, np.multiply

    def mix(i: int, mult: np.ndarray, old: np.ndarray) -> np.ndarray:
        # row[i] = old ^ (row[i-1] ^ row[i-1] >> 30) * mult
        prev = row[i - 1]
        rshift(prev, _C30, tmp)
        xor(tmp, prev, tmp)
        mul(tmp, mult, tmp)
        return xor(tmp, old, row[i])

    # First loop: i = 1..N-1, each row still at its init_genrand value, then
    # i = 1 again after the wrap (mt[0] = mt[N-1]); step n adds key[j] + j
    # with j = n mod the key length.
    row[0].fill(_GENRAND_19650218[0])
    for i in range(1, _N):
        np.add(mix(i, _C1664525, _GENRAND_19650218[i]), add[(i - 1) & 1], row[i])
    row[0][:] = row[_N - 1]
    np.add(mix(1, _C1664525, row[1]), add[(_N - 1) & 1], row[1])
    # Second loop: i = 2..N-1, then i = 1 after the wrap; step i subtracts i.
    for i in range(2, _N):
        np.subtract(mix(i, _C1566083941, row[i]), _MINUS[i], row[i])
    row[0][:] = row[_N - 1]
    np.subtract(mix(1, _C1566083941, row[1]), _MINUS[1], row[1])
    row[0].fill(0x80000000)

    # The first twist's leading words need only the seeded state.
    y = (mt[:n_words] & _U32(0x80000000)) | (mt[1 : n_words + 1] & _U32(0x7FFFFFFF))
    w = mt[_M : _M + n_words] ^ (y >> _U32(1)) ^ ((y & _U32(1)) * _U32(0x9908B0DF))
    w ^= w >> _U32(11)
    w ^= (w << _U32(7)) & _U32(0x9D2C5680)
    w ^= (w << _U32(15)) & _U32(0xEFC60000)
    w ^= w >> _U32(18)
    return w


def _buffer_words(t: int) -> int:
    """Words buffered per lane for t steps; about 1.5 draws per step are
    used, so a lane rarely runs past this."""
    return min(TWIST_WORDS, 2 * t + 32)


def run_block(t: int, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run one lane per uint64 seed (from ``derive_seeds``) for t steps in
    lockstep.

    Returns the lanes' counters, one int64 row per name in
    ``ensemble._COUNTERS`` and one column per lane, and the indices of the
    lanes that ran out of buffered words, whose columns are not valid.
    """
    lanes = len(seeds)
    n_words = _buffer_words(t)
    # Word c of lane k at c * lanes + k.  The t padding words (-1) after a
    # lane's buffer are accepted by any rejection test and decode to no
    # move: a lane that reads one has run dry and idles to the end.
    words = np.full((n_words + t, lanes), -1, dtype=np.int64)
    words[:n_words] = first_words(seeds, n_words)
    words = words.ravel()
    nxt = np.arange(lanes, dtype=np.int64)  # each lane's next word

    # Positional decode tables: the shift that turns a word into
    # getrandbits(m.bit_length()), and the pair (i, j) of merge rank r.
    n_pairs = t * (t - 1) // 2
    shift_of = np.array([32 - m.bit_length() for m in range(n_pairs + 2 * t + 2)], dtype=np.int64)
    pair_j = np.array([(1 + math.isqrt(1 + 8 * r)) // 2 for r in range(max(1, n_pairs))], dtype=np.int64)
    pair_i = np.arange(len(pair_j), dtype=np.int64) - pair_j * (pair_j - 1) // 2

    # Padded plate arrays of t entries per lane (a lane never holds more
    # plates), flat: position p of lane k is the absolute index k * t + p.
    # ne_pos holds absolute plate indices, ne_idx absolute ne_pos indices
    # (-1 for an empty plate), pos1 plate 1's absolute index: the first move
    # appends it at position 0.  The extra last cell takes masked writes.
    junk = lanes * t
    ids, olives, ne_pos, ne_idx = (np.zeros(junk + 1, dtype=np.int64) for _ in range(4))
    row0 = np.arange(lanes, dtype=np.int64) * t
    pos1 = row0.copy()
    n_e, c_pp, c_pm, c_op, c_om, returns, pm_ge3, max_other = (np.zeros(lanes, dtype=np.int64) for _ in range(8))

    for _ in range(t):
        l = c_pp - c_pm
        n_merge = l * (l - 1) // 2
        n_grow = n_merge + l
        m = n_grow + n_e + 1
        shift = shift_of[m]

        # Rejection-sample u in [0, m) per lane, one word at a time.
        u = words[nxt] >> shift
        todo = np.flatnonzero(u >= m)
        while todo.size:
            nxt[todo] += lanes
            draw = words[nxt[todo]] >> shift[todo]
            u[todo] = draw
            todo = todo[draw >= m[todo]]
        nxt += lanes

        is_pp = u == 0
        is_mg = (u >= 1) & (u <= n_merge)
        is_op = (u > n_merge) & (u <= n_grow)
        is_om = u > n_grow

        # P+: a new empty plate appended; ids run 1, 2, ... in P+ order.
        a = np.flatnonzero(is_pp)
        if a.size:
            at = row0[a] + l[a]
            ids[at] = c_pp[a] + 1
            olives[at] = 0
            ne_idx[at] = -1

        # P-: merge pair rank u-1; the lower id survives at i, and j is
        # swap-removed.
        g = np.flatnonzero(is_mg)
        if g.size:
            base = row0[g]
            r = u[g] - 1
            i, j = base + pair_i[r], base + pair_j[r]
            swap = ids[i] > ids[j]
            i, j = np.where(swap, j, i), np.where(swap, i, j)
            moved = olives[j]
            before = olives[i]
            merged = before + moved
            olives[i] = merged
            # When nothing moved, merged is a count max_other already covers.
            max_other[g] = np.maximum(max_other[g], merged * (i != pos1[g]))
            # j leaves the non-empty index if it held olives: the last entry
            # fills its slot.  An empty i first joins at the end, so i is
            # that last entry.
            k = np.flatnonzero(moved)
            if k.size:
                gk = g[k]
                slot = ne_idx[j[k]]
                joins = before[k] == 0
                last = np.where(joins, i[k], ne_pos[row0[gk] + n_e[gk] - 1])
                ne_pos[slot] = last
                ne_idx[last] = slot
                n_e[gk] -= ~joins
            # Swap-removal of j by the last plate; when j is the last plate
            # these writes rewrite j's own entries, and the ne_pos one goes
            # to the junk cell.
            end = base + l[g] - 1
            ids[j] = ids[end]
            olives[j] = olives[end]
            slot = ne_idx[end]
            ne_idx[j] = slot
            ne_pos[np.where((j != end) & (slot >= 0), slot, junk)] = j
            p1 = pos1[g]
            pos1[g] = np.where(p1 == end, j, p1)

        # O+: an olive onto plate u-1-C(l,2).
        h = np.flatnonzero(is_op)
        if h.size:
            at = row0[h] + (u[h] - 1 - n_merge[h])
            val = olives[at] + 1
            olives[at] = val
            max_other[h] = np.maximum(max_other[h], val * (at != pos1[h]))
            k = np.flatnonzero(val == 1)
            if k.size:
                hk, atk = h[k], at[k]
                e = row0[hk] + n_e[hk]
                ne_idx[atk] = e
                ne_pos[e] = atk
                n_e[hk] += 1

        # O-: an olive off the non-empty plate ranked u-1-C(l,2)-l.
        q = np.flatnonzero(is_om)
        if q.size:
            at = ne_pos[row0[q] + (u[q] - 1 - n_grow[q])]
            val = olives[at] - 1
            olives[at] = val
            k = np.flatnonzero(val == 0)
            if k.size:
                qk, atk = q[k], at[k]
                slot = ne_idx[atk]
                e = n_e[qk] - 1
                n_e[qk] = e
                last = ne_pos[row0[qk] + e]
                ne_pos[slot] = last
                ne_idx[last] = slot
                ne_idx[atk] = -1

        c_pp += is_pp
        c_pm += is_mg
        pm_ge3 += (is_pp | is_mg) & (l >= 3)
        returns += is_mg & (l == 2)
        c_op += is_op
        c_om += is_om

    # In ensemble._COUNTERS order.
    counters = np.stack((c_pp, c_pm, c_op, c_om, returns, pm_ge3, max_other, olives[pos1]))
    return counters, np.flatnonzero(nxt >= (n_words + 1) * lanes)
