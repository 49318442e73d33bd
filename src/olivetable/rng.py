"""Deterministic seeding utilities.

Every stochastic run in this package is driven by ``random.Random`` (the
Mersenne Twister) seeded with an explicit 64-bit value.  Replica streams are
derived from a master seed with the SplitMix64 output function, which is the
documented, reproducible part of the external interface: replica ``i`` of a
run with master seed ``s`` always uses ``derive_seed(s, i)``, so any subset
of replicas can be re-run in isolation and bit-identically.

The process kernel draws bounded uniform integers by rejection on
``getrandbits`` (never by modulo), so category sampling carries no bias.

The ensemble's lockstep path (``olivetable._lockstep``;
``ensemble._run_chunk`` states which tasks it runs) builds no
``random.Random``: it derives a task's seeds with a vectorised SplitMix64
and runs MT19937's ``init_by_array`` seeding, first twist and tempering
across the task's replicas, so each replica draws exactly the words of
``make_rng(derive_seed(master_seed, i))``.
"""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class _RangeError(ValueError):
    """A call the library refuses: an argument out of range, a state
    budget used up, or checks run where ``python -O`` strips them.

    The CLI maps this ``ValueError``, and no other, to its usage exit code,
    so a fault inside the library is not reported as bad flags.  It is
    defined here because ``rng`` imports no other module of the package.
    """


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mix of ``x``."""
    z = (x + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """64-bit stream seed for replica ``index`` under ``master_seed``.

    Equals the ``index``-th output of a SplitMix64 generator seeded with
    ``master_seed``.  The map is injective in ``index`` (the gamma is odd),
    so distinct replicas always receive distinct seeds.
    """
    if index < 0:
        raise _RangeError(f"replica index must be >= 0, got {index}")
    return splitmix64((master_seed + index * _GOLDEN_GAMMA) & _MASK64)


def make_rng(seed: int) -> random.Random:
    """A fresh deterministic generator for one trajectory or walk."""
    return random.Random(seed & _MASK64)
