"""The lockstep ensemble kernel against the scalar one it must reproduce.

Every comparison is with a test-local reference built from the scalar
kernel, replica by replica: each row is written by hand from
``run_trajectory``'s final state, and the sums are exact Python ints.
"""

import random
import tracemalloc

import numpy as np
import pytest

from olivetable import _lockstep, ensemble, process
from olivetable.ensemble import EnsembleConfig, _replica_dtype, run_ensemble
from olivetable.process import TableState, run_trajectory
from olivetable.rng import derive_seed, make_rng

MIN_R = ensemble._LOCKSTEP_MIN_REPLICAS


def seeds_of(config: EnsembleConfig, lo: int, hi: int) -> list[int]:
    return [derive_seed(config.master_seed, i) for i in range(lo, hi)]


def scalar_reference(config: EnsembleConfig, lo: int, hi: int) -> tuple[bytes, int, int]:
    rows = []
    for i, seed in zip(range(lo, hi), seeds_of(config, lo, hi)):
        s = run_trajectory(config.t, seed).final_state
        returns = s.num_returns
        rows.append((
            i, seed, s.total_olives, s.c_add_plate + s.c_merge, returns + 1, returns, s.max_other_olives,
            s.first_plate_olives, s.c_merge - returns, s.plate_moves_at_ge3,
        ))
    o = [row[2] for row in rows]
    return np.array(rows, dtype=_replica_dtype()).tobytes(), sum(o), sum(v * v for v in o)


def outcome(records) -> tuple[bytes, int, int]:
    o = records["O"].tolist()
    return records.tobytes(), sum(o), sum(v * v for v in o)


@pytest.fixture
def spies(monkeypatch):
    """Record the seeds of each lockstep block and each scalar replica run."""
    blocks, scalar = [], []
    real_block, real_counters = _lockstep.run_block, ensemble._replica_counters

    def run_block(t, seeds):
        blocks.append(seeds.tolist())
        return real_block(t, seeds)

    def replica_counters_spy(seed, horizons):
        scalar.append(seed)
        return real_counters(seed, horizons)

    monkeypatch.setattr(_lockstep, "run_block", run_block)
    monkeypatch.setattr(ensemble, "_replica_counters", replica_counters_spy)
    return blocks, scalar


# -- streams ------------------------------------------------------------------


@pytest.mark.parametrize("master", [0, -1, 2**64 + 5, 20260810])
@pytest.mark.parametrize("lo, hi", [(3, 40), (999_990, 1_000_010)])
def test_vectorised_splitmix64_is_derive_seed(master, lo, hi):
    seeds = _lockstep.derive_seeds(master, lo, hi)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(master, i) for i in range(lo, hi)]


def test_vectorised_mt19937_prefix_is_random_random():
    # Seeds below 2**32 are one-word init_by_array keys, the rest two-word.
    edge = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    derived = [derive_seed(m, i) for m in (0, 11, 2**63) for i in range(40)]
    seeds = np.array(edge + derived, dtype=np.uint64)
    words = _lockstep.first_words(seeds, _lockstep.TWIST_WORDS)
    assert words.shape == (_lockstep.TWIST_WORDS, len(seeds)) and words.dtype == np.uint32
    for k, seed in enumerate(seeds.tolist()):
        rng = random.Random(seed)
        assert words[:, k].tolist() == [rng.getrandbits(32) for _ in range(_lockstep.TWIST_WORDS)], seed
    assert _lockstep.first_words(seeds, 5).tolist() == words[:5].tolist()
    # getrandbits(k <= 32) is the word's top k bits, as the kernel decodes it.
    rng = make_rng(int(seeds[7]))
    bits = (1, 5, 13, 32)
    assert [rng.getrandbits(k) for k in bits] == [int(w) >> (32 - k) for w, k in zip(words[:4, 7], bits)]
    for bad in (0, _lockstep.TWIST_WORDS + 1):
        with pytest.raises(ValueError):
            _lockstep.first_words(seeds, bad)


# -- rows ---------------------------------------------------------------------


@pytest.mark.parametrize("t", [1, 2, 3, 12, 40, 64])
def test_rows_equal_the_scalar_kernel(t, spies):
    blocks, scalar = spies
    config = EnsembleConfig(t=t, replicas=MIN_R + 300, master_seed=t * 7919 + 1)
    assert outcome(run_ensemble(config, threads=1)) == scalar_reference(config, 0, config.replicas)
    assert blocks == [seeds_of(config, 0, config.replicas)]
    assert scalar == []  # no lane ran dry at the default buffer


def test_block_counters_equal_the_scalar_kernel_at_every_t():
    # A merge scans t-wide plate rows, and longer runs reach more plates, so
    # every horizon the ensemble may run on this kernel is checked, lane by
    # lane.
    for t in range(1, ensemble._LOCKSTEP_MAX_T + 1):
        seeds = _lockstep.derive_seeds(t, 0, 300)
        counters, dry = _lockstep.run_block(t, seeds)
        live = sorted(set(range(len(seeds))) - set(dry.tolist()))
        assert len(live) > 290, t
        for k in live:
            assert tuple(counters[:, k].tolist()) == ensemble._replica_counters(int(seeds[k]), (t,))[0], (t, k)


def test_blocks_and_replica_ranges(spies, monkeypatch):
    blocks, scalar = spies
    monkeypatch.setattr(ensemble, "_LOCKSTEP_MAX_LANES", MIN_R + 100)
    config = EnsembleConfig(t=12, replicas=10_000, master_seed=2**64 + 5)
    lo, hi = 1234, 1234 + 4 * MIN_R + 301
    records = run_ensemble(config, threads=1, replica_range=(lo, hi))
    assert outcome(records) == scalar_reference(config, lo, hi)
    # Four near-equal blocks within the cap, tiling the range in order.
    assert [len(seeds) for seeds in blocks] == [1099, 1099, 1099, 1100]
    assert sum(blocks, []) == seeds_of(config, lo, hi)
    assert scalar == []


def test_seeding_buffer_stays_within_ten_mib():
    cap = ensemble._LOCKSTEP_MAX_LANES
    assert cap * 624 * np.dtype(np.uint32).itemsize <= 10 << 20
    assert cap >= 4096
    # So cutting a range of at least MIN_R replicas into tasks of at most
    # cap leaves every task at MIN_R or more: it stays on the lockstep path.
    assert cap >= 2 * MIN_R


@pytest.mark.parametrize("t, cap_mib", [(12, 12.5), (64, 16.5)])
def test_a_block_holds_its_seeding_state_and_word_buffer_one_after_the_other(t, cap_mib):
    # At 4,167 lanes the 624 seeding rows take 9.9 MiB and the int64 word
    # buffer 2.2 MiB (t = 12) or 7.1 MiB (t = 64); a block that holds both
    # at once peaks at 14.9 and 24.8 MiB.
    seeds = _lockstep.derive_seeds(1, 0, 4167)
    tracemalloc.start()
    try:
        _lockstep.run_block(t, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cap_mib * 2**20, peak / 2**20


POOLED = EnsembleConfig(t=40, replicas=25_000, master_seed=5)


@pytest.fixture(scope="module")
def pooled_reference():
    return scalar_reference(POOLED, 0, POOLED.replicas)


@pytest.mark.parametrize("threads", [1, 2])
def test_thread_count_does_not_change_lockstep_results(threads, pooled_reference):
    # t * R >= 1e6: two threads split the run into 8 pool tasks of 3125
    # replicas, each on the lockstep path; one thread runs 6 tasks of
    # 4166-4167 in this process.
    assert outcome(run_ensemble(POOLED, threads=threads)) == pooled_reference


def _draws_per_step(t: int, seed: int) -> list[int]:
    """Cumulative words the scalar kernel draws by the end of each step."""
    counts = []
    rng = make_rng(seed)
    real = rng.getrandbits
    used = [0]

    def getrandbits(k):
        used[0] += 1
        return real(k)

    rng.getrandbits = getrandbits
    state = TableState()
    for _ in range(t):
        process._advance(state, rng, 1)
        counts.append(used[0])
    return counts


@pytest.mark.parametrize("words", [1, 14])
def test_dry_lanes_fall_back_to_the_scalar_kernel(words, spies, monkeypatch):
    blocks, scalar = spies
    monkeypatch.setattr(_lockstep, "_buffer_words", lambda t: words)
    config = EnsembleConfig(t=12, replicas=MIN_R + 76, master_seed=77)
    records = run_ensemble(config, threads=1)
    assert outcome(records) == scalar_reference(config, 0, config.replicas)

    draws = [_draws_per_step(config.t, derive_seed(config.master_seed, i)) for i in range(config.replicas)]
    rerun = set(scalar)
    expected = {derive_seed(config.master_seed, i) for i, d in enumerate(draws) if d[-1] > words}
    assert rerun == expected and len(scalar) == len(expected)
    if words == 14:
        # Lanes that use their last word on the last step stay in lockstep;
        # lanes that use it at an earlier step boundary leave the block.
        exact_end = [i for i, d in enumerate(draws) if d[-1] == words]
        exact_inner = [i for i, d in enumerate(draws) if words in d[:-1]]
        assert exact_end and exact_inner
        assert not {derive_seed(config.master_seed, i) for i in exact_end} & rerun
        assert {derive_seed(config.master_seed, i) for i in exact_inner} <= rerun
        assert len(expected) < config.replicas


def test_selection_rule(spies):
    blocks, scalar = spies
    run_ensemble(EnsembleConfig(t=65, replicas=MIN_R, master_seed=1), threads=1)
    assert blocks == [] and len(scalar) == MIN_R
    run_ensemble(EnsembleConfig(t=12, replicas=MIN_R - 1, master_seed=1), threads=1)
    assert blocks == [] and len(scalar) == 2 * MIN_R - 1
    scalar.clear()
    config = EnsembleConfig(t=64, replicas=MIN_R, master_seed=1)
    run_ensemble(config, threads=1)
    assert blocks == [seeds_of(config, 0, MIN_R)] and scalar == []


def test_a_corrupted_lane_fails_the_conservation_check(monkeypatch):
    real = _lockstep.run_block

    def corrupt(t, seeds):
        counters, dry = real(t, seeds)
        counters[process._COUNTERS.index("c_remove_olive"), 37] += 1  # one extra O-
        return counters, dry

    monkeypatch.setattr(_lockstep, "run_block", corrupt)
    config = EnsembleConfig(t=12, replicas=2 * MIN_R, master_seed=9)
    with pytest.raises(AssertionError, match="replica 537"):
        run_ensemble(config, threads=1, replica_range=(500, 500 + MIN_R))
