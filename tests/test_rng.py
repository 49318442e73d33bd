import pytest

from olivetable.rng import derive_seed, make_rng, splitmix64


def test_splitmix64_is_deterministic_64_bit():
    a = splitmix64(0)
    b = splitmix64(0)
    assert a == b
    assert 0 <= a < 2**64
    assert splitmix64(1) != a


def test_derived_seeds_distinct_and_stable():
    seeds = [derive_seed(12345, i) for i in range(10_000)]
    assert len(set(seeds)) == 10_000
    assert seeds[:3] == [derive_seed(12345, i) for i in range(3)]
    assert derive_seed(12345, 0) != derive_seed(12346, 0)
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_replica_streams_do_not_overlap():
    # First 1000 draws of 1000 derived streams must all differ.
    streams = set()
    for i in range(1000):
        rng = make_rng(derive_seed(777, i))
        streams.add(tuple(rng.getrandbits(32) for _ in range(1000)))
    assert len(streams) == 1000

