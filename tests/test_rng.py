"""Reproducibility contracts of the RandomStream layer."""

import numpy as np

from spinrelay.rng import RandomStream, splitmix64


def test_same_stream_same_sequence():
    a = RandomStream(42).generator().random(1000)
    b = RandomStream(42).generator().random(1000)
    np.testing.assert_array_equal(a, b)


def test_philox_raw_regression():
    # Raw BitGenerator output is stream-stable across NumPy versions and
    # platforms; these words pin the (seed, stream_id) -> sequence map.
    raw = RandomStream(42).generator().bit_generator.random_raw(4)
    assert [int(v) for v in raw] == [
        0xD1F8817D4D62880E, 0x307266B65CC8797E,
        0xDE1F04E7F084ED03, 0x65034A8E78CD1E59,
    ]
    raw_child = RandomStream(42).child(0).generator().bit_generator.random_raw(2)
    assert [int(v) for v in raw_child] == [0x8DD431B00E7EBF30, 0xF24923F1093C05F0]


def test_child_derivation_is_stable():
    assert RandomStream(42).child(0).stream_id == 0xA706DD2F4D197E6F
    assert RandomStream(42).child(7).stream_id == 0xB8B4C2977EABCE45
    # same child twice -> same stream; different indices -> different streams
    assert RandomStream(1).child(3) == RandomStream(1).child(3)
    ids = {RandomStream(1).child(i).stream_id for i in range(1000)}
    assert len(ids) == 1000


def test_distinct_streams_look_independent():
    a = RandomStream(42, stream_id=0).generator().random(20000)
    b = RandomStream(42, stream_id=1).generator().random(20000)
    assert not np.array_equal(a[:100], b[:100])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.03, f"cross-stream correlation {corr} too large"


def test_splitmix64_known_values():
    # reference values of the published SplitMix64 sequence from seed 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(splitmix64(0)) != splitmix64(0)
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_generator_restarts_but_passthrough_advances():
    stream = RandomStream(9)
    first = stream.generator().random(4)
    again = stream.generator().random(4)
    np.testing.assert_array_equal(first, again)
    gen = stream.generator()
    a, b = gen.random(4), gen.random(4)
    assert not np.array_equal(a, b)
