"""Reproducibility contracts of the RandomStream layer."""

import numpy as np
import pytest

from spinrelay.rng import RandomStream, StreamRows, splitmix64


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


class TestStreamRows:
    """A rows view reads the whole batch's draws at their Philox offsets."""

    @staticmethod
    def _fills(gen, sizes):
        # random fills, the one primitive every chain step draws through
        return [gen.random(n) for n in sizes]

    @pytest.mark.parametrize("lo, hi, total", [
        (lo, lo + 3, 13) for lo in range(10)] + [
        (0, 13, 13), (12, 13, 13), (5, 6, 7), (0, 1, 1),
        (65_536, 100_003, 100_003), (99_999, 100_000, 300_001)])
    def test_fills_are_slices_of_the_batch_fills(self, lo, hi, total):
        stream = RandomStream(42).child(3)
        whole = self._fills(stream.generator(), [total] * 4)
        rows = self._fills(StreamRows(stream, lo, hi, total), [hi - lo] * 4)
        for j in range(4):
            assert np.array_equal(rows[j], whole[j][lo:hi]), f"fill {j}"

    def test_offsets_past_two_to_the_64_counter_steps(self):
        # fill j of rows [lo, hi) starts at word j * total + lo; with
        # total = 2^65 the third fill's counter carries into its second word
        stream, lo, total = RandomStream(7, 11), 6, 2 ** 65
        view = StreamRows(stream, lo, lo + 5, total)
        for j in range(3):
            word = j * total + lo
            bits = stream.generator().bit_generator
            state = bits.state
            state["state"]["counter"] = np.array(
                [(word // 4 >> (64 * i)) & (2 ** 64 - 1) for i in range(4)], dtype=np.uint64)
            bits.state = state
            bits.random_raw(word % 4)
            expected = np.random.Generator(bits).random(5)
            assert np.array_equal(view.random(5), expected), f"fill {j}"

    def test_wrong_fill_size_raises(self):
        view = StreamRows(RandomStream(1), 2, 5, 10)
        for size in (10, 2, None, (3, 1)):
            with pytest.raises(ValueError, match="fills of size 3"):
                view.random(size)
        # a rejected fill does not move the view on
        assert np.array_equal(view.random(3), RandomStream(1).generator().random(10)[2:5])

    @pytest.mark.parametrize("skipped", [0, 1, 2, 5])
    def test_skip_is_discarded_fills(self, skipped):
        # counted, not generated: the fill after a skip is the one after
        # as many discarded fills, for a view on any rows of the batch
        stream = RandomStream(42).child(5)
        for lo, hi in [(0, 13), (3, 7), (12, 13)]:
            drawn, passed = StreamRows(stream, lo, hi, 13), StreamRows(stream, lo, hi, 13)
            drawn.random(hi - lo)
            passed.random(hi - lo)
            self._fills(drawn, [hi - lo] * skipped)
            passed.skip(skipped)
            for _ in range(2):
                assert np.array_equal(passed.random(hi - lo), drawn.random(hi - lo)), (lo, hi)

    def test_negative_skip_raises(self):
        view = StreamRows(RandomStream(1), 2, 5, 10)
        with pytest.raises(ValueError, match="negative number of fills, got -1"):
            view.skip(-1)
        # a rejected skip does not move the view on
        assert np.array_equal(view.random(3), RandomStream(1).generator().random(10)[2:5])

    @pytest.mark.parametrize("lo, hi, total", [(-1, 2, 5), (3, 3, 5), (4, 6, 5), (0, 1, 0)])
    def test_bad_rows_raise(self, lo, hi, total):
        with pytest.raises(ValueError, match="lo < hi <= total"):
            StreamRows(RandomStream(1), lo, hi, total)


def test_rows_view_builds_one_philox(monkeypatch):
    # each fill re-positions the view's Philox instead of building a new one
    built = []
    philox = RandomStream._philox
    monkeypatch.setattr(RandomStream, "_philox",
                        lambda self: built.append(self) or philox(self))
    stream = RandomStream(4, 2)
    view = StreamRows(stream, 5, 9, 20)
    fills = [view.random(4) for _ in range(3)]
    assert len(built) == 1
    gen = stream.generator()
    expected = [gen.random(20)[5:9] for _ in range(3)]
    assert all(np.array_equal(f, e) for f, e in zip(fills, expected))
