"""Release gate: every acceptance criterion at its pinned tolerance.

Each test prints one 'PASS criterion-name' line (run pytest with -s to see
them inline); the same functions back the CLI ``selftest`` subcommand.
"""

from collections import Counter

import pytest

from spinrelay import acceptance, encoding, sweep
from spinrelay.acceptance import _CRITERIA


@pytest.mark.parametrize("number", sorted(_CRITERIA))
def test_criterion(number):
    result = _CRITERIA[number]()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{result.number}] {status} {result.name}: {result.detail}")
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"


def test_criteria_chains_share_no_stream(monkeypatch):
    # every chain the criteria start, by stream and chunk count: no two run
    # on one stream, and none on s.child(j) of another chain's stream s for
    # any of that chain's chunks j >= 1, whose draws it would repeat;
    # criterion 9 repeats its sweep on purpose, so a repeat counts once
    seen, number = {}, None

    def recorded(real):
        def run(*args, **kwargs):
            seen[number, args[5]] = -(-args[4] // encoding._CHAIN_ROWS)
            # two trials keep the run short; the streams are the same
            return real(*args[:4], 2, *args[5:], **kwargs)
        return run

    monkeypatch.setattr(acceptance, "mc_estimate_delta", recorded(sweep.mc_estimate_delta))
    monkeypatch.setattr(sweep, "mc_estimate_delta", recorded(sweep.mc_estimate_delta))
    for number in _CRITERIA:
        _CRITERIA[number]()
    streams = [rng for _, rng in seen]
    assert len(set(streams)) == len(streams)
    assert Counter(number for number, _ in seen) == {1: 1, 2: 5, 3: 2, 4: 3, 6: 1, 9: 3}
    for (number, rng), chunks in seen.items():
        for j in range(1, chunks):
            assert rng.child(j) not in streams, (number, rng, j)
