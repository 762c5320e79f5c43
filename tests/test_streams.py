import numpy as np
import pytest
from hypothesis import given, strategies as st

from ewfs.models import MODELS
from ewfs.scenario import SETTINGS_STREAM
from ewfs.streams import stream_entropy, substream, uniform_block


def test_entropy_is_deterministic():
    assert stream_entropy(7, "settings") == stream_entropy(7, "settings")


def test_entropy_separates_labels_and_seeds():
    keys = {
        stream_entropy(0, "settings"),
        stream_entropy(0, "model:lhv"),
        stream_entropy(1, "settings"),
        stream_entropy(1, "model:lhv"),
    }
    assert len(keys) == 4


def test_substream_offset_matches_skipping():
    base = substream(3, "model:toy-theta").random(20)
    tail = substream(3, "model:toy-theta", offset=12).random(8)
    np.testing.assert_array_equal(base[12:], tail)


def test_uniform_block_values_in_unit_interval():
    u = uniform_block(0, "settings", 1000, 3)
    assert u.shape == (1000, 3)
    assert u.min() >= 0.0 and u.max() < 1.0


@given(
    seed=st.integers(0, 2**32),
    draws=st.integers(1, 6),
    split=st.integers(1, 49),
)
def test_block_splits_are_invisible(seed, draws, split):
    full = uniform_block(seed, "model:x", 50, draws)
    head = uniform_block(seed, "model:x", split, draws)
    tail = uniform_block(seed, "model:x", 50 - split, draws, first_trial=split)
    np.testing.assert_array_equal(full, np.vstack([head, tail]))


def test_trial_window_is_batch_independent():
    # trial 17's row must not depend on where the batch started
    a = uniform_block(9, "model:collapse", 30, 3)[17]
    b = uniform_block(9, "model:collapse", 5, 3, first_trial=15)[2]
    c = uniform_block(9, "model:collapse", 1, 3, first_trial=17)[0]
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_streams_with_different_labels_are_uncorrelated():
    u = uniform_block(0, "settings", 4000, 1)[:, 0]
    v = uniform_block(0, "model:lhv", 4000, 1)[:, 0]
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.05


# Every stream a campaign reads, with its draws per trial.
CAMPAIGN_STREAMS = [(SETTINGS_STREAM, 1)] + [(f"model:{m}", e.draws) for m, e in MODELS.items()]


@pytest.mark.parametrize("label, draws", CAMPAIGN_STREAMS)
@pytest.mark.parametrize("seed", [0, 7, True, -3])
def test_uniform_block_is_the_raw_pcg64_stream(label, draws, seed):
    # The stream canary: NumPy fixes the bit generators' output across
    # releases (NEP 19) but not Generator.random's.  The golden digests rest
    # on the doubles below; if they move, this test names the cause.
    for first in (0, 12_345, 10**9):
        bg = np.random.PCG64(np.random.SeedSequence(entropy=stream_entropy(seed, label)))
        bg.advance(first * draws)
        raw = bg.random_raw(8 * draws).reshape(8, draws)
        expected = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        got = uniform_block(seed, label, 8, draws, first)
        assert got.tobytes() == expected.tobytes(), (label, seed, first)
