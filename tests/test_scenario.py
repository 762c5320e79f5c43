import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from ewfs import harness, models, scenario
from ewfs.models import MODEL_NAMES, run_trials
from ewfs.scenario import (
    BRUKNER_EWFS,
    DEFAULT_BELL_ALICE,
    DEFAULT_BELL_BOB,
    SETTINGS_STREAM,
    STANDARD_BELL,
    ScenarioSpec,
    default_scenario,
    sample_settings_block,
)
from ewfs.streams import uniform_block
from test_models import _ref_settings


def test_default_scenarios():
    ewfs = default_scenario(BRUKNER_EWFS, 100)
    assert ewfs.alice_settings == ("Z", "X") and ewfs.bob_settings == ("Z", "X")
    bell = default_scenario(STANDARD_BELL, 100)
    assert bell.alice_settings == DEFAULT_BELL_ALICE
    assert bell.bob_settings == DEFAULT_BELL_BOB


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec("weird", ("Z", "X"), ("Z", "X"), 10)
    with pytest.raises(ValueError):
        ScenarioSpec(BRUKNER_EWFS, ("Z",), ("Z", "X"), 10)
    with pytest.raises(ValueError):
        ScenarioSpec(BRUKNER_EWFS, ("X", "Z"), ("Z", "X"), 10)  # setting 1 not Z
    with pytest.raises(ValueError):
        ScenarioSpec(BRUKNER_EWFS, ("Z", "Q"), ("Z", "X"), 10)
    with pytest.raises(ValueError):
        ScenarioSpec(STANDARD_BELL, ("a", "b"), (0.0, 1.0), 10)
    with pytest.raises(ValueError):
        ScenarioSpec(STANDARD_BELL, (0.0, 1.0), (0.0, 1.0), 0)

    # exactly two settings per party
    with pytest.raises(ValueError):
        ScenarioSpec(BRUKNER_EWFS, ("Z", "X", "X"), ("Z", "X"), 10)
    with pytest.raises(ValueError):
        ScenarioSpec(STANDARD_BELL, (0.0, 1.0), (0.0, 1.0, 2.0), 10)


# a bool or a numeric string would otherwise run as the number it converts to
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False, "0.5", None])
def test_bell_angles_must_be_finite(bad):
    with pytest.raises(ValueError):
        ScenarioSpec(STANDARD_BELL, (0.0, bad), (0.0, 1.0), 10)
    with pytest.raises(ValueError):
        ScenarioSpec(STANDARD_BELL, (0.0, 1.0), (bad, 1.0), 10)


# only a list (from JSON) or a tuple: any other iterable would otherwise be
# coerced, "ZX" into ('Z', 'X') and a dict into its keys
@pytest.mark.parametrize("bad", [
    "ZX", {"Z": 1, "X": 2}, {"Z", "X"}, iter(("Z", "X")), np.array(["Z", "X"]), None, 5,
])
def test_settings_must_be_a_list_or_a_tuple(bad):
    for name, settings in (("alice", (bad, ("Z", "X"))), ("bob", (("Z", "X"), bad))):
        with pytest.raises(ValueError, match=f"^{name}_settings must be a list or a tuple"):
            ScenarioSpec(BRUKNER_EWFS, *settings, 3000)
    assert ScenarioSpec(BRUKNER_EWFS, ["Z", "X"], ("Z", "X"), 3000).alice_settings == ("Z", "X")


@pytest.mark.parametrize("trials", [True, 2_000.0, "2000", None])
def test_trials_must_be_an_integer_not_a_bool(trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        ScenarioSpec(BRUKNER_EWFS, ("Z", "X"), ("Z", "X"), trials)


def test_bell_angles_take_numpy_numbers():
    settings = (np.float64(0.5), np.int64(1)), (np.float32(0.25), 2)
    spec = ScenarioSpec(STANDARD_BELL, *settings, 10)
    assert spec.alice_settings == settings[0] and spec.bob_settings == settings[1]


def test_uniform_sampler_range_and_split_invariance():
    spec = default_scenario(BRUKNER_EWFS, 500)
    xs, ys = sample_settings_block(spec, 42, 500)
    assert xs.dtype == ys.dtype == np.int8
    assert set(np.unique(xs)) == {1, 2} and set(np.unique(ys)) == {1, 2}
    xs2a, ys2a = sample_settings_block(spec, 42, 123)
    xs2b, ys2b = sample_settings_block(spec, 42, 377, first_trial=123)
    np.testing.assert_array_equal(xs, np.concatenate([xs2a, xs2b]))
    np.testing.assert_array_equal(ys, np.concatenate([ys2a, ys2b]))


def test_single_trial_matches_block():
    spec = default_scenario(BRUKNER_EWFS, 50)
    xs, ys = sample_settings_block(spec, 3, 50)
    x31, y31 = sample_settings_block(spec, 3, 1, first_trial=31)
    assert (int(x31[0]), int(y31[0])) == (int(xs[31]), int(ys[31]))


def test_block_bounds_checked():
    spec = default_scenario(BRUKNER_EWFS, 10)
    with pytest.raises(IndexError):
        sample_settings_block(spec, 0, 11)
    with pytest.raises(IndexError):
        sample_settings_block(spec, 0, 5, first_trial=6)


def test_uniform_settings_are_uniform():
    spec = default_scenario(BRUKNER_EWFS, 100_000)
    xs, ys = sample_settings_block(spec, 0, 100_000)
    pair = 2 * (xs - 1) + (ys - 1)
    counts = np.bincount(pair, minlength=4)
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001
    assert np.all(np.abs(counts / 100_000 - 0.25) < 0.01)


# --- the settings memo -----------------------------------------------------


# seed True is a different stream from seed 1 ("True:settings"), and
# np.int64(1) the same one
@given(keys=st.lists(
    st.tuples(
        st.sampled_from([0, 1, True, np.int64(1), 2]), st.integers(1, 40), st.integers(0, 10)
    ),
    min_size=1, max_size=8,
))
def test_memo_returns_a_fresh_draw_for_every_key(keys):
    spec = default_scenario(BRUKNER_EWFS, 50)
    for seed, n, first in keys:
        xs, ys = sample_settings_block(spec, seed, n, first)
        ref_x, ref_y = _ref_settings(None, seed, n, first)
        assert xs.dtype == ys.dtype == np.int8
        np.testing.assert_array_equal(xs, ref_x)
        np.testing.assert_array_equal(ys, ref_y)


def test_memo_arrays_are_read_only():
    xs, ys = sample_settings_block(default_scenario(BRUKNER_EWFS, 20), 5, 20)
    for column in (xs, ys):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            column += 1
    again = sample_settings_block(default_scenario(STANDARD_BELL, 20), 5, 20)
    np.testing.assert_array_equal(again[0], _ref_settings(None, 5, 20, 0)[0])


def test_campaigns_at_one_seed_share_one_settings_draw(monkeypatch):
    draws = []

    def counted(seed, label, *args):
        draws.append(label)
        return uniform_block(seed, label, *args)

    monkeypatch.setattr(scenario, "uniform_block", counted)
    scenario._settings_block.clear()
    spec = default_scenario(BRUKNER_EWFS, 300)
    for model in MODEL_NAMES:
        run_trials(spec, model, seed=8)
    assert draws == [SETTINGS_STREAM]
    # the range check runs on every call, memo or not
    with pytest.raises(IndexError):
        sample_settings_block(default_scenario(BRUKNER_EWFS, 299), 8, 300)


def _count_settings_draws(monkeypatch) -> list:
    """Forget the memo and record the label of every draw it makes."""
    draws = []

    def counted(seed, label, *args):
        draws.append(label)
        return uniform_block(seed, label, *args)

    monkeypatch.setattr(scenario, "uniform_block", counted)
    scenario._settings_block.clear()
    return draws


@given(
    seed=st.sampled_from([0, 1, True, np.int64(1), 2]),
    block=st.tuples(st.integers(0, 20), st.integers(1, 60)),
    ranges=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=6),
)
def test_memo_serves_every_sub_range_of_the_last_block(seed, block, ranges):
    first, n = block
    spec = default_scenario(BRUKNER_EWFS, first + n)
    with pytest.MonkeyPatch.context() as monkeypatch:
        draws = _count_settings_draws(monkeypatch)
        sample_settings_block(spec, seed, n, first)
        for lo, length in ranges:
            lo = first + lo % n
            length %= first + n - lo + 1
            xs, ys = sample_settings_block(spec, seed, length, lo)
            ref_x, ref_y = _ref_settings(None, seed, length, lo)
            np.testing.assert_array_equal(xs, ref_x)
            np.testing.assert_array_equal(ys, ref_y)
            assert xs.dtype == ys.dtype == np.int8
            assert not xs.flags.writeable and not ys.flags.writeable
        assert draws == [SETTINGS_STREAM]


def test_bulk_models_at_one_seed_share_one_draw_across_chunks(monkeypatch):
    # 150,000 trials are three chunks: the first campaign draws its whole
    # block, and its chunks and the other three campaigns find it in the memo
    draws = _count_settings_draws(monkeypatch)
    spec = default_scenario(BRUKNER_EWFS, 150_000)
    assert spec.trials > 2 * models.CHUNK
    for model in MODEL_NAMES:
        harness.run_campaign(harness.CampaignConfig(spec, model, seed=3))
    assert draws == [SETTINGS_STREAM]


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_run_trials_blocks_are_byte_identical_across_splits(model):
    # Each block runs twice with another seed's block in between, so it is
    # a memo miss and then a hit: neither changes a byte.
    spec = default_scenario(BRUKNER_EWFS, 2_000)

    def columns(log):
        return [
            column.tobytes()
            for column in (log.x, log.y, log.a, log.b, log.c, log.d, *log.lam.values())
        ]

    whole = columns(run_trials(spec, model, seed=6))
    for splits in ((0, 1, 2_000), (0, 700, 1_300, 2_000)):
        parts = []
        for lo, hi in zip(splits, splits[1:]):
            for _ in range(2):
                run_trials(spec, model, seed=7, first_trial=lo, n_trials=hi - lo)
                parts.append(columns(
                    run_trials(spec, model, seed=6, first_trial=lo, n_trials=hi - lo)
                ))
        assert [b"".join(c) for c in zip(*parts[0::2])] == whole
        assert parts[0::2] == parts[1::2]
