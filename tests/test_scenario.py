import math

import numpy as np
import pytest
from scipy import stats

from ewfs.scenario import (
    BRUKNER_EWFS,
    DEFAULT_BELL_ALICE,
    DEFAULT_BELL_BOB,
    STANDARD_BELL,
    ScenarioSpec,
    default_scenario,
    sample_settings_block,
)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bell_angles_must_be_finite(bad):
    with pytest.raises(ValueError):
        ScenarioSpec(STANDARD_BELL, (0.0, bad), (0.0, 1.0), 10)
    with pytest.raises(ValueError):
        ScenarioSpec(STANDARD_BELL, (0.0, 1.0), (bad, 1.0), 10)


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
