"""False-alarm rates and power of the four G-test checks.

Each case draws multinomial count tables of 2,000 trials from a model's
exact law (``conftest.exact_law``), so a sweep of thousands of campaigns
takes seconds.  Every model here meets no-signaling, NSD, locality and
settings independence, so each failed check is a false alarm; its rate
must be at most the check's familywise design level, erfc(k / sqrt 2) at
k = 3, under a one-sided binomial test at 1e-3.  Tier-1 draws 2,000
tables per case; `--sweep-tables 10000` runs the full sweep.  Seeds and
levels were fixed before the first run.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from conftest import exact_law, sample_tables
from ewfs.assumptions import check_locality, check_nsd, check_settings_independence
from ewfs.inequality import CountTable, check_signaling
from ewfs.models import (
    MODEL_COLLAPSE,
    MODEL_LHV,
    MODEL_TOY,
    MODEL_UNITARY_QM,
    TOY_OPTIMAL_CHSH,
)
from ewfs.scenario import BRUKNER_EWFS, STANDARD_BELL

K = 3.0
DESIGN_LEVEL = math.erfc(K / math.sqrt(2.0))  # 2.7e-3, familywise per check
TEST_LEVEL = 1e-3  # one-sided binomial test of an alarm rate against DESIGN_LEVEL
TRIALS = 2_000
BATCH = 1_000  # tables drawn at once: 18 MB of counts for a 16-bin law
SEED = 20_260_411

CHECKS = {
    "signaling": check_signaling,
    "nsd": check_nsd,
    "locality": check_locality,
    "settings_independence": check_settings_independence,
}

# (kind, model, options, the checks that are conclusive on its tables)
CASES = [
    (BRUKNER_EWFS, MODEL_LHV, None, set(CHECKS)),
    (BRUKNER_EWFS, MODEL_COLLAPSE, None, {"signaling", "nsd", "locality"}),
    (STANDARD_BELL, MODEL_COLLAPSE, None, {"signaling"}),
    (BRUKNER_EWFS, MODEL_UNITARY_QM, None, {"signaling"}),
    (BRUKNER_EWFS, MODEL_TOY, TOY_OPTIMAL_CHSH, set(CHECKS)),
]


def _verdicts(law, tables, seed, checks=CHECKS):
    """The verdicts of each of ``checks`` on ``tables`` multinomial tables
    from ``law``."""
    rng = np.random.default_rng(seed)
    verdicts = {name: [] for name in checks}
    for start in range(0, tables, BATCH):
        for counts in sample_tables(law, TRIALS, min(BATCH, tables - start), rng):
            table = CountTable(counts)
            for name, check in checks.items():
                verdicts[name].append(check(table, K).passed)
    return verdicts


@pytest.mark.parametrize(
    "kind,model,options,conclusive", CASES,
    ids=[f"{kind}-{model}" for kind, model, *_ in CASES],
)
def test_false_alarm_rate_is_at_most_the_design_level(
    kind, model, options, conclusive, sweep_tables
):
    verdicts = _verdicts(exact_law(kind, model, options), sweep_tables, SEED)
    for name, passed in verdicts.items():
        assert (None not in passed) == (name in conclusive), name
        alarms = passed.count(False)
        # P(at least this many alarms) at a rate of exactly DESIGN_LEVEL
        p = binom.sf(alarms - 1, sweep_tables, DESIGN_LEVEL)
        assert p >= TEST_LEVEL, (name, alarms, sweep_tables)


def _signaling_law(shift):
    """Bell-like law, friends undefined: B a fair coin, A a fair coin except
    P(A = +1 | x = 1, y = 2) = 1/2 + ``shift``."""
    law = np.zeros((2, 2, 2, 2, 3, 3, 1))
    law[..., 2, 2, 0] = 1 / 16
    law[0, 1, :, :, 2, 2, 0] = np.outer([0.5 + shift, 0.5 - shift], [0.5, 0.5]) / 4
    return law


def test_signaling_test_detects_a_shift_of_two_tenths():
    tables = 10_000
    passed = _verdicts(_signaling_law(0.2), tables, SEED + 1, {"s": check_signaling})["s"]
    assert passed.count(False) >= 0.99 * tables
