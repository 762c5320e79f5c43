"""What the benchmark in ``perfbench/`` relies on in the package.

``perfbench/tracer.py`` times layers by replacing module attributes with
wrappers, and ``perfbench/run.py`` audits the derivation chain of each traced
campaign's run log.  A refactor that renames one of those attributes, calls
it around the module lookup, or changes what ``report.json`` holds under
tracing breaks ``perfbench/run.py --trace 1``; these tests catch it first.
"""

import importlib.util
from pathlib import Path

import pytest

from ewfs import harness, inequality, scenario
from ewfs.models import MODEL_LHV, MODEL_TOY, RunLog
from ewfs.scenario import BRUKNER_EWFS, default_scenario

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(tracer_module):
    for owner, attr, _, _ in tracer_module.TARGETS:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"


def _campaign(model, out_dir):
    return harness.CampaignConfig(
        scenario=default_scenario(BRUKNER_EWFS, 3_000),
        model=model,
        seed=0,
        out_dir=out_dir,
        formats=("json",),
    )


@pytest.mark.parametrize("model", [MODEL_LHV, MODEL_TOY])
def test_traced_campaign_writes_the_untraced_report(tracer_module, tmp_path, model):
    harness.run_campaign(_campaign(model, tmp_path / "untraced"))
    scenario._settings_block.clear()  # the traced campaign draws its settings
    tracer = tracer_module.Tracer()
    tracer.campaign = 1
    tracer.install()
    try:
        result = tracer.call(
            tracer_module.ROOT, harness.run_campaign, _campaign(model, tmp_path / "traced")
        )
    finally:
        tracer.uninstall()
    untraced, traced = (
        (tmp_path / d / "report.json").read_bytes() for d in ("untraced", "traced")
    )
    assert traced == untraced
    names = [span[0] for span in tracer.spans]
    # one count table per campaign feeds the CHSH evaluation and every check
    assert names.count("inequality.tabulate") == 1
    for name in (
        "inequality.evaluate", "assumptions.check_all", "assumptions.check_aoe",
        "assumptions.check_nsd", "assumptions.check_locality",
        "assumptions.check_settings_independence", "models.run_trials",
    ):
        assert names.count(name) == 1, name
    assert tracer.counts["inequality.lp_attempts"] == 1
    # the whole-block settings draw is timed as settings sampling
    draw = next(span for span in tracer.spans if span[0] == "streams.uniform_block")
    assert tracer.spans[draw[3]][0] == "scenario.sample_settings_block"

    assert isinstance(result.log, RunLog) and len(result.log) == 3_000
    chain = inequality.verify_derivation_chain(result.log)
    assert chain.all_hold == (model == MODEL_LHV)  # toy-theta breaks AOE
