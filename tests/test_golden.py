"""Golden bytes: sha256 of report.json and runs.csv for fixed campaigns.

Each digest pins every output byte of one (scenario, model, seed, options,
trials) campaign, so a refactor that changes no behaviour must leave all of
them as they are.  The digests were recorded once and are not to be edited.
"""

import hashlib

import pytest

from ewfs.harness import CampaignConfig, run_campaign
from ewfs.models import TOY_OPTIMAL_CHSH, LhvOptions
from ewfs.scenario import default_scenario

TRIALS = 3_000
SKEWED_WEIGHTS = LhvOptions(weights=tuple((i + 1) / 136 for i in range(16)))

# id -> (scenario kind, model, model options)
CAMPAIGNS = {
    "ewfs-unitary-qm": ("ewfs", "unitary-qm", None),
    "ewfs-collapse": ("ewfs", "collapse", None),
    "ewfs-toy-theta": ("ewfs", "toy-theta", None),
    "ewfs-lhv": ("ewfs", "lhv", None),
    "bell-collapse": ("bell", "collapse", None),
    "bell-toy-theta": ("bell", "toy-theta", None),
    "bell-lhv": ("bell", "lhv", None),
    "ewfs-toy-theta-optimal": ("ewfs", "toy-theta", TOY_OPTIMAL_CHSH),
    "ewfs-lhv-skewed": ("ewfs", "lhv", SKEWED_WEIGHTS),
}

# id -> (sha256 of report.json, sha256 of runs.csv)
GOLDEN = {
    "ewfs-unitary-qm": (
        "16b5347243163822653188e9619e074ad7003bd2a01516de1f58fc4654c15cf7",
        "a5ee745dace64cf157c39186cf84f397168de81d31af93f50558f2bc92b73883",
    ),
    "ewfs-collapse": (
        "561aa434f338e1f7655bfdd2d9eb632766bfab5c440dfab9a3dcb6aa2d28e99f",
        "696e1e29cfeb7299d8e60a29de6d93a2ab76c309069a0fd49745199916cca65e",
    ),
    "ewfs-toy-theta": (
        "7ae5d2c62cd8fc6aa125ca1a23b7cab7e68aa6474f5a632a90907d896845e983",
        "d66e7656ffb24c9fd73cb62e47909f93511138168c8de8a8387bc3c327226cd2",
    ),
    "ewfs-lhv": (
        "10cf23ef235fdc116e3c7a005bbcc9abae1de44e237f6336a3f0781ce6e2883f",
        "b8aeea4d2c0032baa6270f309b3847bd331d8e2b980b12a6ad4dd98db5be1766",
    ),
    "bell-collapse": (
        "bfb5243ae3c05cade42ab8ea35619e2584602782e0077adc170d867d8f86c941",
        "de7e2e7f78a86b5bf5bcfdfe9732d4ebece259e1a988a89f0a75b2985ea852f0",
    ),
    "bell-toy-theta": (
        "dc510059dcc867fbbcdd0e93445ddca2fd63b09d2dcdaf25237e451c128f9689",
        "763f84102b920cc9f23a9f3e00a9e36b87b4272e464a288df3568d40af3da1e0",
    ),
    "bell-lhv": (
        "0a997b371485852d398b49c67fb1c7dcb0dbcc15c6328b948ca7bdb8539424fb",
        "ba6b7688e6a93b8941ae2325a1d775deb235cf5e28df504a0e79f098323c6ec9",
    ),
    "ewfs-toy-theta-optimal": (
        "b5685f93a8d797abb907575d58ff9ba5e9ab3a6fc5852672367dabec75698add",
        "0e2ae5e28e7a5244ff28d067bcb1a02cdb827ef84cac9e51f8b38b05d516ca1f",
    ),
    "ewfs-lhv-skewed": (
        "dc80881dbef7d5416d07a597659b6daab3c17ef608d6939377d99cb1b893ef78",
        "11bd559728365ad6bba3795aead97b25821dcf586aded1b42ebdf942bc6e0923",
    ),
}


def _digests(name, out_dir):
    kind, model, options = CAMPAIGNS[name]
    run_campaign(
        CampaignConfig(
            scenario=default_scenario(kind, TRIALS),
            model=model,
            seed=0,
            check_assumptions=True,
            model_options=options,
            out_dir=out_dir,
            formats=("json", "csv"),
        )
    )
    return tuple(
        hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
        for f in ("report.json", "runs.csv")
    )


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert _digests(name, tmp_path) == GOLDEN[name]
