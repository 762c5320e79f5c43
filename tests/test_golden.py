"""Golden bytes: report.json and runs.csv of fixed campaigns.

Each (scenario, model, seed, options, trials) campaign must write the bytes
of its reference report, ``golden/<id>.report.json``, and a runs.csv of the
sha256 in ``GOLDEN``, so a refactor that changes no behaviour leaves every
output byte as it is.  ``GOLDEN`` also pins each reference file's sha256.
On a report mismatch the test names each JSON path that differs, with its
old and new values.  A deliberate change to a reference file or a digest is
listed in CHANGES.md, path by path, with the old and new digests.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from ewfs.harness import CampaignConfig, config_from_dict, run_campaign
from ewfs.models import TOY_OPTIMAL_CHSH, LhvOptions
from ewfs.scenario import default_scenario

TRIALS = 3_000
SKEWED_WEIGHTS = LhvOptions(weights=tuple((i + 1) / 136 for i in range(16)))
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

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

# id -> (sha256 of golden/<id>.report.json, sha256 of runs.csv)
GOLDEN = {
    "ewfs-unitary-qm": (
        "41fa1fd7c640ddab9f11a91f60dc5d6bf921faaf467a83bbbd43378da2afbdd1",
        "a5ee745dace64cf157c39186cf84f397168de81d31af93f50558f2bc92b73883",
    ),
    "ewfs-collapse": (
        "3fb683159cd1c0b994ec83c30b011bb74f7985c5891475d217d9514d54823516",
        "696e1e29cfeb7299d8e60a29de6d93a2ab76c309069a0fd49745199916cca65e",
    ),
    "ewfs-toy-theta": (
        "a2e1378277bf909edee9860fd19ed17a68d9596afcb554aeebd64db81ee6ab35",
        "d66e7656ffb24c9fd73cb62e47909f93511138168c8de8a8387bc3c327226cd2",
    ),
    "ewfs-lhv": (
        "fb808ec24f9ae7f06c8d8b56509945d9e487c2fd7de7ef47c00353f0f5b91917",
        "b8aeea4d2c0032baa6270f309b3847bd331d8e2b980b12a6ad4dd98db5be1766",
    ),
    "bell-collapse": (
        "77fc6797deb2faf6089f2a2f9fcabef9572430044342d18693d26ddb9fc77bc9",
        "de7e2e7f78a86b5bf5bcfdfe9732d4ebece259e1a988a89f0a75b2985ea852f0",
    ),
    "bell-toy-theta": (
        "05c07fa7bf7eae017abc228df44885c71e31d8c652802f7738cb33f986f46add",
        "763f84102b920cc9f23a9f3e00a9e36b87b4272e464a288df3568d40af3da1e0",
    ),
    "bell-lhv": (
        "5eb3900bf56dd97a7cfc9633daa8cd8c29a5ef90c98cc923140400ddd3341e52",
        "ba6b7688e6a93b8941ae2325a1d775deb235cf5e28df504a0e79f098323c6ec9",
    ),
    "ewfs-toy-theta-optimal": (
        "52bf858d74b9ca0b1bee6a0ea1ddfe57648b6c855f366cd1cfa58a8e38532ee1",
        "0e2ae5e28e7a5244ff28d067bcb1a02cdb827ef84cac9e51f8b38b05d516ca1f",
    ),
    "ewfs-lhv-skewed": (
        "12839be25b063ba8c2c84f3d228999c58bf0f61ef136d36b08e75641d2e16a9b",
        "11bd559728365ad6bba3795aead97b25821dcf586aded1b42ebdf942bc6e0923",
    ),
}


def reference(name) -> bytes:
    """The reference report.json of campaign ``name``."""
    return (GOLDEN_DIR / f"{name}.report.json").read_bytes()


def _outputs(name, out_dir) -> tuple[bytes, str]:
    """The report.json bytes and the runs.csv sha256 of campaign ``name``."""
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
    csv = hashlib.sha256((out_dir / "runs.csv").read_bytes()).hexdigest()
    return (out_dir / "report.json").read_bytes(), csv


def _leaves(value, path="$") -> dict:
    """Each leaf of a JSON value by its path, an empty object or list a leaf."""
    if isinstance(value, dict) and value:
        items = [(f"{path}.{key}", item) for key, item in value.items()]
    elif isinstance(value, list) and value:
        items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    else:
        return {path: value}
    return {leaf: v for sub, item in items for leaf, v in _leaves(item, sub).items()}


def report_diff(old: bytes, new: bytes) -> str:
    """The JSON paths where report ``new`` differs from ``old``, one a line
    with the old and new values, or a note that only the bytes differ."""
    old_leaves, new_leaves = (_leaves(json.loads(text)) for text in (old, new))

    def show(leaves, path):
        return repr(leaves[path]) if path in leaves else "(absent)"

    lines = []
    for path in sorted(old_leaves.keys() | new_leaves.keys()):
        before, after = show(old_leaves, path), show(new_leaves, path)
        if before != after:
            lines.append(f"{path}: {before} -> {after}")
    return "\n".join(lines) or "same JSON values, different bytes"


def _strict(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_outputs_match_golden_digests(name, tmp_path):
    expected = reference(name)
    assert hashlib.sha256(expected).hexdigest() == GOLDEN[name][0]
    report, csv = _outputs(name, tmp_path)
    assert report == expected, f"{name} report.json differs at\n{report_diff(expected, report)}"
    assert csv == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_golden_reports_are_strict_json(name):
    # no NaN or Infinity, which RFC 8259 does not have
    json.loads(reference(name), parse_constant=_strict)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_config_echo_runs_the_campaign_again(name, tmp_path):
    # the echo is a --compare entry: it rebuilds the campaign, which writes
    # the same report.json
    text = reference(name)
    config = config_from_dict(json.loads(text)["config_echo"])
    run_campaign(replace(config, out_dir=tmp_path, formats=("json",)))
    report = (tmp_path / "report.json").read_bytes()
    assert report == text, report_diff(text, report)


def test_report_diff_names_each_changed_path():
    old = b'{"a": {"b": 1, "c": [1, 2]}, "d": Infinity}'
    new = b'{"a": {"b": 2, "c": [1]}, "e": null}'
    assert report_diff(old, new).splitlines() == [
        "$.a.b: 1 -> 2",
        "$.a.c[1]: 2 -> (absent)",
        "$.d: inf -> (absent)",
        "$.e: (absent) -> None",
    ]
    assert report_diff(b'{"a": 1}', b'{"a":1}') == "same JSON values, different bytes"
