import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import synthetic_log
from ewfs import harness, inequality
from ewfs.harness import (
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_USAGE,
    CampaignConfig,
    compare_models,
    config_from_dict,
    format_comparison,
    main,
    parse_angle,
    parse_settings_spec,
    run_campaign,
)
from ewfs.models import (
    MODEL_COLLAPSE,
    MODEL_LHV,
    MODEL_NAMES,
    MODEL_TOY,
    LhvOptions,
    ToyOptions,
    run_trials,
)
from ewfs.scenario import BRUKNER_EWFS, STANDARD_BELL, ScenarioSpec, default_scenario

NON_FINITE = ("nan", "inf", "-inf")


# --- parsing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "token,expected",
    [
        ("pi/4", math.pi / 4),
        ("3pi/4", 3 * math.pi / 4),
        ("-pi/2", -math.pi / 2),
        ("2pi", 2 * math.pi),
        ("pi", math.pi),
        ("0.75", 0.75),
        ("1.5pi/3", 1.5 * math.pi / 3),
    ],
)
def test_parse_angle(token, expected):
    assert parse_angle(token) == pytest.approx(expected)


@pytest.mark.parametrize("token", NON_FINITE + ("1e400", "NaN", "pi/0", "-3pi/0"))
def test_parse_angle_rejects_non_finite(token):
    with pytest.raises(ValueError):
        parse_angle(token)


def test_parse_settings_spec():
    alice, bob = parse_settings_spec("0,pi/2:pi/4,3pi/4")
    assert alice == pytest.approx((0.0, math.pi / 2))
    assert bob == pytest.approx((math.pi / 4, 3 * math.pi / 4))
    with pytest.raises(ValueError):
        parse_settings_spec("0,1")
    with pytest.raises(ValueError):
        parse_settings_spec("0:1,2")
    with pytest.raises(ValueError):
        parse_settings_spec("0,1,2:0,1")


def test_config_from_dict_builds_options():
    toy = config_from_dict(
        {
            "scenario": "ewfs",
            "model": "toy-theta",
            "trials": 500,
            "model_options": {"bob_angles": [0.0, 1.0], "theta_after_minus": 1.5},
            "label": "t",
        }
    )
    assert isinstance(toy.model_options, ToyOptions)
    assert toy.model_options.bob_angles == (0.0, 1.0)
    assert toy.model_options.theta_after_minus == 1.5
    lhv = config_from_dict(
        {
            "scenario": "bell",
            "model": "lhv",
            "model_options": {"weights": [1.0 / 16] * 16},
        }
    )
    assert isinstance(lhv.model_options, LhvOptions)
    with pytest.raises(ValueError):
        config_from_dict(
            {"scenario": "bell", "model": "collapse", "model_options": {"x": 1}}
        )


# --- campaign execution and report schema ----------------------------------


def test_numpy_numbers_write_the_bytes_of_python_numbers(tmp_path):
    # A numpy int toy angle used to stop json.dump half way through
    # report.json, and a numpy int bell setting was refused.
    ewfs = default_scenario(BRUKNER_EWFS, 500)
    for name, number in (("py", int), ("np", np.int64)):
        bell = ScenarioSpec(STANDARD_BELL, (number(0), 1.5), (0.25, number(2)), 500)
        toy = ToyOptions(alice_angles=(number(0), 1.5), theta_after_plus=number(1))
        run_campaign(CampaignConfig(bell, MODEL_COLLAPSE, out_dir=tmp_path / name / "bell"))
        run_campaign(
            CampaignConfig(ewfs, MODEL_TOY, model_options=toy, out_dir=tmp_path / name / "toy")
        )
    written = sorted((tmp_path / "py").rglob("*.*"))
    assert len(written) == 4
    for path in written:
        twin = tmp_path / "np" / path.relative_to(tmp_path / "py")
        assert twin.read_bytes() == path.read_bytes(), path.name


def test_run_campaign_writes_report_and_csv(tmp_path):
    config = CampaignConfig(
        scenario=default_scenario(BRUKNER_EWFS, 2_000),
        model=MODEL_LHV,
        seed=5,
        out_dir=tmp_path,
    )
    result = run_campaign(config)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report == result.report
    assert report["config_echo"]["seed"] == 5
    assert report["config_echo"]["scenario"]["kind"] == "ewfs"
    assert set(report["per_setting_counts"]) == {"x1y1", "x1y2", "x2y1", "x2y2"}
    assert sum(report["per_setting_counts"].values()) == 2_000
    for cell in report["expectations"].values():
        assert {"E", "SE", "n"} <= set(cell)
    assert report["verdict"] == "satisfied"
    assert report["certificate"]["member"] is True
    assert report["assumptions"]["aoe_ii"]["passed"] is True

    with (tmp_path / "runs.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["trial", "X", "Y", "A", "B", "C", "D", "lambda_tag"]
    assert len(rows) == 2_001
    log = result.log
    assert rows[1][:5] == [str(v) for v in (0, log.x[0], log.y[0], log.a[0], log.b[0])]


def _csv_rows(tmp_path, model, trials):
    config = CampaignConfig(
        scenario=default_scenario(BRUKNER_EWFS, trials),
        model=model,
        out_dir=tmp_path,
        check_assumptions=False,
    )
    result = run_campaign(config)
    with (tmp_path / "runs.csv").open() as handle:
        return result.log, list(csv.reader(handle))[1:]


def test_csv_leaves_undefined_outcomes_blank(tmp_path):
    log, rows = _csv_rows(tmp_path, "unitary-qm", 300)
    for i, row in enumerate(rows):
        assert row[0] == str(i)
        assert (row[5] == "") == (log.x[i] == 2)
        assert (row[6] == "") == (log.y[i] == 2)
        assert row[7] == ""


def test_csv_integer_lambda_tag(tmp_path):
    log, rows = _csv_rows(tmp_path, MODEL_LHV, 200)
    assert [row[7] for row in rows] == [f"strategy={v}" for v in log.lam["strategy"]]


@pytest.mark.parametrize("model", ["unitary-qm", MODEL_LHV, MODEL_TOY])
def test_csv_bytes_do_not_depend_on_the_write_block(tmp_path, monkeypatch, model):
    _csv_rows(tmp_path / "one", model, 1_000)
    monkeypatch.setattr(harness, "CSV_BLOCK", 7)
    _csv_rows(tmp_path / "many", model, 1_000)
    one, many = ((tmp_path / d / "runs.csv").read_bytes() for d in ("one", "many"))
    assert one == many


def _csv_writer_reference(log):
    """Reference: runs.csv as csv.writer writes it, one row at a time."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["trial", "X", "Y", "A", "B", "C", "D", "lambda_tag"])
    friend = {0: "", 1: 1, -1: -1}
    tags = _per_row_tags(log.lam, 0, len(log))
    for i, tag in enumerate(tags):
        x, y, a, b, c, d = (int(getattr(log, n)[i]) for n in "xyabcd")
        writer.writerow([log.first_trial + i, x, y, a, b, friend[c], friend[d], tag])
    return out.getvalue().encode()


@pytest.mark.parametrize("lam", [None, {"strategy": np.arange(144) % 16}])
def test_csv_rows_match_a_csv_writer_reference(tmp_path, lam):
    # Every (x, y, a, b, c, d) cell, including ones no model produces,
    # such as C blank with D set at X = 1.
    cells = list(itertools.product((1, 2), (1, 2), (1, -1), (1, -1), (1, -1, 0), (1, -1, 0)))
    log = synthetic_log(*zip(*cells), lam=lam)
    log.first_trial = 5
    harness._write_csv(tmp_path / "runs.csv", log)
    assert (tmp_path / "runs.csv").read_bytes() == _csv_writer_reference(log)


# Float lambda values whose %.17g text is easy to get wrong: signed zeros,
# exponent forms, the smallest subnormal and a full 17-digit mantissa.
_AWKWARD_FLOATS = np.array([0.0, -0.0, 1e-5, 1e16, 5e-324, math.pi])


@pytest.mark.parametrize(
    "lam",
    [
        None,
        {"strategy": (np.arange(144) % 16).astype(np.int16)},
        {
            "theta": np.resize(_AWKWARD_FLOATS, 144),
            "post": np.resize(_AWKWARD_FLOATS[::-1], 144),
        },
    ],
    ids=["none", "int16", "float"],
)
@pytest.mark.parametrize("first_trial", [5, 9_990, 99_950, 999_930])
@pytest.mark.parametrize("block", [7, None], ids=["block7", "default"])
def test_csv_rows_match_the_reference_across_digit_counts(
    tmp_path, monkeypatch, lam, first_trial, block
):
    # All 144 cells from each first trial: the rows cross from 4 to 5, 5 to
    # 6 and 6 to 7 digits, inside one default block or across 7-row blocks.
    if block is not None:
        monkeypatch.setattr(harness, "CSV_BLOCK", block)
    cells = list(itertools.product((1, 2), (1, 2), (1, -1), (1, -1), (1, -1, 0), (1, -1, 0)))
    log = synthetic_log(*zip(*cells), lam=lam)
    log.first_trial = first_trial
    harness._write_csv(tmp_path / "runs.csv", log)
    assert (tmp_path / "runs.csv").read_bytes() == _csv_writer_reference(log)


@pytest.mark.parametrize(
    "model,options",
    [
        ("unitary-qm", None),
        (MODEL_LHV, None),
        (MODEL_TOY, ToyOptions(bob_angles=(math.pi / 4, 3 * math.pi / 4))),
    ],
)
def test_csv_at_the_benchmark_sizes_matches_the_reference(tmp_path, model, options):
    # 10,905 trials: more than one default block, and rows numbered from
    # 10,000 on, which the 3,000-trial golden campaigns never write.
    trials = 10_905
    config = CampaignConfig(
        scenario=default_scenario(BRUKNER_EWFS, trials),
        model=model,
        model_options=options,
        out_dir=tmp_path,
        formats=("csv",),
        check_assumptions=False,
    )
    result = run_campaign(config)
    written = (tmp_path / "runs.csv").read_bytes()
    assert written.count(b"\n") == trials + 1
    assert written == _csv_writer_reference(result.log)


def _per_row_tags(lam, lo, hi):
    """Reference: format every row's lambda values one by one."""
    columns = []
    for key in sorted(lam):
        values = lam[key][lo:hi]
        fmt = "{}={:.17g}" if values.dtype.kind == "f" else "{}={}"
        columns.append([fmt.format(key, v) for v in values.tolist()])
    if not columns:
        return [""] * (hi - lo)
    return [";".join(parts) for parts in zip(*columns)]


@pytest.mark.parametrize(
    "model,options",
    [
        (MODEL_TOY, None),
        (MODEL_TOY, ToyOptions(theta_after_plus=-0.0, theta_after_minus=0.0)),
        (MODEL_LHV, None),
        (MODEL_COLLAPSE, None),
    ],
)
def test_lambda_tags_match_per_row_formatting(tmp_path, monkeypatch, model, options):
    log = run_trials(default_scenario(BRUKNER_EWFS, 3_000), model, seed=3, options=options)
    monkeypatch.setattr(harness, "CSV_BLOCK", 1_234)
    harness._write_csv(tmp_path / "runs.csv", log)
    rows = (tmp_path / "runs.csv").read_bytes().decode().split("\r\n")[1:-1]
    tags = [row.split(",", 7)[7] for row in rows]
    assert tags == _per_row_tags(log.lam, 0, 3_000)
    if options is not None:
        posts = {part for tag in tags for part in tag.split(";")[1::2]}
        assert posts <= {"theta1_post=-0", "theta1_post=0", "theta2_post=-0", "theta2_post=0"}
        assert "theta1_post=-0" in posts


def test_mismatched_options_are_rejected_before_any_output(tmp_path):
    for model, options in ((MODEL_LHV, ToyOptions()), (MODEL_COLLAPSE, object())):
        with pytest.raises(ValueError, match="takes"):
            run_campaign(CampaignConfig(
                default_scenario(BRUKNER_EWFS, 100), model, model_options=options,
                out_dir=tmp_path,
            ))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_k_must_be_finite_and_positive(k):
    with pytest.raises(ValueError, match="k must be"):
        CampaignConfig(default_scenario(BRUKNER_EWFS, 100), MODEL_LHV, k=k)


def test_a_campaign_computes_correlators_and_facets_once(tmp_path, monkeypatch):
    # report.json reads the correlators that evaluate kept, not a second pass
    calls = {}
    for name in ("expectations", "chsh_values"):
        def counted(*args, _name=name, _fn=getattr(inequality, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(inequality, name, counted)
    config = CampaignConfig(
        scenario=default_scenario(BRUKNER_EWFS, 2_000), model=MODEL_LHV, out_dir=tmp_path
    )
    result = run_campaign(config)
    assert calls == {"expectations": 1, "chsh_values": 1}
    e = result.report["expectations"]["x2y1"]
    assert e["E"] == result.inequality.correlators[1, 0]
    assert e["n"] == result.report["per_setting_counts"]["x2y1"]


def test_format_selection(tmp_path):
    config = CampaignConfig(
        scenario=default_scenario(BRUKNER_EWFS, 200),
        model=MODEL_LHV,
        out_dir=tmp_path,
        formats=("json",),
        check_assumptions=False,
    )
    run_campaign(config)
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "runs.csv").exists()


def test_compare_models_rows_and_formatting():
    base = dict(scenario=default_scenario(BRUKNER_EWFS, 3_000))
    rows = compare_models(
        [
            CampaignConfig(model=MODEL_LHV, label="local", **base),
            CampaignConfig(model=MODEL_COLLAPSE, label="objective", **base),
        ]
    )
    assert [r["label"] for r in rows] == ["local", "objective"]
    assert all("aoe_ii" in r for r in rows)
    text = format_comparison(rows)
    assert "local" in text and "S_max" in text
    with pytest.raises(ValueError):
        compare_models([CampaignConfig(model=MODEL_LHV, **base)])


# --- CLI -------------------------------------------------------------------


def test_cli_basic_run(tmp_path, capsys):
    code = main(
        [
            "--scenario", "ewfs", "--model", "lhv", "--trials", "1000",
            "--seed", "1", "--out", str(tmp_path), "--check-assumptions",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "S_max" in out and "assumptions:" in out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize(
    "argv,campaign",
    [
        (
            ["--scenario", "bell", "--model", "collapse", "--settings", "0,pi/2:pi/4,-1"],
            {"scenario": "bell", "model": "collapse",
             "alice_settings": [0.0, math.pi / 2], "bob_settings": [math.pi / 4, -1.0]},
        ),
        (
            ["--scenario", "ewfs", "--model", "toy-theta", "--settings", "0,1:2,3"],
            {"scenario": "ewfs", "model": "toy-theta",
             "model_options": {"alice_angles": [0.0, 1.0], "bob_angles": [2.0, 3.0]}},
        ),
        (["--scenario", "ewfs", "--model", "lhv"], {"scenario": "ewfs", "model": "lhv"}),
    ],
)
def test_cli_flags_build_the_config_of_the_same_compare_entry(argv, campaign, tmp_path):
    argv = argv + ["--trials", "700", "--seed", "4", "--out", str(tmp_path)]
    config = harness._single_config(harness._build_parser().parse_args(argv))
    expected = config_from_dict(
        {**campaign, "trials": 700, "seed": 4, "check_assumptions": False}
    )
    expected.out_dir = tmp_path
    assert config == expected


def test_cli_trials_and_seed_default_in_config_from_dict():
    argv = ["--scenario", "ewfs", "--model", "lhv"]
    config = harness._single_config(harness._build_parser().parse_args(argv))
    expected = config_from_dict({"scenario": "ewfs", "model": "lhv", "check_assumptions": False})
    assert config == expected
    assert (config.scenario.trials, config.seed) == (10_000, 0)


def test_cli_settings_flag_for_bell(tmp_path, capsys):
    code = main(
        [
            "--scenario", "bell", "--model", "collapse", "--trials", "500",
            "--settings", "0,pi/2:pi/4,3pi/4",
        ]
    )
    assert code == EXIT_OK
    assert "scenario=bell" in capsys.readouterr().out


def _usage_error(argv, capsys) -> str:
    """Run the CLI expecting exit 2; return its one-line stderr message."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    compare = str(_lhv_and_collapse_file(tmp_path))
    for argv in (
        ["--scenario", "ewfs"],  # missing --model
        ["--scenario", "ewfs", "--model", "nope"],
        ["--trials", "many"],
        ["--no-such-flag"],
        # --settings is meaningless for a non-toy EWFS model
        ["--scenario", "ewfs", "--model", "collapse", "--settings", "0,1:0,1"],
        # an empty spec is a bad spec, not an absent one
        ["--scenario", "ewfs", "--model", "toy-theta", "--settings="],
        # --format picks files under --out; alone it would write nothing
        ["--scenario", "ewfs", "--model", "lhv", "--format", "csv"],
        ["--compare", compare, "--format", "json"],
    ):
        assert _usage_error(argv, capsys).count("\n") == 1


def test_cli_unsupported_pair_exits_2(capsys):
    err = _usage_error(["--scenario", "bell", "--model", "unitary-qm"], capsys)
    assert err.count("\n") == 1 and "unitary-qm" in err


@pytest.mark.parametrize(
    "scenario,model", [("bell", MODEL_COLLAPSE), ("bell", MODEL_TOY), ("ewfs", MODEL_TOY)]
)
def test_cli_three_settings_exit_2(scenario, model, capsys):
    argv = ["--scenario", scenario, "--model", model, "--settings", "0,1,2:0,1"]
    assert _usage_error(argv, capsys).count("\n") == 1


@pytest.mark.parametrize("token", NON_FINITE)
def test_cli_non_finite_angles_exit_2(token, capsys):
    for scenario, model in (("bell", MODEL_COLLAPSE), ("ewfs", MODEL_TOY)):
        argv = [
            "--scenario", scenario, "--model", model, "--trials", "2000",
            f"--settings={token},0:0,1",
        ]
        assert "not finite" in _usage_error(argv, capsys)


def test_cli_unwritable_output_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(
        [
            "--scenario", "ewfs", "--model", "lhv", "--trials", "100",
            "--out", str(blocker / "sub"),
        ]
    )
    assert code == EXIT_OUTPUT
    assert "cannot write" in capsys.readouterr().err


def test_cli_compare_bad_file_exits_2(tmp_path, capsys):
    _usage_error(["--compare", str(tmp_path / "missing.json")], capsys)
    for text in ("[{", '{"scenario": "ewfs"}', "[1, 2]", '[{"model": "lhv"}]'):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert _usage_error(["--compare", str(path)], capsys).count("\n") == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cli_compare_non_finite_inputs_exit_2(tmp_path, capsys, bad):
    # Python's json module reads and writes NaN and +/-Infinity literals.
    good = {"scenario": "ewfs", "model": "lhv"}
    path = tmp_path / "campaigns.json"
    for campaign in (
        {"scenario": "bell", "model": "collapse", "alice_settings": [bad, 0.0],
         "bob_settings": [0.0, 1.0]},
        {"scenario": "ewfs", "model": "toy-theta",
         "model_options": {"bob_angles": [bad, 1.0]}},
        {"scenario": "ewfs", "model": "lhv",
         "model_options": {"weights": [bad] + [1 / 15] * 15}},
    ):
        path.write_text(json.dumps([good, campaign]))
        assert "finite" in _usage_error(["--compare", str(path)], capsys)


@pytest.mark.parametrize("key", ["trials", "seed"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cli_compare_non_finite_integers_exit_2(tmp_path, capsys, key, bad):
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps(
        [{"scenario": "ewfs", "model": "lhv", key: bad}, {"scenario": "ewfs", "model": "lhv"}]
    ))
    assert "convert" in _usage_error(["--compare", str(path)], capsys)


@pytest.mark.parametrize(
    "key,bad",
    [
        ("trials", 1500.7),
        ("trials", True),
        ("trials", "1500"),
        ("seed", 2.9),
        ("seed", False),
        ("k", True),
        ("k", "3"),
        ("check_assumptions", "false"),
        ("check_assumptions", 0),
        ("label", 5),
        ("model_options", 0),
        ("model_options", False),
        ("model_options", []),
        ("model_options", ""),
        ("model_options", [1]),
        ("model_options", "ab"),
    ],
)
def test_cli_compare_wrong_types_exit_2(tmp_path, capsys, key, bad):
    # These used to be coerced: 1500.7 trials ran 1,500 and "false" turned
    # the assumption checks on.
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps(
        [{"scenario": "ewfs", "model": "lhv", key: bad}, {"scenario": "ewfs", "model": "lhv"}]
    ))
    err = _usage_error(["--compare", str(path)], capsys)
    assert err.count("\n") == 1 and key in err


@pytest.mark.parametrize(
    "campaign,word",
    [
        (
            {"scenario": "bell", "model": "collapse",
             "alice_settings": [True, False], "bob_settings": [0.5, 1.0]},
            "bell settings",
        ),
        (
            {"scenario": "ewfs", "model": "toy-theta",
             "model_options": {"alice_angles": [False, True]}},
            "toy-theta angles",
        ),
        (
            {"scenario": "ewfs", "model": "lhv", "model_options": {"weights": ["0.0625"] * 16}},
            "strategy weights",
        ),
        (
            {"scenario": "ewfs", "model": "lhv", "model_options": {"weights": "1" + "0" * 15}},
            "strategy weights",
        ),
    ],
)
def test_cli_compare_non_numbers_exit_2(tmp_path, capsys, campaign, word):
    # These used to run: booleans as angles 1 and 0, numeric strings as
    # weights, and a 16-digit string as one weight per character.
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps([campaign, {"scenario": "ewfs", "model": "lhv"}]))
    err = _usage_error(["--compare", str(path)], capsys)
    assert err.count("\n") == 1 and word in err


def test_cli_compare_large_k_exits_0(tmp_path, capsys):
    campaigns = [
        {"scenario": "ewfs", "model": "lhv", "trials": 2000, "k": 10},
        {"scenario": "ewfs", "model": "unitary-qm", "trials": 2000, "k": 10},
        {"scenario": "ewfs", "model": "collapse", "trials": 2000, "k": 38},
    ]
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps(campaigns))
    assert main(["--compare", str(path)]) == EXIT_OK


@pytest.mark.parametrize("k", [math.nan, math.inf, 0, -1, 38.5, 40])
def test_cli_compare_bad_k_exits_2(tmp_path, capsys, k):
    # A NaN k used to report unitary-qm at S_max 2.8 as "satisfied".
    campaigns = [
        {"scenario": "ewfs", "model": "unitary-qm", "trials": 2000, "k": k},
        {"scenario": "ewfs", "model": "lhv", "trials": 2000},
    ]
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps(campaigns))
    assert "k must be" in _usage_error(["--compare", str(path)], capsys)


@pytest.mark.parametrize(
    "campaign,key",
    [
        ({"scenario": "ewfs", "model": "lhv", "trails": 500}, "trails"),
        (
            {"scenario": "ewfs", "model": "toy-theta", "model_options": {"theta_after": 1}},
            "theta_after",
        ),
        (
            {"scenario": "ewfs", "model": "lhv", "model_options": {"weight": [1 / 16] * 16}},
            "weight",
        ),
    ],
)
def test_cli_compare_unknown_keys_exit_2(tmp_path, capsys, campaign, key):
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps([{"scenario": "ewfs", "model": "lhv"}, campaign]))
    assert key in _usage_error(["--compare", str(path)], capsys)


@pytest.mark.parametrize(
    "labels",
    [
        [None, None],  # two unlabelled lhv campaigns would share out/lhv
        ["lhv", None],
        ["same", "same"],
        ["../escaped", "b"],
        ["a/b", "c"],
        ["a\\b", "c"],
        ["", "c"],
        [".", "c"],
        ["..", "c"],
    ],
)
def test_cli_compare_output_directories_are_checked_first(tmp_path, capsys, labels):
    campaigns = [{"scenario": "ewfs", "model": "lhv", "trials": 500} for _ in labels]
    for campaign, label in zip(campaigns, labels):
        if label is not None:
            campaign["label"] = label
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps(campaigns))
    out = tmp_path / "out" / "deep"
    assert _usage_error(["--compare", str(path), "--out", str(out)], capsys).count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_compare_writes_one_directory_per_campaign(tmp_path, capsys):
    campaigns = [
        {"scenario": "ewfs", "model": "lhv", "trials": 500},
        {"scenario": "ewfs", "model": "lhv", "trials": 500, "label": "again"},
        {"scenario": "ewfs", "model": "collapse", "trials": 500},
    ]
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps(campaigns))
    assert main(["--compare", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    written = sorted(p.parent.name for p in (tmp_path / "out").glob("*/report.json"))
    assert written == ["again", "collapse", "lhv"]


def test_cli_compare_checks_every_campaign_before_any_runs(tmp_path, capsys):
    # the second campaign's (scenario, model) pair is unsupported: nothing
    # may be written for the first
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps([
        {"scenario": "ewfs", "model": "lhv", "trials": 2000, "label": "a"},
        {"scenario": "bell", "model": "unitary-qm", "trials": 2000, "label": "b"},
    ]))
    out = tmp_path / "out"
    err = _usage_error(["--compare", str(path), "--out", str(out)], capsys)
    assert err.count("\n") == 1 and "unitary-qm only models the EWFS arrangement" in err
    assert not out.exists()


def test_cli_compare_checks_every_setting_pair_before_any_runs(tmp_path, capsys):
    # three trials cannot fill the four setting pairs of campaign b: nothing
    # may be written for campaign a
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps([
        {"scenario": "ewfs", "model": "lhv", "trials": 2000, "label": "a"},
        {"scenario": "ewfs", "model": "lhv", "trials": 3, "label": "b"},
    ]))
    out = tmp_path / "out"
    err = _usage_error(["--compare", str(path), "--out", str(out)], capsys)
    assert err == "ewfs: error: no trials for setting pairs [(1, 1), (1, 2)]\n"
    assert not out.exists()


def test_cli_compare_unwritable_output_exits_3(tmp_path, capsys):
    campaigns = [
        {"scenario": "ewfs", "model": "lhv", "trials": 500},
        {"scenario": "ewfs", "model": "collapse", "trials": 500},
    ]
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps(campaigns))
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["--compare", str(path), "--out", str(blocker / "sub")])
    assert code == EXIT_OUTPUT
    assert "cannot write" in capsys.readouterr().err


def _lhv_and_collapse_file(tmp_path) -> Path:
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps([
        {"scenario": "ewfs", "model": "lhv", "trials": 500},
        {"scenario": "ewfs", "model": "collapse", "trials": 500},
    ]))
    return path


@pytest.mark.parametrize(
    "fmt,written",
    [("json", ["report.json"]), ("csv", ["runs.csv"]), ("both", ["report.json", "runs.csv"])],
)
def test_cli_compare_honours_format(tmp_path, capsys, fmt, written):
    path, out = _lhv_and_collapse_file(tmp_path), tmp_path / "out"
    assert main(["--compare", str(path), "--out", str(out), f"--format={fmt}"]) == EXIT_OK
    for name in ("lhv", "collapse"):
        assert sorted(p.name for p in (out / name).iterdir()) == written


@pytest.mark.parametrize(
    "flags",
    [
        ["--scenario", "ewfs"],
        ["--model", "lhv"],
        ["--trials", "500"],
        ["--trials", "0"],
        ["--seed", "0"],
        ["--settings", "0,1:0,1"],
        ["--check-assumptions"],
        ["--seed", "3", "--trials", "500", "--check-assumptions"],
    ],
)
def test_cli_compare_rejects_single_campaign_flags(tmp_path, capsys, flags):
    # each campaign of a --compare file sets its own; none may be dropped silently
    path, out = _lhv_and_collapse_file(tmp_path), tmp_path / "out"
    err = _usage_error(["--compare", str(path), *flags, "--out", str(out)], capsys)
    assert err.count("\n") == 1 and flags[0] in err
    assert not out.exists()


def test_cli_trial_count_too_large_to_allocate_exits_2(capsys):
    # 10**15 trials need petabytes, more than a 47-bit address space holds,
    # so the first allocation fails before any memory is touched.
    argv = ["--scenario", "ewfs", "--model", "lhv", f"--trials={10**15}"]
    err = _usage_error(argv, capsys)
    assert err.count("\n") == 1 and "memory" in err


def test_verdicts_render_as_pass_fail_or_dash():
    assert [harness._verdict_text(p) for p in (True, False, None)] == ["pass", "fail", "-"]


def test_cli_compare(tmp_path, capsys):
    campaigns = [
        {"scenario": "ewfs", "model": "lhv", "trials": 2000, "label": "local"},
        {"scenario": "ewfs", "model": "collapse", "trials": 2000, "label": "collapse"},
    ]
    path = tmp_path / "campaigns.json"
    path.write_text(json.dumps(campaigns))
    code = main(["--compare", str(path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "local" in out and "collapse" in out and "S_max" in out


# --- CLI fuzzing -----------------------------------------------------------

_ANGLE_TOKENS = ("0", "-0.3", "pi/4", "3pi/4", "-pi/2", "pi/0", "nan", "inf", "1e400", "x", "")
_angle_lists = st.lists(st.sampled_from(_ANGLE_TOKENS), min_size=1, max_size=3).map(",".join)
_settings_specs = st.one_of(
    st.builds("{}:{}".format, _angle_lists, _angle_lists), st.text(max_size=8)
)
_SUPPORTED = [("ewfs", model) for model in MODEL_NAMES] + [
    ("bell", model) for model in MODEL_NAMES if model != "unitary-qm"
]
# campaigns that should run, so that exits 0 and 3 are reached
_valid_campaigns = st.sampled_from(_SUPPORTED).flatmap(
    lambda pair: st.fixed_dictionaries(
        {"scenario": st.just(pair[0]), "model": st.just(pair[1]),
         "trials": st.sampled_from([400, 1_200])},
        optional={
            "seed": st.integers(-5, 5),
            "k": st.floats(0.5, 6.0),
            "label": st.text("ab.", min_size=1, max_size=3),
            "check_assumptions": st.booleans(),
        },
    )
)
_json_values = st.one_of(
    st.integers(-2, 1_500),
    st.sampled_from([math.nan, math.inf, -math.inf, 2.5, 0, -1, "x", None]),
)
_json_angles = st.lists(
    st.sampled_from(["Z", "X", 0.0, 1.0, -0.5, math.nan, math.inf, "pi", None]), max_size=3
)
_model_options = st.dictionaries(
    st.sampled_from(
        ["alice_angles", "bob_angles", "theta_after_plus", "theta_after_minus", "weights", "nope"]
    ),
    st.one_of(_json_angles, st.just([1 / 16] * 16), st.floats(), st.text(max_size=3)),
    max_size=3,
)
_wild_campaigns = st.fixed_dictionaries(
    {
        "scenario": st.sampled_from(["bell", "ewfs", "nope"]),
        "model": st.sampled_from([*MODEL_NAMES, "nope"]),
    },
    optional={
        "trials": _json_values,
        "seed": _json_values,
        "k": st.one_of(st.floats(), _json_values),
        "label": st.one_of(
            st.sampled_from(["", ".", "..", "a/b", "a\\b", "../up", "lhv"]), st.text(max_size=5)
        ),
        "alice_settings": _json_angles,
        "bob_settings": _json_angles,
        "model_options": st.one_of(st.none(), _model_options),
        "trails": st.integers(),
    },
)
_single_flags = st.fixed_dictionaries(
    {
        "--scenario": st.sampled_from(["ewfs", "bell", "ewfs", "bell", "nope", None]),
        "--model": st.sampled_from([*MODEL_NAMES, *MODEL_NAMES, "nope", None]),
        "--trials": st.sampled_from(["400", "1200", "400", "1200", "-1", "0", "3", "x"]),
        "--seed": st.sampled_from([None, "-3", "0", "7"]),
        "--settings": st.one_of(st.none(), st.none(), _settings_specs),
        "--format": st.sampled_from([None, "json", "csv", "both", "xml"]),
    }
)


@settings(max_examples=120)
@given(
    flags=_single_flags,
    campaigns=st.one_of(
        st.none(), st.lists(st.one_of(_valid_campaigns, _wild_campaigns), max_size=3)
    ),
    check=st.booleans(),
    out=st.sampled_from([None, "dir", "blocked"]),
)
def test_cli_fuzz_ends_in_a_known_exit_code(tmp_path_factory, flags, campaigns, check, out):
    """Every input ends in exit 0, 2 or 3 with at most one stderr line, no
    traceback and no RuntimeWarning."""
    root = tmp_path_factory.mktemp("fuzz")
    if campaigns is None:
        argv = [f"{flag}={value}" for flag, value in flags.items() if value is not None]
        if check:
            argv.append("--check-assumptions")
    else:
        # Single-campaign flags next to --compare exit 2 before the file is
        # read (test_cli_compare_rejects_single_campaign_flags), so only the
        # flag that --compare shares is drawn here.
        argv = [f"--format={flags['--format']}"] if flags["--format"] else []
        (root / "campaigns.json").write_text(json.dumps(campaigns))
        argv.append(f"--compare={root / 'campaigns.json'}")
    if out == "blocked":
        (root / "file").write_text("x")
    if out is not None:
        argv.append(f"--out={root / ('file' if out == 'blocked' else 'out') / 'sub'}")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    err = stderr.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_OUTPUT), (argv, campaigns, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, campaigns, err)


# --- import graph ----------------------------------------------------------


def _python(*args):
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_harness_import_leaves_scipy_stats_out():
    # No scipy module is loaded by the import; the first LP builds the HiGHS
    # model, and the second campaign's LP reuses it.
    done = _python(
        "-c",
        "import sys, ewfs.harness as h; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "'csv' in sys.modules); "
        "runs = [h.run_campaign(h.config_from_dict("
        "{'scenario': 'ewfs', 'model': m, 'trials': 3000})) for m in ('lhv', 'unitary-qm')]; "
        "print([r.inequality.polytope.cause for r in runs], "
        "h.inequality._highs_model.cache_info())",
    )
    assert done.returncode == 0, done.stderr
    imported, campaigns = done.stdout.splitlines()
    assert imported == "[] False"
    # both campaigns reach the LP (cause None or "chsh"), and one model serves them
    assert campaigns == (
        "[None, 'chsh'] CacheInfo(hits=1, misses=1, maxsize=None, currsize=1)"
    )


def test_campaigns_leave_the_qcore_derivation_out():
    # unitary-qm samples the pinned lab-pair tables; qcore, the reference
    # derivation of them, is loaded by neither the import nor a campaign.
    done = _python(
        "-c",
        "import sys, ewfs.harness as h; "
        "print('ewfs.qcore' in sys.modules); "
        "runs = [h.run_campaign(h.config_from_dict("
        "{'scenario': s, 'model': m, 'trials': 2000})) for s, m in %r]; "
        "print(len(runs), 'ewfs.qcore' in sys.modules)" % (_SUPPORTED,),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False", "7 False"]


def test_module_entry_point_runs_without_runtime_warning():
    done = _python("-W", "error::RuntimeWarning", "-m", "ewfs.harness", "--help")
    assert done.returncode == 0, done.stderr
    assert "usage: ewfs" in done.stdout
