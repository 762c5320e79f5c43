"""Campaign runner and CLI entry point.

A campaign is (scenario x model x trials) under a master seed.  The seed
fully determines every output byte: settings come from a dedicated stream,
each trial owns a fixed window of its model stream, and reports carry no
timestamps.  Any split of the trial range into ``run_trials`` blocks gives
the same rows, so a campaign runs in chunks of ``models.CHUNK`` trials: each
chunk is one ``run_trials`` call, counted into the campaign's count table
and written to ``runs.csv`` before the next one is sampled, and the bytes do
not depend on ``CHUNK``.  ``run_trials`` samples a longer range in ``CHUNK``
pieces itself, so ``CampaignResult.log`` is one call.

Outputs: a per-run CSV (``trial,X,Y,A,B,C,D,lambda_tag``) and a summary JSON
with the correlators, CHSH statistics, polytope certificate and assumption
verdicts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import assumptions as assumptions_mod
# Settings are drawn through models.sample_settings_block, the attribute that
# perfbench's tracer wraps (tests/test_benchmark_contract.py).
from . import inequality, models
from .models import (
    MODEL_NAMES,
    MODEL_TOY,
    LhvOptions,
    RunLog,
    ToyOptions,
    model_entry,
    run_trials,
)
from .scenario import (
    BRUKNER_EWFS,
    STANDARD_BELL,
    ScenarioSpec,
    default_scenario,
    finite_real,
    integer,
    require,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OUTPUT = 3

CSV_HEADER = ["trial", "X", "Y", "A", "B", "C", "D", "lambda_tag"]
# Rows formatted per write of runs.csv.  A block's fields exist as Python
# objects and its rows as one string until the write, so the block bounds
# the writer's transient memory: about 2 MB at 4,096 toy-theta rows.
CSV_BLOCK = 4_096
# "X,Y,A,B,C,D," per inequality.cell_key, undefined C/D blank: no field needs quotes.
_CELL_TEXT = np.array([
    f"{x},{y},{a},{b},{c},{d},"
    for x in (1, 2) for y in (1, 2) for a in (1, -1) for b in (1, -1)
    for c in (1, -1, "") for d in (1, -1, "")
], dtype=object)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "compare_models",
    "format_comparison",
    "config_from_dict",
    "parse_settings_spec",
    "main",
]


@dataclass
class CampaignConfig:
    scenario: ScenarioSpec
    model: str
    seed: int = 0
    k: float = 3.0
    check_assumptions: bool = True
    model_options: ToyOptions | LhvOptions | None = None
    out_dir: Path | None = None
    formats: tuple[str, ...] = ("json", "csv")
    label: str = ""

    def __post_init__(self):
        model_entry(self.scenario.kind, self.model, self.model_options)
        require(integer(self.seed), "seed", "an integer", self.seed)
        # From k ~ 38.4 the per-cell level in _familywise_k underflows to 0.
        require(finite_real(self.k) and 0 < self.k <= 38, "k", "a number in (0, 38]", self.k)
        self.k = float(self.k)  # k = 3 and k = 3.0 write the same report
        require(isinstance(self.check_assumptions, bool), "check_assumptions", "a bool",
                self.check_assumptions)
        require(isinstance(self.label, str), "label", "a string", self.label)
        ok = isinstance(self.formats, tuple) and set(self.formats) <= {"json", "csv"}
        require(ok, "formats", 'a tuple drawn from "json" and "csv"', self.formats)

    def echo(self) -> dict:
        return {
            "scenario": {
                "kind": self.scenario.kind,
                "alice_settings": list(self.scenario.alice_settings),
                "bob_settings": list(self.scenario.bob_settings),
                "trials": self.scenario.trials,
                "friend_axis": "z",
            },
            "model": self.model,
            "seed": self.seed,
            "k": self.k,
            "model_options": (
                None if self.model_options is None else dict(vars(self.model_options))
            ),
            "label": self.label,
        }


@dataclass
class CampaignResult:
    config: CampaignConfig
    inequality: inequality.InequalityReport
    assumptions: assumptions_mod.AssumptionReport | None
    report: dict

    @functools.cached_property
    def log(self) -> RunLog:
        """The whole run log, sampled again on first access: row i, a pure
        function of (seed, i), is the row the campaign counted."""
        config = self.config
        return run_trials(config.scenario, config.model, config.seed, options=config.model_options)


def _lambda_text(name: str, values: np.ndarray) -> list[str]:
    """``name=value`` for each row: floats as %.17g, integers as %d.  Each
    distinct value is formatted once; floats are told apart by their bits,
    so -0.0 stays "-0"."""
    # numpy argsorts int64 several times faster than int16
    bits = values.view(f"i{values.itemsize}").astype(np.int64)
    bits, rows = np.unique(bits, return_inverse=True)
    distinct = bits.astype(f"i{values.itemsize}").view(values.dtype)
    fmt = name.replace("%", "%%") + ("=%.17g" if values.dtype.kind == "f" else "=%d")
    if distinct.size == values.size:  # all distinct: format in row order
        return list(map(fmt.__mod__, values.tolist()))
    text = list(map(fmt.__mod__, distinct.tolist()))
    return np.array(text, dtype=object)[rows].tolist()


def _open_csv(path: Path):
    """``path`` opened for writing, with the header row written."""
    handle = path.open("w", newline="")
    handle.write(",".join(CSV_HEADER) + "\r\n")
    return handle


def _write_rows(handle, log: RunLog) -> None:
    """One "trial,X,Y,A,B,C,D,lambda_tag" row per trial of ``log``,
    CRLF-terminated.  Each block of rows is one %-format of the row
    template: the trial, the cell text, then the lambda columns in key order
    joined by ';'."""
    key = inequality.cell_key(log)
    names = sorted(log.lam)
    row = "%d,%s" + ";".join(["%s"] * len(names)) + "\r\n"
    width = 2 + len(names)
    for lo in range(0, len(log), CSV_BLOCK):
        hi = min(lo + CSV_BLOCK, len(log))
        fields = [None] * (width * (hi - lo))
        fields[0::width] = range(log.first_trial + lo, log.first_trial + hi)
        fields[1::width] = _CELL_TEXT[key[lo:hi]].tolist()
        for column, name in enumerate(names, start=2):
            fields[column::width] = _lambda_text(name, log.lam[name][lo:hi])
        handle.write(row * (hi - lo) % tuple(fields))


def _check_setting_pairs(xs: np.ndarray, ys: np.ndarray) -> None:
    """Raise ``EmptyCell``, as ``evaluate`` would, when a setting pair holds
    none of the trials: checked before any file of a campaign is written."""
    inequality.pair_totals(np.bincount(2 * xs + ys - 3, minlength=4).reshape(2, 2))


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Execute every trial chunk by chunk, analyse the summed count table,
    and write any requested files."""
    trials = config.scenario.trials
    # the whole block, drawn once: each chunk's settings are a memo hit
    xs, ys = models.sample_settings_block(config.scenario, config.seed, trials)
    out = None if config.out_dir is None else Path(config.out_dir)
    write_csv = out is not None and "csv" in config.formats
    if write_csv:
        _check_setting_pairs(xs, ys)
        out.mkdir(parents=True, exist_ok=True)
    counts = 0  # the first += makes it an array, which later chunks add into
    with _open_csv(out / "runs.csv") if write_csv else contextlib.nullcontext() as rows:
        for lo in range(0, trials, models.CHUNK):
            log = run_trials(
                config.scenario, config.model, config.seed, options=config.model_options,
                first_trial=lo, n_trials=min(models.CHUNK, trials - lo),
            )
            counts += inequality.tabulate(log).counts
            if rows is not None:
                _write_rows(rows, log)
    table = inequality.CountTable(counts)
    ineq = inequality.evaluate(table, k=config.k)
    assum = assumptions_mod.check_all(table, k=config.k) if config.check_assumptions else None
    report = {
        "config_echo": config.echo(),
        "assumptions": None if assum is None else assum.to_dict(),
        **ineq.to_dict(),
    }
    if out is not None and "json" in config.formats:
        out.mkdir(parents=True, exist_ok=True)
        # one write; a numpy setting or angle is echoed as the Python
        # number it holds
        text = json.dumps(report, indent=2, sort_keys=True, default=np.generic.item)
        (out / "report.json").write_text(text + "\n")
    return CampaignResult(config, ineq, assum, report)


def _verdict_text(passed: bool | None) -> str:
    """An assumption verdict as printed: pass, fail, or - when inconclusive."""
    return "-" if passed is None else ("pass" if passed else "fail")


def compare_models(configs: list[CampaignConfig]) -> list[dict]:
    """One row per campaign: CHSH statistics plus assumption flags."""
    if len(configs) < 2:
        raise ValueError("comparison needs at least two campaigns")
    # every campaign's settings cover all four pairs before the first one
    # runs and writes its files
    for config in configs:
        _check_setting_pairs(
            *models.sample_settings_block(config.scenario, config.seed, config.scenario.trials)
        )
    rows = []
    for config in configs:
        result = run_campaign(config)
        flags = {}
        if result.assumptions is not None:
            for name in ("aoe_i", "aoe_ii", "aoe_iii", "nsd", "locality"):
                flags[name] = _verdict_text(result.assumptions.passed(name))
        rows.append(
            {
                "label": config.label or f"{config.model}@{config.scenario.kind}",
                "model": config.model,
                "scenario": config.scenario.kind,
                "S": result.inequality.s,
                "SE": result.inequality.se,
                "S_max": result.inequality.s_max,
                "violated": result.inequality.violated,
                **flags,
            }
        )
    return rows


def format_comparison(rows: list[dict]) -> str:
    columns = [
        "label", "model", "scenario", "S", "SE", "S_max", "violated",
        "aoe_i", "aoe_ii", "aoe_iii", "nsd", "locality",
    ]
    rendered = [
        {
            col: (
                f"{row[col]:+.4f}"
                if isinstance(row.get(col), float)
                else str(row.get(col, "-"))
            )
            for col in columns
        }
        for row in rows
    ]
    widths = {
        col: max(len(col), *(len(r[col]) for r in rendered)) for col in columns
    }
    lines = [
        "  ".join(col.ljust(widths[col]) for col in columns),
        "  ".join("-" * widths[col] for col in columns),
    ]
    for r in rendered:
        lines.append("  ".join(r[col].ljust(widths[col]) for col in columns))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# config parsing

_ANGLE_RE = re.compile(r"^(?P<sign>-)?(?P<coef>\d+(?:\.\d+)?)?pi(?:/(?P<div>[1-9]\d*))?$")


def parse_angle(token: str) -> float:
    """Finite angle token: a float, or pi fractions like 'pi/4', '3pi/4',
    '-pi/2'."""
    token = token.strip()
    match = _ANGLE_RE.match(token)
    if match:
        value = math.pi * float(match.group("coef") or 1.0)
        if match.group("div"):
            value /= float(match.group("div"))
        value = -value if match.group("sign") else value
    else:
        value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"angle {token!r} is not finite")
    return value


def parse_settings_spec(spec: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Parse 'a1,a2:b1,b2' into two angles per party."""
    parties = [part.split(",") for part in spec.split(":")]
    if len(parties) != 2 or any(len(tokens) != 2 for tokens in parties):
        raise ValueError(f"bad settings spec {spec!r}: expected 'a1,a2:b1,b2'")
    alice, bob = (tuple(parse_angle(t) for t in tokens) for tokens in parties)
    return alice, bob


_CONFIG_KEYS = frozenset({
    "scenario", "model", "trials", "alice_settings", "bob_settings",
    "model_options", "seed", "k", "check_assumptions", "label",
})


def config_from_dict(data: dict) -> CampaignConfig:
    """Build a campaign from a plain config mapping: a --compare entry, or
    the single-campaign flags turned into the same keys.  Each value goes
    as it is to the constructor that owns its field and checks it."""
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    kind, model, trials = data.get("scenario"), data.get("model"), data.get("trials", 10_000)
    if "alice_settings" in data or "bob_settings" in data:
        # both required: a missing one is None, which ScenarioSpec names
        alice, bob = data.get("alice_settings"), data.get("bob_settings")
        scenario = ScenarioSpec(kind, alice, bob, trials)
    else:
        scenario = default_scenario(kind, trials)
    options_class = model_entry(kind, model)[0].options
    options = data.get("model_options")
    require(isinstance(options, (dict, type(None))), "model_options", "an object or null", options)
    # a model without options gets the mapping itself, which CampaignConfig rejects
    if options and options_class:
        options = options_class(**options)
    fields = {key: data[key] for key in ("seed", "k", "check_assumptions", "label") if key in data}
    return CampaignConfig(scenario, model, model_options=options or None, **fields)


# --format value -> the files a campaign writes under --out
_FORMATS = {"json": ("json",), "csv": ("csv",), "both": ("json", "csv")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other bad input
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ewfs",
        description="Simulate Bell and extended Wigner's-friend scenarios and "
        "analyse CHSH statistics and assumption compliance.",
    )
    parser.add_argument("--scenario", choices=(STANDARD_BELL, BRUKNER_EWFS))
    parser.add_argument("--model", choices=MODEL_NAMES)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--settings",
        help="angle spec 'a1,a2:b1,b2' (bell settings, or toy-theta "
        "superobserver angles in the EWFS); tokens like 'pi/4' are accepted",
    )
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument(
        "--format", choices=_FORMATS, help="files to write under --out (default: both)"
    )
    parser.add_argument("--check-assumptions", action="store_true")
    parser.add_argument("--compare", type=Path, help="JSON file with a list of campaigns")
    return parser


def _single_config(args) -> CampaignConfig:
    """The single-campaign flags as a config mapping, through the same
    ``config_from_dict`` as a --compare entry."""
    if args.scenario is None or args.model is None:
        raise ValueError("--scenario and --model are required (or use --compare)")
    keys = ("scenario", "model", "trials", "seed", "check_assumptions")
    # config_from_dict holds the defaults of the flags that were not given
    data = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    if args.settings is not None:
        alice, bob = parse_settings_spec(args.settings)
        if args.scenario == STANDARD_BELL:
            data.update(alice_settings=alice, bob_settings=bob)
        elif args.model == MODEL_TOY:
            data["model_options"] = {"alice_angles": alice, "bob_angles": bob}
        else:
            raise ValueError("--settings applies to bell scenarios or the toy-theta model")
    formats = _FORMATS[args.format or "both"]
    return replace(config_from_dict(data), out_dir=args.out, formats=formats)


def _compare_configs(args) -> list[CampaignConfig]:
    keys = ("scenario", "model", "trials", "seed", "settings")
    given = [f"--{key}" for key in keys if getattr(args, key) is not None]
    given += ["--check-assumptions"] if args.check_assumptions else []
    if given:
        raise ValueError(f"--compare does not take {', '.join(given)}: each campaign sets its own")
    try:
        data = json.loads(args.compare.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read --compare file: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("--compare file is nested too deeply to parse") from exc
    if not isinstance(data, list) or not all(isinstance(d, dict) for d in data):
        raise ValueError("--compare file must hold a JSON list of campaign objects")
    configs = [config_from_dict(d) for d in data]
    if args.out:
        names, formats = set(), _FORMATS[args.format or "both"]
        for i, (campaign, config) in enumerate(zip(data, configs)):
            name = config.label if "label" in campaign else config.model
            if name in ("", ".", "..") or "/" in name or "\\" in name:
                raise ValueError(f"label {name!r} is not a plain directory name")
            if name in names:
                raise ValueError(f"two campaigns would write to directory {name!r}")
            names.add(name)
            configs[i] = replace(config, out_dir=args.out / name, formats=formats)
    return configs


def main(argv=None) -> int:
    """Exit 0 on success, 2 on a bad input (one-line message), 3 when an
    output file cannot be written."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.format is not None and args.out is None:
            raise ValueError("--format needs --out: without it no file is written")
        if args.compare:
            print(format_comparison(compare_models(_compare_configs(args))))
            return EXIT_OK
        config = _single_config(args)
        result = run_campaign(config)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except MemoryError as exc:  # a trial count too large to allocate
        parser.error(f"not enough memory for the campaign: {exc}")
    except (ValueError, TypeError, OverflowError) as exc:
        parser.error(str(exc))
    ineq = result.inequality
    print(
        f"model={config.model} scenario={config.scenario.kind} "
        f"trials={config.scenario.trials} seed={config.seed}"
    )
    print(
        f"S={ineq.s:+.4f} SE={ineq.se:.4f} S_max={ineq.s_max:+.4f} "
        f"(variant {ineq.s_max_variant}) bound={ineq.bound} verdict={result.report['verdict']}"
    )
    if result.assumptions is not None:
        flags = ", ".join(
            f"{name}={_verdict_text(chk.passed)}"
            for name, chk in result.assumptions.checks.items()
        )
        print(f"assumptions: {flags}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
