"""Campaign runner and CLI entry point.

A campaign is (scenario x model x trials) under a master seed.  The seed
fully determines every output byte: settings come from a dedicated stream,
each trial owns a fixed window of its model stream, and reports carry no
timestamps.  Any split of the trial range into ``run_trials`` blocks gives
the same rows.

Outputs: a per-run CSV (``trial,X,Y,A,B,C,D,lambda_tag``) and a summary JSON
with the correlators, CHSH statistics, polytope certificate and assumption
verdicts.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import assumptions as assumptions_mod
from . import inequality
from .models import (
    MODEL_NAMES,
    MODEL_TOY,
    MODELS,
    LhvOptions,
    RunLog,
    ToyOptions,
    run_trials,
)
from .scenario import (
    BRUKNER_EWFS,
    STANDARD_BELL,
    ScenarioSpec,
    default_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OUTPUT = 3

CSV_HEADER = ["trial", "X", "Y", "A", "B", "C", "D", "lambda_tag"]
# Rows converted to Python objects at a time while writing runs.csv.
CSV_BLOCK = 50_000
# "X,Y,A,B,C,D," per inequality.cell_key, undefined C/D blank: no field needs quotes.
_CELL_TEXT = [
    f"{x},{y},{a},{b},{c},{d},"
    for x in (1, 2) for y in (1, 2) for a in (1, -1) for b in (1, -1)
    for c in (1, -1, "") for d in (1, -1, "")
]

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
        # From k ~ 38.4 the per-cell level in _familywise_k underflows to 0.
        if not (math.isfinite(self.k) and 0 < self.k <= 38):
            raise ValueError(f"k must be a number in (0, 38], got {self.k!r}")

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
                None if self.model_options is None else asdict(self.model_options)
            ),
            "label": self.label,
        }


@dataclass
class CampaignResult:
    config: CampaignConfig
    log: RunLog
    inequality: inequality.InequalityReport
    assumptions: assumptions_mod.AssumptionReport | None
    report: dict = field(default_factory=dict)


def _report_dict(
    config: CampaignConfig, table: inequality.CountTable, ineq, assum
) -> dict:
    e = inequality.expectations(table)
    counts = {}
    expect = {}
    for x in range(2):
        for y in range(2):
            key = f"x{x + 1}y{y + 1}"
            counts[key] = int(e.n[x, y])
            expect[key] = {
                "E": None if math.isnan(e.values[x, y]) else float(e.values[x, y]),
                "SE": None if math.isnan(e.errors[x, y]) else float(e.errors[x, y]),
                "n": int(e.n[x, y]),
            }
    report = {
        "config_echo": config.echo(),
        "per_setting_counts": counts,
        "expectations": expect,
        "verdict": "violated" if ineq.violated else "satisfied",
        "assumptions": None if assum is None else assum.to_dict(),
    }
    report.update(ineq.to_dict())
    return report


def _lambda_tags(lam: dict, lo: int, hi: int) -> list[str]:
    """``key=value`` pairs joined by ';' in key order, one tag per row:
    floats as %.17g, integers plainly.  Each distinct value is formatted
    once; floats are told apart by their bits, so -0.0 stays "-0"."""
    columns = []
    for key in sorted(lam):
        values = lam[key][lo:hi]
        bits, rows = np.unique(values.view(f"i{values.itemsize}"), return_inverse=True)
        fmt = "{}={:.17g}" if values.dtype.kind == "f" else "{}={}"
        text = [fmt.format(key, v) for v in bits.view(values.dtype).tolist()]
        columns.append(np.array(text, dtype=object)[rows].tolist())
    if not columns:
        return [""] * (hi - lo)
    return [";".join(parts) for parts in zip(*columns)]


def _write_csv(path: Path, log: RunLog) -> None:
    """One "trial,X,Y,A,B,C,D,lambda_tag" row per trial, CRLF-terminated."""
    key = inequality.cell_key(log)
    with path.open("w", newline="") as handle:
        handle.write(",".join(CSV_HEADER) + "\r\n")
        for lo in range(0, len(log), CSV_BLOCK):
            hi = min(lo + CSV_BLOCK, len(log))
            trials = range(log.first_trial + lo, log.first_trial + hi)
            rows = zip(trials, key[lo:hi].tolist(), _lambda_tags(log.lam, lo, hi))
            handle.writelines(f"{t},{_CELL_TEXT[k]}{tag}\r\n" for t, k, tag in rows)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Execute every trial, analyse the log, and write any requested files."""
    log = run_trials(
        config.scenario, config.model, config.seed, options=config.model_options
    )
    table = inequality.tabulate(log)
    ineq = inequality.evaluate(table, k=config.k)
    assum = assumptions_mod.check_all(table, k=config.k) if config.check_assumptions else None
    report = _report_dict(config, table, ineq, assum)
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if "csv" in config.formats:
            _write_csv(out / "runs.csv", log)
        if "json" in config.formats:
            with (out / "report.json").open("w") as handle:
                # a numpy setting or angle is echoed as the Python number it holds
                json.dump(
                    report, handle, indent=2, sort_keys=True, default=np.generic.item
                )
                handle.write("\n")
    return CampaignResult(config, log, ineq, assum, report)


def compare_models(configs: list[CampaignConfig]) -> list[dict]:
    """One row per campaign: CHSH statistics plus assumption flags."""
    if len(configs) < 2:
        raise ValueError("comparison needs at least two campaigns")
    rows = []
    for config in configs:
        result = run_campaign(config)
        flags = {}
        if result.assumptions is not None:
            for name in ("aoe_i", "aoe_ii", "aoe_iii", "nsd", "locality"):
                passed = result.assumptions.passed(name)
                flags[name] = "-" if passed is None else ("pass" if passed else "fail")
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


def _typed(data: dict, key: str, default, *types: type):
    """``data[key]`` (or ``default``) if it has one of ``types``; a bool,
    which Python counts as an int, passes only where bool is named."""
    value = data.get(key, default)
    if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{key} must be {names}; cannot convert {value!r}")
    return value


def config_from_dict(data: dict) -> CampaignConfig:
    """Build a campaign from a plain config mapping: a --compare entry, or
    the single-campaign flags turned into the same keys."""
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    kind, model = data["scenario"], data["model"]
    trials = _typed(data, "trials", 10_000, int)
    if "alice_settings" in data or "bob_settings" in data:
        scenario = ScenarioSpec(kind, data["alice_settings"], data["bob_settings"], trials)
    else:
        scenario = default_scenario(kind, trials)
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    options_class = MODELS[model].options
    raw_options = _typed(data, "model_options", None, dict, type(None))
    if raw_options and options_class is None:
        raise ValueError(f"model {model!r} takes no options")
    options = options_class(**raw_options) if raw_options else None
    return CampaignConfig(
        scenario=scenario,
        model=model,
        seed=_typed(data, "seed", 0, int),
        k=float(_typed(data, "k", 3.0, int, float)),
        check_assumptions=_typed(data, "check_assumptions", True, bool),
        model_options=options,
        label=_typed(data, "label", "", str),
    )


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
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--settings",
        help="angle spec 'a1,a2:b1,b2' (bell settings, or toy-theta "
        "superobserver angles in the EWFS); tokens like 'pi/4' are accepted",
    )
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--format", choices=("json", "csv", "both"), default="both")
    parser.add_argument("--check-assumptions", action="store_true")
    parser.add_argument("--compare", type=Path, help="JSON file with a list of campaigns")
    return parser


def _single_config(args) -> CampaignConfig:
    """The single-campaign flags as a config mapping, through the same
    ``config_from_dict`` as a --compare entry."""
    if args.scenario is None or args.model is None:
        raise ValueError("--scenario and --model are required (or use --compare)")
    keys = ("scenario", "model", "trials", "seed", "check_assumptions")
    data = {key: getattr(args, key) for key in keys}
    if args.settings:
        alice, bob = parse_settings_spec(args.settings)
        if args.scenario == STANDARD_BELL:
            data.update(alice_settings=alice, bob_settings=bob)
        elif args.model == MODEL_TOY:
            data["model_options"] = {"alice_angles": alice, "bob_angles": bob}
        else:
            raise ValueError(
                "--settings applies to bell scenarios or the toy-theta model"
            )
    config = config_from_dict(data)
    config.out_dir = args.out
    config.formats = ("json", "csv") if args.format == "both" else (args.format,)
    return config


def _compare_configs(args) -> list[CampaignConfig]:
    try:
        data = json.loads(args.compare.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read --compare file: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(d, dict) for d in data):
        raise ValueError("--compare file must hold a JSON list of campaign objects")
    configs = [config_from_dict(d) for d in data]
    if args.out:
        names = set()
        for campaign, config in zip(data, configs):
            name = config.label if "label" in campaign else config.model
            if name in ("", ".", "..") or "/" in name or "\\" in name:
                raise ValueError(f"label {name!r} is not a plain directory name")
            if name in names:
                raise ValueError(f"two campaigns would write to directory {name!r}")
            names.add(name)
            config.out_dir = args.out / name
    return configs


def main(argv=None) -> int:
    """Exit 0 on success, 2 on a bad input (one-line message), 3 when an
    output file cannot be written."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.compare:
            print(format_comparison(compare_models(_compare_configs(args))))
            return EXIT_OK
        config = _single_config(args)
        result = run_campaign(config)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except KeyError as exc:
        parser.error(f"missing config key {exc}")
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
            f"{name}={'-' if chk.passed is None else ('pass' if chk.passed else 'fail')}"
            for name, chk in result.assumptions.checks.items()
        )
        print(f"assumptions: {flags}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
