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
# Rows formatted per write of runs.csv.  A block is one (rows, width) uint8
# array of NUL-padded ASCII fields until the write, so it bounds the
# writer's transient memory: with its NUL mask and its written bytes, about
# 1.8 MB at 4,096 toy-theta rows.
CSV_BLOCK = 4_096
# "X,Y,A,B,C,D," per cell key (models.cell), undefined C/D blank: no field
# needs quotes.
_CELL_TEXT = [
    f"{x},{y},{a},{b},{c},{d},".encode()
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
        model_entry(self.scenario.kind, self.model, self.model_options)
        require(integer(self.seed), "seed", "an integer", self.seed)
        # From k ~ 38.4 the G-tests' familywise level erfc(k / sqrt 2) underflows to 0.
        require(finite_real(self.k) and 0 < self.k <= 38, "k", "a number in (0, 38]", self.k)
        self.k = float(self.k)  # k = 3 and k = 3.0 write the same report
        require(isinstance(self.check_assumptions, bool), "check_assumptions", "a bool",
                self.check_assumptions)
        require(isinstance(self.label, str), "label", "a string", self.label)
        ok = isinstance(self.formats, tuple) and set(self.formats) <= {"json", "csv"}
        require(ok, "formats", 'a tuple drawn from "json" and "csv"', self.formats)

    def echo(self) -> dict:
        """The campaign as the flat keys ``config_from_dict`` reads: a
        --compare entry that runs it again."""
        options = self.model_options
        return {
            "scenario": self.scenario.kind,
            "alice_settings": list(self.scenario.alice_settings),
            "bob_settings": list(self.scenario.bob_settings),
            "trials": self.scenario.trials,
            "model": self.model,
            "model_options": None if options is None else dict(vars(options)),
            "seed": self.seed,
            "k": self.k,
            "check_assumptions": self.check_assumptions,
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


# ---------------------------------------------------------------------------
# runs.csv text.  A block of rows is one (rows, width) uint8 array: each
# field is ASCII padded with NULs, which no field holds, and the block is
# written without its NULs.  Digits come four at a time from a table of the
# 10,000 4-digit groups.


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Each 4-digit group 0000..9999 as a little-endian uint32 of its four
    ASCII digits; and, for a 17-digit string whose digits 4k - 3 .. 4k are
    group k = 1..4, the digits up to the group's last nonzero one (0 for
    0000), one row per k."""
    group = np.arange(10_000, dtype=np.uint32)
    text = np.full(10_000, 0x30303030, np.uint32)  # "0000"
    last = np.zeros(10_000, np.uint8)  # digits up to the last nonzero one
    for shift, power in ((0, 1000), (8, 100), (16, 10), (24, 1)):
        text += (group // power % 10) << shift
        last += group % (10 * power) > 0
    kept = (np.arange(1, 14, 4, dtype=np.uint8)[:, None] + last) * (group > 0)
    return text.astype("<u4"), kept


def _words(table: list[bytes]) -> np.ndarray:
    """(3, len(table)) uint64: each entry, up to 24 bytes, as three
    little-endian words."""
    return np.array(table, dtype="S24").view("<u8").reshape(-1, 3).T.astype(np.uint64)


def _halves(x):
    """Veltkamp's split of float64 ``x`` into 26-bit halves, hi + lo = x."""
    c = x * 134_217_729.0  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


_GROUP_TEXT, _GROUP_KEPT = _group_tables()
_GROUP_TEXT64 = _GROUP_TEXT.astype(np.uint64)
_POW10_U64 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
# row c keeps the last c of 20 digits, and row c > 0 of _MINUS puts the
# sign before them: an integer's text, right-aligned in 20 bytes
_LAST = np.where(np.arange(20) >= 20 - np.arange(21)[:, None], 255, 0).astype(np.uint8)
_MINUS = np.where(np.arange(20) == 19 - np.arange(21)[:, None], ord("-"), 0).astype(np.uint8)
_MINUS[0] = 0
# 10^(16 - p), exact in float64, and its halves, for a decimal exponent p in [-4, 16]
_POW10 = np.array([float(10**s) for s in range(21)])
_POW10_HI, _POW10_LO = _halves(_POW10)
# column k keeps the first k bytes; column j <= 16 of _POINT is '.' at byte j
_KEEP = _words([b"\xff" * k for k in range(18)])
_POINT = _words([b"\0" * j + b"." for j in range(17)] + [b""])
# column 5 s + 4 + min(p, 0) for sign bit s and decimal exponent p: the
# sign, then "0." and the zeros before the first digit when p < 0
_PREFIX_TEXT = [sign + (b"0." + b"0" * (3 - i) if i < 4 else b"") for sign in (b"", b"-")
                for i in range(5)]
_PREFIX = _words(_PREFIX_TEXT)[0]
_PREFIX_BITS = np.array([8 * len(text) for text in _PREFIX_TEXT], dtype=np.uint64)


def _low_groups(rest: np.ndarray) -> list[np.ndarray]:
    """The four 4-digit groups of int64 ``rest`` < 10^16, most significant
    first, as int32."""
    high = rest // 10**8
    groups = []
    for part in (high, rest - high * 10**8):
        part = part.astype(np.int32)
        top = part // 10_000
        groups += [top, part - top * 10_000]
    return groups


def _shift_up(words: np.ndarray, bits) -> np.ndarray:
    """(3, n) little-endian words moved ``bits`` < 64 bits toward their
    last byte, per column."""
    out = words << bits
    out[1:] |= words[:-1] >> (64 - bits)  # numpy shifts by 64 to 0
    return out


def _int_text(columns: list[np.ndarray]) -> np.ndarray:
    """``%d`` of integer or bool columns, one after another, as (rows, w)
    ASCII right-aligned after NULs, w the fewest whole 4-digit groups that
    hold every row's text."""
    negative = np.concatenate([column < 0 for column in columns])
    # two's complement, negated mod 2^64
    magnitude = np.concatenate([column.astype(np.uint64) for column in columns])
    np.negative(magnitude, out=magnitude, where=negative)
    top = magnitude // np.uint64(10**16)
    groups = np.empty((magnitude.size, 5), np.intp)
    groups[:, 0] = top
    for k, group in enumerate(_low_groups((magnitude - top * np.uint64(10**16)).astype(np.int64))):
        groups[:, k + 1] = group
    digits = 1 + np.searchsorted(_POW10_U64, magnitude, side="right")
    signed = negative.any()
    width = -(-(digits.max(initial=1) + signed) // 4) * 4
    text = _GROUP_TEXT[groups[:, 5 - width // 4:]].view(np.uint8)
    text &= np.take(_LAST[:, 20 - width:], digits, axis=0)
    if signed:
        text |= np.take(_MINUS[:, 20 - width:], digits * negative, axis=0)
    return text


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits D of float64 ``v`` as an int64 in [10^16,
    10^17) (0 for ±0), its decimal exponent p, and whether D and p are
    exact: false where Python's ``'%.17g' %`` must write ``v``.

    With p = floor(log10 |v|) in [-4, 16], the product |v| 10^(16 - p) (an
    exact power) is hi + lo by Dekker's two-product, and hi >= 10^16 > 2^53
    is an even integer, so D = hi + rint(lo) rounds the exact product half
    to even, as Python does.  Not exact: |v| < 1e-4 or p > 16, inf, nan, a
    product below 10^16 (log10 rounded up to p) and a D of 10^17 (log10
    rounded down, or a carry into p + 1)."""
    magnitude = np.abs(v)
    zero = magnitude == 0
    # rows outside the kernel (0, inf, nan) compute values that are not used
    with np.errstate(all="ignore"):
        exponent = np.floor(np.log10(magnitude))
        exact = (exponent >= -4) & (exponent <= 16)
        p = exponent.astype(np.intp)
        p[~exact] = 0
        scale = 16 - p
        hi = magnitude * _POW10[scale]
        m_hi, m_lo = _halves(magnitude)
        b_hi, b_lo = _POW10_HI[scale], _POW10_LO[scale]
        lo = ((m_hi * b_hi - hi) + m_hi * b_lo + m_lo * b_hi) + m_lo * b_lo
        d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # the exact product is at least 10^16 (hi - 10^16 is exact, and rounding
    # keeps the sign of its sum with lo), and D has 17 digits
    exact &= ((hi - 1e16) + lo >= 0) & (d < 10**17)
    d[zero] = 0  # "0": one digit, the units digit
    return d, p, exact | zero


def _digit_words(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of int64 ``d`` < 10^17 as bytes 0..16 of (3, n)
    little-endian words, and the count of digits up to the last nonzero
    one (1 for 0)."""
    lead = d // 10**16
    groups = _low_groups(d - lead * 10**16)
    u1, u2, u3, u4 = (_GROUP_TEXT64.take(group) for group in groups)
    words = np.empty((3, d.size), np.uint64)
    words[0] = (lead.astype(np.uint64) + ord("0")) | u1 << 8 | u2 << 40
    words[1] = u2 >> 24 | u3 << 8 | u4 << 40
    words[2] = u4 >> 24
    last = np.ones(d.size, np.intp)
    for table, group in zip(_GROUP_KEPT, groups):
        np.maximum(last, table.take(group), out=last)
    return words, last


def _float_text(columns: list[np.ndarray]) -> np.ndarray:
    """``%.17g`` of float columns, one after another, as (rows, 24) ASCII
    left-aligned before NULs: the bytes of Python's ``'%.17g' %``.  A value
    that ``_decimal`` gives exactly is written from its digits D and
    exponent p: trailing zeros after the point go, then the point goes in
    after digit p, and the sign and "0.000" before the digits (±0 is "0" or
    "-0").  Every other value is Python's ``'%.17g' %``."""
    v = np.concatenate(columns).astype(np.float64, copy=False)
    d, p, kernel = _decimal(v)
    words, last = _digit_words(d)
    # every digit up to the units digit, then up to the last nonzero one
    kept = np.maximum(last, np.maximum(p, 0) + 1)
    words &= _KEEP.take(kept, axis=1)
    split = p + 1
    split[(p < 0) | (kept == split)] = 17  # no point
    low = words & _KEEP.take(split, axis=1)
    words = low | _shift_up(words ^ low, np.uint64(8)) | _POINT.take(split, axis=1)
    prefix = 5 * np.signbit(v) + 4 + np.minimum(p, 0)
    words = _shift_up(words, _PREFIX_BITS.take(prefix))
    words[0] |= _PREFIX.take(prefix)
    text = np.empty((v.size, 3), "<u8")
    text.T[...] = words
    text = text.view(np.uint8)
    rest = np.flatnonzero(~kernel)
    if rest.size:
        fallback = ["%.17g" % value for value in v[rest].tolist()]
        text[rest] = np.array(fallback, dtype="S24").view(np.uint8).reshape(-1, 24)
    return text


def _texts(columns: list[np.ndarray], text) -> list[np.ndarray]:
    """``text`` of each column, from one call of ``text`` on a list of
    columns.  A column of repeated values has each distinct value, told
    apart by its bits (so -0.0 stays "-0"), formatted once."""
    values, rows = [], []
    for column in columns:
        bits = column.view(f"i{column.itemsize}")
        if (bits[1:] > bits[:-1]).all():  # increasing, as the trial numbers
            values.append(column)
            rows.append(None)
            continue
        distinct = np.sort(bits)
        distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
        repeats = distinct.size < bits.size
        values.append(distinct.view(column.dtype) if repeats else column)
        rows.append(np.searchsorted(distinct, bits) if repeats else None)
    texts, start = text(values), 0
    for i, (column, row) in enumerate(zip(values, rows)):
        values[i] = texts[start:start + column.size]
        if row is not None:
            values[i] = np.take(values[i], row, axis=0)
        start += column.size
    return values


def _open_csv(path: Path):
    """``path`` opened for writing in binary mode, with the header row written."""
    handle = path.open("wb")
    handle.write(",".join(CSV_HEADER).encode() + b"\r\n")
    return handle


def _void(field: np.ndarray) -> np.ndarray:
    """A field as one item per row, of a void type its width: an (n, w)
    uint8 array, or an (n,) or (1,) bytes array."""
    if field.ndim == 2:
        return field.view(f"V{field.shape[1]}")[:, 0]
    return field.view(f"V{field.itemsize}")


@functools.lru_cache(maxsize=16)
def _separators(names: tuple[str, ...]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The text between two fields of a row with lambda columns ``names``:
    "," + cell + the first "name=" (or the row's end), one per cell key,
    then ";name=" or the row's end after each lambda value."""
    tags = [f"{name}=".encode() for name in names]
    cells = np.array([b"," + cell + (tags + [b"\r\n"])[0] for cell in _CELL_TEXT])
    return cells, [np.array([end]) for end in [b";" + tag for tag in tags[1:]] + [b"\r\n"]]


def _block(log: RunLog, lo: int, hi: int, cells, ends) -> np.ndarray:
    """Rows ``lo:hi`` of ``log`` as one (rows, width) uint8 array, their
    fields side by side.  A block's integer columns are formatted in one
    call, and so are its float columns."""
    columns = [log.lam[name][lo:hi] for name in sorted(log.lam)]
    ints = [np.arange(log.first_trial + lo, log.first_trial + hi, dtype=np.int64)]
    ints += [column for column in columns if column.dtype.kind != "f"]
    floats = [column for column in columns if column.dtype.kind == "f"]
    texts = {False: iter(_texts(ints, _int_text))}
    texts[True] = iter(_texts(floats, _float_text) if floats else ())
    fields = [next(texts[False]), cells[log.key[lo:hi]]]
    for column, end in zip(columns, ends):
        fields += [next(texts[column.dtype.kind == "f"]), end]
    fields = [_void(field) for field in fields]
    block = np.empty((hi - lo, sum(field.itemsize for field in fields)), np.uint8)
    start = 0
    for field in fields:  # one pass over the rows per field
        block[:, start:start + field.itemsize].view(field.dtype)[:, 0] = field
        start += field.itemsize
    return block


def _write_rows(handle, log: RunLog) -> None:
    """One "trial,X,Y,A,B,C,D,lambda_tag" row per trial of ``log``,
    CRLF-terminated: the trial, the cell text, then ``name=value`` for each
    lambda column in key order, joined by ';', integers as %d and floats as
    %.17g.  Each block of rows is written without its NULs, in one call."""
    cells, ends = _separators(tuple(sorted(log.lam)))
    for lo in range(0, len(log), CSV_BLOCK):
        block = _block(log, lo, min(lo + CSV_BLOCK, len(log)), cells, ends)
        handle.write(block[block != 0])  # a buffer: no copy into bytes


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
        "schema": 3,
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
        for i, config in enumerate(configs):
            name = config.label or config.model  # an empty label names no directory
            if name in (".", "..") or "/" in name or "\\" in name:
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
    verdict = "violated" if ineq.violated else "satisfied"
    print(
        f"model={config.model} scenario={config.scenario.kind} "
        f"trials={config.scenario.trials} seed={config.seed}"
    )
    print(
        f"S={ineq.s:+.4f} SE={ineq.se:.4f} S_max={ineq.s_max:+.4f} "
        f"(variant {ineq.s_max_variant}) bound={ineq.bound} verdict={verdict}"
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
