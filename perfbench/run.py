"""ewfs benchmark: seeded campaign workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload small-sweep --seed 1 --seconds 30 --trace 0

Campaigns run one after another in this process (closed loop, one client, no
threads or pools), in whole rounds, until ``--seconds`` have passed.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` every campaign runs twice, untraced and then traced (the order
alternates), and the last line holds the per-layer metrics.  Earlier lines
give the environment and a readable table of every metric computed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
MIN_TRIALS = 2_000
# Trace self times must cover the traced campaign time within this share.
UNATTRIBUTED_LIMIT = 0.01
SWEEP_ANGLES = [i * math.pi / 16 for i in range(16)]
# Trial-count factors, a geometric ladder over 2**(7/4) = 3.4x.  On a shared
# 2-vCPU KVM host this process runs in a fast and a slow state 30-50% apart,
# switching every few seconds.  A few well-separated campaign sizes make the
# median jump from one state's value to the other's as the slow share of a
# run passes a half; a fine ladder spreads campaign times evenly, so every
# quantile moves with the slow share as smoothly as the mean does.
CSV_LADDER = tuple(2 ** ((k - 3.5) / 4) for k in range(8))


@dataclass(frozen=True)
class Case:
    """The inputs of one campaign."""

    kind: str
    model: str
    trials: int
    seed: int
    alice: tuple = ()
    bob: tuple = ()
    options: object = None

    def config(self, out_dir=None):
        from ewfs.harness import CampaignConfig
        from ewfs.scenario import ScenarioSpec, default_scenario

        if self.kind == "bell":
            spec = ScenarioSpec("bell", self.alice, self.bob, self.trials)
        else:
            spec = default_scenario(self.kind, self.trials)
        return CampaignConfig(
            scenario=spec, model=self.model, seed=self.seed,
            check_assumptions=True, model_options=self.options, out_dir=out_dir,
        )


def toy(bob):
    from ewfs.models import ToyOptions

    return ToyOptions(alice_angles=(0.0, math.pi / 2), bob_angles=tuple(bob))


def bulk_cases(seed, n):
    return [
        Case("ewfs", "unitary-qm", n, seed),
        Case("ewfs", "collapse", n, seed),
        Case("ewfs", "toy-theta", n, seed, options=toy((math.pi / 4, 3 * math.pi / 4))),
        Case("ewfs", "lhv", n, seed),
    ]


def csv_cases(seed, n):
    return [
        Case("ewfs", "unitary-qm", n, seed),
        Case("ewfs", "lhv", n, seed),
        Case("ewfs", "toy-theta", n, seed, options=toy((math.pi / 4, 3 * math.pi / 4))),
    ]


def sweep_cases(seed, n):
    bell = [
        Case("bell", "collapse", n, seed, (0.0, math.pi / 2), (phi, phi + math.pi / 2))
        for phi in SWEEP_ANGLES
    ]
    toys = [
        Case("ewfs", "toy-theta", n, seed, options=toy((phi, phi + math.pi / 2)))
        for phi in SWEEP_ANGLES
    ]
    return bell + toys + [Case("ewfs", "unitary-qm", n, seed), Case("ewfs", "lhv", n, seed)]


@dataclass(frozen=True)
class Workload:
    trials: int  # per campaign, times each ladder factor
    writes_files: bool
    cases: object  # (seed, trials) -> list[Case]
    ladder: tuple = (1.0,)

    def round(self, seed: int, r: int, trials: int) -> list:
        """The campaigns of round ``r``: the cases once per ladder step,
        each step with a seed of its own."""
        steps = len(self.ladder)
        return [
            case
            for k, factor in enumerate(self.ladder)
            for case in self.cases(
                round_seed(seed, r) * steps + k, max(MIN_TRIALS, round(trials * factor))
            )
        ]


WORKLOADS = {
    # Per-trial sampling, tabulation and assumption checks dominate; the
    # fixed per-campaign qcore and LP costs are under 2%.
    "bulk-analysis": Workload(1_000_000, False, bulk_cases),
    # The harness CSV writer dominates; one model per row-formatter branch
    # (blank C/D, integer lambda, float lambda), at 8 sizes per round.
    "csv-export": Workload(10_000, True, csv_cases, CSV_LADDER),
    # Angle scan plus seed blocks: fixed per-campaign qcore Born tables and
    # the LP dominate, and Born inputs repeat from block to block.
    "small-sweep": Workload(2_000, False, sweep_cases),
}


def round_seed(seed: int, r: int) -> int:
    return seed * 1_000_000 + r


def child_env() -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def time_setup() -> float:
    """Wall time from spawning a fresh interpreter to ewfs.harness imported
    in it.  Runs after the warm-up round, whose import already wrote the
    bytecode cache."""
    code = "import ewfs.harness, time; print(repr(time.monotonic()))"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def import_times(packages) -> dict[str, float]:
    """Import time of each package, with what it first pulled in, from one
    ``python -X importtime -c "import ewfs.harness"`` child.

    scipy loads ``scipy.stats`` lazily, so the package itself may have no
    line of its own: the time is the sum of the cumulative times of its
    outermost modules, those whose importer lies outside the package.
    """
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ewfs.harness"],
        env=child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    entries = []  # (depth, module, cumulative seconds), children before parents
    for line in done.stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            depth = len(name) - len(name.lstrip())
            entries.append((depth, name.strip(), int(fields[1]) * 1e-6))
    inside = lambda module, package: module == package or module.startswith(package + ".")
    totals = dict.fromkeys(packages, 0.0)
    parents: list[tuple[int, str]] = []
    for depth, module, cumulative in reversed(entries):
        while parents and parents[-1][0] >= depth:
            parents.pop()
        importer = parents[-1][1] if parents else ""
        for package in packages:
            if inside(module, package) and not inside(importer, package):
                totals[package] += cumulative
        parents.append((depth, module))
    return totals


def environment() -> dict:
    load = list(os.getloadavg())
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load,
        "platform": platform.platform(),
    }


def report_bytes(result, out_dir) -> bytes:
    if out_dir is not None:
        return (out_dir / "report.json").read_bytes()
    return json.dumps(result.report, indent=2, sort_keys=True).encode() + b"\n"


def log_nbytes(log) -> int:
    arrays = [log.x, log.y, log.a, log.b, log.c, log.d, *log.lam.values()]
    return sum(a.nbytes for a in arrays)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """What the campaigns of one run did and how long they took."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.trials = 0
        self.durations = []  # untraced campaign wall times
        self.traced = []  # traced wall times, paired with durations in trace mode
        self.truth = 0
        self.wrong = 0
        self.member_truth = 0
        self.false_alarms = 0
        self.log_bytes = 0
        self.bytes_written = 0
        self.checks = 0
        self.inconclusive = 0
        self.problems = []
        self.rounds = 0
        self.setup = []  # time_setup() results

    def verdicts(self, case, result) -> None:
        from checks import ground_truth

        truth = ground_truth(case)
        if result.assumptions is not None:
            checks = result.assumptions.checks.values()
            self.checks += len(checks)
            self.inconclusive += sum(c.passed is None for c in checks)
        if truth is None:
            return
        violated, member = truth
        cert = result.inequality.polytope
        self.truth += 1
        self.wrong += (result.inequality.violated != violated) or (cert.member != member)
        if member:
            self.member_truth += 1
            self.false_alarms += not cert.member


def run_case(case, tally, out_dir, tracer=None) -> None:
    """Run one campaign (twice when tracing), check it and tally it."""
    from ewfs import harness, inequality, models
    from checks import check_campaign
    from tracer import CHAIN, ROOT

    tally.attempted += 1
    passes = [False]
    if tracer is not None:
        passes = [False, True] if tally.attempted % 2 else [True, False]
    reports, problems, times = {}, [], {}
    for traced in passes:
        out = None
        if out_dir is not None:
            out = out_dir / ("traced" if traced else "untraced")
            shutil.rmtree(out, ignore_errors=True)
        config = case.config(out)
        if traced:
            tracer.campaign = tally.attempted
            tracer.install()
        try:
            start = time.perf_counter()
            if traced:
                result = tracer.call(ROOT, harness.run_campaign, config)
            else:
                result = harness.run_campaign(config)
            times[traced] = time.perf_counter() - start
        except Exception:  # a campaign that raises is counted, not fatal
            problems.append(traceback.format_exc())
            continue
        finally:
            if traced:
                tracer.uninstall()
        problems += check_campaign(case, result, out)
        reports[traced] = report_bytes(result, out)
        if traced == (tracer is not None):
            tally.verdicts(case, result)
            tally.log_bytes += log_nbytes(result.log)
            if out is not None:
                tally.bytes_written += sum(p.stat().st_size for p in out.iterdir())
            if traced and (
                (result.log.c != models.UNDEFINED) & (result.log.d != models.UNDEFINED)
            ).all():
                tracer.call(CHAIN, inequality.verify_derivation_chain, result.log)
        del result
    if len(reports) == 2 and reports[False] != reports[True]:
        problems.append("report.json differs between the untraced and traced runs")
    if problems or len(times) != len(passes):
        tally.failed += 1
        tally.problems.append((case, problems))
        return
    tally.trials += case.trials
    tally.durations.append(times[False])
    if tracer is not None:
        tally.traced.append(times[True])


def measure(workload: Workload, seed: int, seconds: float, scale: float, tracer=None):
    trials = max(MIN_TRIALS, round(workload.trials * scale))
    out_dir = OUT / "campaign" if workload.writes_files else None
    # Warm-up round at the smallest size: imports and first-call set-up
    # finish before timing starts.
    for case in workload.cases(round_seed(seed, 999_999), MIN_TRIALS):
        run_case(case, Tally(), out_dir)
    # Whole rounds keep the model mix of every run the same.  A round starts
    # only if it is expected to end within the time.  Untraced runs time the
    # set-up SETUP_REPEATS times, spread over the run between rounds, so that
    # slow spells of the host weigh on it as they do on the campaigns; the
    # spawns do not count towards the time.
    tally = Tally()
    repeats = SETUP_REPEATS if tracer is None else 0
    elapsed = 0.0
    while tally.rounds == 0 or elapsed * (tally.rounds + 1) / tally.rounds <= seconds:
        start = time.perf_counter()
        for case in workload.round(seed, tally.rounds, trials):
            run_case(case, tally, out_dir, tracer)
        tally.rounds += 1
        elapsed += time.perf_counter() - start
        while len(tally.setup) < repeats * min(elapsed / seconds, 1):
            tally.setup.append(time_setup())
    while len(tally.setup) < repeats:
        tally.setup.append(time_setup())
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    return tally


def end_to_end(tally) -> dict:
    durations = tally.durations or [math.nan]  # nothing measured: every campaign failed
    return {
        "setup_s": (statistics.median(tally.setup), "s"),
        "trials_per_s": (tally.trials / sum(durations), "1/s"),
        "campaign_p50_s": (statistics.median(durations), "s"),
        "campaign_p90_s": (percentile(durations, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def quality(tally) -> dict:
    return {
        "failed_frac": (tally.failed / tally.attempted, "frac"),
        "wrong_verdict_frac": (tally.wrong / tally.truth if tally.truth else 0.0, "frac"),
    }


def per_layer(tally, tracer) -> dict:
    n = max(len(tally.traced), 1)
    own = tracer.self_times()
    per = lambda name: own.get(name, 0.0) / n
    counts = tracer.counts
    imports = import_times(("ewfs", "scipy.stats", "scipy.optimize"))
    qcore_self = sum(t for name, t in own.items() if name.startswith("qcore.")) / n
    layers = {
        "streams.uniform_block_s": per("streams.uniform_block"),
        "scenario.sample_settings_block_s": per("scenario.sample_settings_block"),
        "models.run_trials_self_s": per("models.run_trials"),
        "qcore.self_s": qcore_self,
        "inequality.tabulate_s": per("inequality.tabulate"),
        "inequality.evaluate_self_s": per("inequality.evaluate"),
        "inequality.lp_s": per("inequality.lp"),
        "assumptions.check_all_s": per("assumptions.check_all"),
        "assumptions.check_aoe_s": per("assumptions.check_aoe"),
        "assumptions.check_nsd_s": per("assumptions.check_nsd"),
        "assumptions.check_locality_s": per("assumptions.check_locality"),
        "assumptions.check_settings_independence_s": per(
            "assumptions.check_settings_independence"
        ),
        "harness.run_campaign_self_s": per("harness.run_campaign"),
    }
    campaign_s = tracer.root_time() / n or math.nan  # nan when every campaign failed
    attempts = counts["inequality.lp_attempts"]
    metrics = {
        "setup.import_ewfs_s": (imports["ewfs"], "s"),
        "setup.import_scipy_stats_s": (imports["scipy.stats"], "s"),
        "setup.import_scipy_optimize_s": (imports["scipy.optimize"], "s"),
        **{name: (value, "s") for name, value in layers.items()},
        "streams.draws": (counts["streams.draws"] / n, "1/campaign"),
        "models.log_bytes": (tally.log_bytes / n, "B/campaign"),
        "qcore.born_probabilities_s": (per("qcore.born_probabilities"), "s"),
        "qcore.born_calls": (counts["qcore.born_calls"] / n, "1/campaign"),
        "qcore.born_repeat_share": (
            counts["qcore.born_repeats"] / max(counts["qcore.born_calls"], 1), "frac"
        ),
        "inequality.lp_calls": (counts["inequality.lp_calls"] / n, "1/campaign"),
        "inequality.lp_skipped": (
            (attempts - counts["inequality.lp_calls"]) / max(attempts, 1), "frac"
        ),
        "inequality.cert_false_alarms": (
            tally.false_alarms / max(tally.member_truth, 1), "frac"
        ),
        "inequality.chain_s": (per("inequality.verify_derivation_chain"), "s"),
        "assumptions.inconclusive": (tally.inconclusive / max(tally.checks, 1), "frac"),
        "harness.bytes_written": (tally.bytes_written / n, "B/campaign"),
        "trace.campaign_s": (campaign_s, "s"),
        "trace.overhead_frac": (sum(tally.traced) / (sum(tally.durations) or math.nan) - 1, "frac"),
        "trace.unattributed_frac": (1 - sum(layers.values()) / campaign_s, "frac"),
        **quality(tally),
    }
    unattributed = metrics["trace.unattributed_frac"][0]
    if abs(unattributed) > UNATTRIBUTED_LIMIT:
        print(f"warning: layer self times miss {unattributed:.2%} of campaign time",
              file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help=f"multiply campaign trial counts, floor {MIN_TRIALS}; the smoke run uses it",
    )
    args = parser.parse_args(argv)
    if not (SRC / "ewfs" / "__init__.py").is_file():
        print(f"error: no ewfs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    tally = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.scale, tracer)
    if tracer is None:
        metrics = end_to_end(tally)
        shown = {**metrics, **quality(tally)}
    else:
        tracer.write(OUT / f"spans-{args.workload}.tsv")
        shown = metrics = per_layer(tally, tracer)

    for case, problems in tally.problems[:5]:
        print(f"FAILED {case}:\n  " + "\n  ".join(problems), file=sys.stderr)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "rounds": tally.rounds, "campaigns": tally.attempted}))
    for name, (value, unit) in shown.items():
        print(f"{name:44s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
