"""Span tracer that times ewfs layers from outside the package.

Each public function of a layer is replaced, for the duration of one traced
campaign, by a wrapper installed at the place its caller looks it up (for
example ``ewfs.harness.run_trials`` or ``ewfs.inequality.linprog``).  A
wrapper appends a span ``[name, start, end, parent, campaign]`` to an
in-memory list and bumps counters; nothing under ``src/ewfs`` is edited.
A span's self time is its duration minus the durations of its child spans,
so the self times of every span under a campaign root add up to the root.
"""

from __future__ import annotations

import collections
import time

from ewfs import assumptions, harness, inequality, models, qcore, scenario

ROOT = "harness.run_campaign"
CHAIN = "inequality.verify_derivation_chain"

# Classes are wrapped too: their constructors validate matrices, which is
# qcore work even when models calls them directly.
QCORE_CALLS = [
    name for name in qcore.__all__
    if callable(getattr(qcore, name)) and not name[0].isupper()
] + ["StateVector", "Projector", "Unitary"]


def _count_draws(tracer, args, kwargs):
    # uniform_block(seed, label, n_trials, draws_per_trial, first_trial=0)
    tracer.counts["streams.draws"] += args[2] * args[3]


def _count_born(tracer, args, kwargs):
    state, projectors = args[0], args[1]
    key = (state.amplitudes.tobytes(), tuple(p.matrix.tobytes() for p in projectors))
    tracer.counts["qcore.born_calls"] += 1
    if key in tracer.born_keys:
        tracer.counts["qcore.born_repeats"] += 1
    else:
        tracer.born_keys.add(key)


def _count_lp_attempt(tracer, args, kwargs):
    tracer.counts["inequality.lp_attempts"] += 1


def _count_lp_call(tracer, args, kwargs):
    tracer.counts["inequality.lp_calls"] += 1


# (owner module, attribute, span name or None for a count only, counter)
TARGETS = [
    (harness, "run_trials", "models.run_trials", None),
    (models, "sample_settings_block", "scenario.sample_settings_block", None),
    (models, "uniform_block", "streams.uniform_block", _count_draws),
    (scenario, "uniform_block", "streams.uniform_block", _count_draws),
    (inequality, "evaluate", "inequality.evaluate", None),
    (inequality, "tabulate", "inequality.tabulate", None),
    (inequality, "local_polytope_feasible", None, _count_lp_attempt),
    (inequality, "linprog", "inequality.lp", _count_lp_call),
    (assumptions, "check_all", "assumptions.check_all", None),
    (assumptions, "check_aoe", "assumptions.check_aoe", None),
    (assumptions, "check_nsd", "assumptions.check_nsd", None),
    (assumptions, "check_locality", "assumptions.check_locality", None),
    (
        assumptions, "check_settings_independence",
        "assumptions.check_settings_independence", None,
    ),
] + [
    (
        qcore, name, f"qcore.{name}",
        _count_born if name == "born_probabilities" else None,
    )
    for name in QCORE_CALLS
]


class Tracer:
    """Spans and counters of the traced campaigns of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.born_keys: set = set()
        self.campaign = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.campaign]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: collections.Counter = collections.Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return dict(totals)

    def root_time(self, name: str = ROOT) -> float:
        return sum(end - start for n, start, end, parent, _ in self.spans
                   if n == name and parent < 0)

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, campaign."""
        with open(path, "w") as handle:
            handle.write("name\tstart\tend\tparent\tcampaign\n")
            for name, start, end, parent, campaign in self.spans:
                handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{campaign}\n")
