"""Spans and counters recorded around the calls into each layer.

The tracer replaces a function on the module that calls it (for example
``poolscreen.schemes.map_list_decode``) by a wrapper that records a span:
name, start, end, parent span and trial id.  A span with no parent is a
trial; its id numbers the trials.  Counters are read from the arguments and
results at the same boundaries.  ``restore`` puts every original back.

A layer's self time is its span's duration minus the time its child spans
cover; the self times of one trial add up to the trial's span.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from poolscreen import harness, schemes
from poolscreen.recovery import BudgetExceeded


class Tracer:
    def __init__(self):
        # one [name, start, end, parent, trial] list per span, in start order
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._trial = -1
        self._patched: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._trial += 1
        self.spans.append([name, time.perf_counter(), None, parent, self._trial])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Trace calls to owner.attr as spans called `name`.

        observe(counts, args, result) runs after each call; for a decode that
        raises BudgetExceeded it gets the partial result, and the budget hit
        is counted before the exception leaves the wrapper.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = original(*args, **kwargs)
            except BudgetExceeded as err:
                self.counts["recovery.budget_hits"] += 1
                if observe is not None:
                    observe(self.counts, args, err.result)
                raise
            finally:
                self._end(span)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        child_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child_s[index]) * 1e3
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")


# ---------------------------------------------------------------------------
# the layers


def _observe_readings(counts, args, result):
    counts["model.readings"] += len(result)


def _observe_comp(counts, args, result):
    counts["recovery.survivors"] += result.s_star


def _observe_decode(counts, args, result):
    counts["recovery.candidates_scored"] += result.scored_count
    if result.best is not None and not result.best.converged:
        counts["recovery.best_nonconverged"] += 1


def _observe_outcome(counts, args, result):
    counts["schemes.fallback_parts"] += sum(d.fallback for d in result.diagnostics)


# (module the caller looks the name up on, attribute, span name, observer)
LAYERS = (
    (harness, "generate_signal_fixed_k", "model.signal", None),
    (harness, "run_scheme", "schemes", _observe_outcome),
    (harness, "score_trial", "harness.score", None),
    (schemes, "profile_sample", "matrices.sample", None),
    (schemes, "builtin_matrix", "matrices.builtin", None),
    (schemes, "apply_noise_vec", "model.noise", _observe_readings),
    (schemes, "estimate_pool_count", "recovery.count", None),
    (schemes, "comp", "recovery.comp", _observe_comp),
    (schemes, "map_list_decode", "recovery.decode_single", _observe_decode),
    (schemes, "map_list_decode_mixed", "recovery.decode_mixed", _observe_decode),
)

# per-layer metric -> span name; reported as self ms per trial
_TIMED = {
    "matrices.sample_ms": "matrices.sample",
    "matrices.builtin_ms": "matrices.builtin",
    "recovery.count_ms": "recovery.count",
    "recovery.comp_ms": "recovery.comp",
    "recovery.decode_single_ms": "recovery.decode_single",
    "recovery.decode_mixed_ms": "recovery.decode_mixed",
    "model.signal_ms": "model.signal",
    "model.noise_ms": "model.noise",
    "schemes.self_ms": "schemes",
    "harness.score_ms": "harness.score",
    "trial.self_ms": "trial",
}
_CALLS = {
    "matrices.sample_calls": "matrices.sample",
    "recovery.count_calls": "recovery.count",
    "recovery.decode_single_calls": "recovery.decode_single",
    "recovery.decode_mixed_calls": "recovery.decode_mixed",
}
_COUNTED = (
    "recovery.candidates_scored",
    "recovery.budget_hits",
    "recovery.best_nonconverged",
    "recovery.survivors",
    "model.readings",
    "schemes.fallback_parts",
)


def install(tracer: Tracer, runner) -> None:
    """Wrap every layer, and the runner's trial body as the root span."""
    tracer.wrap(runner, "play", "trial")
    for owner, attr, name, observe in LAYERS:
        tracer.wrap(owner, attr, name, observe)


def layer_metrics(tracer: Tracer, trials: int) -> dict[str, tuple[float, str]]:
    """Per-trial layer figures as {metric: (value, unit)}."""
    self_ms = tracer.self_ms()
    calls = Counter(span[0] for span in tracer.spans)
    out = {}
    for metric, name in _TIMED.items():
        out[metric] = (self_ms.get(name, 0.0) / trials, "ms/trial")
    for metric, name in _CALLS.items():
        out[metric] = (calls[name] / trials, "calls/trial")
    for metric in _COUNTED:
        out[metric] = (tracer.counts[metric] / trials, "count/trial")
    scored = tracer.counts["recovery.candidates_scored"]
    decode_ms = self_ms.get("recovery.decode_single", 0.0) + self_ms.get("recovery.decode_mixed", 0.0)
    out["recovery.us_per_candidate"] = (decode_ms * 1e3 / scored if scored else 0.0, "us")
    out["trial_ms"] = (sum(self_ms.values()) / trials, "ms/trial")
    return out
