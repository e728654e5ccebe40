"""Spans and counters around the lab's public functions, from outside it.

`Tracer.install` replaces every binding of a wrapped function in the
loaded `soccerlab` modules (a `from .env import step` copy included) and
every wrapped method on its class, so a call that goes around a wrapped
function shows as a zero count rather than as a smaller time.

A span records its name, start, end and parent; spans stay in memory until
`write_spans`. A layer's self time is its spans' duration minus the time
covered by their child spans.

With `spans=False` only the counting hooks that the untraced run needs
(environment steps, gradient steps and their skipped updates) are
installed, and no clock is read.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter


def _step_events(counts, args, result):
    counts["env.steps"] += 1
    for event in result.events:
        kind = event["kind"]
        if kind == "touch":
            counts["env.touches"] += 1
        elif kind == "throw_in":
            counts["env.throw_ins"] += 1
        elif kind == "goal":
            counts["env.goals"] += 1


def _gradient_step(counts, args, result):
    if result is None:
        return
    counts["learner.gradient_steps"] += 1
    if result["critic_skipped"] or result["policy_skipped"]:
        counts["learner.skipped_steps"] += 1


def _file_bytes(key):
    def hook(counts, args, result):
        counts[key] += os.path.getsize(args[0])

    return hook


def _policy_rows(counts, args, result):
    counts["nets.policy_apply.rows"] += len(args[2])


def _replay_frames(counts, args, result):
    counts["learner.frames"] += sum(len(snippet) for snippet in result)


def _divergence_rows(counts, args, result):
    counts["analytics.divergence.rows"] += args[2].steps


def _bump(key):
    def hook(counts, args, result):
        counts[key] += 1

    return hook


# (span name, module, attribute path, hook, kept without spans). A span
# name of None counts calls through the hook alone and opens no span.
TARGETS = (
    ("env.step", "soccerlab.env.sim", "step", _step_events, True),
    ("env.observe", "soccerlab.env.sim", "observe", None, False),
    ("env.trace", "soccerlab.env.trace", "write_trace", _file_bytes("env.trace.bytes"), False),
    ("env.trace", "soccerlab.env.trace", "read_trace", _file_bytes("env.trace.bytes"), False),
    ("nets.policy_apply", "soccerlab.nets", "PolicyNet.apply", _policy_rows, False),
    ("nets.critic_apply", "soccerlab.nets", "CriticNet.apply", None, False),
    ("nets.checkpoint", "soccerlab.nets", "save_checkpoint", _file_bytes("nets.checkpoint.bytes"), False),
    ("nets.checkpoint", "soccerlab.nets", "load_checkpoint", _file_bytes("nets.checkpoint.bytes"), False),
    (None, "soccerlab.netcore.autodiff", "Tensor.__init__", _bump("netcore.tensors"), False),
    ("netcore.adam_step", "soccerlab.netcore.adam", "adam_step", None, False),
    ("rollout.play_match", "soccerlab.rollout", "play_match", None, False),
    ("learner.gradient_step", "soccerlab.learner", "Learner.gradient_step", _gradient_step, True),
    ("learner.replay_sample", "soccerlab.learner", "ReplayBuffer.sample", _replay_frames, False),
    ("learner.retrace", "soccerlab.learner", "Learner.retrace_targets", None, False),
    ("learner.critic_update", "soccerlab.learner", "Learner.critic_update", None, False),
    ("learner.policy_update", "soccerlab.learner", "Learner.policy_update", None, False),
    ("pbt.match", "soccerlab.pbt", "Trainer.play_training_match", None, False),
    ("pbt.learn", "soccerlab.pbt", "Trainer.learning_phase", None, False),
    ("pbt.evolve", "soccerlab.pbt", "Trainer.evolution_phase", None, False),
    (None, "soccerlab.pbt", "inherit", _bump("pbt.evolutions"), False),
    ("pbt.checkpoint", "soccerlab.pbt", "Trainer.save_checkpoints", None, False),
    ("evaluation.tournament", "soccerlab.evaluation", "run_tournament", None, False),
    ("evaluation.elo", "soccerlab.evaluation", "fit_elo_scores", None, False),
    ("evaluation.nash", "soccerlab.evaluation", "nash_average", None, False),
    ("analytics.probe", "soccerlab.analytics", "run_probe", None, False),
    ("analytics.stats", "soccerlab.analytics", "extract_stats", None, False),
    ("analytics.divergence", "soccerlab.analytics", "counterfactual_profile", _divergence_rows, False),
    ("runconfig.build_population", "soccerlab.runconfig", "build_population", None, False),
)

# Per-layer metrics reported by a traced run, with their units.
SPAN_METRICS = {
    "env.step": ("calls", "self_s"),
    "env.observe": ("calls", "self_s"),
    "env.trace": ("self_s",),
    "nets.policy_apply": ("calls", "self_s"),
    "nets.critic_apply": ("calls", "self_s"),
    "nets.checkpoint": ("self_s",),
    "netcore.adam_step": ("calls", "self_s"),
    "rollout.play_match": ("calls", "self_s"),
    "learner.replay_sample": ("self_s",),
    "learner.retrace": ("self_s",),
    "learner.critic_update": ("self_s",),
    "learner.policy_update": ("self_s",),
    "pbt.match": ("self_s",),
    "pbt.learn": ("self_s",),
    "pbt.evolve": ("self_s",),
    "pbt.checkpoint": ("self_s",),
    "evaluation.tournament": ("self_s",),
    "evaluation.elo": ("self_s",),
    "evaluation.nash": ("self_s",),
    "analytics.probe": ("self_s",),
    "analytics.stats": ("self_s",),
    "analytics.divergence": ("self_s",),
    "runconfig.build_population": ("self_s",),
}
COUNT_METRICS = {
    "env.touches": "count",
    "env.throw_ins": "count",
    "env.goals": "count",
    "env.trace.bytes": "bytes",
    "nets.policy_apply.rows": "rows",
    "nets.checkpoint.bytes": "bytes",
    "netcore.tensors": "count",
    "learner.gradient_steps": "count",
    "learner.frames": "frames",
    "pbt.evolutions": "count",
    "analytics.divergence.rows": "rows",
}


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Counts and (optionally) spans for the calls in TARGETS."""

    def __init__(self, spans: bool):
        self.record_spans = spans
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        counts = self.counts
        if name is None or not self.record_spans:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(counts, args, result)
                return result

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if hook is not None:
                hook(counts, args, result)
            return result

        return spanned

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "soccerlab" or n.startswith("soccerlab.")]
        for name, module_name, path, hook, untraced in TARGETS:
            if not (self.record_spans or untraced):
                continue
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counts since the last take; both start again empty."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer calls, self times and counts of one stretch of spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: dict[str, float] = {}
    for (name, start, end, _), children in zip(spans, child_time):
        calls[name] += 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - children
    out = {}
    for name, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in COUNT_METRICS:
        out[name] = counts[name]
    return out


def metric_units() -> dict[str, str]:
    units = {}
    for name, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNT_METRICS)
    return units


def write_spans(path, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
