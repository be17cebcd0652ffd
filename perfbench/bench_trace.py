"""Per-layer self-time tracing of the online loop, installed from outside.

The tracer replaces the public callables that ``harness.run_repetition``
reaches with timing wrappers, at the attribute through which the caller
looks them up (a module global or a class attribute), and puts the
originals back when the ``install`` block ends, also on error.  Nothing
inside ``preselect`` is edited, and the wrappers draw no random numbers,
so a traced run must write the same results as an untraced one.

Each wrapper opens a span.  A span's self time is its duration minus
the time covered by spans opened inside it, and it is added to the
span's bucket (``layer.step``).  A round runs from the entry of the
environment's ``round`` to the exit of ``instant_regret``; its glue is
the part of that interval that no top-level span covers (the loop
itself, ``observe`` and the wrappers' own bookkeeping).
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager

from preselect import environments, estimator, harness, policies
from preselect.likelihood import RankingFeedback

ROUND_START = "round_start"
ROUND_END = "round_end"
CHOOSE = "choose"
UPDATE = "update"

# (owner, attribute, bucket, role).  The owner is where the caller looks
# the attribute up, so patching it there is what the loop sees.
TARGETS = (
    (environments.SyntheticEnvironment, "round", "environments.round", ROUND_START),
    (environments.AlgoSelectEnvironment, "round", "environments.round", ROUND_START),
    (policies.Policy, "choose", "policies.choose", CHOOSE),
    (policies.Policy, "update", "policies.update", UPDATE),
    (harness, "sample_feedback", "environments.feedback", None),
    (environments, "sample_winner", "plackett_luce.sample", None),
    (environments, "sample_partial_ranking", "plackett_luce.sample", None),
    (harness, "instant_regret", "environments.regret", ROUND_END),
    (policies, "confidence_widths", "estimator.widths", None),
    (estimator, "covariance", "estimator.covariance", None),
    (policies, "sgd_update", "estimator.sgd_update", None),
    (estimator, "grad_loglik", "likelihood.grad", None),
    (estimator, "hessian_loglik", "likelihood.hess", None),
    (environments, "preprocess_features", "environments.preprocess", None),
)


class Tracer:
    """Accumulates self time per bucket, round spans and MM stage counts."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.round_s: list[float] = []
        self.glue_s = 0.0
        # One list of (subset, feedback) per repetition, for MM stage counts.
        self.feedback_log: list[list] = []
        self._stack: list[float] = []
        self._round_start = 0.0
        self._round_top = 0.0
        self._subset: tuple[int, ...] = ()

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, bucket: str, start: float) -> float:
        end = time.perf_counter()
        span = end - start
        self.self_s[bucket] += span - self._stack.pop()
        self.calls[bucket] += 1
        if self._stack:
            self._stack[-1] += span
        else:
            self._round_top += span
        return end

    @contextmanager
    def span(self, bucket: str):
        """Time a block of the benchmark's own code as a span of ``bucket``."""
        start = self._enter()
        try:
            yield
        finally:
            self._exit(bucket, start)

    def wrap(self, fn, bucket: str, role: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = self._exit(bucket, start)
            if role == ROUND_START:
                # args = (env, t); round 1 opens a new repetition.
                self._round_start, self._round_top = start, end - start
                if args[1] == 1:
                    self.feedback_log.append([])
            elif role == ROUND_END:
                round_s = end - self._round_start
                self.round_s.append(round_s)
                self.glue_s += round_s - self._round_top
            elif role == CHOOSE:
                self._subset = out.subset
            elif role == UPDATE and self.feedback_log:
                self.feedback_log[-1].append((self._subset, args[1]))
            return out

        return traced

    def mm_counts(self) -> tuple[float, float]:
        """Mean choice stages and distinct remaining-sets per repetition.

        A winner observation is one stage over the chosen subset; a
        ranking of m arms is m - 1 stages over the shrinking remainder,
        the stages an MM refit sees.
        """
        stages, distinct = [], []
        if not any(self.feedback_log):  # Policy.update was never reached
            return math.nan, math.nan
        for log in self.feedback_log:
            sets = []
            for subset, feedback in log:
                if isinstance(feedback, RankingFeedback):
                    ordering = feedback.ranking.ordering
                    sets.extend(frozenset(ordering[i:]) for i in range(len(ordering) - 1))
                else:
                    sets.append(frozenset(subset))
            stages.append(len(sets))
            distinct.append(len(set(sets)))
        n = max(len(self.feedback_log), 1)
        return sum(stages) / n, sum(distinct) / n


@contextmanager
def install(tracer: Tracer):
    """Patch every target present in this version of the package; restore on exit.

    A target missing here records no call, and ``bench_measure`` reports
    its bucket as NaN, which fails the run.
    """
    originals = []
    try:
        for owner, name, bucket, role in TARGETS:
            if name not in vars(owner):
                continue
            original = vars(owner)[name]
            originals.append((owner, name, original))
            setattr(owner, name, tracer.wrap(original, bucket, role))
        yield tracer
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
