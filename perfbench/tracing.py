"""Spans recorded from outside the program.

The traced run calls ``harness.sweep`` itself while the public entry
points of every layer are wrapped: the episode, environment and learner
construction, ``Environment.round``, the learners' ``predict`` /
``update``, the oracle, the per-round diagnostics, the certificates, and
the numkit and lifting calls made inside the learners.
:func:`installed` puts the wrappers in place and restores the originals.
Nothing under ``src/`` is modified, and the untraced run wraps nothing.

A span is ``[name, start_ns, end_ns, parent_index, episode]``; spans are
kept in memory and written out once at the end.
"""

from __future__ import annotations

import contextlib
import sys
import time

import numpy as np

from corectron import diagnostics, environment, harness, learners, lifting, numkit

_now = time.perf_counter_ns

# The learner class each algorithm of harness.build_learner builds.
LEARNERS = {
    "corectron_l": learners.CoRectron,
    "corectron_k": learners.CoRectronK,
    "ogd": learners.OGD,
    "ons": learners.ONS,
    "kons": learners.KONS,
}


class Spans:
    """In-memory span recorder with a parent stack and event counters."""

    def __init__(self):
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.episode = -1
        # "learners.updates" and "learners.zero_residual" updates.
        self.counts: dict[str, int] = {}

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.rows)
        row = [name, 0, 0, self._stack[-1] if self._stack else -1, self.episode]
        self.rows.append(row)
        self._stack.append(idx)
        row[1] = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = _now()
            self._stack.pop()

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def durations(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for name, start, end, _, _ in self.rows:
            out.setdefault(name, []).append(end - start)
        return out

    def self_times(self) -> dict[str, int]:
        """Per name, total duration minus the time covered by child spans."""
        child = [0] * len(self.rows)
        for name, start, end, parent, _ in self.rows:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = {}
        for i, (name, start, end, _, _) in enumerate(self.rows):
            out[name] = out.get(name, 0) + (end - start - child[i])
        return out


# (owner, attribute, span name, event).  The event is None, "episode"
# (opens a new episode id) or "residual" (counts updates, and those with
# a zero residual).  An entry whose attribute no longer exists is
# skipped, so the benchmark survives the removal of a wrapped API; its
# layer then reports zero calls.
WRAPPED = (
    (harness, "run_episode", "harness.episode", "episode"),
    (harness, "make_environment", "environment.build", None),
    (harness, "build_learner", "learners.build", None),
    (environment.Environment, "round", "environment.round", None),
    (environment, "top_m_oracle", "environment.oracle", None),
    (diagnostics, "standard_certificates", "diagnostics.certificates", None),
    (numkit.SpdInverse, "rank_one_update", "numkit.rank_one_update", None),
    (numkit.CholFactor, "extend", "numkit.chol_extend", None),
    (numkit.CholFactor, "solve", "numkit.chol_solve", None),
    (numkit, "project_ball_mahalanobis", "numkit.project_ball", None),
    (lifting.KernelSpec, "column", "lifting.kernel_column", None),
    (lifting.LiftSpec, "map_for", "lifting.map_for", None),
    (lifting, "lift", "lifting.lift", None),
    (lifting, "adjoint_apply", "lifting.adjoint", None),
) + tuple(
    (cls, op, f"learners.{algo}.{op}", "residual" if op == "update" else None)
    for algo, cls in LEARNERS.items()
    for op in ("predict", "update")
) + tuple(
    (cls, op, f"diagnostics.{op}", None)
    for cls in (learners.CoRectron, learners.CoRectronK)
    for op in ("potential_direct", "post_round_leverage")
)


def _wrapper(spans: Spans, fn, name: str, event: str | None):
    def wrapped(*args, **kwargs):
        if event == "episode":
            spans.episode += 1
        elif event == "residual":
            spans.count("learners.updates")
            if not np.any(args[2]):
                spans.count("learners.zero_residual")
        return spans.call(name, fn, *args, **kwargs)

    return wrapped


@contextlib.contextmanager
def installed(spans: Spans):
    """Wrap the entry points in :data:`WRAPPED` for the duration.

    Module-level functions are replaced in every ``corectron`` module
    that imported them by name, since callers look them up there.
    """
    saved = []
    try:
        for owner, attr, name, event in WRAPPED:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = _wrapper(spans, fn, name, event)
            if isinstance(owner, type):
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("corectron") and getattr(mod, attr, None) is fn:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
        yield spans
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
