"""Span recording around the calls into hamest's public functions.

A :class:`Tracer` replaces each traced function, in every ``hamest`` module
namespace that holds it (module attributes and module-level dicts such as the
runner's scheme table), with a wrapper that records one span per call. A span
is a list ``[name, start_ns, end_ns, parent, trial, size]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``trial`` the trial id set by the
caller, and ``size`` a per-layer work count (matrix dimension, outcomes drawn,
symmetric dimension) or 0. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

NAME, START, END, PARENT, TRIAL, SIZE = range(6)


def _expm_dim(args, kwargs, result):
    return len(args[0]) if args else len(kwargs["h"])


def _outcomes(args, kwargs, result):
    return int(args[1]) if len(args) > 1 else int(kwargs["n"])


def _sym_dim(args, kwargs, result):
    return int(result.D)


# (defining module, function, span name, size extractor)
TRACED = (
    ("hamest.linalg", "hermitian_expm", "linalg.expm", _expm_dim),
    ("hamest.probe", "evolve", "probe.evolve", None),
    ("hamest.probe", "qfi_matrix", "probe.qfi", None),
    ("hamest.symmetric", "occupation_space", "symmetric.space", _sym_dim),
    ("hamest.symmetric", "sym_space", "symmetric.space", _sym_dim),
    ("hamest.symmetric", "collective", "symmetric.collective", None),
    ("hamest.estimation", "postselection_frame", "estimation.frame", None),
    ("hamest.estimation", "sample_haar_outcomes", "estimation.sample", _outcomes),
    ("hamest.estimation", "reconstruct_from_projector_mean", "estimation.reconstruct", None),
    ("hamest.estimation", "invert_theta", "estimation.invert", None),
    ("hamest.estimation", "run_one_channel", "estimation.driver", None),
    ("hamest.estimation", "run_adaptive", "estimation.driver", None),
    ("hamest.estimation", "run_many_channel", "estimation.driver", None),
)


class Tracer:
    """Records spans for wrapped calls; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.trial = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.trial, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size is not None:
                span[SIZE] = size(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function in every loaded hamest namespace that holds it.

        A function or module that no longer exists is skipped, so its layer
        metrics read 0.
        """
        for modname, attr, name, size in TRACED:
            try:
                original = getattr(importlib.import_module(modname), attr, None)
            except ImportError:
                continue
            if original is None:
                continue
            holders = []
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", None) or ""
                if mod_name != "hamest" and not mod_name.startswith("hamest."):
                    continue
                namespace = vars(mod)
                for key, value in namespace.items():
                    if value is original:
                        holders.append((namespace, key))
                    elif isinstance(value, dict):
                        holders += [(value, k) for k, v in value.items() if v is original]
            wrapper = self.wrap(name, original, size)
            for table, key in holders:
                table[key] = wrapper
                self._undo.append((table, key, original))

    def uninstall(self):
        for table, key, original in reversed(self._undo):
            table[key] = original
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "trial", "size"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _union_length(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered = _union_length((max(spans[k][START], start), min(spans[k][END], end))
                                for k in kids)
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, summed self time, summed and largest size."""
    totals: dict[str, dict] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        t = totals.setdefault(span[NAME], {"calls": 0, "self_ns": 0, "size_sum": 0,
                                           "size_max": 0})
        t["calls"] += 1
        t["self_ns"] += self_ns
        t["size_sum"] += span[SIZE]
        t["size_max"] = max(t["size_max"], span[SIZE])
    return totals


def child_calls(spans, parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
    return sum(1 for s in spans
               if s[NAME] == child_name and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == parent_name)
