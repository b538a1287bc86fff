"""In-process span recorder for the traced benchmark run.

`Tracer.install()` replaces the public entry points of the zdtrade layers
with timing wrappers, in the defining module and in every zdtrade module
that imported the name, and `uninstall()` puts the originals back.  Nothing
in the package itself is edited.

Two kinds of wrapper:

* span: one record per call with name, layer, start, end, parent span, the
  operation id and optional counters taken from the arguments or result;
* folded: hot inner calls (about 10^5 per run) only bump a per-parent-span
  counter and busy time, so tracing them stays cheap.

Busy and self times are thread CPU seconds (start and end of a span are
wall time).  A call's self time is its CPU time minus that of its children
on the same thread.  Calls made on pool threads (`--jobs 2`) are parented
to the span the main thread has open (the scan span), and the pool
threads' CPU time between those calls is added to that span's self time.
CPU time leaves out the time a pool thread waits for the interpreter lock,
so layer times add up to at most the wall time of the operation.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

_now = time.perf_counter
_cpu = time.thread_time


def _rows_bytes(args, kwargs, result):
    return {"rows": result.count("\n") - 1, "bytes": len(result)}


def _grid_cells(args, kwargs, result):
    return {"cells": int(result.feasible.size),
            "feasible": int(result.feasible.sum()),
            "jobs": int(kwargs.get("jobs", 1))}


def _draws(args, kwargs, result):
    return {"trials": result.trials, "discarded": result.discarded}


def _n_chains(position, key):
    def count(args, kwargs, result):
        return {key: int(len(args[position]))}
    return count


def _one(key):
    def count(args, kwargs, result):
        return {key: 1}
    return count


def _rounds(args, kwargs, result):
    return {"rounds": int(args[0].rounds)}


# (module, attribute path, layer, kind, counter).  Kind "span" records a
# span per call; "fold" only counts calls and busy time per parent span.
TARGETS = (
    ("zdtrade.cli", "main", "cli", "span", None),
    ("zdtrade._text", "csv_text", "text", "span", _rows_bytes),
    ("zdtrade.pinning", "PinningGrid.to_csv", "text", "span", None),
    ("zdtrade.extortion", "ExtortionGrid.to_csv", "text", "span", None),
    ("zdtrade.simulate", "Trace.to_csv", "text", "span", None),
    ("zdtrade.payoffs", "build_payoffs", "payoffs", "fold", None),
    ("zdtrade.payoffs", "GameParams.replace_noise", "payoffs", "fold", None),
    ("zdtrade.pinning", "scan_pinning_region", "pinning", "span", _grid_cells),
    ("zdtrade.pinning", "solve_pinning", "pinning", "span", None),
    ("zdtrade.extortion", "scan_extortion_region", "extortion", "span",
     _grid_cells),
    ("zdtrade.extortion", "verify_extortion_relation", "extortion", "span",
     _draws),
    ("zdtrade.extortion", "build_extortion_strategy", "extortion", "span",
     None),
    ("zdtrade.extortion", "chi_bounds", "extortion", "fold", None),
    ("zdtrade.extortion", "chi_feasible_interval", "extortion", "fold", None),
    ("zdtrade.extortion", "phi_feasible_interval", "extortion", "fold", None),
    ("zdtrade.markov", "build_transition_matrix", "markov", "span",
     _one("chains")),
    ("zdtrade.markov", "build_transition_matrices", "markov", "span",
     _n_chains(1, "chains")),
    ("zdtrade.markov", "stationary_distribution", "markov", "span",
     _one("svd_chains")),
    ("zdtrade.markov", "stationary_distributions", "markov", "span",
     _n_chains(0, "svd_chains")),
    ("zdtrade.markov", "reducible_mask", "markov", "span",
     _n_chains(1, "svd_chains")),
    ("zdtrade.markov", "expected_payoffs", "markov", "span", None),
    ("zdtrade.markov", "expected_payoffs_many", "markov", "span", None),
    ("zdtrade.simulate", "play_rounds", "simulate", "span", _rounds),
    ("zdtrade.simulate", "compare_to_analytic", "simulate", "span", None),
)


class _Frame:
    __slots__ = ("cpu", "child", "parent_span")

    def __init__(self, cpu, parent_span):
        self.cpu = cpu
        self.child = 0.0
        self.parent_span = parent_span


class _SpanFrame(_Frame):
    __slots__ = ("start", "span_id")

    def __init__(self, start, cpu, parent_span, span_id):
        super().__init__(cpu, parent_span)
        self.start = start
        self.span_id = span_id


class _ThreadState:
    """Per-thread tracing state: open frames, finished records, and for
    pool threads the CPU mark after the last traced call."""

    def __init__(self):
        self.stack = []
        self.spans = []
        self.folds = {}
        self.glue = {}          # parent span id -> CPU between traced calls
        self.last_cpu = None


class Tracer:
    """Records spans and folded counters for one operation process."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = None
        self._threads = []        # every _ThreadState seen
        self._saved = []          # (owner, name, original) for uninstall

    def _thread(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            if threading.current_thread() is threading.main_thread():
                self._main = state
            self._threads.append(state)
            return state

    def _enter(self, state, cpu):
        """Parent span of a call starting now on this thread."""
        stack = state.stack
        if not stack:
            main = self._main
            if main is None or main is state or not main.stack:
                return None
            # First traced call of a pool-thread task: parent it to the
            # main thread's open span and credit the thread's CPU since its
            # previous traced call to that span.
            stack = main.stack
            parent = stack[-1] if isinstance(stack[-1], _SpanFrame) \
                else stack[-1].parent_span
            if parent is not None and state.last_cpu is not None:
                glue = state.glue
                glue[parent.span_id] = (glue.get(parent.span_id, 0.0)
                                        + cpu - state.last_cpu)
            return parent
        top = stack[-1]
        return top if isinstance(top, _SpanFrame) else top.parent_span

    def _exit(self, state, frame):
        """Pop `frame` and return its self time in CPU seconds."""
        cpu = _cpu()
        state.stack.pop()
        duration = cpu - frame.cpu
        if state.stack:
            state.stack[-1].child += duration
        elif state is not self._main:
            state.last_cpu = cpu
        return max(duration - frame.child, 0.0)

    # -- wrappers -----------------------------------------------------------
    def _span_wrapper(self, func, layer, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._thread()
            cpu = _cpu()
            frame = _SpanFrame(_now(), cpu, tracer._enter(state, cpu),
                               next(tracer._ids))
            state.stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = _now()
                self_time = tracer._exit(state, frame)
            parent = frame.parent_span
            state.spans.append({
                "id": frame.span_id,
                "parent": parent.span_id if parent is not None else None,
                "op": tracer.op_id, "layer": layer, "name": name,
                "start": frame.start, "end": end, "self": self_time,
                "counts": counter(args, kwargs, result) if counter else {},
            })
            return result

        traced.__wrapped__ = func
        return traced

    def _fold_wrapper(self, func, layer, name):
        tracer = self

        def folded(*args, **kwargs):
            state = tracer._thread()
            cpu = _cpu()
            frame = _Frame(cpu, tracer._enter(state, cpu))
            state.stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                self_time = tracer._exit(state, frame)
                parent = frame.parent_span
                key = (layer, name, parent.span_id if parent else None)
                entry = state.folds.get(key)
                if entry is None:
                    state.folds[key] = [1, self_time]
                else:
                    entry[0] += 1
                    entry[1] += self_time

        folded.__wrapped__ = func
        return folded

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "zdtrade"
                                         or n.startswith("zdtrade."))]
        for module_name, path, layer, kind, counter in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if kind == "span":
                wrapper = self._span_wrapper(original, layer, path, counter)
            else:
                wrapper = self._fold_wrapper(original, layer, path)
            self._patch(owner, attr, original, wrapper)
            if not outer:
                # Modules that did `from .x import name` hold their own copy.
                for module in modules:
                    if (module is not owner
                            and getattr(module, attr, None) is original):
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def records(self) -> dict:
        """All spans and folded counters seen so far, for writing out."""
        spans = sorted((s for t in self._threads for s in t.spans),
                       key=lambda s: s["id"])
        by_id = {s["id"]: s for s in spans}
        folds = {}
        for t in self._threads:
            for span_id, cpu in t.glue.items():
                by_id[span_id]["self"] += cpu
            for (layer, name, parent), (calls, busy) in t.folds.items():
                entry = folds.setdefault((name, parent), {
                    "op": self.op_id, "layer": layer, "name": name,
                    "parent": parent, "calls": 0, "self": 0.0})
                entry["calls"] += calls
                entry["self"] += busy
        order = sorted(folds, key=lambda key: (key[0], key[1] or 0))
        return {"spans": spans, "folds": [folds[key] for key in order]}
