"""Spans and counts around the program's public functions, from outside.

``Tracer.install`` replaces every binding of each public function of the
traced modules with a wrapper that records a span: in the defining module,
in every ``fastreadout`` module that imported the function by name (so
``optimize`` calls the wrapped ``simulate_batch``), and in
``cli._COMMANDS``. ``TwoCavityModel.trace`` is wrapped as
``dynamics.trace``, and the ``least_squares`` names of ``analysis`` and
``calib`` as ``analysis.least_squares`` and ``calib.least_squares``.
``search`` is part of the optimize layer: its helpers are not wrapped and
their time stays with their callers.

A span is (name, start, end, parent index, run id); spans stay in memory
until ``write``. Counts come from return values: the shot records of
``simulate_batch`` and the ``nfev``/``status`` of ``least_squares``.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time
import types

TRACED_MODULES = ("params", "config", "dynamics", "shots", "analysis",
                  "calib", "optimize", "cli")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.run_id = ""
        #: (n_shots, args, kwargs, function) of the largest simulate_batch call
        self.largest_batch = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        return wrapper

    def _set(self, target, key, value):
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "fastreadout" or name.startswith("fastreadout.")}
        hooks = {"shots.simulate_batch": self._count_shots}
        wrappers = {}
        for short in TRACED_MODULES:
            mod = modules["fastreadout." + short]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
        commands = modules["fastreadout.cli"]._COMMANDS
        for key, fn in list(commands.items()):
            if id(fn) in wrappers:
                self._set(commands, key, wrappers[id(fn)])
        model = modules["fastreadout.dynamics"].TwoCavityModel
        self._set(model, "trace", self._wrap("dynamics.trace", model.trace))
        for short in ("analysis", "calib"):
            mod = modules["fastreadout." + short]
            self._set(mod, "least_squares",
                      self._wrap(f"{short}.least_squares", mod.least_squares,
                                 self._fit_counter(short)))

    def uninstall(self):
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    # -- counts from return values -------------------------------------------

    def _count_shots(self, fn, args, kwargs, records):
        c = self.counts
        c["shots.shots"] += len(records)
        for rec in records:
            if rec.jump_times:
                c["shots.jump_shots"] += 1
                c["shots.jumps"] += len(rec.jump_times)
        if self.largest_batch is None or len(records) > self.largest_batch[0]:
            self.largest_batch = (len(records), args, kwargs, fn)

    def _fit_counter(self, short: str):
        def hook(fn, args, kwargs, result):
            self.counts[f"{short}.least_squares.nfev"] += result.nfev
            if result.status <= 0:
                self.counts[f"{short}.least_squares.not_converged"] += 1
        return hook

    # -- results ---------------------------------------------------------------

    def per_function(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds] over all spans.

        Self time is a span's duration minus the spans of other layers it
        reaches directly or through calls within its own layer. Calls within
        one layer fold into the caller (fit_transmission keeps the time of
        its least_squares), so a layer's self times never count another
        layer's work.
        """
        spans = self.spans
        layers = [_layer(s[0]) for s in spans]
        covered = [0.0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent < 0 or layers[parent] == layers[i]:
                continue
            outer = layers[parent]
            a = parent
            while a >= 0 and layers[a] == outer:
                covered[a] += end - start
                a = spans[a][3]
        agg: dict[str, list] = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(spans):
            row = agg[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[i]
        return dict(agg)

    def write(self, stem):
        """Spans to ``<stem>.spans.csv``, counts to ``<stem>.counts.json``."""
        with open(f"{stem}.spans.csv", "w") as fh:
            fh.write("run_id,span,name,start,end,parent\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{run_id},{i},{name},{start!r},{end!r},{parent}\n")
        with open(f"{stem}.counts.json", "w") as fh:
            json.dump(dict(self.counts), fh, indent=1, sort_keys=True)
