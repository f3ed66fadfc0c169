"""In-memory span tracer installed around the package's public functions.

Every public function defined in a layer module is wrapped, and the wrapper
replaces the original wherever the package holds a reference to it (the
defining module and every module that imported it by name).  Spans are kept
in a list and analysed once the traced pass has ended; a span's self time is
its duration minus the durations of its direct children, which nest strictly
because every call is synchronous.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

from layers import MAX_COUNTERS, MODULES, NESTED_COUNTS, PER_LAYER, PROBES


class TraceError(RuntimeError):
    """A watched function is missing or was never called."""


PACKAGE = "smoothing_lab"


class Tracer:
    def __init__(self):
        self.spans: list = []     # [name, parent index, t0, t1, counters]
        self._stack: list = []
        self._raised: list = []   # (exception, modules it already counted in)
        self.errors: dict = defaultdict(int)
        self._patched: list = []  # (module, attribute, original)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions wherever the package refers to them."""
        wrappers, names = {}, set()
        for layer in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
                    names.add(f"{layer}.{name}")
        missing = sorted({m.watch for m in PER_LAYER if m.watch} - names)
        if missing:
            raise TraceError(f"watched functions not found: {missing}")
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, qual: str):
        probe = PROBES.get(qual)
        signature = inspect.signature(fn) if probe else None
        module = qual.split(".", 1)[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([qual, stack[-1] if stack else None, 0.0, 0.0, None])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(exc, module)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][2:4] = (t0, t1)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx][4] = probe(bound.arguments, result)
            return result

        return wrapper

    def _count_error(self, exc: BaseException, module: str) -> None:
        for seen_exc, modules in self._raised:
            if seen_exc is exc:
                break
        else:
            modules = set()
            self._raised.append((exc, modules))
        if module not in modules:
            modules.add(module)
            self.errors[module] += 1

    # -- analysis -------------------------------------------------------

    def summary(self) -> dict:
        """Per subject (module or function): calls, self_s and counters.

        `counted_s[key]` is the inclusive duration of the spans that carry
        counter `key`, the base of its `<key>_per_s` rate.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        nested: dict = defaultdict(lambda: defaultdict(int))
        for child, ancestor, counter in NESTED_COUNTS:
            for name, parent, *_ in self.spans:
                if name != child:
                    continue
                while parent is not None and self.spans[parent][0] != ancestor:
                    parent = self.spans[parent][1]
                if parent is not None:
                    nested[parent][counter] += 1
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                         "counted_s": defaultdict(float)})
        for i, (name, _, t0, t1, counters) in enumerate(self.spans):
            own = (t1 - t0) - child_time[i]
            counters = {**(counters or {}), **nested.get(i, {})}
            for subject in (name, name.split(".", 1)[0]):
                entry = out[subject]
                entry["calls"] += 1
                entry["self_s"] += own
                for key, value in counters.items():
                    if key in MAX_COUNTERS:
                        entry[key] = max(entry.get(key, value), value)
                    else:
                        entry[key] = entry.get(key, 0) + value
                    entry["counted_s"][key] += t1 - t0
        return out

    def metrics(self) -> dict:
        """Every per-layer metric; subjects never called read 0."""
        summary = self.summary()
        values = {}
        for metric in PER_LAYER:
            subject, stat = metric.name.rsplit(".", 1)
            if subject == "trace":
                continue
            entry = summary.get(subject, {})
            if stat == "errors":
                value = self.errors.get(subject, 0)
            elif stat.endswith("_per_s"):
                counter = stat[: -len("_per_s")]
                busy = entry.get("counted_s", {}).get(counter, 0.0)
                value = entry.get(counter, 0) / busy if busy > 0 else 0.0
            else:
                value = entry.get(stat, 0)
            values[metric.name] = value
        return values

    def uncalled(self, workload: str) -> list:
        called = {name for name, *_ in self.spans}
        return sorted({m.watch for m in PER_LAYER
                       if workload in m.workloads and m.watch not in called})

    def dominant(self) -> dict:
        """The module and the function with the largest self time."""
        summary = self.summary()
        modules = {k: v["self_s"] for k, v in summary.items() if "." not in k}
        functions = {k: v["self_s"] for k, v in summary.items() if "." in k}
        return {"module": max(modules, key=modules.get, default=None),
                "function": max(functions, key=functions.get, default=None),
                "module_self_s": modules}

    def write(self, fh, **fields) -> None:
        """One JSON line per span: name, parent index, start, end, counters."""
        for span in self.spans:
            fh.write(json.dumps({**fields, "span": span}) + "\n")
