"""Span tracing of sring's layers, installed from outside the package.

Every public function of the five layer modules is replaced, in each sring
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent).  The per-element solvers ``solve_mul_all`` and
``solve_mul_random`` run millions of times in one check, so they are
recorded as a call count and summed time instead of one span per call.
A span's self time is its duration minus the time covered by its children,
hot calls included.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rings", "ringfile", "ideals", "predicates", "harness")
HOT_METHODS = ("solve_mul_all", "solve_mul_random")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.total = defaultdict(float)
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.by_statement = defaultdict(float)
        self.rings: dict[int, object] = {}
        self.enumerated: dict[int, tuple[object, int]] = {}
        self.enum_found = 0
        self.enum_sums = 0
        self.armendariz_calls: list[tuple] = []
        self._enum_stack: list[dict] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._finite_ring = None

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        from sring.rings import FiniteRing
        self._finite_ring = FiniteRing
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"sring.{layer}"]
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                replace[id(fn)] = self._span_wrapper(layer, name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "sring" and not mod_name.startswith("sring."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        for name in HOT_METHODS:
            fn = FiniteRing.__dict__[name]
            self._patches.append((FiniteRing, name, fn))
            setattr(FiniteRing, name, self._hot_wrapper(f"rings.{name}", fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, layer, name, fn):
        key = f"{layer}.{name}"
        stack = self._stack
        spans = self.spans
        total, calls, self_time = self.total, self.calls, self.self_time
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            tracer._before(key, args)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                spans.append((sid, key, t0, t1, parent))
                total[key] += dur
                calls[key] += 1
                self_time[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            tracer._after(key, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot_wrapper(self, key, fn):
        stack = self._stack
        total, calls, self_time = self.total, self.calls, self.self_time
        perf = time.perf_counter

        def wrapper(ring, *args):
            frame = [-1, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(ring, *args)
            finally:
                dur = perf() - t0
                stack.pop()
                total[key] += dur
                calls[key] += 1
                self_time["rings"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def span(self, name: str):
        """Context manager for a benchmark-side root span (one command)."""
        return _RootSpan(self, name)

    # -- observations --------------------------------------------------------
    def _before(self, key, args):
        if args and isinstance(args[0], self._finite_ring):
            self.rings.setdefault(id(args[0]), args[0])
        if key == "ideals.enumerate_ideals":
            self._enum_stack.append({"principal": set(), "sums": 0})

    def _after(self, key, args, kwargs, result, dur):
        if key == "rings.build_ring":
            self.rings.setdefault(id(result), result)
        elif key == "ideals.enumerate_ideals":
            ctx = self._enum_stack.pop()
            ring = args[0]
            self.enumerated[id(ring)] = (ring, len(result))
            self.enum_found += len(result) - len(ctx["principal"])
            self.enum_sums += ctx["sums"]
        elif key == "ideals.ideal_generated" and self._enum_stack:
            self._enum_stack[-1]["principal"].add(result.mask)
        elif key == "ideals.ideal_sum" and self._enum_stack:
            self._enum_stack[-1]["sums"] += 1
        elif key == "predicates.is_u_s_armendariz_up_to":
            degree = args[2] if len(args) > 2 else kwargs["degree"]
            self.armendariz_calls.append((args[0], degree, result, kwargs))
        elif key == "harness.check_statement":
            self.by_statement[args[0].name] += dur

    # -- output ----------------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"workload": self.workload,
                                 "fields": ["id", "name", "start", "end", "parent"]})
                     + "\n")
            for sid, key, t0, t1, parent in sorted(self.spans):
                fh.write(f"[{sid},\"{key}\",{t0!r},{t1!r},{parent}]\n")


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.key = f"command.{name}"

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        tr._stack.append([self.sid, 0.0])
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = time.perf_counter()
        tr._stack.pop()
        tr.spans.append((self.sid, self.key, self.t0, t1, -1))
        return False
