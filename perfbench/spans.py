"""In-memory span tracer that wraps dagdecode's public functions from outside.

The package is not edited. ``Tracer.install`` finds each traced function
object and replaces it in every ``dagdecode`` module that binds it (its home
module, the package namespace, and any module that did ``from .x import f``),
so a call is recorded whichever name the caller used. ``uninstall`` restores
the originals, so untraced and traced requests can alternate in one process.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``request`` the id of the request that
caused it. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import pathlib
import sys
import time

#: Traced functions as ``layer.function``; the layer is the home module.
TARGETS = (
    "cli.run_cli",
    "io.generate_instance",
    "io.serialize_instance",
    "io.parse_instance",
    "lattice.validate",
    "decoders.decode",
    "decoders.viterbi_decode",
    "decoders.joint_viterbi_decode",
    "decoders.build_viterbi_table",
    "decoders.select_length",
    "decoders.backtrace",
    "decoders.argmax_hypothesis",
    "decoders.greedy_decode",
    "decoders.lookahead_decode",
    "scoring.marginal_translation_log_prob",
    "scoring.path_log_prob",
    "analysis.compare_strategies",
    "oracle.brute_force_best_path",
    "oracle.brute_force_best_joint",
)


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "dagdecode" or name.startswith("dagdecode."))
    ]


def resolve(target: str):
    """The function object for ``layer.function``, or None if no module has it.

    The home module is searched first; if a refactor moved the function, any
    other dagdecode module that binds a function of that name is used.
    """
    layer, fname = target.split(".")
    home = sys.modules.get(f"dagdecode.{layer}")
    candidates = ([home] if home is not None else []) + _package_modules()
    for mod in candidates:
        fn = getattr(mod, fname, None)
        if callable(fn) and getattr(fn, "__name__", None) == fname:
            return fn
    return None


class Tracer:
    """Records spans, and counters per request, for calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[object, dict[str, float]] = {}
        self.request = None
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        self._tables: set = set()

    # -- installation -------------------------------------------------------

    def install(self, count_reads: bool = False) -> None:
        """Wrap every binding of every target; idempotent."""
        if self._saved:
            return
        modules = _package_modules()
        for target in TARGETS:
            fn = resolve(target)
            if fn is None:
                self.missing.add(target)
                continue
            wrapper = self._wrappers.get(target)
            if wrapper is None or wrapper.__wrapped__ is not fn:
                wrapper = self._wrap(target, fn)
                self._wrappers[target] = wrapper
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        if count_reads:
            for attr in ("read_text", "read_bytes"):
                original = getattr(pathlib.Path, attr)
                self._saved.append((pathlib.Path, attr, original))
                setattr(pathlib.Path, attr, self._count_reads(original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.request]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, kwargs, result)
            return result

        return traced

    def _count_reads(self, original):
        @functools.wraps(original)
        def counted(path, *args, **kwargs):
            data = original(path, *args, **kwargs)
            size = len(data.encode()) if isinstance(data, str) else len(data)
            self.add("io.read_bytes", size)
            return data

        return counted

    def add(self, counter: str, amount: float = 1, request=None, peak=False) -> None:
        """Add to (or, with ``peak``, raise to) a counter of one request."""
        counts = self.counts.setdefault(self.request if request is None else request, {})
        old = counts.get(counter, 0)
        counts[counter] = max(old, amount) if peak else old + amount

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "decoders.build_viterbi_table":
            instance = args[0] if args else kwargs.get("instance")
            mode = args[1] if len(args) > 1 else kwargs.get("mode")
            key = (self.request, id(instance), mode)
            if key not in self._tables:
                self._tables.add(key)
                self.add("decoders.distinct_tables")
            self.add("decoders.table_bytes", result.alpha.nbytes + result.psi.nbytes, peak=True)
        elif name.startswith("oracle.brute_force_best"):
            self.add("oracle.paths_enumerated", result.path_count)

    # -- transport between processes ----------------------------------------

    def dump(self) -> dict:
        """Spans and counters of a process that served one request."""
        return {
            "spans": self.spans,
            "counts": self.counts.get(None, {}),
            "missing": sorted(self.missing),
        }

    def absorb(self, dump: dict, request) -> None:
        """Merge a child process's dump, re-labelled with ``request``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in dump["spans"]:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, request]
            )
        for counter, amount in dump["counts"].items():
            self.add(counter, amount, request, peak=counter == "decoders.table_bytes")
        self.missing.update(dump["missing"])


def summarize(spans, requests) -> dict:
    """Per span name over the given request ids: calls, inclusive and self seconds."""
    wanted = set(requests)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _, request) in enumerate(spans):
        if request not in wanted:
            continue
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
    return out
