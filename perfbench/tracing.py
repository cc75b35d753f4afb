"""Spans around calls into gaussum's layers, recorded from outside.

`Tracer.install()` rebinds each traced function in every gaussum module
that holds a reference to it (``overlap`` is bound in
``gaussum.superposition`` and ``gaussum.cli`` as well as in
``gaussum.overlaps``), so calls made inside the program are caught too.
Spans are kept in memory, one list per thread, and analysed after the run.

A span's parent is the innermost open span of its own thread; the first
span of a worker thread takes the innermost open span of the thread that
installed the tracer (``fast_norm`` waits there while its workers probe).
Self time is the span's duration minus the union of its children's
intervals, so children running in parallel threads are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter

#: Functions traced by name; for the modules listed in ALL_PUBLIC every
#: public function defined there is traced and reported as one layer.
TRACED = {
    "overlaps": ("overlap", "overlaptriple", "triple_overlap_product", "branched_sqrt_det"),
    "superposition": ("exact_norm", "fast_norm", "superposition_energy_exact",
                      "post_measurement_superposition"),
    "evolution": ("apply_unitary", "apply_squeeze"),
    "measurement": ("postmeasure",),
    "circuit": ("parse_circuit", "evolve"),
    "core": ("validate_description",),
}
ALL_PUBLIC = ("states", "fock")
PHASE_ERRORS = ("PhaseRecoveryError", "BranchPathError")


class Tracer:
    """Records (id, name, start, end, parent, error) per traced call."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list = []
        self._owner_stack: list = []
        self._bindings: list = []
        self.dropped_branches = 0

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list = []
            with self._lock:
                self._per_thread.append(spans)
            state = self._local.state = ([], spans)
        return state

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = tracer._thread_state()
            outer = stack or tracer._owner_stack
            parent = outer[-1] if outer else None
            sid = next(tracer._ids)
            stack.append(sid)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, error))
            if name == "superposition.post_measurement_superposition":
                tracer.dropped_branches += args[0].chi - result.chi
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever gaussum binds it."""
        import gaussum

        modules = [gaussum] + [importlib.import_module(f"gaussum.{m}")
                               for m in ("core", "overlaps", "evolution", "measurement",
                                         "superposition", "states", "circuit", "fock", "cli")]
        targets = {}
        for short, names in TRACED.items():
            mod = importlib.import_module(f"gaussum.{short}")
            for fname in names:
                targets[id(getattr(mod, fname))] = f"{short}.{fname}"
        for short in ALL_PUBLIC:
            mod = importlib.import_module(f"gaussum.{short}")
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    targets[id(fn)] = f"{short}.{fname}"
        wrappers = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                name = targets.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._bindings.append((mod, attr, value))
                setattr(mod, attr, wrappers[name])
        self._owner_stack = self._thread_state()[0]

    def uninstall(self) -> None:
        for mod, attr, value in self._bindings:
            setattr(mod, attr, value)
        self._bindings.clear()

    def spans(self) -> list:
        with self._lock:
            return [s for spans in self._per_thread for s in spans]


def _union_length(intervals: list) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list) -> dict:
    """Per-name and per-module calls, total and self time, plus the
    relationships the benchmark reports (overlaps per Gram, per probe)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    names: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    modules: dict = defaultdict(float)
    under = defaultdict(lambda: [0, 0.0])      # (parent name, child name) → [calls, total_s]
    phase_errors = 0
    errored_parents = {s[4] for s in spans if s[5] is not None}
    for sid, name, start, end, parent, error in spans:
        dur = end - start
        self_s = dur - _union_length(children.get(sid, []))
        entry = names[name]
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += self_s
        modules[name.split(".")[0]] += self_s
        if parent is not None and parent in by_id:
            pair = under[(by_id[parent][1], name)]
            pair[0] += 1
            pair[1] += dur
        # count each raise once, at the innermost span it left
        if error in PHASE_ERRORS and name.startswith("overlaps.") and sid not in errored_parents:
            phase_errors += 1
    return {"names": dict(names), "modules": dict(modules), "under": dict(under),
            "phase_errors": phase_errors}
