"""Span tracing of vmplace's module boundaries, installed from outside ``src/``.

:class:`Tracer` replaces the traced functions with wrappers in every
``vmplace`` module namespace that binds them (``vmplace.power.integrate_energy``
and ``vmplace.schedulers.integrate_energy`` alike) and wraps methods on their
class. Each call becomes a span (name, start, end, parent) kept in memory;
self time is the span's duration minus the time covered by its children.
Per-name call counts, inclusive and self times are aggregated as spans close,
so the numbers stay exact when the stored span list reaches its cap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List

#: Module -> names of the functions traced in it; ``Class.method`` for methods.
TRACED = {
    "workload": ("parse_timetable", "expand", "build_fleet", "fleet_spec_from_json", "load_fleet"),
    "model": ("check_feasibility", "ProblemInstance.__init__", "ProblemInstance.segments"),
    "power": (
        "integrate_energy",
        "utilization",
        "interpolate_power",
        "EnergyEvaluator.__init__",
        "EnergyEvaluator.try_energy",
        "EnergyEvaluator._compute",
        "EnergyEvaluator.first_violation",
        "EnergyEvaluator.fits",
        "EnergyEvaluator.snapshot_power",
    ),
    "schedulers": (
        "bfd_schedule",
        "gapa_schedule",
        "exact_schedule",
        "repair",
        "select_parents",
        "crossover",
        "mutate",
        "fitness",
        "placement_from_genes",
    ),
    "cli": ("main", "build_instance", "run_experiment", "emit_report"),
}

#: Spans of these names count once towards ``fleet`` when not nested in each other.
FLEET_GROUP = ("workload.load_fleet", "workload.fleet_spec_from_json", "workload.build_fleet")

#: Spans kept for the spans file; later ones are aggregated but not stored.
SPAN_CAP = 200_000

GAPA = "schedulers.gapa_schedule"
EXACT = "schedulers.exact_schedule"
REPAIR = "schedulers.repair"
SELECT = "schedulers.select_parents"
FIRST_VIOLATION = "power.EnergyEvaluator.first_violation"


class _Frame:
    __slots__ = ("name", "start", "index", "child", "fv", "selected", "outer_fleet")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.index = index
        self.child = 0.0  # time covered by direct children
        self.fv = 0  # first_violation calls made directly from this span
        self.selected = False  # gapa_schedule: first select_parents seen
        self.outer_fleet = False


class Tracer:
    """Records spans for the traced functions while installed and active."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.spans_dropped = 0
        self.active = True
        self._stack: List[_Frame] = []
        self._fleet_depth = 0
        self._restore: List[Callable[[], None]] = []
        self.reset()

    # -- aggregates ---------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh set of aggregates (spans already stored are kept)."""
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.fleet_s = 0.0
        self.ga_init_s = 0.0
        self.repair_moves = 0
        self.repairs_moved = 0
        self.evaluations: Dict[str, int] = {}

    def _open(self, name: str) -> _Frame:
        now = time.perf_counter()
        stack = self._stack
        parent = stack[-1] if stack else None
        if len(self.span_start) < SPAN_CAP:
            index = len(self.span_start)
            nid = self._name_id.get(name)
            if nid is None:
                nid = self._name_id[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(nid)
            self.span_parent.append(parent.index if parent else -1)
            self.span_start.append(now - self.t0)
            self.span_end.append(0.0)
            self.span_self.append(0.0)
        else:
            index = -1
            self.spans_dropped += 1
        frame = _Frame(name, now, index)
        if parent is not None:
            if name == FIRST_VIOLATION:
                parent.fv += 1
            elif name == SELECT and parent.name == GAPA and not parent.selected:
                parent.selected = True
                self.ga_init_s += now - parent.start
        if name in FLEET_GROUP:
            frame.outer_fleet = self._fleet_depth == 0
            self._fleet_depth += 1
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame, result) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name = frame.name
        dur = end - frame.start
        own = dur - frame.child
        if stack:
            stack[-1].child += dur
        if frame.index >= 0:
            self.span_end[frame.index] = end - self.t0
            self.span_self[frame.index] = own
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + own
        if name in FLEET_GROUP:
            self._fleet_depth -= 1
            if frame.outer_fleet:
                self.fleet_s += dur
        elif name == REPAIR:
            if frame.fv > 1:
                self.repair_moves += frame.fv - 1
                self.repairs_moved += 1
        elif (name == GAPA or name == EXACT) and result is not None:
            self.evaluations[name] = self.evaluations.get(name, 0) + result.stats["evaluations"]

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(frame, result)

        return traced

    def install(self) -> None:
        """Wrap every function in :data:`TRACED` wherever a vmplace module binds it."""
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "vmplace" or key.startswith("vmplace."))
        ]
        for short, names in TRACED.items():
            module = sys.modules[f"vmplace.{short}"]
            for qual in names:
                span = f"{short}.{qual}"
                if "." in qual:
                    self._install_method(module, qual, span)
                else:
                    self._install_function(namespaces, getattr(module, qual), qual, span)

    def _install_function(self, namespaces, fn, attr: str, span: str) -> None:
        wrapper = self._wrap(fn, span)
        for ns in namespaces:
            if ns.__dict__.get(attr) is fn:
                setattr(ns, attr, wrapper)
                self._restore.append(functools.partial(setattr, ns, attr, fn))

    def _install_method(self, module, qual: str, span: str) -> None:
        cls_name, attr = qual.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(self._wrap(original.func, span))
            replacement.__set_name__(cls, attr)
        else:
            replacement = self._wrap(original, span)
        setattr(cls, attr, replacement)
        self._restore.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def span_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in sorted(self.calls)
        }

    def write_spans(self, path) -> int:
        """Write stored spans as CSV (times in seconds from tracer creation)."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self.span_parent[i]},{names[self.span_name[i]]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f},{self.span_self[i]:.9f}\n"
                )
        return len(self.span_start)
