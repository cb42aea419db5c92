"""Spans and call counters recorded around calls into memlogic's layers.

The tracer wraps public functions from the benchmark's own files; no
module under ``src/`` knows it exists.  Coarse layer calls (parsing,
``simulate``, CSV rendering, readout) each get a span with a name, start,
end and parent id.  Calls made once per step or per gate are far too many
for one span each, so they only add to a count and a total per
(name, parent name).  Everything stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute path, span name).  A function is wrapped where the
# caller looks it up: ``memlogic.cli`` binds its own references at import,
# so its names are wrapped there as well as in their home modules.
COARSE = (
    ("memlogic.cli", "parse_circuit", "netlist.parse_circuit"),
    ("memlogic.cli", "parse_stimulus", "netlist.parse_stimulus"),
    ("memlogic.cli", "simulate", "engine.simulate"),
    ("memlogic.cli", "write_trace", "engine.write_trace"),
    ("memlogic.netlist", "parse_circuit", "netlist.parse_circuit"),
    ("memlogic.netlist", "parse_stimulus", "netlist.parse_stimulus"),
    ("memlogic.netlist", "topological_order", "netlist.topological_order"),
    ("memlogic.engine", "topological_order", "netlist.topological_order"),
    ("memlogic.engine", "simulate", "engine.simulate"),
    ("memlogic.engine", "Trace.to_csv", "engine.to_csv"),
    ("memlogic.engine", "Trace.metadata", "engine.metadata"),
)
READOUT = (
    ("memlogic.engine", "read_binary", "engine.read_binary"),
    ("memlogic.engine", "settle_time", "engine.settle_time"),
    ("memlogic.harness", "read_binary", "engine.read_binary"),
    ("memlogic.harness", "run_pattern", "harness.run_pattern"),
)
# Per-step calls inside ``simulate``: the device step as bound in
# ``memlogic.gates`` and ``model_current`` as bound in ``memlogic.engine``.
FINE = (
    ("memlogic.netlist", "Stimulus.value_at", "netlist.value_at"),
    ("memlogic.gates", "GateInstance.step", "gates.step"),
    ("memlogic.gates", "step", "device.step"),
    ("memlogic.engine", "model_current", "device.model_current"),
)
LEVELS = {
    "readout": READOUT,
    "coarse": COARSE + READOUT,
    "fine": COARSE + READOUT + FINE,
}


def _device_held(result, args) -> bool:
    # The device returns its input state object unchanged inside the hold window.
    return result is args[0]


class Tracer:
    """Records spans and call counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent_id]
        self.calls: dict[tuple[str, str], list[int]] = {}  # (name, parent) -> [count, ns, held]
        self._stack: list[tuple[int, str]] = [(0, "")]

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [len(spans) + 1, name, 0, 0, stack[-1][0]]
            spans.append(record)
            stack.append((record[0], name))
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    def counter(self, name: str, fn, held=None):
        calls, stack, clock = self.calls, self._stack, time.perf_counter_ns

        def counted(*args, **kwargs):
            parent = stack[-1][1]
            stack.append((0, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
            entry = calls.get((name, parent))
            if entry is None:
                entry = calls[(name, parent)] = [0, 0, 0]
            entry[0] += 1
            entry[1] += elapsed
            if held is not None and held(result, args):
                entry[2] += 1
            return result

        return counted

    def install(self, level: str) -> None:
        """Wrap every target of a level; call after ``memlogic.cli`` is imported."""
        for target in LEVELS[level]:
            module, path, name = target
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if target in FINE:
                wrapped = self.counter(name, original, _device_held if name == "device.step" else None)
            else:
                wrapped = self.span(name, original)
            setattr(owner, attr, wrapped)

    def dump(self, path: str) -> None:
        calls = [[name, parent, *entry] for (name, parent), entry in self.calls.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "calls": calls}, fh)


def summarize(dumps: list[dict]) -> dict[str, dict[str, float]]:
    """Per-name totals over the dumps of one traced iteration.

    Returns ``{name: {"count", "ns", "self_ns", "held"}}``.  Self time is a
    name's total duration minus the time of its child spans and of the
    counted calls made directly under it.
    """
    out: dict[str, dict[str, float]] = {}

    def entry(name: str) -> dict[str, float]:
        return out.setdefault(name, {"count": 0, "ns": 0, "self_ns": 0, "held": 0})

    for dump in dumps:
        names = {span_id: name for span_id, name, _, _, _ in dump["spans"]}
        for _, name, start, end, parent_id in dump["spans"]:
            e = entry(name)
            e["count"] += 1
            e["ns"] += end - start
            e["self_ns"] += end - start
            if parent_id:
                entry(names[parent_id])["self_ns"] -= end - start
        for name, parent, count, ns, held in dump["calls"]:
            e = entry(name)
            e["count"] += count
            e["ns"] += ns
            e["self_ns"] += ns
            e["held"] += held
            if parent:
                entry(parent)["self_ns"] -= ns
    return out
