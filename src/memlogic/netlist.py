"""Parsing and validation of circuit and stimulus descriptions.

Both formats are line oriented, UTF-8, with ``#`` starting a comment and
an optional leading ``format memlogic/1`` version line.

Netlist grammar::

    input <NAME>
    gate <ID> <MOR|MAND|MNOT> <src> [<src>]
    output <NAME> <ID>

where ``<src>`` is either a declared input name or a gate id.  Gates may
reference ids declared later in the file; the graph is validated as a
whole after parsing.

Stimulus grammar::

    <NAME>: <start>..<end>=<volts>, <start>..<end>=<volts>, ...

with times in milliseconds.  Intervals per terminal must tile [0, horizon]
without gaps or overlaps, where the horizon is the largest end time in
the file.
"""

from __future__ import annotations

import math
import re
from bisect import insort
from collections import namedtuple

from .gates import GateKind

FORMAT_LINE = "format memlogic/1"


class NetlistError(ValueError):
    """Base class for every diagnostic produced by this module."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class NetlistSyntaxError(NetlistError):
    pass


class DuplicateError(NetlistError):
    pass


class ArityError(NetlistError):
    pass


class DanglingNetError(NetlistError):
    pass


class CycleError(NetlistError):
    pass


class OverlapError(NetlistError):
    pass


class CoverageError(NetlistError):
    pass


class UnknownTerminalError(NetlistError):
    pass


class GateNode(namedtuple("GateNode", "id kind sources")):
    """One gate declaration: id, kind and its driver references.

    Sources are input terminal names (str) or gate ids (int), in pin order.
    """

    __slots__ = ()


class CircuitGraph(namedtuple("CircuitGraph", "nodes inputs outputs")):
    """Validated, acyclic gate-level netlist.

    ``nodes`` are the gates, ``inputs`` the input names, and ``outputs``
    the (probe name, gate id) pairs, each in declaration order.
    """

    __slots__ = ()

    @property
    def probes(self) -> dict[str, int]:
        return dict(self.outputs)


Segment = namedtuple("Segment", "start end volts")


class Stimulus(namedtuple("Stimulus", "segments")):
    """Piecewise-constant input waveforms: one level per terminal at each instant of [0, horizon_ms].

    ``segments`` holds one (terminal name, its ``Segment`` tuple) pair per terminal.  Construction, ``_replace``
    included, sorts each terminal's segments by start and checks that they tile [0, horizon_ms]: the first starts at 0,
    each next one where the one before ends, and every terminal ends at the horizon, the largest end.  An overlap is an
    ``OverlapError``; a gap, a NaN time or an end off the horizon is a ``CoverageError`` naming the terminal.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))
    horizon_ms = property(lambda self: self.segments[0][1][-1].end)

    def __new__(cls, segments):
        return super().__new__(cls, _tiled([(name, segs, None) for name, segs in segments]))

    @property
    def terminals(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.segments)

    def value_at(self, terminal: str, t_ms: float) -> float:
        """Voltage on a terminal at time t: the level of the segment holding t, or of the last from the horizon on."""
        for name, segs in self.segments:
            if name == terminal:
                if not t_ms >= 0:
                    raise CoverageError(f"terminal {terminal} has no segment covering t={t_ms}")
                return next((seg.volts for seg in segs if t_ms < seg.end), segs[-1].volts)
        raise UnknownTerminalError(f"unknown terminal {terminal!r}")


def _tiled(terminals: list) -> tuple:
    """``(name, segments, line)`` terminals as ``(name, segments)`` pairs, each terminal's segments sorted by start,
    once they meet the rule of ``Stimulus``; a diagnostic gives the terminal's ``line`` from ``parse_stimulus``."""
    if not terminals:
        raise NetlistSyntaxError("stimulus declares no terminals", 1, 1)
    terminals = [(name, tuple(sorted(segs, key=lambda s: s.start)), lineno) for name, segs, lineno in terminals]
    horizon = max((seg.end for _, segs, _ in terminals for seg in segs), default=math.nan)
    for name, segs, lineno in terminals:
        cursor = 0.0
        for seg in segs:
            if seg.start < cursor:
                raise OverlapError(f"terminal {name!r}: interval {seg.start}..{seg.end} overlaps the previous one",
                                   lineno)
            if seg.start != cursor:  # a gap, or a NaN start
                raise CoverageError(f"terminal {name!r}: gap between t={cursor} and t={seg.start}", lineno)
            cursor = seg.end
        if cursor != horizon:
            raise CoverageError(f"terminal {name!r} ends at t={cursor} but the horizon is {horizon}", lineno)
    return tuple((name, segs) for name, segs, _ in terminals)


def check_drives(graph: CircuitGraph, stimulus: Stimulus) -> None:
    """Raise ``UnknownTerminalError`` naming the first circuit input the stimulus does not drive."""
    for name in graph.inputs:
        if name not in stimulus.terminals:
            raise UnknownTerminalError(f"stimulus does not drive circuit input {name!r}")


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RESERVED = ("name %r is taken by a trace column: input and probe names "
             "must not be t_ms or a gate column such as g1, g1_I, g1_x1 or g1_x2")


def _lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) of each line with more than a comment, cut at ``#`` and stripped on the right.

    A leading ``format`` line is left out, and any but ``format memlogic/1`` is a ``NetlistSyntaxError``.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            lines.append((lineno, stripped))
    if lines and lines[0][1].strip().startswith("format"):
        lineno, content = lines.pop(0)
        if content.strip() != FORMAT_LINE:
            raise NetlistSyntaxError(f"unsupported format {content.strip()!r}", lineno, 1)
    return lines


def _column_of(line: str, token_index: int) -> int:
    # 1-based column of the token_index-th whitespace-separated token, which the caller knows exists
    return [m.start() for m in re.finditer(r"\S+", line)][token_index] + 1


def parse_circuit(text: str) -> CircuitGraph:
    """Parse and validate a netlist, returning the circuit graph.

    Raises a :class:`NetlistError` subclass with the offending line (and
    column where it applies) on any problem: unknown syntax, duplicate
    ids or names, arity mismatches, dangling references and cycles each
    produce a distinct error type.  Input and probe names share the trace's
    columns, so ``t_ms`` and the gate columns (``g1``, ``g1_I``, ``g1_x1``
    and ``g1_x2`` when gate 1 exists) are duplicates too.
    """
    inputs: list[str] = []
    gates: dict[int, tuple[GateNode, int]] = {}  # id -> (its node, its line)
    outputs: list[tuple[int, str, int]] = []  # (line, probe name, target gate id)
    seen_names: dict[str, int] = {}

    def declare(name: str, what: str, lineno: int, line: str) -> None:
        if not _NAME_RE.match(name):
            raise NetlistSyntaxError(f"invalid {what} name {name!r}", lineno, _column_of(line, 1))
        if name in seen_names:
            raise DuplicateError(f"name {name!r} already declared on line {seen_names[name]}", lineno)
        if name == "t_ms":
            raise DuplicateError(_RESERVED % name, lineno)
        seen_names[name] = lineno

    for lineno, line in _lines(text):
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "input":
            if len(tokens) != 2:
                raise NetlistSyntaxError("expected: input <NAME>", lineno, 1)
            declare(tokens[1], "input", lineno, line)
            inputs.append(tokens[1])
        elif keyword == "gate":
            if len(tokens) < 4:
                raise NetlistSyntaxError("expected: gate <ID> <KIND> <src> [<src>]", lineno, 1)
            if not re.fullmatch(r"-?[0-9]+", tokens[1]):  # ``int`` would also take "+1", "1_0" and non-ASCII digits
                raise NetlistSyntaxError(f"gate id must be an integer, got {tokens[1]!r}", lineno, _column_of(line, 1))
            gate_id = int(tokens[1])
            if gate_id <= 0:
                raise NetlistSyntaxError(f"gate id must be positive, got {gate_id}", lineno, _column_of(line, 1))
            if gate_id in gates:
                raise DuplicateError(f"gate id {gate_id} already declared on line {gates[gate_id][1]}", lineno)
            try:
                kind = GateKind(tokens[2])
            except ValueError:
                raise NetlistSyntaxError(f"unknown gate kind {tokens[2]!r}",
                                         lineno, _column_of(line, 2)) from None
            srcs = tokens[3:]
            if len(srcs) != kind.arity:
                raise ArityError(f"{kind.value} takes {kind.arity} input(s), got {len(srcs)}", lineno)
            sources: list[str | int] = []
            for i, src in enumerate(srcs):
                if re.fullmatch(r"[0-9]+", src):
                    sources.append(int(src))
                elif _NAME_RE.match(src):
                    sources.append(src)
                else:
                    raise NetlistSyntaxError(f"invalid source {src!r}", lineno, _column_of(line, 3 + i))
            gates[gate_id] = (GateNode(gate_id, kind, tuple(sources)), lineno)
        elif keyword == "output":
            if len(tokens) != 3:
                raise NetlistSyntaxError("expected: output <NAME> <ID>", lineno, 1)
            declare(tokens[1], "output", lineno, line)
            if not re.fullmatch(r"[0-9]+", tokens[2]):
                raise NetlistSyntaxError(f"output target must be a gate id, got {tokens[2]!r}",
                                         lineno, _column_of(line, 2))
            outputs.append((lineno, tokens[1], int(tokens[2])))
        elif keyword == "format":
            raise NetlistSyntaxError("format line must come first", lineno, 1)
        else:
            raise NetlistSyntaxError(f"unknown directive {keyword!r}", lineno, 1)

    # Gate columns are known only now: a gate may be declared after a name that repeats its column.
    gate_columns = {f"g{i}{part}" for i in gates for part in ("", "_I", "_x1", "_x2")}
    for name, lineno in seen_names.items():
        if name in gate_columns:
            raise DuplicateError(_RESERVED % name, lineno)
    input_set = set(inputs)
    for node, lineno in gates.values():
        for src in node.sources:
            if isinstance(src, int):
                if src not in gates:
                    raise DanglingNetError(f"gate {node.id} references undeclared gate {src}", lineno)
            elif src not in input_set:
                raise DanglingNetError(f"gate {node.id} references undeclared input {src!r}", lineno)
    for lineno, name, target in outputs:
        if target not in gates:
            raise DanglingNetError(f"output {name!r} references undeclared gate {target}", lineno)

    graph = CircuitGraph(tuple(node for node, _ in gates.values()), tuple(inputs),
                         tuple((name, target) for _, name, target in outputs))
    topological_order(graph)  # rejects cycles
    return graph


def topological_order(graph: CircuitGraph) -> list[int]:
    """Gate ids ordered so that every gate follows all of its drivers.

    Ties are broken by declaration order: the ready gates stay sorted as
    ``(declaration index, id)`` pairs and the first is taken next.  Raises
    :class:`CycleError` naming a gate on a loop: from the earliest declared
    gate it cannot order, it steps to the first such driver of each gate
    until one repeats, and names the earliest declared gate of that loop.
    """
    decl_index = {node.id: i for i, node in enumerate(graph.nodes)}
    dependents: dict[int, list[int]] = {node.id: [] for node in graph.nodes}
    in_degree: dict[int, int] = {}
    for node in graph.nodes:
        gate_deps = [s for s in node.sources if isinstance(s, int)]
        in_degree[node.id] = len(gate_deps)
        for dep in gate_deps:
            dependents[dep].append(node.id)

    ready = sorted((decl_index[i], i) for i, d in in_degree.items() if d == 0)
    order: list[int] = []
    while ready:
        current = ready.pop(0)[1]
        order.append(current)
        for dep in dependents[current]:
            in_degree[dep] -= 1
            if in_degree[dep] == 0:
                insort(ready, (decl_index[dep], dep))
    if len(order) != len(graph.nodes):
        # Each gate left unordered has a driver left unordered, so the walk comes round to a gate again.
        walk = [min((i for i, d in in_degree.items() if d > 0), key=decl_index.__getitem__)]
        while walk[-1] not in walk[:-1]:
            walk.append(next(s for s in graph.nodes[decl_index[walk[-1]]].sources if in_degree.get(s)))
        stuck = min(walk[walk.index(walk[-1]):], key=decl_index.__getitem__)
        raise CycleError(f"circuit contains a feedback loop through gate {stuck}")
    return order


_SEGMENT_RE = re.compile(r"^\s*([-0-9.eE+]+)\s*\.\.\s*([-0-9.eE+]+)\s*=\s*([-0-9.eE+]+)\s*$")


def parse_stimulus(text: str) -> Stimulus:
    """Parse and validate a stimulus description.

    Every terminal's intervals must tile [0, horizon] exactly, where the
    horizon is the largest end time seen anywhere in the file.  A ``bad
    interval`` column points at the interval, or just past the ``:`` or ``,``
    that opens a blank one.
    """
    terminals: dict[str, tuple[list[Segment], int]] = {}  # name -> (its segments, its line)
    for lineno, line in _lines(text):
        if ":" not in line:
            raise NetlistSyntaxError("expected: <NAME>: <start>..<end>=<volts>, ...", lineno, 1)
        name, _, rest = line.partition(":")
        name = name.strip()
        if not _NAME_RE.match(name):
            raise NetlistSyntaxError(f"invalid terminal name {name!r}", lineno, 1)
        if name in terminals:
            raise DuplicateError(f"terminal {name!r} already declared on line {terminals[name][1]}", lineno)
        segments = []
        pieces = rest.split(",")
        for k, piece in enumerate(pieces):
            m = _SEGMENT_RE.match(piece)
            if not m:
                tail = ",".join(pieces[k:])  # the line from just past the piece's ":" or ","
                column = len(line) - len(tail.lstrip() if piece.strip() else tail) + 1
                raise NetlistSyntaxError(f"bad interval {piece.strip()!r}", lineno, column)
            try:
                start, end, volts = (float(m.group(i)) for i in (1, 2, 3))
            except ValueError:
                raise NetlistSyntaxError(f"bad number in interval {piece.strip()!r}", lineno) from None
            if not (math.isfinite(start) and math.isfinite(end) and math.isfinite(volts)):
                raise NetlistSyntaxError(f"non-finite value in interval {piece.strip()!r}", lineno)
            if end <= start:
                raise NetlistSyntaxError(f"empty interval {piece.strip()!r}", lineno)
            segments.append(Segment(start, end, volts))
        terminals[name] = (segments, lineno)

    return Stimulus(_tiled([(name, segs, lineno) for name, (segs, lineno) in terminals.items()]))


def serialize_circuit(graph: CircuitGraph) -> str:
    """Canonical text for a graph; parsing it back yields an equal graph."""
    lines = [FORMAT_LINE]
    lines += [f"input {name}" for name in graph.inputs]
    for node in graph.nodes:
        srcs = " ".join(str(s) for s in node.sources)
        lines.append(f"gate {node.id} {node.kind.value} {srcs}")
    lines += [f"output {name} {target}" for name, target in graph.outputs]
    return "\n".join(lines) + "\n"


def serialize_stimulus(stim: Stimulus) -> str:
    """Canonical text for a stimulus; parsing it back yields an equal stimulus."""
    lines = [FORMAT_LINE]
    for name, segs in stim.segments:
        body = ", ".join(f"{seg.start!r}..{seg.end!r}={seg.volts!r}" for seg in segs)
        lines.append(f"{name}: {body}")
    return "\n".join(lines) + "\n"
