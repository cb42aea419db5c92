"""Parsing of circuit and stimulus descriptions, and the types that validate them.

Both formats are line oriented, UTF-8, with ``#`` starting a comment and
an optional leading ``format memlogic/1`` version line.

Netlist grammar::

    input <NAME>
    gate <ID> <MOR|MAND|MNOT> <src> [<src>]
    output <NAME> <ID>

where ``<src>`` is either a declared input name or a gate id.  Gates may
reference ids declared later in the file.

Stimulus grammar::

    <NAME>: <start>..<end>=<volts>, <start>..<end>=<volts>, ...

with times in milliseconds.  Intervals per terminal must tile [0, horizon]
without gaps or overlaps, where the horizon is the largest end time in
the file.  The parsers check only what the text can get wrong; the ``CircuitGraph``
and ``Stimulus`` constructors check the rest, for parsed and hand-built values alike.
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

    ``nodes`` are the gates, ``inputs`` the input names, and ``outputs`` the (probe name, gate id) pairs, each a tuple
    in declaration order.  Construction, ``_replace`` included, checks that gate ids are distinct positive ``int``s,
    each kind a ``GateKind`` with its arity of sources, each source and output target declared, the graph acyclic, and
    input and probe names valid, distinct and no trace column (``t_ms``, or ``g1``, ``g1_I``, ``g1_x1`` or ``g1_x2``
    when gate 1 exists).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, nodes, inputs, outputs):
        return _graph([(name, None) for name in inputs], [(node, None) for node in nodes],
                      [(name, target, None) for name, target in outputs])

    @property
    def probes(self) -> dict[str, int]:
        return dict(self.outputs)


Segment = namedtuple("Segment", "start end volts")


class Stimulus(namedtuple("Stimulus", "segments")):
    """Piecewise-constant input waveforms: one level per terminal at each instant of [0, horizon_ms].

    ``segments`` holds one (terminal name, its ``Segment`` tuple) pair per terminal.  Construction, ``_replace``
    included, checks that terminal names are valid and distinct and that no segment ends at or before its start.  It
    sorts each terminal's segments by start and checks that they tile [0, horizon_ms]: the first starts at 0, each
    next one where the one before ends, and every terminal ends at the horizon, the largest end.  An overlap is an
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


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # matched with ``fullmatch``
_RESERVED = ("name %r is taken by a trace column: input and probe names "
             "must not be t_ms or a gate column such as g1, g1_I, g1_x1 or g1_x2")


def _on(line: int | None) -> str:
    return "" if line is None else f" on line {line}"


def _tiled(terminals: list) -> tuple:
    """``(name, segments, line)`` terminals as ``(name, segments)`` pairs, each terminal's segments sorted by start,
    once they meet the rule of ``Stimulus``; a diagnostic gives the terminal's ``line`` from ``parse_stimulus``."""
    if not terminals:
        raise NetlistSyntaxError("stimulus declares no terminals", 1, 1)
    names: dict[str, int | None] = {}
    for name, segs, lineno in terminals:
        if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
            raise NetlistSyntaxError(f"invalid terminal name {name!r}", lineno, lineno and 1)  # column 1 if parsed
        if name in names:
            raise DuplicateError(f"terminal {name!r} already declared{_on(names[name])}", lineno)
        names[name] = lineno
        for seg in segs:
            if seg.end <= seg.start:  # the interval quoted as ``serialize_stimulus`` writes it
                raise NetlistSyntaxError(f"empty interval '{seg.start!r}..{seg.end!r}={seg.volts!r}'", lineno)
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


def _graph(inputs: list, nodes: list, outputs: list) -> CircuitGraph:
    """The graph of ``(name, line)`` inputs, ``(node, line)`` gates and ``(name, target, line)`` outputs, once it
    meets the rule of ``CircuitGraph``; a diagnostic gives the declaration's ``line`` from ``parse_circuit``."""
    names: dict[str, int | None] = {}
    declared = [(name, "input", lineno) for name, lineno in inputs]
    declared += [(name, "output", lineno) for name, _, lineno in outputs]
    for name, what, lineno in sorted(declared, key=lambda d: d[2] or 0):  # in line order, when parsed
        if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
            raise NetlistSyntaxError(f"invalid {what} name {name!r}", lineno)
        if name in names:
            raise DuplicateError(f"name {name!r} already declared{_on(names[name])}", lineno)
        if name == "t_ms":
            raise DuplicateError(_RESERVED % name, lineno)
        names[name] = lineno
    gates: dict[int, tuple[GateNode, int | None]] = {}  # id -> (its node, its line)
    for (gate_id, kind, sources), lineno in nodes:
        if type(gate_id) is not int:
            raise NetlistSyntaxError(f"gate id must be an integer, got {gate_id!r}", lineno)
        if gate_id <= 0:
            raise NetlistSyntaxError(f"gate id must be positive, got {gate_id}", lineno)
        if gate_id in gates:
            raise DuplicateError(f"gate id {gate_id} already declared{_on(gates[gate_id][1])}", lineno)
        if not isinstance(kind, GateKind):
            raise NetlistSyntaxError(f"unknown gate kind {kind!r}", lineno)
        if len(sources) != kind.arity:
            raise ArityError(f"{kind.value} takes {kind.arity} input(s), got {len(sources)}", lineno)
        gates[gate_id] = (GateNode(gate_id, kind, tuple(sources)), lineno)
    columns = {f"g{i}{part}" for i in gates for part in ("", "_I", "_x1", "_x2")}
    for name, lineno in names.items():
        if name in columns:
            raise DuplicateError(_RESERVED % name, lineno)
    input_names = {name for name, _ in inputs}
    for node, lineno in gates.values():
        for src in node.sources:
            what, known = ("gate", gates) if type(src) is int else ("input", input_names)
            if src not in known:
                raise DanglingNetError(f"gate {node.id} references undeclared {what} {src!r}", lineno)
    for name, target, lineno in outputs:
        if type(target) is not int or target not in gates:
            raise DanglingNetError(f"output {name!r} references undeclared gate {target}", lineno)
    graph = tuple.__new__(CircuitGraph, (tuple(node for node, _ in gates.values()), tuple(name for name, _ in inputs),
                                         tuple((name, target) for name, target, _ in outputs)))
    topological_order(graph)  # rejects cycles
    return graph


def check_drives(graph: CircuitGraph, stimulus: Stimulus) -> None:
    """Raise ``UnknownTerminalError`` naming the first circuit input the stimulus does not drive."""
    for name in graph.inputs:
        if name not in stimulus.terminals:
            raise UnknownTerminalError(f"stimulus does not drive circuit input {name!r}")


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
    """Parse a netlist into the ``CircuitGraph`` it declares.

    Any problem raises a :class:`NetlistError` subclass with the offending line (and column where it applies): unknown
    syntax, duplicate ids or names, arity mismatches, dangling references and cycles each produce a distinct type.
    """
    inputs, nodes, outputs = [], [], []  # each declaration with its line, as ``_graph`` takes them
    for lineno, line in _lines(text):
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "input":
            if len(tokens) != 2:
                raise NetlistSyntaxError("expected: input <NAME>", lineno, 1)
            if not _NAME_RE.fullmatch(tokens[1]):
                raise NetlistSyntaxError(f"invalid input name {tokens[1]!r}", lineno, _column_of(line, 1))
            inputs.append((tokens[1], lineno))
        elif keyword == "gate":
            if len(tokens) < 4:
                raise NetlistSyntaxError("expected: gate <ID> <KIND> <src> [<src>]", lineno, 1)
            if not re.fullmatch(r"-?[0-9]+", tokens[1]):  # ``int`` would also take "+1", "1_0" and non-ASCII digits
                raise NetlistSyntaxError(f"gate id must be an integer, got {tokens[1]!r}", lineno, _column_of(line, 1))
            gate_id = int(tokens[1])
            if gate_id <= 0:
                raise NetlistSyntaxError(f"gate id must be positive, got {gate_id}", lineno, _column_of(line, 1))
            try:
                kind = GateKind(tokens[2])
            except ValueError:
                raise NetlistSyntaxError(f"unknown gate kind {tokens[2]!r}",
                                         lineno, _column_of(line, 2)) from None
            for i, src in enumerate(tokens[3:]):
                if not (re.fullmatch(r"[0-9]+", src) or _NAME_RE.fullmatch(src)):
                    raise NetlistSyntaxError(f"invalid source {src!r}", lineno, _column_of(line, 3 + i))
            nodes.append((GateNode(gate_id, kind, [int(s) if s.isdigit() else s for s in tokens[3:]]), lineno))
        elif keyword == "output":
            if len(tokens) != 3:
                raise NetlistSyntaxError("expected: output <NAME> <ID>", lineno, 1)
            if not _NAME_RE.fullmatch(tokens[1]):
                raise NetlistSyntaxError(f"invalid output name {tokens[1]!r}", lineno, _column_of(line, 1))
            if not re.fullmatch(r"[0-9]+", tokens[2]):
                raise NetlistSyntaxError(f"output target must be a gate id, got {tokens[2]!r}",
                                         lineno, _column_of(line, 2))
            outputs.append((tokens[1], int(tokens[2]), lineno))
        elif keyword == "format":
            raise NetlistSyntaxError("format line must come first", lineno, 1)
        else:
            raise NetlistSyntaxError(f"unknown directive {keyword!r}", lineno, 1)
    return _graph(inputs, nodes, outputs)


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
    """Parse a stimulus description into the ``Stimulus`` it declares.

    A ``bad interval`` column points at the interval, or just past the ``:`` or ``,`` that opens a blank one.
    """
    terminals = []  # (name, its segments, its line), as ``_tiled`` takes them
    for lineno, line in _lines(text):
        if ":" not in line:
            raise NetlistSyntaxError("expected: <NAME>: <start>..<end>=<volts>, ...", lineno, 1)
        name, _, rest = line.partition(":")
        name = name.strip()
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
        terminals.append((name, segments, lineno))
    return tuple.__new__(Stimulus, (_tiled(terminals),))  # ``_tiled`` is the check ``Stimulus`` makes


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
    """Canonical text for a stimulus; parsing it back yields an equal stimulus.  The text has finite numbers only:
    a time or level that is not finite is a ``ValueError`` naming its terminal."""
    lines = [FORMAT_LINE]
    for name, segs in stim.segments:
        if not all(math.isfinite(x) for seg in segs for x in seg):
            raise ValueError(f"terminal {name!r} has a time or level that is not finite, which the text cannot hold")
        body = ", ".join(f"{seg.start!r}..{seg.end!r}={seg.volts!r}" for seg in segs)
        lines.append(f"{name}: {body}")
    return "\n".join(lines) + "\n"
