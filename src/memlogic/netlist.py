"""Parsing of circuit and stimulus descriptions, and the types that validate them.

Both formats are line oriented, UTF-8, with ``#`` starting a comment and
an optional first line ``format memlogic/1``: a line whose first word is ``format`` must be that line.

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
the file.  The parsers check only the spelling of tokens; the ``CircuitGraph`` and ``Stimulus``
constructors check the rest, for parsed and hand-built values alike, at the token's line and column when parsed.
"""

from __future__ import annotations

import math
import re
from bisect import insort
from collections import namedtuple
from collections.abc import Iterator

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
    when gate 1 exists).  Each field, each node, each node's sources and each output is a tuple or list of its shape,
    or ``_shape`` refuses it: a ``str`` is not split into letters.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, nodes, inputs, outputs):
        return _graph([(name, None) for name in _shape(inputs, "inputs must be a sequence of names")],
                      [(_shape(node, "a gate must be an (id, kind, sources) triple", 3), None)
                       for node in _shape(nodes, "nodes must be a sequence of gates")],
                      [(*_shape(pair, "an output must be a (name, gate id) pair", 2), None)
                       for pair in _shape(outputs, "outputs must be a sequence of (name, gate id) pairs")])

    @property
    def probes(self) -> dict[str, int]:
        return dict(self.outputs)


Segment = namedtuple("Segment", "start end volts")


class Stimulus(namedtuple("Stimulus", "segments")):
    """Piecewise-constant input waveforms: one level per terminal at each instant of [0, horizon_ms].

    ``segments`` holds one (terminal name, its ``Segment`` tuple) pair per terminal.  Construction, ``_replace``
    included, checks with ``_shape`` that ``segments``, each pair and each terminal's segments are tuples or lists of
    their shape, and each segment three ``int`` or ``float`` numbers, which it stores as a ``Segment``.  It checks
    that terminal names are valid and distinct and that no segment ends at or before its start.  It
    sorts each terminal's segments by start and checks that they tile [0, horizon_ms]: the first starts at 0, each
    next one where the one before ends, and every terminal ends at the horizon, the largest end.  An overlap is an
    ``OverlapError``; a gap, a NaN time or an end off the horizon is a ``CoverageError`` naming the terminal.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))
    horizon_ms = property(lambda self: self.segments[0][1][-1].end)

    def __new__(cls, segments):
        return super().__new__(cls, _tiled([(*_shape(pair, "a terminal must be a (name, segments) pair", 2), None)
                                            for pair in _shape(segments, "segments must be a sequence of (name, "
                                                                         "segments) pairs")]))

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
_KINDS = {kind.value: kind for kind in GateKind}  # each kind by its spelling in a netlist
_WORDS = re.compile(r"\S+")  # a netlist line's tokens
# Each netlist keyword's usage, and the fewest and most tokens of its line.
_DIRECTIVES = {"input": ("input <NAME>", 2, 2), "gate": ("gate <ID> <KIND> <src> [<src>]", 4, math.inf),
               "output": ("output <NAME> <ID>", 3, 3)}
_FIELDS = re.compile(r"^[^:]*:?|(?<=[:,])[^,]*")  # a stimulus line's name with its ":", then each interval
_DIGITS = re.compile(r"[0-9]+")  # an id as a source or target: ``int`` would take "+1", "1_0" or non-ASCII digits
_SEGMENT_RE = re.compile(r"([-0-9.eE+]+)\s*\.\.\s*([-0-9.eE+]+)\s*=\s*([-0-9.eE+]+)")  # matched with ``fullmatch``


def _at(where: tuple | None, token: int | None = None) -> tuple:
    """(line, column) of a diagnostic at a ``where`` from ``_lines``: its line number and, if ``token`` is named, the
    1-based column where that token's text starts, or where its match starts if it is blank."""
    if where is None or token is None:
        return None if where is None else where[0], None
    match = [*where[2].finditer(where[1])][token]
    return where[0], match.start() + match[0].find(match[0].strip()) + 1


def _on(where: tuple | None) -> str:
    return "" if where is None else f" on line {where[0]}"


def _shape(value, rule: str, fields: int | None = None, kinds: tuple | None = None):
    """``value``, once it is a tuple or list, of ``fields`` items and each of a type in ``kinds`` where they are named;
    else a ``NetlistSyntaxError`` stating the ``rule`` and quoting the value.  It is the one shape rule for every field
    that ``CircuitGraph`` and ``Stimulus`` take from outside, so no wrong shape fails later as a bare Python error."""
    if not (isinstance(value, (tuple, list)) and (fields is None or len(value) == fields)
            and (kinds is None or all(type(item) in kinds for item in value))):
        raise NetlistSyntaxError(f"{rule}, not the {type(value).__name__} {value!r}")
    return value


def _names(declared: list, noun: str, reserved: tuple = ()) -> dict:
    """Each name of the ``(name, what, where, token)`` declarations, taken in line order, with its ``where``, once each
    is valid, new and not ``reserved``; ``token`` is the name's place on its line, and a repeat is a ``noun``."""
    names: dict = {}
    for name, what, where, token in sorted(declared, key=lambda d: _at(d[2])[0] or 0):
        if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
            raise NetlistSyntaxError(f"invalid {what} name {name!r}", *_at(where, token))
        if name in names:
            raise DuplicateError(f"{noun} {name!r} already declared{_on(names[name])}", *_at(where))
        if name in reserved:
            raise DuplicateError(_RESERVED % name, *_at(where))
        names[name] = where
    return names


def _tiled(terminals: list) -> tuple:
    """``(name, segments, where)`` terminals as ``(name, segments)`` pairs, each terminal's segments sorted by start,
    once they meet the rule of ``Stimulus``; a diagnostic gives the ``where`` from ``parse_stimulus``."""
    if not terminals:
        raise NetlistSyntaxError("stimulus declares no terminals")
    _names([(name, "terminal", where, 0) for name, _, where in terminals], "terminal")
    shaped = []
    for name, segs, where in terminals:
        segs = [Segment._make(_shape(seg, f"terminal {name!r}: a segment must be a (start, end, volts) triple of "
                                          "numbers", 3, (int, float)))
                for seg in _shape(segs, f"terminal {name!r} segments must be a sequence")]
        for k, seg in enumerate(segs, start=1):  # the k-th interval is the line's k-th token after the name
            if seg.end <= seg.start:  # the interval quoted as ``serialize_stimulus`` writes it
                raise NetlistSyntaxError(f"empty interval '{seg.start!r}..{seg.end!r}={seg.volts!r}'", *_at(where, k))
        shaped.append((name, tuple(sorted(segs, key=lambda s: s.start)), where))
    terminals = shaped
    horizon = max((seg.end for _, segs, _ in terminals for seg in segs), default=math.nan)
    for name, segs, where in terminals:
        cursor = 0.0
        for seg in segs:
            if seg.start < cursor:
                raise OverlapError(f"terminal {name!r}: interval {seg.start}..{seg.end} overlaps the previous one",
                                   *_at(where))
            if seg.start != cursor:  # a gap, or a NaN start
                raise CoverageError(f"terminal {name!r}: gap between t={cursor} and t={seg.start}", *_at(where))
            cursor = seg.end
        if cursor != horizon:
            raise CoverageError(f"terminal {name!r} ends at t={cursor} but the horizon is {horizon}", *_at(where))
    return tuple((name, segs) for name, segs, _ in terminals)


def _graph(inputs: list, nodes: list, outputs: list) -> CircuitGraph:
    """The graph of ``(name, where)`` inputs, ``(node, where)`` gates and ``(name, target, where)`` outputs, once it
    meets the rule of ``CircuitGraph``; a diagnostic gives the ``where`` from ``parse_circuit``."""
    names = _names([(name, "input", where, 1) for name, where in inputs]
                   + [(name, "output", where, 1) for name, _, where in outputs], "name", ("t_ms",))
    gates: dict = {}  # id -> (its node, its where)
    for (gate_id, kind, sources), where in nodes:
        if type(gate_id) is not int:
            raise NetlistSyntaxError(f"gate id must be an integer, got {gate_id!r}", *_at(where, 1))
        if gate_id <= 0:
            raise NetlistSyntaxError(f"gate id must be positive, got {gate_id}", *_at(where, 1))
        if gate_id in gates:
            raise DuplicateError(f"gate id {gate_id} already declared{_on(gates[gate_id][1])}", *_at(where))
        if not isinstance(kind, GateKind):
            raise NetlistSyntaxError(f"unknown gate kind {kind!r}", *_at(where, 2))
        if len(_shape(sources, f"gate {gate_id} sources must be a sequence")) != kind.arity:
            raise ArityError(f"{kind.value} takes {kind.arity} input(s), got {len(sources)}", *_at(where))
        gates[gate_id] = (GateNode(gate_id, kind, tuple(sources)), where)
    columns = {f"g{i}{part}" for i in gates for part in ("", "_I", "_x1", "_x2")}
    for name, where in names.items():
        if name in columns:
            raise DuplicateError(_RESERVED % name, *_at(where))
    input_names = {name for name, _ in inputs}
    for node, where in gates.values():
        for src in node.sources:
            what, known = ("gate", gates) if type(src) is int else ("input", input_names)
            if not isinstance(src, (int, str)) or src not in known:  # an unhashable source is no declared one
                raise DanglingNetError(f"gate {node.id} references undeclared {what} {src!r}", *_at(where))
    for name, target, where in outputs:
        if type(target) is not int or target not in gates:
            raise DanglingNetError(f"output {name!r} references undeclared gate {target}", *_at(where))
    graph = tuple.__new__(CircuitGraph, (tuple(node for node, _ in gates.values()), tuple(name for name, _ in inputs),
                                         tuple((name, target) for name, target, _ in outputs)))
    topological_order(graph)  # rejects cycles
    return graph


def check_drives(graph: CircuitGraph, stimulus: Stimulus) -> None:
    """Raise ``UnknownTerminalError`` naming the first circuit input the stimulus does not drive."""
    for name in graph.inputs:
        if name not in stimulus.terminals:
            raise UnknownTerminalError(f"stimulus does not drive circuit input {name!r}")


def _lines(text: str, tokens: re.Pattern) -> Iterator[tuple[tuple, list]]:
    """Yield ``(where, words)`` for each line with more than a comment, cut at ``#``: the ``tokens`` matches, stripped,
    and a ``where`` of the line number, the line and ``tokens``, from which ``_at`` finds a word's column.  A line
    whose first word is ``format`` is left out: it must come first and read ``format memlogic/1``."""
    significant = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
                   if (line := raw.split("#", 1)[0].rstrip()).strip()]
    for k, (lineno, line) in enumerate(significant):
        where = (lineno, line, tokens)
        words = [word.strip() for word in tokens.findall(line)]
        if words[0].split()[0] != "format":  # a stimulus line's first token may hold spaces
            yield where, words
        elif k:
            raise NetlistSyntaxError("format line must come first", *_at(where, 0))
        elif line.strip() != FORMAT_LINE:
            raise NetlistSyntaxError(f"unsupported format {line.strip()!r}", *_at(where, 0))


def parse_circuit(text: str) -> CircuitGraph:
    """Parse a netlist into the ``CircuitGraph`` it declares.

    Any problem raises a :class:`NetlistError` subclass with the offending line (and column where it applies): unknown
    syntax, duplicate ids or names, arity mismatches, dangling references and cycles each produce a distinct type.
    """
    inputs, nodes, outputs = [], [], []  # each declaration with its where, as ``_graph`` takes them
    for where, tokens in _lines(text, _WORDS):
        if tokens[0] not in _DIRECTIVES:
            raise NetlistSyntaxError(f"unknown directive {tokens[0]!r}", *_at(where, 0))
        usage, fewest, most = _DIRECTIVES[tokens[0]]
        if not fewest <= len(tokens) <= most:
            raise NetlistSyntaxError(f"expected: {usage}", *_at(where, 0))
        if tokens[0] == "input":
            inputs.append((tokens[1], where))
        elif tokens[0] == "gate":
            for k, src in enumerate(tokens[3:], start=3):
                if not (_DIGITS.fullmatch(src) or _NAME_RE.fullmatch(src)):
                    raise NetlistSyntaxError(f"invalid source {src!r}", *_at(where, k))
            # An id or kind that is no integer or ``GateKind`` stays a str, for ``_graph`` to refuse.
            gate_id = int(tokens[1]) if _DIGITS.fullmatch(tokens[1].removeprefix("-")) else tokens[1]
            kind = _KINDS.get(tokens[2], tokens[2])
            nodes.append((GateNode(gate_id, kind, [int(s) if s.isdigit() else s for s in tokens[3:]]), where))
        else:
            if not _DIGITS.fullmatch(tokens[2]):
                raise NetlistSyntaxError(f"output target must be a gate id, got {tokens[2]!r}", *_at(where, 2))
            outputs.append((tokens[1], int(tokens[2]), where))
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


def parse_stimulus(text: str) -> Stimulus:
    """Parse a stimulus description into the ``Stimulus`` it declares.

    A ``bad interval`` column points at the interval, or just past the ``:`` or ``,`` that opens a blank one.
    """
    terminals = []  # (name, its segments, its where), as ``_tiled`` takes them
    for where, (name, *intervals) in _lines(text, _FIELDS):
        if not name.endswith(":"):
            raise NetlistSyntaxError("expected: <NAME>: <start>..<end>=<volts>, ...", *_at(where, 0))
        segments = []
        for k, interval in enumerate(intervals, start=1):
            m = _SEGMENT_RE.fullmatch(interval)
            if not m:
                raise NetlistSyntaxError(f"bad interval {interval!r}", *_at(where, k))
            try:
                segment = Segment(*map(float, m.groups()))
            except ValueError:
                raise NetlistSyntaxError(f"bad number in interval {interval!r}", *_at(where)) from None
            if not all(map(math.isfinite, segment)):
                raise NetlistSyntaxError(f"non-finite value in interval {interval!r}", *_at(where))
            segments.append(segment)
        terminals.append((name[:-1].rstrip(), segments, where))
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
