"""Netlist and stimulus parsing: happy paths, diagnostics, round trips."""

import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from memlogic.gates import GateKind
from memlogic.harness import fixture_text
from memlogic.netlist import (
    ArityError,
    CircuitGraph,
    CoverageError,
    CycleError,
    DanglingNetError,
    DuplicateError,
    GateNode,
    NetlistError,
    NetlistSyntaxError,
    OverlapError,
    Segment,
    Stimulus,
    parse_circuit,
    parse_stimulus,
    serialize_circuit,
    serialize_stimulus,
    topological_order,
)

MINIMAL = "input A\ninput B\ngate 1 MOR A B\noutput S 1\n"


class TestParseCircuit:
    def test_minimal_program(self):
        graph = parse_circuit(MINIMAL)
        assert len(graph.nodes) == 1
        assert graph.inputs == ("A", "B")
        assert graph.probes == {"S": 1}
        assert graph.nodes[0].kind is GateKind.MOR
        assert graph.nodes[0].sources == ("A", "B")

    def test_format_line_accepted(self):
        graph = parse_circuit("format memlogic/1\n" + MINIMAL)
        assert graph == parse_circuit(MINIMAL)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ninput A  # trailing\ninput B\n\ngate 1 MAND A B\noutput X 1\n"
        graph = parse_circuit(text)
        assert graph.nodes[0].kind is GateKind.MAND

    def test_adder_fixture(self):
        graph = parse_circuit(fixture_text("adder.mlc"))
        assert len(graph.nodes) == 12
        assert sorted(n.id for n in graph.nodes) == list(range(1, 13))
        assert graph.probes == {"COUT": 7, "SUM": 12}
        assert graph.inputs == ("A", "B", "CIN")

    def test_forward_references_allowed(self):
        graph = parse_circuit("input A\ninput B\ngate 1 MOR 2 A\ngate 2 MAND A B\noutput S 1\n")
        assert topological_order(graph) == [2, 1]

    def test_mnot_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse_circuit("input A\ninput B\ngate 1 MNOT A B\n")

    def test_mor_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse_circuit("input A\ngate 1 MOR A\n")

    def test_duplicate_gate_id(self):
        with pytest.raises(DuplicateError):
            parse_circuit("input A\ninput B\ngate 1 MOR A B\ngate 1 MAND A B\n")

    def test_duplicate_names(self):
        with pytest.raises(DuplicateError):
            parse_circuit("input A\ninput A\n")
        with pytest.raises(DuplicateError):
            parse_circuit("input A\ninput B\ngate 1 MOR A B\noutput A 1\n")

    def test_dangling_input_name(self):
        with pytest.raises(DanglingNetError):
            parse_circuit("input A\ngate 1 MOR A Bogus\n")

    def test_dangling_gate_id(self):
        with pytest.raises(DanglingNetError):
            parse_circuit("input A\ninput B\ngate 1 MOR A 9\n")

    def test_dangling_output(self):
        with pytest.raises(DanglingNetError):
            parse_circuit("input A\ninput B\ngate 1 MOR A B\noutput S 3\n")

    def test_cycle_detected_and_named(self):
        text = "input A\ngate 1 MOR 2 A\ngate 2 MOR 1 A\n"
        with pytest.raises(CycleError) as exc:
            parse_circuit(text)
        assert "gate 1" in str(exc.value)

    def test_unknown_kind(self):
        with pytest.raises(NetlistSyntaxError):
            parse_circuit("input A\ninput B\ngate 1 NAND A B\n")

    def test_unknown_directive_reports_line(self):
        with pytest.raises(NetlistSyntaxError) as exc:
            parse_circuit("input A\nwire A B\n")
        assert exc.value.line == 2

    def test_bad_format_version(self):
        with pytest.raises(NetlistSyntaxError):
            parse_circuit("format memlogic/2\n" + MINIMAL)

    def test_syntax_error_has_column(self):
        with pytest.raises(NetlistSyntaxError) as exc:
            parse_circuit("input A\ninput B\ngate x MOR A B\n")
        assert exc.value.line == 3
        assert exc.value.column == 6

    def test_name_reserved_for_a_later_gate_column_carries_its_line(self):
        with pytest.raises(DuplicateError, match="'g2'") as exc:
            parse_circuit("input g2\ninput B\ngate 1 MOR g2 B\ngate 2 MNOT 1\n")
        assert exc.value.line == 1


class TestTopologicalOrder:
    def test_single_gate(self):
        assert topological_order(parse_circuit(MINIMAL)) == [1]

    def test_two_gate_chain(self):
        graph = parse_circuit("input A\ninput B\ngate 1 MOR A B\ngate 2 MAND 1 B\noutput S 2\n")
        assert topological_order(graph) == [1, 2]

    def test_adder_respects_edges(self):
        graph = parse_circuit(fixture_text("adder.mlc"))
        order = topological_order(graph)
        assert sorted(order) == list(range(1, 13))
        position = {gate_id: i for i, gate_id in enumerate(order)}
        for node in graph.nodes:
            for src in node.sources:
                if isinstance(src, int):
                    assert position[src] < position[node.id]

    def test_declaration_order_breaks_ties(self):
        graph = parse_circuit("input A\ninput B\ngate 5 MOR A B\ngate 2 MAND A B\ngate 9 MOR 5 2\n")
        assert topological_order(graph) == [5, 2, 9]


class TestParseStimulus:
    def test_pattern_fixture(self):
        stim = parse_stimulus(fixture_text("pattern_010.mls"))
        assert stim.horizon_ms == 400.0
        assert stim.terminals == ("A", "B", "CIN")
        assert stim.value_at("B", 0.0) == 0.1
        assert stim.value_at("B", 100.0) == 0.6
        assert stim.value_at("B", 399.0) == 0.6
        assert stim.value_at("A", 250.0) == 0.1

    def test_101_fixture(self):
        stim = parse_stimulus(fixture_text("pattern_101.mls"))
        assert stim.value_at("A", 100.0) == 0.6
        assert stim.value_at("B", 100.0) == 0.1
        assert stim.value_at("CIN", 399.0) == 0.6

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            parse_stimulus("A: 0..50=0.1, 40..100=0.6\n")

    def test_gap_rejected(self):
        with pytest.raises(CoverageError):
            parse_stimulus("A: 0..50=0.1, 60..100=0.6\n")

    def test_must_start_at_zero(self):
        with pytest.raises(CoverageError):
            parse_stimulus("A: 10..100=0.1\n")

    def test_short_terminal_rejected(self):
        with pytest.raises(CoverageError):
            parse_stimulus("A: 0..100=0.1\nB: 0..400=0.1\n")

    def test_empty_interval_rejected(self):
        with pytest.raises(NetlistSyntaxError):
            parse_stimulus("A: 100..100=0.1\n")

    def test_bad_syntax(self):
        with pytest.raises(NetlistSyntaxError):
            parse_stimulus("A = high\n")

    def test_unsorted_segments_accepted(self):
        stim = parse_stimulus("A: 100..400=0.6, 0..100=0.1\n")
        assert stim.value_at("A", 50.0) == 0.1


# A stimulus text that fails the tiling rule, its segments, and the diagnostic ``parse_stimulus`` gives it.
UNTILED = [
    ("A: 0..50=0.1, 40..100=0.6\n", {"A": [(0.0, 50.0, 0.1), (40.0, 100.0, 0.6)]},
     OverlapError, "line 1: terminal 'A': interval 40.0..100.0 overlaps the previous one"),
    ("A: 0..50=0.1, 60..100=0.6\n", {"A": [(0.0, 50.0, 0.1), (60.0, 100.0, 0.6)]},
     CoverageError, "line 1: terminal 'A': gap between t=50.0 and t=60.0"),
    ("A: 10..100=0.1\n", {"A": [(10.0, 100.0, 0.1)]},
     CoverageError, "line 1: terminal 'A': gap between t=0.0 and t=10.0"),
    ("A: 0..100=0.1\nB: 0..400=0.1\n", {"A": [(0.0, 100.0, 0.1)], "B": [(0.0, 400.0, 0.1)]},
     CoverageError, "line 1: terminal 'A' ends at t=100.0 but the horizon is 400.0"),
    ("A: 0..400=0.1\n\nB: 100..300=0.6, 0..100=0.1\n",
     {"A": [(0.0, 400.0, 0.1)], "B": [(100.0, 300.0, 0.6), (0.0, 100.0, 0.1)]},
     CoverageError, "line 3: terminal 'B' ends at t=300.0 but the horizon is 400.0"),
]


def built(terminals):
    return Stimulus(tuple((name, tuple(Segment(*seg) for seg in segs)) for name, segs in terminals.items()))


class TestStimulusConstruction:
    """A hand-built ``Stimulus`` meets the one tiling rule that ``parse_stimulus`` applies."""

    @pytest.mark.parametrize("text, terminals, error, diagnostic", UNTILED)
    def test_untiled_segments_are_rejected_as_their_text_is(self, text, terminals, error, diagnostic):
        with pytest.raises(error) as parsed:
            parse_stimulus(text)
        assert str(parsed.value) == diagnostic
        with pytest.raises(error) as constructed:
            built(terminals)
        assert constructed.value.line is None
        assert f"line {parsed.value.line}: {constructed.value}" == diagnostic

    @pytest.mark.parametrize("terminals, message", [
        ({"A": [(math.nan, 10.0, 0.1)]}, "terminal 'A': gap between t=0.0 and t=nan"),
        ({"A": [(0.0, 10.0, 0.1), (math.nan, 20.0, 0.6)]}, "terminal 'A': gap between t=10.0 and t=nan"),
        ({"A": [(0.0, math.nan, 0.1), (10.0, 20.0, 0.6)]}, "terminal 'A': gap between t=nan and t=10.0"),
        ({"B": [(0.0, 20.0, 0.1)], "A": [(0.0, math.nan, 0.1)]}, "terminal 'A' ends at t=nan but the horizon is 20.0"),
        ({"A": [], "B": [(0.0, 20.0, 0.1)]}, "terminal 'A' ends at t=0.0 but the horizon is 20.0"),
    ])
    def test_nan_times_and_a_terminal_without_segments_are_coverage_errors(self, terminals, message):
        with pytest.raises(CoverageError) as exc:
            built(terminals)
        assert str(exc.value) == message

    def test_levels_may_be_any_float(self):
        stim = built({"A": [(0.0, 10.0, math.nan), (10.0, 20.0, math.inf)]})
        assert stim.horizon_ms == 20.0
        assert math.isnan(stim.value_at("A", 0.0)) and stim.value_at("A", 20.0) == math.inf

    def test_no_terminals_is_a_syntax_error(self):
        with pytest.raises(NetlistSyntaxError, match="stimulus declares no terminals"):
            Stimulus(())

    @pytest.mark.parametrize("terminals, error, message", [
        ((("A", (Segment(0.0, 10.0, 0.1),)), ("A", (Segment(0.0, 10.0, 0.6),))),
         DuplicateError, "terminal 'A' already declared"),
        ((("1A", (Segment(0.0, 10.0, 0.1),)),), NetlistSyntaxError, "invalid terminal name '1A'"),
        ((("A\n", (Segment(0.0, 10.0, 0.1),)),), NetlistSyntaxError, "invalid terminal name 'A\\n'"),
        (((None, (Segment(0.0, 10.0, 0.1),)),), NetlistSyntaxError, "invalid terminal name None"),
        ((("A", (Segment(0.0, 10.0, 0.1), Segment(10.0, 5.0, 0.6))),), NetlistSyntaxError,
         "empty interval '10.0..5.0=0.6'"),
    ])
    def test_terminal_names_and_empty_intervals_are_checked(self, terminals, error, message):
        with pytest.raises(error) as exc:
            Stimulus(terminals)
        assert exc.value.line is None and str(exc.value) == message

    def test_horizon_is_read_from_the_segments_and_replace_is_checked(self):
        stim = built({"A": [(5.0, 20.0, 0.6), (0.0, 5.0, 0.1)], "B": [(0.0, 20.0, 0.1)]})
        assert stim == parse_stimulus("A: 0..5=0.1, 5..20=0.6\nB: 0..20=0.1\n")
        assert stim.horizon_ms == 20.0
        with pytest.raises(AttributeError):
            stim.horizon_ms = 30.0
        with pytest.raises(TypeError):
            Stimulus(stim.segments, 20.0)
        assert stim._replace(segments=stim.segments[1:]).horizon_ms == 20.0
        with pytest.raises(CoverageError, match="^terminal 'A' ends at t=20.0 but the horizon is 30.0$"):
            stim._replace(segments=(*stim.segments[:1], ("B", (Segment(0.0, 30.0, 0.1),))))


NOT_A = GateNode(1, GateKind.MNOT, ("A",))


def graph_of(nodes=(NOT_A,), inputs=("A",), outputs=()):
    return nodes, inputs, outputs


class TestCircuitGraphConstruction:
    """A hand-built ``CircuitGraph`` meets the rule that ``parse_circuit`` applies, with its diagnostics less the
    line."""

    @pytest.mark.parametrize("fields, error, message", [
        (graph_of((GateNode(1, GateKind.MNOT, (2,)),)), DanglingNetError, "gate 1 references undeclared gate 2"),
        (graph_of((GateNode(1, GateKind.MOR, ("A",)),)), ArityError, "MOR takes 2 input(s), got 1"),
        (graph_of((NOT_A, NOT_A)), DuplicateError, "gate id 1 already declared"),
        (graph_of(outputs=(("S", 5),)), DanglingNetError, "output 'S' references undeclared gate 5"),
        (graph_of((GateNode(1, GateKind.MOR, ("A", "B")),)), DanglingNetError,
         "gate 1 references undeclared input 'B'"),
        (graph_of(outputs=(("g1", 1),)), DuplicateError, "name 'g1' is taken"),
        (graph_of(inputs=("A", "t_ms")), DuplicateError, "name 't_ms' is taken"),
        (graph_of(inputs=("A", "A")), DuplicateError, "name 'A' already declared"),
        (graph_of(inputs=("A", "1A")), NetlistSyntaxError, "invalid input name '1A'"),
        (graph_of(outputs=((2, 1),)), NetlistSyntaxError, "invalid output name 2"),
        (graph_of((GateNode(1, "MNOT", ("A",)),)), NetlistSyntaxError, "unknown gate kind 'MNOT'"),
        (graph_of((GateNode(0, GateKind.MNOT, ("A",)),)), NetlistSyntaxError, "gate id must be positive, got 0"),
        (graph_of((GateNode(True, GateKind.MNOT, ("A",)),)), NetlistSyntaxError,
         "gate id must be an integer, got True"),
        (graph_of((NOT_A, GateNode(2, GateKind.MNOT, (True,)))), DanglingNetError,
         "gate 2 references undeclared input True"),
        (graph_of(outputs=(("S", 1.0),)), DanglingNetError, "output 'S' references undeclared gate 1.0"),
        (graph_of((GateNode(1, GateKind.MOR, (2, "A")), GateNode(2, GateKind.MNOT, (1,)))),
         CycleError, "circuit contains a feedback loop through gate 1"),
    ])
    def test_a_faulty_graph_is_refused_when_built(self, fields, error, message):
        with pytest.raises(error) as exc:
            CircuitGraph(*fields)
        assert type(exc.value) is error and exc.value.line is None
        assert str(exc.value).startswith(message) and "line" not in str(exc.value)

    def test_fields_are_stored_as_tuples_and_replace_and_make_are_checked(self):
        graph = CircuitGraph([GateNode(1, GateKind.MOR, ["A", "B"])], ["A", "B"], [["S", 1]])
        assert graph == parse_circuit(MINIMAL)
        assert type(graph.nodes) is type(graph.inputs) is type(graph.outputs) is type(graph.outputs[0]) is tuple
        assert type(graph.nodes[0]) is GateNode and type(graph.nodes[0].sources) is tuple
        assert CircuitGraph._make(graph) == graph
        with pytest.raises(DanglingNetError, match="^output 'S' references undeclared gate 9$"):
            graph._replace(outputs=(("S", 9),))
        with pytest.raises(DanglingNetError, match="^gate 1 references undeclared input 'B'$"):
            CircuitGraph._make((graph.nodes, ("A",), ()))


class TestRoundTrip:
    def test_circuit_round_trip(self):
        graph = parse_circuit(fixture_text("adder.mlc"))
        assert parse_circuit(serialize_circuit(graph)) == graph

    def test_minimal_round_trip(self):
        graph = parse_circuit(MINIMAL)
        assert parse_circuit(serialize_circuit(graph)) == graph

    def test_stimulus_round_trip(self):
        stim = parse_stimulus(fixture_text("pattern_101.mls"))
        assert parse_stimulus(serialize_stimulus(stim)) == stim


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def stimuli(draw):
    """Terminals whose finite segments tile [0, horizon], cut anywhere inside it."""
    horizon = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True), min_size=1, max_size=3,
                          unique=True))
    terminals = []
    for name in names:
        cuts = {c for c in draw(st.lists(st.floats(0.0, horizon), max_size=5)) if 0.0 < c < horizon}
        bounds = [0.0, *sorted(cuts), horizon]
        terminals.append((name, tuple(Segment(a, b, draw(FINITE)) for a, b in zip(bounds, bounds[1:]))))
    return Stimulus(tuple(terminals))


@given(stimuli())
@example(parse_stimulus("A: 0..100.1234567=0.3333333333, 100.1234567..400=0.6\n"))
@settings(max_examples=100)
def test_serialized_stimulus_parses_back_equal(stim):
    assert parse_stimulus(serialize_stimulus(stim)) == stim


@pytest.mark.parametrize("end, volts", [(400.0, math.nan), (400.0, -math.inf), (math.inf, 0.1)])
def test_a_stimulus_with_a_value_that_is_not_finite_has_no_text(end, volts):
    stim = Stimulus((("A", (Segment(0.0, 200.0, 0.1), Segment(200.0, end, volts))), ("B", (Segment(0.0, end, 0.1),))))
    with pytest.raises(ValueError, match="^terminal 'A' has a time or level that is not finite"):
        serialize_stimulus(stim)


def reference_topological_order(graph):
    """The ready list re-sorted by declaration index after every pop that readied a gate: the oracle."""
    decl_index = {node.id: i for i, node in enumerate(graph.nodes)}
    dependents = {node.id: [] for node in graph.nodes}
    in_degree = {}
    for node in graph.nodes:
        gate_deps = [s for s in node.sources if isinstance(s, int)]
        in_degree[node.id] = len(gate_deps)
        for dep in gate_deps:
            dependents[dep].append(node.id)
    ready = sorted((i for i, d in in_degree.items() if d == 0), key=decl_index.__getitem__)
    order = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        changed = False
        for dep in dependents[current]:
            in_degree[dep] -= 1
            if in_degree[dep] == 0:
                ready.append(dep)
                changed = True
        if changed:
            ready.sort(key=decl_index.__getitem__)
    if len(order) != len(graph.nodes):
        raise CycleError("circuit contains a feedback loop through gate")  # the gate named is checked on its own
    return order


def check_named_loop_gate(graph, message):
    """The gate a ``CycleError`` message names reaches itself through its drivers, on a loop of gates declared
    no earlier than it: it is the earliest declared gate of that loop."""
    named = int(message.rsplit(" ", 1)[1])
    decl_index = {node.id: i for i, node in enumerate(graph.nodes)}
    drivers = {node.id: [s for s in node.sources if isinstance(s, int) and decl_index[s] >= decl_index[named]]
               for node in graph.nodes}
    seen, frontier = set(), list(drivers[named])
    while frontier:
        gate_id = frontier.pop()
        if gate_id not in seen:
            seen.add(gate_id)
            frontier += drivers[gate_id]
    assert named in seen, f"gate {named} is not the earliest declared gate of a loop in {graph}"


def unchecked(cls, *fields):
    """A ``CircuitGraph`` or ``Stimulus`` of these fields with no check made, for the oracle and ``serialize_*``."""
    return tuple.__new__(cls, fields)


@st.composite
def gate_nodes(draw, acyclic):
    """Gates with distinct drawn ids, declared in shuffled order.  An acyclic graph's gates draw their gate sources
    from gates earlier in a hidden rank; otherwise from any gate, themselves included."""
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True))
    nodes = []
    for rank, gate_id in enumerate(ids):
        drivers = ids[:rank] if acyclic else ids
        kind = draw(st.sampled_from(GateKind))
        source = st.sampled_from(["A", *drivers])
        nodes.append(GateNode(gate_id, kind, tuple(draw(source) for _ in range(kind.arity))))
    return tuple(draw(st.permutations(nodes)))


@given(gate_nodes(acyclic=True))
@settings(max_examples=300)
def test_topological_order_of_a_dag_matches_the_resorting_oracle(nodes):
    graph = CircuitGraph(nodes, ("A",), ())
    order = topological_order(graph)
    assert order == reference_topological_order(graph)
    position = {gate_id: k for k, gate_id in enumerate(order)}
    for node in graph.nodes:
        assert all(position[s] < position[node.id] for s in node.sources if isinstance(s, int))
    assert parse_circuit(serialize_circuit(graph)) == graph


@given(gate_nodes(acyclic=False))
@example((GateNode(1, GateKind.MOR, (3, "A")), GateNode(2, GateKind.MOR, (3, "A")),
          GateNode(3, GateKind.MNOT, (2,))))
@example((GateNode(1, GateKind.MOR, (2, "A")), GateNode(2, GateKind.MAND, (3, "A")),
          GateNode(3, GateKind.MOR, (2, "A"))))
@settings(max_examples=300)
def test_topological_order_of_any_graph_matches_the_resorting_oracle(nodes):
    graph = unchecked(CircuitGraph, nodes, ("A",), ())
    try:
        expected = reference_topological_order(graph)
    except CycleError as exc:
        messages = []
        for build in (lambda: CircuitGraph(nodes, ("A",), ()), lambda: parse_circuit(serialize_circuit(graph))):
            with pytest.raises(CycleError) as got:
                build()
            assert str(got.value).startswith(str(exc))
            messages.append(str(got.value))
        assert messages[0] == messages[1]
        check_named_loop_gate(graph, messages[0])
    else:
        assert topological_order(CircuitGraph(nodes, ("A",), ())) == expected


def unlocated(exc):
    """A diagnostic's message less its location: the leading line and column, and a trailing ``on line N``."""
    return re.sub(r"^line \d+(, column \d+)?: | on line \d+$", "", str(exc))


def assert_built_exactly_when_parsed(cls, fields, parse, serialize):
    """``cls(*fields)`` is built exactly when ``parse`` accepts its text, and then equals it and round-trips; else
    both raise the same type with the same message, less the location, which the hand-built one lacks."""
    try:
        parsed = parse(serialize(unchecked(cls, *fields)))
    except NetlistError as exc:
        with pytest.raises(NetlistError) as built:
            cls(*fields)
        assert type(built.value) is type(exc)
        assert built.value.line is None and str(built.value) == unlocated(exc)
    else:
        assert cls(*fields) == parsed
        assert parse(serialize(parsed)) == parsed


NAMES = st.from_regex(r"[A-Z][A-Za-z0-9_]{0,4}", fullmatch=True)  # never t_ms or a gate column
INVALID_NAMES = st.sampled_from(["9x", "a-b", "\u00e9", "A.B"])  # each one token of text


@st.composite
def drawn_graphs(draw):
    """The fields of a valid graph, or of one with a single fault that ``parse_circuit`` or ``CircuitGraph`` refuses:
    a bad or repeated gate id, an arity of sources off by one, a dangling source or output, a repeated, reserved or
    invalid name, or a feedback loop."""
    names = draw(st.lists(NAMES, min_size=2, max_size=5, unique=True))
    inputs, probes = names[:draw(st.integers(1, len(names) - 1))], names
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
    nodes = [GateNode(gate_id, draw(st.sampled_from(GateKind)), []) for gate_id in ids]
    for rank, node in enumerate(nodes):
        node.sources.extend(draw(st.sampled_from([*inputs, *(n.id for n in nodes[:rank])]))
                            for _ in range(node.kind.arity))
    outputs = [(name, draw(st.sampled_from([n.id for n in nodes]))) for name in probes[len(inputs):]]
    fault = draw(st.sampled_from(["none", "id", "repeated id", "arity", "dangling gate", "dangling input",
                                  "dangling output", "repeated name", "reserved name", "invalid name", "loop"]))
    node = draw(st.sampled_from(nodes))
    if fault == "id":
        nodes[nodes.index(node)] = node._replace(id=draw(st.sampled_from([0, -3, "x", "x1"])))
    elif fault == "repeated id":
        nodes.append(node)
    elif fault == "arity" and (len(node.sources) == 1 or draw(st.booleans())):
        node.sources.append(inputs[0])
    elif fault == "arity":
        node.sources.pop()
    elif fault == "dangling gate":
        node.sources[-1] = 99
    elif fault == "dangling input":
        node.sources[0] = "Undeclared"
    elif fault == "dangling output":
        outputs.append(("Undeclared", 99))
    elif fault == "repeated name":
        inputs.append(draw(st.sampled_from(probes)))
    elif fault == "reserved name":
        outputs.append((draw(st.sampled_from(["t_ms", f"g{node.id}", f"g{node.id}_I", f"g{node.id}_x2"])), node.id))
    elif fault == "invalid name" and draw(st.booleans()):
        inputs.append(draw(INVALID_NAMES))
    elif fault == "invalid name":
        outputs.append((draw(INVALID_NAMES), node.id))
    elif fault == "loop":  # the node and a later one read each other
        later = draw(st.sampled_from(nodes[nodes.index(node):]))
        node.sources[0], later.sources[0] = later.id, node.id
    return [node._replace(sources=tuple(node.sources)) for node in nodes], inputs, outputs


@st.composite
def drawn_stimuli(draw):
    """The terminals of a valid stimulus, or of one with a single fault: a repeated or invalid terminal name, an
    empty, overlapping or missing interval, or a terminal that ends off the horizon."""
    terminals = [(name, list(segs)) for name, segs in draw(stimuli()).segments]
    fault = draw(st.sampled_from(["none", "repeated name", "invalid name", "empty", "overlap", "missing", "short"]))
    name, segs = draw(st.sampled_from(terminals))
    if fault == "repeated name":
        terminals.append((name, segs))
    elif fault == "invalid name":
        terminals.append((draw(INVALID_NAMES), segs))
    elif fault == "empty":
        seg = draw(st.sampled_from(segs))
        segs.append(seg._replace(start=seg.end, end=draw(st.sampled_from([seg.start, seg.end]))))
    elif fault == "overlap":
        segs.append(draw(st.sampled_from(segs)))
    elif fault == "missing" and len(segs) > 1:
        segs.remove(draw(st.sampled_from(segs)))
    elif fault == "short":
        segs[-1] = segs[-1]._replace(end=segs[-1].start / 2 + segs[-1].end / 2)
    return (tuple((name, tuple(segs)) for name, segs in terminals),)


@given(drawn_graphs())
@settings(max_examples=300)
def test_a_hand_built_graph_is_built_exactly_when_its_text_parses(fields):
    assert_built_exactly_when_parsed(CircuitGraph, fields, parse_circuit, serialize_circuit)


@given(drawn_stimuli())
@settings(max_examples=300)
def test_a_hand_built_stimulus_is_built_exactly_when_its_text_parses(fields):
    assert_built_exactly_when_parsed(Stimulus, fields, parse_stimulus, serialize_stimulus)


FUZZ_TOKENS = [
    "input", "gate", "output", "format", "memlogic/1", "MOR", "MAND", "MNOT",
    "A", "B", "1", "2", "99", "-3", "0..100", "=0.6", ":", "#", "..", "\x00", "é",
    "0..100=0.1", "gate gate", "1e309", "nan",
]


def test_parser_totality_smoke():
    """Any input either parses or raises a located diagnostic; no crashes."""
    rng = random.Random(20120283)
    for _ in range(2000):
        n = rng.randint(0, 12)
        text = "\n".join(
            " ".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(0, 6)))
            for _ in range(n)
        )
        for parser in (parse_circuit, parse_stimulus):
            try:
                parser(text)
            except NetlistError:
                pass
