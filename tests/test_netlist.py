"""Netlist and stimulus parsing: happy paths, diagnostics, round trips."""

import math
import random

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


@st.composite
def gate_graphs(draw, acyclic):
    """Gates with distinct drawn ids, declared in shuffled order.  An acyclic graph's gates draw their gate sources
    from gates earlier in a hidden rank; otherwise from any gate, themselves included."""
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True))
    nodes = []
    for rank, gate_id in enumerate(ids):
        drivers = ids[:rank] if acyclic else ids
        kind = draw(st.sampled_from(GateKind))
        source = st.sampled_from(["A", *drivers])
        nodes.append(GateNode(gate_id, kind, tuple(draw(source) for _ in range(kind.arity))))
    return CircuitGraph(tuple(draw(st.permutations(nodes))), ("A",), ())


@given(gate_graphs(acyclic=True))
@settings(max_examples=300)
def test_topological_order_of_a_dag_matches_the_resorting_oracle(graph):
    order = topological_order(graph)
    assert order == reference_topological_order(graph)
    position = {gate_id: k for k, gate_id in enumerate(order)}
    for node in graph.nodes:
        assert all(position[s] < position[node.id] for s in node.sources if isinstance(s, int))
    assert parse_circuit(serialize_circuit(graph)) == graph


@given(gate_graphs(acyclic=False))
@example(CircuitGraph((GateNode(1, GateKind.MOR, (3, "A")), GateNode(2, GateKind.MOR, (3, "A")),
                       GateNode(3, GateKind.MNOT, (2,))), ("A",), ()))
@example(CircuitGraph((GateNode(1, GateKind.MOR, (2, "A")), GateNode(2, GateKind.MAND, (3, "A")),
                       GateNode(3, GateKind.MOR, (2, "A"))), ("A",), ()))
@settings(max_examples=300)
def test_topological_order_of_any_graph_matches_the_resorting_oracle(graph):
    try:
        expected = reference_topological_order(graph)
    except CycleError as exc:
        messages = []
        for order in (topological_order, lambda g: parse_circuit(serialize_circuit(g))):
            with pytest.raises(CycleError) as got:
                order(graph)
            assert str(got.value).startswith(str(exc))
            messages.append(str(got.value))
        assert messages[0] == messages[1]
        check_named_loop_gate(graph, messages[0])
    else:
        assert topological_order(graph) == expected


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
