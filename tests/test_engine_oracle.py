"""Differential test: the compiled engine against the object-per-gate reference loop.

``reference_step`` is one gate step written out from the device spec: the
drive by gate kind, ``gates.step``, then the readout from
``model_current``.  ``reference_simulate`` is the step-major engine the
compiled one replaced: each step samples every input with
``Stimulus.value_at``, then takes one ``reference_step`` per gate in
topological order.  Neither calls gate code from ``src/``; a
``GateInstance`` only holds a gate's kind, params and state, and the MNOT
divider is read from the ``gates`` module's constants.  The properties run
the engine on random acyclic netlists, some with twin gates, and piecewise
stimuli, each run with one ``params`` and drawn starting ``states``, and
``GateInstance.step`` on random input sequences, and require every value
and every final device state to match bit for bit (compared as
``float.hex``, so signed zeros count).  Hand-built cases pin the held-run
and twin edges: threshold and NaN drives, signed-zero starts and sources,
and ``GateInstance.run`` rejecting malformed runs.
"""

import copy
import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from memlogic.engine import SimConfig, Trace, final_states, simulate
from memlogic.gates import (R1, R2, R_OFF_CAP, V_CON, V_RAIL, DeviceParams, GateInstance, GateKind, MemristorState,
                            model_current, step)
from memlogic.netlist import CoverageError, Segment, Stimulus, parse_circuit, topological_order


def reference_step(gate: GateInstance, inputs, dt: float) -> float:
    """Advance ``gate.state`` one step; return MOR/MAND's output current or MNOT's tap voltage."""
    p = gate.params
    if gate.kind is GateKind.MOR:
        drive = max(inputs[0], inputs[1])
    elif gate.kind is GateKind.MAND:
        drive = (inputs[0] + inputs[1]) / 2.0
    else:
        drive = inputs[0] + V_CON
    gate.state = step(gate.state, p, drive, dt)
    current = model_current(gate.state, p)
    if gate.kind is GateKind.MNOT:
        g = current / p.v_ref
        r_m = R_OFF_CAP if g <= 1.0 / R_OFF_CAP else 1.0 / g
        return V_RAIL * r_m / (R1 + R2 + r_m)
    return current / p.v_ref * drive


def reference_simulate(graph, stimulus, cfg=None, params=None, states=None) -> tuple[Trace, dict]:
    """The object-per-gate engine: one ``reference_step`` per gate per step; returns the trace and final states.

    It names and fills its own columns and calls no engine helper, so the
    comparison covers the engine's column layout too.
    """
    cfg = cfg or SimConfig()
    states = states or {}
    gates = {node.id: GateInstance(node.kind, params or DeviceParams(), states.get(node.id, MemristorState(1.0, 1.0)))
             for node in graph.nodes}
    order = topological_order(graph)
    nodes = {node.id: node for node in graph.nodes}
    gate_ids = tuple(node.id for node in graph.nodes)

    columns: dict[str, list[float]] = {"t_ms": []}
    columns.update({name: [] for name in graph.inputs})
    gate_volts = {i: [] for i in gate_ids}
    columns.update({name: gate_volts[i] for name, i in graph.outputs})
    columns.update({f"g{i}": gate_volts[i] for i in gate_ids})
    for i in gate_ids:
        columns.update({f"g{i}_I": [], f"g{i}_x1": [], f"g{i}_x2": []})

    net: dict = {}
    for k in range(cfg.steps):
        t0 = k * cfg.dt
        for name in graph.inputs:
            net[name] = stimulus.value_at(name, t0)
        for gate_id in order:
            node = nodes[gate_id]
            gate = gates[gate_id]
            out = reference_step(gate, [net[src] for src in node.sources], cfg.dt)
            net[gate_id] = out if node.kind is GateKind.MNOT else out * cfg.b
        columns["t_ms"].append(t0 + cfg.dt)
        for name in graph.inputs:
            columns[name].append(net[name])
        for gate_id in gate_ids:
            state = gates[gate_id].state
            gate_volts[gate_id].append(net[gate_id])
            columns[f"g{gate_id}_I"].append(model_current(state, gates[gate_id].params))
            columns[f"g{gate_id}_x1"].append(state.x1)
            columns[f"g{gate_id}_x2"].append(state.x2)

    return Trace(config=cfg, columns=columns), {i: g.state for i, g in gates.items()}


def hexed(trace: Trace) -> list:
    return [(name, [float(v).hex() for v in values]) for name, values in trace.columns.items()]


def state_hex(states: dict[int, MemristorState]) -> dict:
    return {i: (s.x1.hex(), s.x2.hex()) for i, s in states.items()}


# Threshold edges, the hold window, a negative zero, and depressing biases.
VOLTS = st.one_of(
    st.sampled_from([0.5, -0.1, 0.0, -0.0, 0.1, 0.3, 0.45, 0.6, 0.8, -0.2, -0.5]),
    st.floats(-0.6, 0.9, allow_nan=False),
)
DT = st.one_of(st.sampled_from([1.0, 0.5, 0.7]), st.integers(1, 100).map(lambda k: 0.01 * k))
PARAMS = [
    DeviceParams(),
    DeviceParams(t1=7.0, t2=90.0, t1_dep=20.0, t2_dep=400.0, v_ox=0.45, v_red=-0.05),
    DeviceParams(a1=-2e-7, a2=-2e-7, v_ox=0.55, v_red=-0.15),
]
FRACTION = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def netlists(draw):
    n_inputs = draw(st.integers(1, 3))
    inputs = [f"I{i}" for i in range(n_inputs)]
    n_gates = draw(st.integers(1, 20))
    gates = []
    for gate_id in range(1, n_gates + 1):
        if gates and draw(st.integers(0, 3)) == 0:
            # A twin: an earlier gate's kind and sources, sometimes swapped, under a new id.
            kind, srcs = draw(st.sampled_from(gates))
            srcs = srcs[::-1] if draw(st.booleans()) else srcs
        else:
            kind = draw(st.sampled_from(list(GateKind)))
            pool = inputs + [str(i) for i in range(1, gate_id)]
            srcs = [draw(st.sampled_from(pool)) for _ in range(kind.arity)]
        gates.append((kind, srcs))
    gate_lines = [f"gate {i} {kind.value} {' '.join(srcs)}" for i, (kind, srcs) in enumerate(gates, 1)]
    gate_lines = draw(st.permutations(gate_lines))  # declaration order need not be topological
    probes = draw(st.lists(st.integers(1, n_gates), max_size=3, unique=True))
    text = "".join(f"input {n}\n" for n in inputs) + "\n".join(gate_lines) + "\n"
    text += "".join(f"output P{i} {g}\n" for i, g in enumerate(probes))
    return parse_circuit(text)


@st.composite
def stimuli(draw, names, horizon):
    terminals = []
    for name in names:
        cuts = sorted(set(draw(st.lists(st.floats(0.0, horizon, exclude_min=True, exclude_max=True),
                                        max_size=5))))
        bounds = [0.0] + cuts + [horizon]
        terminals.append((name, tuple(Segment(s, e, draw(VOLTS)) for s, e in zip(bounds, bounds[1:]))))
    return Stimulus(tuple(terminals))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_compiled_engine_matches_reference_bit_for_bit(data):
    graph = data.draw(netlists())
    dt = data.draw(DT)
    # Up to 300 steps, so that a few cuts leave long constant segments: held runs and twins.
    horizon = data.draw(st.floats(1.0, 300.0)) * dt
    stim = data.draw(stimuli(graph.inputs, horizon + data.draw(st.sampled_from([0.0, dt, 3.3]))))
    cfg = SimConfig(dt=dt, horizon=horizon)
    params = data.draw(st.sampled_from(PARAMS))
    # Continue some devices from trained states; the rest start fresh.
    trained = data.draw(st.lists(st.sampled_from([node.id for node in graph.nodes]), unique=True))
    states = {i: MemristorState(data.draw(FRACTION), data.draw(FRACTION)) for i in trained}

    got = simulate(graph, stim, cfg, params, states)
    want, want_states = reference_simulate(graph, stim, cfg, params, states)
    assert hexed(got) == hexed(want)
    assert got.to_csv() == want.to_csv()
    assert state_hex(final_states(got, graph)) == state_hex(want_states)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_gate_step_matches_reference_bit_for_bit(data):
    kind = data.draw(st.sampled_from(list(GateKind)))
    state = MemristorState(data.draw(FRACTION), data.draw(FRACTION))
    gate = GateInstance(kind, data.draw(st.sampled_from(PARAMS)), state)
    ref = copy.deepcopy(gate)
    steps = st.tuples(st.lists(VOLTS, min_size=kind.arity, max_size=kind.arity), DT)
    for inputs, dt in data.draw(st.lists(steps, max_size=60)):
        assert gate.step(inputs, dt).hex() == reference_step(ref, inputs, dt).hex()
    assert state_hex({0: gate.state}) == state_hex({0: ref.state})


def test_gate_step_matches_reference_at_threshold_edges_and_signed_zero_ties():
    """Fixed cases the random properties rarely draw: drives at v_ox and v_red and one ulp
    either side of each, on a trained device, and MOR ties between 0.0 and -0.0."""
    for params in PARAMS:
        edges = [e for v in (params.v_ox, params.v_red) for e in (math.nextafter(v, -1.0), v, math.nextafter(v, 1.0))]
        for kind in (GateKind.MOR, GateKind.MAND):
            gate = GateInstance(kind=kind, params=params, state=MemristorState(0.5, 0.25))
            ref = copy.deepcopy(gate)
            for inputs in [[v, v] for v in edges] + [[0.0, -0.0], [-0.0, 0.0]]:
                assert gate.step(inputs, 1.0).hex() == reference_step(ref, inputs, 1.0).hex()
            assert state_hex({0: gate.state}) == state_hex({0: ref.state})


def test_fresh_run_matches_reference_under_default_params():
    graph = parse_circuit("input A\ninput B\ngate 1 MOR A B\ngate 2 MNOT 1\ngate 3 MAND 2 A\noutput OUT 3\n")
    stim = Stimulus((("A", (Segment(0.0, 20.0, 0.6), Segment(20.0, 40.0, -0.2))),
                     ("B", (Segment(0.0, 40.0, 0.1),))))
    cfg = SimConfig(dt=0.7, horizon=40.0)
    assert hexed(simulate(graph, stim, cfg)) == hexed(reference_simulate(graph, stim, cfg)[0])


def test_gap_in_hand_built_stimulus_is_a_coverage_error():
    """The gap is found when the stimulus is built, with the message ``parse_stimulus`` gives it."""
    with pytest.raises(CoverageError, match=r"^terminal 'A': gap between t=10\.0 and t=12\.0$"):
        Stimulus((("A", (Segment(0.0, 10.0, 0.6), Segment(12.0, 20.0, 0.1))),))


def run_both(text, terminals, horizon, params=None, states=None):
    """The engine's trace, checked bit for bit against the reference's, at dt = 1 ms."""
    graph = parse_circuit(text)
    stim = Stimulus(tuple((name, tuple(Segment(*seg) for seg in segs)) for name, segs in terminals.items()))
    cfg = SimConfig(horizon=horizon)
    got = simulate(graph, stim, cfg, params, states)
    want, want_states = reference_simulate(graph, stim, cfg, params, states)
    assert hexed(got) == hexed(want)
    assert state_hex(final_states(got, graph)) == state_hex(want_states)
    return got


def test_a_drive_run_ends_where_either_source_run_ends():
    """A holds over the whole run and B leaves the hold window half way: the MAND drive is held
    for the first half only, whichever source is named first."""
    got = run_both("input A\ninput B\ngate 1 MAND A B\ngate 2 MAND B A\ngate 3 MOR 1 A\n",
                   {"A": [(0.0, 20.0, 0.1)], "B": [(0.0, 10.0, 0.1), (10.0, 20.0, 0.9)]}, 20.0)
    assert len(set(got.columns["g1_x1"][9:11])) == 2


def test_twins_share_arrays_only_from_bitwise_equal_states():
    text = ("input A\ngate 1 MAND A A\ngate 2 MAND A A\ngate 3 MAND A A\ngate 4 MAND A A\n"
            "gate 5 MNOT 3\ngate 6 MNOT 4\n")
    states = {1: MemristorState(0.0, 1.0), 2: MemristorState(-0.0, 1.0)}
    got = run_both(text, {"A": [(0.0, 10.0, 0.1), (10.0, 20.0, 0.6)]}, 20.0, states=states)
    # 3 and 4 start fresh, so they are twins, and so are 5 and 6 on their shared output; 1 and 2 are not.
    for a, b in ((3, 4), (5, 6)):
        assert all(got.columns[f"g{a}{part}"] is got.columns[f"g{b}{part}"] for part in ("", "_I", "_x1", "_x2"))
    assert got.columns["g1_x1"] is not got.columns["g2_x1"]
    assert {v.hex() for v in got.columns["g1_x1"][:10]} == {"0x0.0p+0"}
    assert {v.hex() for v in got.columns["g2_x1"][:10]} == {"-0x0.0p+0"}


def test_mor_twins_with_swapped_signed_zero_sources_stay_separate():
    got = run_both("input A\ninput B\ngate 1 MOR A B\ngate 2 MOR B A\n",
                   {"A": [(0.0, 10.0, 0.0)], "B": [(0.0, 10.0, -0.0)]}, 10.0)
    assert {v.hex() for v in got.columns["g1"]} == {"0x0.0p+0"}
    assert {v.hex() for v in got.columns["g2"]} == {"-0x0.0p+0"}


@pytest.mark.parametrize("params", PARAMS)
def test_drive_on_a_threshold_or_nan_is_stepped_not_held(params):
    """A run driven at exactly v_ox or v_red, or at NaN, goes through the step loop; only the
    open window v_red < v < v_ox holds."""
    edges = [params.v_ox, params.v_red, math.nan, (params.v_ox + params.v_red) / 2]
    gate = GateInstance(GateKind.MOR, params, MemristorState(0.5, 0.25))
    source = [v for v in edges for _ in range(5)]
    runs = [(k, k + 5) for k in range(0, 20, 5)]
    assert gate.run(gate.state, [source, source], 1.0, 1.5e6, runs)[4] == [(15, 20)]
    run_both("input A\ngate 1 MOR A A\ngate 2 MAND A A\n",
             {"A": [(5.0 * i, 5.0 * i + 5.0, v) for i, v in enumerate(edges)]}, 20.0, params,
             {1: MemristorState(0.5, 0.25), 2: MemristorState(0.5, 0.25)})


@pytest.mark.parametrize("runs,bad", [
    ([(0, 10), (5, 20)], (5, 20)),  # overlapping
    ([(10, 20), (0, 10)], (0, 10)),  # unsorted
    ([(0, 5), (5, 5), (5, 20)], (5, 5)),  # empty
    ([(0, 10), (10, 21)], (10, 21)),  # past the last step
    ([(-1, 5)], (-1, 5)),  # before the first step
])
def test_malformed_runs_are_rejected_naming_the_first_bad_range(runs, bad):
    state = MemristorState(0.5, 0.25)
    gate = GateInstance(GateKind.MAND, PARAMS[0], state)
    source = array("d", [0.1]) * 20
    message = rf"^run \({bad[0]}, {bad[1]}\) is empty, unsorted, overlapping or outside the 20 steps$"
    with pytest.raises(ValueError, match=message):
        gate.run(state, [source, source], 1.0, 1.5e6, runs)
    assert gate.state is state


def test_final_states_of_an_aliased_twin_continue_the_run():
    text = "input A\ninput B\ngate 1 MAND A B\ngate 2 MAND A B\ngate 3 MOR 1 B\ngate 4 MOR 2 B\n"
    graph = parse_circuit(text)
    segs = {"A": (Segment(0.0, 30.0, 0.1), Segment(30.0, 60.0, 0.6)), "B": (Segment(0.0, 60.0, 0.6),)}
    cfg = SimConfig(horizon=30.0)
    first = simulate(graph, Stimulus(tuple((n, s) for n, s in segs.items())), cfg)
    assert first.columns["g3_x1"] is first.columns["g4_x1"]
    # The last 30 ms of each terminal, moved to start at 0: B's one segment, from -30 ms, is cut at 0.
    rest = Stimulus(tuple((n, tuple(Segment(max(g.start - 30.0, 0.0), g.end - 30.0, g.volts)
                                    for g in s if g.end > 30.0)) for n, s in segs.items()))
    second = simulate(graph, rest, cfg, states=final_states(first, graph))
    whole = simulate(graph, Stimulus(tuple((n, s) for n, s in segs.items())), SimConfig(horizon=60.0))
    for node in graph.nodes:
        for part in ("", "_I", "_x1", "_x2"):
            name = f"g{node.id}{part}"
            assert second.column(name).tobytes() == whole.column(name)[30:].tobytes()
