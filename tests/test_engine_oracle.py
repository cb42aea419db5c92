"""Differential test: the compiled engine against the object-per-gate reference loop.

``reference_simulate`` is the step-major engine the compiled one replaced:
each step samples every input with ``Stimulus.value_at``, then steps each
``GateInstance`` in topological order.  The property runs both on random
acyclic netlists and piecewise stimuli and requires every recorded value
and every final device state to match bit for bit (compared as
``float.hex``, so signed zeros count).
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from memlogic.device import DeviceParams, MemristorState, model_current
from memlogic.engine import SimConfig, Trace, simulate
from memlogic.gates import GateInstance, GateKind
from memlogic.netlist import CoverageError, Segment, Stimulus, parse_circuit, topological_order


def reference_simulate(graph, stimulus, cfg=None, params=None, gates=None) -> Trace:
    """The object-per-gate engine: one ``GateInstance.step`` per gate per step.

    It names and fills its own columns and calls no engine helper, so the
    comparison covers the engine's column layout too.
    """
    cfg = cfg or SimConfig()
    if gates is None:
        gates = {node.id: GateInstance(kind=node.kind, params=params or DeviceParams()) for node in graph.nodes}
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
            out = gate.step([net[src] for src in node.sources], cfg.dt)
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

    return Trace(config=cfg, columns=columns)


def hexed(trace: Trace) -> list:
    return [(name, [float(v).hex() for v in values]) for name, values in trace.columns.items()]


def state_hex(gates: dict[int, GateInstance]) -> dict:
    return {i: (g.state.x1.hex(), g.state.x2.hex()) for i, g in gates.items()}


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
# MNOT divider values; r2 stays between the on-resistance (1.5e6) and R_OFF_CAP.
DIVIDERS = st.fixed_dictionaries({
    "r1": st.floats(1e5, 1.4e6),
    "r2": st.floats(1.6e6, 1e8),
    "v_con": st.sampled_from([0.3, 0.2, 0.31]),
    "v_rail": st.floats(0.5, 1.0),
})


@st.composite
def netlists(draw):
    n_inputs = draw(st.integers(1, 3))
    inputs = [f"I{i}" for i in range(n_inputs)]
    n_gates = draw(st.integers(1, 20))
    gate_lines = []
    for gate_id in range(1, n_gates + 1):
        kind = draw(st.sampled_from(list(GateKind)))
        pool = inputs + [str(i) for i in range(1, gate_id)]
        srcs = [draw(st.sampled_from(pool)) for _ in range(kind.arity)]
        gate_lines.append(f"gate {gate_id} {kind.value} {' '.join(srcs)}")
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
    return Stimulus(tuple(terminals), horizon)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_compiled_engine_matches_reference_bit_for_bit(data):
    graph = data.draw(netlists())
    dt = data.draw(DT)
    horizon = data.draw(st.floats(1.0, 100.0)) * dt
    stim = data.draw(stimuli(graph.inputs, horizon + data.draw(st.sampled_from([0.0, dt, 3.3]))))
    cfg = SimConfig(dt=dt, horizon=horizon)

    gates = None
    if data.draw(st.booleans()):
        # Continue from trained devices, each with its own params and state.
        gates = {}
        for node in graph.nodes:
            gate = GateInstance(kind=node.kind, params=data.draw(st.sampled_from(PARAMS)),
                                **data.draw(DIVIDERS))
            fraction = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
            gate.state = MemristorState(data.draw(fraction), data.draw(fraction))
            gates[node.id] = gate
    ref_gates = copy.deepcopy(gates)

    got = simulate(graph, stim, cfg, gates=gates)
    want = reference_simulate(graph, stim, cfg, gates=ref_gates)
    assert hexed(got) == hexed(want)
    assert got.to_csv() == want.to_csv()
    if gates is not None:
        assert state_hex(gates) == state_hex(ref_gates)


def test_fresh_run_matches_reference_under_default_params():
    graph = parse_circuit("input A\ninput B\ngate 1 MOR A B\ngate 2 MNOT 1\ngate 3 MAND 2 A\noutput OUT 3\n")
    stim = Stimulus((("A", (Segment(0.0, 20.0, 0.6), Segment(20.0, 40.0, -0.2))),
                     ("B", (Segment(0.0, 40.0, 0.1),))), 40.0)
    cfg = SimConfig(dt=0.7, horizon=40.0)
    assert hexed(simulate(graph, stim, cfg)) == hexed(reference_simulate(graph, stim, cfg))


def test_gap_in_hand_built_stimulus_is_a_coverage_error():
    graph = parse_circuit("input A\ngate 1 MNOT A\n")
    stim = Stimulus((("A", (Segment(0.0, 10.0, 0.6), Segment(12.0, 20.0, 0.1))),), 20.0)
    cfg = SimConfig(horizon=20.0)
    with pytest.raises(CoverageError):
        reference_simulate(graph, stim, cfg)
    with pytest.raises(CoverageError):
        simulate(graph, stim, cfg)
