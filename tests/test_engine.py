"""Engine semantics: conversion, propagation, determinism, readout."""

import hashlib
import json
import math
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

import memlogic
from memlogic.device import DeviceParams, MemristorState, new_state
from memlogic.engine import (
    AMBIGUOUS,
    SimConfig,
    Trace,
    _clip,
    _sample,
    classify,
    final_states,
    read_binary,
    settle_time,
    simulate,
    write_trace,
)
from memlogic.harness import build_full_adder, make_pattern_stimulus
from memlogic.netlist import (
    CoverageError,
    DuplicateError,
    Segment,
    Stimulus,
    UnknownTerminalError,
    parse_circuit,
    parse_stimulus,
)
from test_csv_render import plain_csv
from test_engine_oracle import DT, VOLTS

PARAMS = DeviceParams()

SINGLE_MOR = "input A\ninput B\ngate 1 MOR A B\noutput OUT 1\n"


def closed_form_current(t_ms: float, p: DeviceParams = PARAMS) -> float:
    return p.a1 * math.exp(-t_ms / p.t1) + p.a2 * math.exp(-t_ms / p.t2) + p.c


def stimulus(a: str, b: str) -> str:
    return f"A: {a}\nB: {b}\n"


class TestItoV:
    """MOR/MAND output currents become node voltages as current * b."""

    def test_saturation_maps_to_logic_high(self):
        assert 4e-7 * SimConfig().b == pytest.approx(0.6, rel=1e-12)

    def test_zero(self):
        assert 0.0 * SimConfig().b == 0.0

    def test_linear(self):
        assert 2e-7 * SimConfig().b == pytest.approx(0.3, rel=1e-12)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.steps == 400
        assert cfg.threshold_low < cfg.threshold_high

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"horizon": 0.5}, {"b": -1.0},
        {"threshold_low": 0.5, "threshold_high": 0.4},
        {"dt": math.nan}, {"horizon": math.inf}, {"b": math.nan}, {"threshold_high": math.inf},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestSimulate:
    def test_quiescent_circuit_stays_dark(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..400=0.1", "0..400=0.1"))
        trace = simulate(graph, stim)
        assert all(v == 0.0 for v in trace.column("OUT"))
        assert trace.column("g1_x1")[-1] == 1.0 and trace.column("g1_x2")[-1] == 1.0

    def test_single_gate_matches_closed_form(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..100=0.1, 100..400=0.6", "0..400=0.1"))
        trace = simulate(graph, stim)
        want = closed_form_current(300.0) * 1.5e6
        got = trace.voltage_at("OUT", 400.0)
        assert abs(got - want) / want < 1e-12
        assert abs(want - 0.5448) < 1e-4

    def test_record_count_and_times(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..400=0.1", "0..400=0.1"))
        trace = simulate(graph, stim)
        assert len(trace.times) == 400
        assert trace.times[0] == 1.0 and trace.times[-1] == 400.0
        half = simulate(graph, stim, SimConfig(dt=0.5))
        assert len(half.times) == 800

    def test_determinism_bit_identical(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..100=0.1, 100..400=0.6", "0..250=0.1, 250..400=0.6"))
        t1 = simulate(graph, stim)
        t2 = simulate(graph, stim)
        assert t1.columns == t2.columns
        assert t1.to_csv() == t2.to_csv()

    def test_timestep_halving_small_perturbation(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..100=0.1, 100..400=0.6", "0..400=0.1"))
        coarse = simulate(graph, stim, SimConfig(dt=1.0))
        fine = simulate(graph, stim, SimConfig(dt=0.5))
        v1 = coarse.voltage_at("OUT", 400.0)
        v2 = fine.voltage_at("OUT", 400.0)
        assert abs(v2 - v1) / v1 < 0.01

    def test_causality(self):
        graph = parse_circuit(SINGLE_MOR)
        early = parse_stimulus(stimulus("0..100=0.1, 100..400=0.6", "0..400=0.1"))
        late = parse_stimulus(stimulus("0..100=0.1, 100..300=0.6, 300..400=0.1",
                                       "0..400=0.1"))
        t_early = simulate(graph, early)
        t_late = simulate(graph, late)
        k300 = t_early.index_at(300.0)
        assert t_early.column("OUT")[: k300 + 1] == t_late.column("OUT")[: k300 + 1]

    def test_monotone_output_under_constant_drive(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..400=0.6", "0..400=0.1"))
        trace = simulate(graph, stim)
        column = trace.column("OUT")
        assert all(b >= a for a, b in zip(column, column[1:]))

    def test_missing_terminal_rejected(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus("A: 0..400=0.1\n")
        with pytest.raises(UnknownTerminalError):
            simulate(graph, stim)

    def test_short_stimulus_rejected(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..300=0.1", "0..300=0.1"))
        with pytest.raises(CoverageError):
            simulate(graph, stim)

    @pytest.mark.parametrize("circuit,clash", [
        ("input g1\ninput t_ms\ngate 1 MOR g1 t_ms\n", "t_ms"),
        ("input g1\ninput B\ngate 1 MOR g1 B\n", "g1"),
        ("input A\ngate 1 MNOT A\noutput g1_x2 1\n", "g1_x2"),
        ("input A\ngate 2 MNOT A\noutput t_ms 2\n", "t_ms"),
    ])
    def test_input_or_probe_named_like_a_trace_column_is_rejected(self, circuit, clash):
        with pytest.raises(DuplicateError, match=f"'{clash}'"):
            parse_circuit(circuit)


class TestTrainedGates:
    def test_final_states_read_the_last_record(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..100=0.1, 100..400=0.6", "0..400=0.1"))
        trace = simulate(graph, stim)
        states = final_states(trace, graph)
        assert states == {1: MemristorState(trace.column("g1_x1")[-1], trace.column("g1_x2")[-1])}
        assert states[1].x1 < 1.0

    def test_undeclared_gate_in_states_is_rejected(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..400=0.6", "0..400=0.1"))
        with pytest.raises(ValueError, match="^states has gate 2, which the netlist does not declare$"):
            simulate(graph, stim, states={1: new_state(), 2: new_state()})


# Logic levels, the thresholds and the hold window, then any drive.
CHAIN_VOLTS = st.one_of(st.sampled_from([0.1, 0.6, 0.5, -0.1, 0.3, -0.2]), st.floats(-0.6, 0.9))


@given(volts=st.tuples(CHAIN_VOLTS, CHAIN_VOLTS, CHAIN_VOLTS), dt=st.sampled_from([1.0, 0.5, 0.7, 0.01]),
       n=st.integers(1, 120))
@example(volts=(0.6, 0.1, 0.6), dt=1.0, n=200)
@example(volts=(0.1, 0.6, 0.1), dt=0.5, n=400)
@example(volts=(0.6, 0.6, 0.6), dt=0.7, n=286)
@settings(max_examples=60, deadline=None)
def test_two_chained_runs_end_where_one_run_of_both_ends(volts, dt, n):
    """N steps, then N more from ``final_states``, end bit for bit where one run of 2N steps ends."""
    graph = build_full_adder()
    stim = Stimulus(tuple((name, (Segment(0.0, 2 * n * dt, v),)) for name, v in zip(graph.inputs, volts)), 2 * n * dt)
    whole = simulate(graph, stim, SimConfig(dt=dt, horizon=2 * n * dt))
    half = SimConfig(dt=dt, horizon=n * dt)
    first = simulate(graph, stim, half)
    second = simulate(graph, stim, half, states=final_states(first, graph))

    def ends(trace):
        states = final_states(trace, graph)
        return {i: (states[i].x1.hex(), states[i].x2.hex(), trace.column(f"g{i}")[-1].hex()) for i in states}

    assert len(whole.times) == 2 * len(second.times)
    assert ends(second) == ends(whole)


@st.composite
def ordered_segments(draw, dt, steps):
    """One terminal's segments in time order, with gaps and overlaps, each bound on a step
    time or one ulp either side of it."""
    def near_step(k):
        t = k * dt
        return draw(st.sampled_from([math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]))

    firsts = sorted([0, *draw(st.lists(st.integers(0, steps + 1), max_size=5))])
    segs = []
    for i, k in enumerate(firsts):
        upto = firsts[i + 1] if i + 1 < len(firsts) else steps + 1
        # Abut the next segment, stop short of it, or run past its start.
        end = upto + draw(st.sampled_from([0, 0, 0, -1, 1, 3]))
        segs.append(Segment(near_step(k), near_step(end), draw(VOLTS)))
    return tuple(sorted(segs, key=lambda seg: seg.start))


def sampled(sample):
    """The bytes of a sampled column, or the message of the ``CoverageError`` raised instead."""
    try:
        return sample().tobytes()
    except CoverageError as exc:
        return str(exc)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_sample_by_segment_matches_value_at_per_time(data):
    dt = data.draw(DT)
    steps = data.draw(st.integers(1, 60))
    segs = data.draw(ordered_segments(dt, steps))
    stim = Stimulus((("B", (Segment(0.0, steps * dt, 9.0),)), ("A", segs)), steps * dt)
    starts = [k * dt for k in range(steps)]
    got = sampled(lambda: _clip(_sample(stim, "A", dt, steps), 0, steps)[0])
    assert got == sampled(lambda: array("d", [stim.value_at("A", t) for t in starts]))
    if not isinstance(got, str):
        # The runs tile every step, in order, and each holds one double.
        runs = _sample(stim, "A", dt, steps)
        column, clipped = _clip(runs, 0, steps)
        assert clipped == [(lo, hi) for lo, hi, _ in runs]
        assert [k for run in clipped for k in range(*run)] == list(range(steps))
        assert all(len(set(column[lo:hi].tobytes()[i:i + 8] for i in range(0, 8 * (hi - lo), 8))) == 1
                   for lo, hi in clipped)
        # A window's clip is that window of the column, with the runs there counted from its first step.
        a = data.draw(st.integers(0, steps - 1))
        e = data.draw(st.integers(a + 1, steps))
        part, local = _clip(runs, a, e)
        assert part.tobytes() == column[a:e].tobytes()
        assert [k for run in local for k in range(*run)] == list(range(e - a))
        assert all(len(set(part[lo:hi].tobytes()[i:i + 8] for i in range(0, 8 * (hi - lo), 8))) == 1
                   for lo, hi in local)


def test_segment_with_a_nan_start_covers_no_time():
    stim = Stimulus((("A", (Segment(math.nan, 20.0, 0.6),)),), 20.0)
    assert sampled(lambda: _sample(stim, "A", 1.0, 20)) == "terminal A has no segment covering t=0.0"
    with pytest.raises(CoverageError, match=r"^terminal A has no segment covering t=0\.0$"):
        stim.value_at("A", 0.0)


def test_out_of_order_segments_are_a_coverage_error():
    graph = parse_circuit("input A\ngate 1 MNOT A\n")
    stim = Stimulus((("A", (Segment(10.0, 20.0, 0.6), Segment(0.0, 10.0, 0.1))),), 20.0)
    assert stim.value_at("A", 0.0) == 0.1
    with pytest.raises(CoverageError, match=r"^terminal A has no segment covering t=0\.0$"):
        simulate(graph, stim, SimConfig(horizon=20.0))


class TestTraceExport:
    def test_csv_shape_and_format(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..100=0.1, 100..400=0.6", "0..400=0.1"))
        trace = simulate(graph, stim)
        lines = trace.to_csv().splitlines()
        assert len(lines) == 401
        assert lines[0] == "t_ms,A,B,OUT,g1,g1_I,g1_x1,g1_x2"
        first = lines[1].split(",")
        assert len(first) == 8
        # 9 significant digits, scientific notation
        assert all("e" in cell for cell in first)
        assert first[0] == "1.00000000e+00"

    def test_multi_block_csv_sha256(self):
        # 40,000 records make 157 blocks of the CSV renderer; the pin is ``fine_dt/101`` in benchmarks/pins.json.
        cfg = SimConfig(dt=0.01)
        trace = simulate(build_full_adder(), make_pattern_stimulus(1, 0, 1, cfg), cfg)
        digest = hashlib.sha256(trace.to_csv().encode()).hexdigest()
        assert digest == "50f0a5d7c214701e5ff3b94418615307250ccbeae147e179be196ad9ac2024a0"

    def test_metadata_sidecar(self):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..400=0.1", "0..400=0.1"))
        trace = simulate(graph, stim)
        meta = trace.metadata({"circuit": SINGLE_MOR})
        assert meta["records"] == 400
        assert meta["config"]["b"] == 1.5e6
        assert len(meta["fixtures"]["circuit"]) == 64
        assert meta["version"] == memlogic.__version__

    def test_sidecar_records_the_params_the_run_used(self, tmp_path):
        graph = parse_circuit(SINGLE_MOR)
        stim = parse_stimulus(stimulus("0..400=0.1", "0..400=0.1"))
        params = DeviceParams(v_ox=0.45, t1=20.0)
        write_trace(simulate(graph, stim, params=params), str(tmp_path / "trace.csv"))
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["params"] == params._asdict()
        assert simulate(graph, stim).metadata()["params"] == DeviceParams()._asdict()

    def test_hand_built_trace_records_null_params(self, tmp_path):
        write_trace(synthetic_trace([0.1, 0.2]), str(tmp_path / "trace.csv"))
        assert json.loads((tmp_path / "trace.csv.meta.json").read_text())["params"] is None

    @pytest.mark.parametrize("columns, records", [({"NET": [1.0, 2.0]}, 2), ({}, 0)])
    def test_table_without_t_ms_writes_its_csv_and_sidecar(self, tmp_path, columns, records):
        trace = Trace(SimConfig(), columns)
        write_trace(trace, str(tmp_path / "trace.csv"))
        assert (tmp_path / "trace.csv").read_bytes() == trace.to_csv().encode()
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["records"] == records
        assert meta["columns"] == list(columns)

    def test_failed_sidecar_leaves_no_empty_file(self, tmp_path):
        with pytest.raises(AttributeError):
            write_trace(synthetic_trace([0.1, 0.2]), str(tmp_path / "trace.csv"), {"circuit": None})
        assert not (tmp_path / "trace.csv.meta.json").exists()


class TestPackedTrace:
    """``simulate`` stores every series as packed doubles, with the same values and CSV bytes."""

    def test_every_column_is_a_double_array_and_probes_alias_their_gate(self):
        graph = build_full_adder()
        trace = simulate(graph, make_pattern_stimulus(1, 0, 1))
        for name, series in trace.columns.items():
            assert isinstance(series, array) and series.typecode == "d", name
        for name, gate_id in graph.outputs:
            assert trace.column(name) is trace.column(f"g{gate_id}")

    def test_peak_memory_per_trace_cell(self):
        # A boxed float in a list costs 24 bytes a cell, a packed double 8.
        cfg = SimConfig(dt=0.05)
        graph, stim = build_full_adder(), make_pattern_stimulus(1, 0, 1, cfg)
        tracemalloc.start()
        try:
            trace = simulate(graph, stim, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * len(trace.columns) * len(trace.times)

    def test_csv_chunks_render_arrays_as_lists(self):
        values = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-300, 0.1]
        cfg = SimConfig(horizon=float(len(values)))
        times = [float(i + 1) for i in range(len(values))]
        listed = Trace(cfg, {"t_ms": times, "NET": values})
        packed = Trace(cfg, {"t_ms": array("d", times), "NET": array("d", values)})
        lines = b"".join(packed.csv_chunks()).split(b"\n")
        assert lines == b"".join(listed.csv_chunks()).split(b"\n")
        assert lines == plain_csv(listed).split(b"\n")
        assert [line.split(b",")[1] for line in lines[1:4]] == [b"-0.00000000e+00", b"0.00000000e+00", b"inf"]


def synthetic_trace(values, cfg=None) -> Trace:
    cfg = cfg or SimConfig(horizon=float(len(values)))
    return Trace(config=cfg, columns={"t_ms": [float(i + 1) for i in range(len(values))], "NET": list(values)})


class TestReadBinary:
    def test_high(self):
        trace = synthetic_trace([0.59] * 400)
        assert read_binary(trace, "NET", 400.0) == 1

    def test_low(self):
        trace = synthetic_trace([0.104] * 400)
        assert read_binary(trace, "NET", 400.0) == 0

    def test_ambiguous(self):
        trace = synthetic_trace([0.3] * 400)
        assert read_binary(trace, "NET", 400.0) == AMBIGUOUS

    def test_unknown_net(self):
        trace = synthetic_trace([0.0] * 10)
        with pytest.raises(KeyError):
            read_binary(trace, "NOPE", 5.0)

    def test_time_out_of_range(self):
        trace = synthetic_trace([0.0] * 10)
        with pytest.raises(ValueError):
            read_binary(trace, "NET", 1000.0)

    def test_rethreshold_through_the_trace_config(self):
        trace = synthetic_trace([0.3] * 400)
        narrowed = trace._replace(config=trace.config._replace(threshold_low=0.2, threshold_high=0.29))
        assert read_binary(narrowed, "NET", 400.0) == 1
        assert settle_time(narrowed, "NET", 1) == 100.0


@pytest.mark.parametrize("v,level", [
    (0.36, 1), (0.35, AMBIGUOUS), (0.3, AMBIGUOUS), (0.25, AMBIGUOUS), (0.24, 0), (-0.0, 0),
])
def test_classify_band_edges(v, level):
    assert classify(v, SimConfig()) == level


class TestSettleTime:
    def test_constant_high_settles_at_onset(self):
        trace = synthetic_trace([0.6] * 400)
        assert settle_time(trace, "NET", 1) == 100.0

    def test_never_leaving_band_gives_none(self):
        trace = synthetic_trace([0.3] * 400)
        assert settle_time(trace, "NET", 1) is None
        assert settle_time(trace, "NET", 0) is None

    def test_requires_holding_through_horizon(self):
        values = [0.0] * 200 + [0.6] * 100 + [0.0] * 100
        trace = synthetic_trace(values)
        assert settle_time(trace, "NET", 1) is None
        assert settle_time(trace, "NET", 0) == 301.0

    def test_first_stable_crossing(self):
        values = [0.0] * 150 + [0.6] * 250
        trace = synthetic_trace(values)
        assert settle_time(trace, "NET", 1) == 151.0


def forward_settle_time(trace: Trace, net: str, level, onset_ms: float = 100.0):
    """Reference for ``settle_time``: scan every record from t = 0, restarting at each miss after the onset."""
    cfg = trace.config
    column = trace.column(net)
    settled = None
    for k, t in enumerate(trace.times):
        if t < onset_ms:
            continue
        if classify(column[k], cfg) == level:
            if settled is None:
                settled = t
        else:
            settled = None
    return settled


# The readout dead band [0.25, 0.35], its edges and neighbours, and values no threshold orders.
BAND_VALUES = [-0.0, 0.0, 0.1, 0.2499, 0.25, 0.3, 0.35, 0.3501, 0.6, math.nan, math.inf, -math.inf]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_backward_settle_time_matches_forward_scan(data):
    value = st.one_of(st.sampled_from(BAND_VALUES), st.floats(0.2, 0.4))
    pieces = data.draw(st.lists(st.tuples(value, st.integers(1, 8)), max_size=6), label="runs")
    values = [v for v, n in pieces for _ in range(n)]
    n = len(values)
    # Records sit at t = 1..n: onsets before, on, between and after them.
    onset = data.draw(st.one_of(st.sampled_from([-1.0, 0.0, n + 0.5, n + 1.0, 1e9]),
                                st.integers(1, max(n, 1)).map(float),
                                st.integers(1, max(n, 1)).map(lambda k: k + 0.5)), label="onset")
    level = data.draw(st.sampled_from([0, 1, AMBIGUOUS]), label="level")
    trace = Trace(SimConfig(), {"t_ms": array("d", [float(k + 1) for k in range(n)]), "NET": array("d", values)})
    got = settle_time(trace, "NET", level, onset_ms=onset)
    want = forward_settle_time(trace, "NET", level, onset_ms=onset)
    assert got == want and type(got) is type(want)
