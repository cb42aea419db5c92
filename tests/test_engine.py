"""Engine semantics: conversion, propagation, determinism, readout."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import memlogic
from memlogic.engine import (
    AMBIGUOUS,
    SimConfig,
    Trace,
    _json_text,
    _sample,
    classify,
    final_states,
    read_binary,
    settle_time,
    simulate,
    write_trace,
)
from memlogic.gates import DeviceParams, MemristorState, new_state
from memlogic.harness import build_full_adder, make_pattern_stimulus
from memlogic.netlist import (
    CoverageError,
    DuplicateError,
    OverlapError,
    Segment,
    Stimulus,
    UnknownTerminalError,
    parse_circuit,
    parse_stimulus,
)
from closed_form import closed_form_current
from test_csv_render import plain_csv
from test_engine_oracle import DT, VOLTS

SINGLE_MOR = "input A\ninput B\ngate 1 MOR A B\noutput OUT 1\n"


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
    stim = Stimulus(tuple((name, (Segment(0.0, 2 * n * dt, v),)) for name, v in zip(graph.inputs, volts)))
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
def tilings(draw, dt, steps):
    """One terminal's segments tiling [0, horizon], in any order, each bound on a step time or one ulp either side
    of it, the horizon on or past the run's last step."""
    def near_step(k):
        t = k * dt
        return draw(st.sampled_from([math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]))

    last = steps + draw(st.sampled_from([0, 0, 1, 3]))
    cuts = sorted(set(draw(st.lists(st.integers(1, last), max_size=5))) - {last})
    bounds = [0.0, *map(near_step, cuts), near_step(last)]
    return draw(st.permutations([Segment(a, b, draw(VOLTS)) for a, b in zip(bounds, bounds[1:])]))


def untiled(data, segs):
    """``segs``, time-ordered, with one segment's start or end moved by an ulp or to NaN, or with one left out."""
    segs = sorted(segs, key=lambda seg: seg.start)
    i = data.draw(st.integers(0, len(segs) - 1))
    start, end, volts = segs[i]
    how = data.draw(st.sampled_from(["start", "end", "leave out"]))
    if how == "leave out":
        return segs[:i] + segs[i + 1:]
    moved = data.draw(st.sampled_from([-math.inf, math.inf, math.nan]))  # ``nextafter`` towards NaN is NaN
    segs[i] = Segment(math.nextafter(start, moved) if how == "start" else start,
                      math.nextafter(end, moved) if how == "end" else end, volts)
    return segs


def stimulus_text(terminals):
    return "".join(f"{name}: {', '.join(f'{a!r}..{b!r}={v!r}' for a, b, v in segs)}\n" for name, segs in terminals)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_sample_by_segment_matches_value_at_per_time(data):
    dt = data.draw(DT)
    steps = data.draw(st.integers(1, 60))
    segs = data.draw(tilings(dt, steps))
    horizon = max(seg.end for seg in segs)
    stim = Stimulus((("B", (Segment(0.0, horizon, 9.0),)), ("A", segs)))
    assert stim.segments[1][1] == tuple(sorted(segs, key=lambda seg: seg.start))
    assert stim.horizon_ms == horizon
    assert (steps - 1) * dt < horizon  # the run's coverage, which ``_windows`` checks before it samples
    column, runs = _sample(stim.segments[1][1], dt, 0, steps)
    assert column.tobytes() == array("d", [stim.value_at("A", k * dt) for k in range(steps)]).tobytes()
    # The runs tile every step, in order, and each holds one double.
    assert [k for run in runs for k in range(*run)] == list(range(steps))
    assert all(len(set(column[lo:hi].tobytes()[i:i + 8] for i in range(0, 8 * (hi - lo), 8))) == 1
               for lo, hi in runs)
    # A window is that window of the column, with its runs counted from its first step.  It starts at any step, or at
    # one next to a segment end: on the step whose time the end is on or an ulp from, or one step either side of it.
    edges = [k for seg in segs for k in range(round(seg.end / dt) - 1, round(seg.end / dt) + 2) if 0 <= k < steps]
    a = data.draw(st.sampled_from(edges) if edges and data.draw(st.booleans()) else st.integers(0, steps - 1))
    e = data.draw(st.integers(a + 1, steps))
    part, local = _sample(stim.segments[1][1], dt, a, e)
    assert part.tobytes() == column[a:e].tobytes()
    assert [k for run in local for k in range(*run)] == list(range(e - a))
    assert all(len(set(part[lo:hi].tobytes()[i:i + 8] for i in range(0, 8 * (hi - lo), 8))) == 1
               for lo, hi in local)
    # Any segments that do not tile are rejected when the stimulus is built, as ``parse_stimulus`` rejects their text.
    terminals = (("B", (Segment(0.0, horizon, 9.0),)), ("A", untiled(data, segs)))
    with pytest.raises((OverlapError, CoverageError)) as built:
        Stimulus(terminals)
    assert str(built.value).startswith(("terminal 'A'", "terminal 'B'"))
    if terminals[1][1] and all(math.isfinite(x) for _, segs in terminals for seg in segs for x in seg):
        with pytest.raises((OverlapError, CoverageError)) as parsed:
            parse_stimulus(stimulus_text(terminals))
        assert type(parsed.value) is type(built.value)
        assert str(parsed.value) == f"line {parsed.value.line}: {built.value}"


def test_a_nan_start_is_a_gap_at_construction():
    with pytest.raises(CoverageError, match=r"^terminal 'A': gap between t=0\.0 and t=nan$"):
        Stimulus((("A", (Segment(math.nan, 20.0, 0.6),)),))


def test_out_of_order_segments_simulate_as_their_sorted_form():
    graph = parse_circuit("input A\ngate 1 MNOT A\n")
    shuffled = Stimulus((("A", (Segment(10.0, 20.0, 0.6), Segment(0.0, 10.0, 0.1))),))
    ordered = Stimulus((("A", (Segment(0.0, 10.0, 0.1), Segment(10.0, 20.0, 0.6))),))
    assert shuffled == ordered
    assert shuffled.value_at("A", 0.0) == 0.1
    cfg = SimConfig(horizon=20.0)
    assert simulate(graph, shuffled, cfg).columns == simulate(graph, ordered, cfg).columns


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
        assert not (tmp_path / "trace.csv").exists()  # the sidecar is made before the CSV is opened


# Text with non-ASCII, control and lone surrogate characters, which ``json`` escapes to ASCII.
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
# Finite floats, with the signed zero, the smallest subnormal and a near-largest double drawn often.
JSON_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e308]),
                        st.integers(), st.sampled_from([2**64, -(10**40)]))
JSON_VALUE = st.recursive(st.none() | st.booleans() | JSON_NUMBER | JSON_TEXT,
                          lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_TEXT, inner, max_size=3),
                          max_leaves=8)
SIDECARS = st.fixed_dictionaries({
    "version": JSON_TEXT,
    "config": st.dictionaries(JSON_TEXT, JSON_NUMBER, max_size=8),
    "params": st.none() | st.dictionaries(JSON_TEXT, JSON_NUMBER, max_size=8),
    "fixtures": st.dictionaries(JSON_TEXT, JSON_TEXT, max_size=3),
    "records": st.integers(min_value=0),
    "columns": st.lists(JSON_TEXT, max_size=8),
}, optional={"extra": JSON_VALUE})


class TestSidecarText:
    """The sidecar and the adder report are written without ``json``, in the exact layout of
    ``json.dumps(indent=2, sort_keys=True)``."""

    @given(SIDECARS | JSON_VALUE)
    @example({"version": "0.1.0", "config": {}, "params": None, "fixtures": {}, "records": 0, "columns": []})
    @example(True)
    @example(False)
    @example({"b": True})
    @example([0.5, False])
    @settings(max_examples=300, deadline=None)
    def test_sidecar_text_is_the_json_dumps_text(self, meta):
        assert _json_text(meta) == json.dumps(meta, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [{"nan": math.nan}, [math.inf], ("a",), {"a": {1.0}}, b"a", {1: 2.0},
                                       type("Volts", (float,), {})(0.5)])
    def test_values_a_sidecar_does_not_hold_are_a_type_error(self, value):
        with pytest.raises(TypeError):
            _json_text(value)

    def test_without_the_own_sha256_module_the_hashlib_fallback_writes_the_same_sidecar(self, tmp_path):
        package = Path(memlogic.__file__).parent
        circuit, stim = package / "fixtures" / "adder.mlc", package / "fixtures" / "pattern_101.mls"
        probe = ("import sys\n"
                 "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
                 "from memlogic.cli import main\n"
                 "main(['run', '--circuit', sys.argv[1], '--stimulus', sys.argv[2], '--out', sys.argv[3]])\n"
                 "assert 'hashlib' in sys.modules\n")
        subprocess.run([sys.executable, "-c", probe, str(circuit), str(stim), str(tmp_path / "fallback.csv")],
                       env={**os.environ, "PYTHONPATH": str(package.parent)}, capture_output=True, timeout=60,
                       check=True)
        texts = {"circuit": circuit.read_text(encoding="utf-8"), "stimulus": stim.read_text(encoding="utf-8")}
        trace = simulate(parse_circuit(texts["circuit"]), parse_stimulus(texts["stimulus"]))
        write_trace(trace, str(tmp_path / "own.csv"), texts)
        fallback = (tmp_path / "fallback.csv.meta.json").read_bytes()
        assert fallback == (tmp_path / "own.csv.meta.json").read_bytes()
        assert json.loads(fallback)["fixtures"]["circuit"] == hashlib.sha256(texts["circuit"].encode()).hexdigest()


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
        for t in (1000.0, 0.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=rf"^t={t} ms is outside the recorded horizon$"):
                read_binary(trace, "NET", t)

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

    @pytest.mark.parametrize("level", ["1", 2, math.nan])
    def test_a_level_no_record_reads_is_refused(self, level):
        with pytest.raises(ValueError, match=rf"^level must be 0, 1 or 'ambiguous', which a net can read; got "
                                             rf"{level!r}$"):
            settle_time(synthetic_trace([0.6] * 400), "NET", level)

    def test_levels_equal_to_a_readout_are_accepted(self):
        trace = synthetic_trace([0.6] * 400)
        assert settle_time(trace, "NET", True) == settle_time(trace, "NET", 1.0) == 100.0


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
    # The trace is the whole run, or a later window of it that starts at step ``first``.
    first = data.draw(st.one_of(st.just(1), st.integers(2, 50)), label="first")
    end = first + n - 1
    # Records sit at t = first..end: onsets before, on, between and after them.
    onset = data.draw(st.one_of(st.sampled_from([-1.0, 0.0, end + 0.5, end + 1.0, 1e9]),
                                st.integers(first, max(end, first)).map(float),
                                st.integers(first, max(end, first)).map(lambda k: k + 0.5)), label="onset")
    level = data.draw(st.sampled_from([0, 1, AMBIGUOUS]), label="level")
    times = [float(first + k) for k in range(n)]
    trace = Trace(SimConfig(), {"t_ms": array("d", times), "NET": array("d", values)})
    want = forward_settle_time(trace, "NET", level, onset_ms=onset)
    if first > 1 and want is not None and want == times[0]:
        # The net reads ``level`` from the window's first record on, so the run may have settled before it.
        with pytest.raises(ValueError, match=rf"^NET reads .* first record at {first} ms"):
            settle_time(trace, "NET", level, onset_ms=onset)
    else:
        got = settle_time(trace, "NET", level, onset_ms=onset)
        assert got == want and type(got) is type(want)
