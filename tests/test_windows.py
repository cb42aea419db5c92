"""The windowed run: ``write_trace(simulate_windows(...))`` against ``write_trace(simulate(...))``.

``memlogic run`` simulates and writes its trace one window of ``_WINDOW``
records at a time, and ``memlogic adder`` reads its verdicts from the
last window of each pattern's run.  The property shrinks the window to one
or two CSV blocks, so every drawn run spans several windows, and requires
the CSV and sidecar bytes to equal those written from the whole trace.  It
draws dt from the oracle's grid, horizons that are not a whole number of
windows, breakpoints off the step grid and near window edges, twin gates,
trained start states, and ``-0.0`` and NaN levels.  The other tests hold
the checks of a run to before any file is opened, a window's time lookups
to its own records, the adder's verdicts to those read from the whole
trace, a settle time to the window that holds it, and the peak memory of
a run and of an adder pattern to a window or two whatever the horizon.
"""

import json
import math
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from memlogic import engine
from memlogic.cli import main
from memlogic.engine import SimConfig, Trace, read_binary, settle_time, simulate, simulate_windows, write_trace
from memlogic.gates import ConfigError, DeviceParams, MemristorState
from memlogic.harness import Verdict, adder_truth, build_full_adder, fixture_dir, make_pattern_stimulus, run_pattern
from memlogic.netlist import CoverageError, Segment, Stimulus, parse_circuit
from test_engine_oracle import DT, FRACTION, PARAMS, VOLTS, netlists

ADDER = os.path.join(fixture_dir(), "adder.mlc")
FIXTURES = {"circuit": "input A\n", "stimulus": "format memlogic/1\n"}
PATTERNS = [(a, b, cin) for a in (0, 1) for b in (0, 1) for cin in (0, 1)]


def written(tmp_path, name, trace) -> tuple[bytes, bytes]:
    """The CSV and sidecar bytes that ``write_trace`` leaves for ``trace``, a trace or its windows."""
    path = tmp_path / name
    write_trace(trace, str(path), FIXTURES)
    return path.read_bytes(), (tmp_path / (name + ".meta.json")).read_bytes()


@st.composite
def window_stimuli(draw, names, steps, window, dt):
    """Segments cut anywhere, or on, or one ulp either side of, a step time near a window edge or anywhere."""
    def cut():
        if draw(st.booleans()):
            return draw(st.floats(0.0, steps * dt, exclude_min=True, exclude_max=True))
        edge = draw(st.integers(1, steps // window)) * window + draw(st.sampled_from([-1, 0, 1]))
        t = draw(st.sampled_from([edge, draw(st.integers(1, steps - 1))])) * dt
        return draw(st.sampled_from([math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]))

    terminals = []
    for name in names:
        cuts = sorted({c for c in (cut() for _ in range(draw(st.integers(0, 5)))) if 0.0 < c < steps * dt})
        bounds = [0.0, *cuts, steps * dt]
        levels = st.one_of(VOLTS, st.just(math.nan))
        terminals.append((name, tuple(Segment(s, e, draw(levels)) for s, e in zip(bounds, bounds[1:]))))
    return Stimulus(tuple(terminals))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_windowed_write_matches_the_whole_trace_byte_for_byte(data, tmp_path_factory):
    window = engine._CSV_BLOCK * data.draw(st.sampled_from([1, 2]))
    graph = data.draw(netlists())
    dt = data.draw(DT)
    # Two to four windows and a part of one more, so the last window is short.
    steps = window * data.draw(st.integers(2, 4)) + data.draw(st.integers(1, window - 1))
    cfg = SimConfig(dt=dt, horizon=steps * dt)
    assert cfg.steps == steps
    stim = data.draw(window_stimuli(graph.inputs, steps, window, dt))
    params = data.draw(st.sampled_from(PARAMS))
    trained = data.draw(st.lists(st.sampled_from([node.id for node in graph.nodes]), unique=True))
    states = {i: MemristorState(data.draw(FRACTION), data.draw(FRACTION)) for i in trained}

    tmp_path = tmp_path_factory.mktemp("windows")
    whole = written(tmp_path, "whole.csv", simulate(graph, stim, cfg, params, states))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_WINDOW", window)
        assert written(tmp_path, "windows.csv", simulate_windows(graph, stim, cfg, params, states)) == whole


@pytest.mark.parametrize("pattern, twins", [("111", (2, 5)), ("101", (6, 9, 11))])
def test_adder_twins_switching_across_windows_match_the_whole_trace(tmp_path, monkeypatch, pattern, twins):
    """The adder at dt = 0.25 ms over seven windows of 256 records: the twins switch after the 100 ms onset,
    in the second window, and go on in each later one from the state the window before left them in."""
    monkeypatch.setattr(engine, "_WINDOW", engine._CSV_BLOCK)
    cfg = SimConfig(dt=0.25)
    graph, stim = build_full_adder(), make_pattern_stimulus(*map(int, pattern), cfg)
    whole = simulate(graph, stim, cfg)
    x1 = [whole.columns[f"g{i}_x1"] for i in twins]
    assert all(x is x1[0] for x in x1) and len(set(x1[0][engine._CSV_BLOCK:])) > 900
    assert written(tmp_path, "windows.csv", simulate_windows(graph, stim, cfg)) == \
        written(tmp_path, "whole.csv", whole)


def test_windows_are_whole_csv_blocks_and_count_the_run_steps():
    cfg = SimConfig(dt=0.01, horizon=50.0)
    windows = list(simulate_windows(build_full_adder(), make_pattern_stimulus(1, 0, 1, cfg._replace(horizon=150.0)),
                                    cfg))
    assert engine._WINDOW % engine._CSV_BLOCK == 0
    assert [w.records for w in windows] == [engine._WINDOW, engine._WINDOW, 5000 - 2 * engine._WINDOW]
    assert windows[1].times[0] == engine._WINDOW * 0.01 + 0.01


def test_a_window_answers_time_lookups_by_its_own_records():
    """Pattern 101 at dt = 0.01 ms: each window reads at its own stamps what the whole trace reads there."""
    cfg = SimConfig(dt=0.01)
    graph, stim = build_full_adder(), make_pattern_stimulus(1, 0, 1, cfg)
    whole, windows = simulate(graph, stim, cfg), list(simulate_windows(graph, stim, cfg))
    for window in windows:
        for t in window.times:
            for net in ("g1_x1", "SUM"):
                assert window.voltage_at(net, t) == whole.voltage_at(net, t)
                assert read_binary(window, net, t) == read_binary(whole, net, t)
        for t in (window.times[0] - cfg.dt, window.times[-1] + cfg.dt):
            with pytest.raises(ValueError, match="outside the recorded horizon"):
                window.voltage_at("g1_x1", t)
    # Window 1 holds 20.49 to 40.96 ms, and window 5 holds 102.41 to 122.88 ms but not 10 ms.
    assert windows[1].voltage_at("g1_x1", 30.0) == whole.voltage_at("g1_x1", 30.0)
    with pytest.raises(ValueError, match=r"^t=10\.0 ms is outside the recorded horizon$"):
        windows[5].voltage_at("g1_x1", 10.0)


def test_a_trace_without_records_holds_no_time():
    with pytest.raises(ValueError, match=r"^t=1\.0 ms is outside the recorded horizon$"):
        Trace(SimConfig(), {"t_ms": [], "NET": []}).index_at(1.0)


@pytest.mark.parametrize("traces", [[], (t for t in ())], ids=["list", "generator"])
def test_writing_no_trace_is_a_value_error_and_opens_no_file(tmp_path, traces):
    with pytest.raises(ValueError, match="no trace"):
        write_trace(iter(traces), str(tmp_path / "trace.csv"))
    assert list(tmp_path.iterdir()) == []


def test_checks_of_a_windowed_run_come_before_any_window():
    """A stimulus that ends after the first window, a ``states`` id the netlist lacks and an MNOT source that would
    potentiate its device are each found when ``simulate_windows`` returns, not when a window is read."""
    graph = parse_circuit("input A\ngate 1 MNOT A\n")
    stim = Stimulus((("A", (Segment(0.0, 100.0, 0.1), Segment(100.0, 150.0, 0.6))),))
    with pytest.raises(CoverageError, match=r"^stimulus covers 150\.0 ms but the run needs 400\.0 ms$"):
        simulate_windows(graph, stim, SimConfig(dt=0.01))
    cfg = SimConfig(dt=0.01, horizon=150.0)
    with pytest.raises(ValueError, match="states has gate 2"):
        simulate_windows(graph, stim, cfg, states={2: MemristorState(1.0, 1.0)})
    with pytest.raises(ConfigError, match="MNOT constant source"):
        simulate_windows(graph, stim, cfg, params=DeviceParams(v_ox=0.25))


@pytest.mark.parametrize("stimulus, flags, message", [
    # A gap in A after the first window: the stimulus parser's CoverageError.
    ("A: 0..100=0.1, 150..400=0.6\nB: 0..400=0.1\nCIN: 0..400=0.6\n", [],
     "error: line 2: terminal 'A': gap between t=100.0 and t=150.0\n"),
    # Every terminal ends after the first window and before the run's horizon: the engine's CoverageError.
    ("A: 0..150=0.1\nB: 0..150=0.1\nCIN: 0..150=0.6\n", [],
     "error: stimulus covers 150.0 ms but the run needs 400.0 ms\n"),
    # An MNOT's constant source would potentiate its device.
    ("A: 0..400=0.1\nB: 0..400=0.1\nCIN: 0..400=0.6\n", ["--vox", "0.25"], "error: MNOT constant source"),
])
def test_a_run_that_fails_a_check_writes_no_file_and_leaves_out_untouched(tmp_path, capsys, stimulus, flags,
                                                                          message):
    stim = tmp_path / "stim.mls"
    stim.write_text("format memlogic/1\n" + stimulus)
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"an earlier trace\n")
    for out in (fresh, kept):
        assert main(["run", "--circuit", ADDER, "--stimulus", str(stim), "--out", str(out), "--dt", "0.01",
                     *flags]) == 2
        assert capsys.readouterr().err.startswith(message)
    assert kept.read_bytes() == b"an earlier trace\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "stim.mls"]


def streamed_peak(tmp_path, horizon: float) -> int:
    """The ``tracemalloc`` peak of writing pattern 101 at dt = 0.05 ms through ``simulate_windows``."""
    cfg = SimConfig(dt=0.05, horizon=horizon)
    graph, stim = build_full_adder(), make_pattern_stimulus(1, 0, 1, cfg)
    tracemalloc.start()
    try:
        write_trace(simulate_windows(graph, stim, cfg), str(tmp_path / f"trace_{horizon:g}.csv"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_of_a_windowed_write_does_not_grow_with_the_horizon(tmp_path):
    # 8000 and 16,000 records, 4 and 8 windows.  A whole trace of 16,000 records takes about twice the memory
    # of one of 8000.
    short, long = streamed_peak(tmp_path, 400.0), streamed_peak(tmp_path, 800.0)
    assert long <= 1.1 * short, (short, long)


def whole_trace_verdicts(bits, cfg: SimConfig) -> list[Verdict]:
    """The verdicts of one adder pattern, read by ``read_binary`` and ``voltage_at`` from ``simulate``'s whole trace."""
    trace = simulate(build_full_adder(), make_pattern_stimulus(*bits, cfg), cfg)
    verdicts = []
    for net, expected in zip(("SUM", "COUT"), adder_truth(*bits)):
        got = read_binary(trace, net, cfg.horizon)
        verdicts.append(Verdict("adder_%d%d%d" % bits, f"{net}@{cfg.horizon:g}ms == {expected}", got == expected,
                                f"{got} ({trace.voltage_at(net, cfg.horizon):.4f} V)"))
    return verdicts


@pytest.mark.parametrize("bits", PATTERNS, ids=["%d%d%d" % bits for bits in PATTERNS])
@pytest.mark.parametrize("dt", [0.1, 0.7])
def test_run_pattern_reads_the_whole_trace_verdicts_from_its_last_window(bits, dt):
    """At dt = 0.1 ms the run is 4000 records, two windows; at dt = 0.7 ms it is 571, one window, and ends
    before the horizon."""
    cfg = SimConfig(dt=dt)
    trace, verdicts = run_pattern(*bits, cfg=cfg)
    assert verdicts == whole_trace_verdicts(bits, cfg)
    *_, last = simulate_windows(build_full_adder(), make_pattern_stimulus(*bits, cfg), cfg)
    assert trace.records == last.records == (cfg.steps - 1) % engine._WINDOW + 1
    assert (trace.config, trace.params) == (last.config, last.params)
    assert {name: column.tobytes() for name, column in trace.columns.items()} == \
        {name: column.tobytes() for name, column in last.columns.items()}


def test_settle_time_before_the_last_window_is_an_error_not_its_first_stamp():
    """At dt = 0.01 ms the last window of pattern 101 starts at 389.13 ms, after COUT settles at 381.46 ms."""
    cfg = SimConfig(dt=0.01)
    window, _ = run_pattern(1, 0, 1, cfg=cfg)
    with pytest.raises(ValueError, match=r"^COUT reads 1 from the trace's first record at 389\.13 ms"):
        settle_time(window, "COUT", 1)
    whole = simulate(build_full_adder(), make_pattern_stimulus(1, 0, 1, cfg), cfg)
    assert settle_time(whole, "COUT", 1) == pytest.approx(381.46)


def test_adder_report_at_a_fine_dt_is_the_one_read_from_whole_traces(tmp_path, capsys):
    out = tmp_path / "verdicts.json"
    code = main(["adder", "--dt", "0.1", "--out", str(out)])
    report = [v.as_dict() for bits in PATTERNS for v in whole_trace_verdicts(bits, SimConfig(dt=0.1))]
    assert code == (0 if all(entry["pass"] for entry in report) else 1)
    assert out.read_text(encoding="utf-8") == json.dumps(report, indent=2, sort_keys=True) + "\n"


def run_pattern_peak(horizon: float) -> int:
    """The ``tracemalloc`` peak of ``run_pattern`` on pattern 101 at dt = 0.05 ms."""
    cfg = SimConfig(dt=0.05, horizon=horizon)
    tracemalloc.start()
    try:
        run_pattern(1, 0, 1, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_of_an_adder_pattern_does_not_grow_with_the_horizon():
    # 8000 and 16,000 records, 4 and 8 windows, of which at most two are live at a time.
    short, long = run_pattern_peak(400.0), run_pattern_peak(800.0)
    assert long <= 1.1 * short, (short, long)
