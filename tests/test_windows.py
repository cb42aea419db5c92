"""The windowed run: ``write_trace(simulate_windows(...))`` against ``write_trace(simulate(...))``.

``memlogic run`` simulates and writes its trace one window of ``_WINDOW``
records at a time.  The property shrinks the window to one or two CSV
blocks, so every drawn run spans several windows, and requires the CSV
and sidecar bytes to equal those written from the whole trace.  It draws
dt from the oracle's grid, horizons that are not a whole number of
windows, breakpoints off the step grid and near window edges, twin gates,
trained start states, and ``-0.0`` and NaN levels.  The other tests hold
the checks of a run to before any file is opened, and its peak memory to
one window whatever the horizon.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from memlogic import engine
from memlogic.cli import main
from memlogic.device import MemristorState
from memlogic.engine import SimConfig, simulate, simulate_windows, write_trace
from memlogic.harness import build_full_adder, fixture_dir, make_pattern_stimulus
from memlogic.netlist import CoverageError, Segment, Stimulus, parse_circuit
from test_engine_oracle import DT, FRACTION, PARAMS, VOLTS, netlists

ADDER = str(fixture_dir() / "adder.mlc")
FIXTURES = {"circuit": "input A\n", "stimulus": "format memlogic/1\n"}


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
    return Stimulus(tuple(terminals), steps * dt)


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


def test_checks_of_a_windowed_run_come_before_any_window():
    """A coverage gap after the first window is found when ``simulate_windows`` returns, not when it is read."""
    graph = parse_circuit("input A\ngate 1 MNOT A\n")
    stim = Stimulus((("A", (Segment(0.0, 100.0, 0.1), Segment(150.0, 400.0, 0.6))),), 400.0)
    with pytest.raises(CoverageError, match=r"^terminal A has no segment covering t=100\.0$"):
        simulate_windows(graph, stim, SimConfig(dt=0.01))
    with pytest.raises(ValueError, match="states has gate 2"):
        simulate_windows(graph, stim, SimConfig(dt=0.01), states={2: MemristorState(1.0, 1.0)})


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
    """The ``tracemalloc`` peak of writing pattern 101 at dt = 0.01 ms through ``simulate_windows``."""
    cfg = SimConfig(dt=0.01, horizon=horizon)
    graph, stim = build_full_adder(), make_pattern_stimulus(1, 0, 1, cfg)
    tracemalloc.start()
    try:
        write_trace(simulate_windows(graph, stim, cfg), str(tmp_path / f"trace_{horizon:g}.csv"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_of_a_windowed_write_does_not_grow_with_the_horizon(tmp_path):
    # A whole trace of 80k records takes about twice the memory of one of 40k.
    short, long = streamed_peak(tmp_path, 400.0), streamed_peak(tmp_path, 800.0)
    assert long <= 1.1 * short, (short, long)
