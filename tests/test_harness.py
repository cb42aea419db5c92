"""Reference adder experiments and gate characterization runs."""

import json

import pytest

from memlogic.engine import SimConfig, final_states, read_binary, settle_time, simulate
from memlogic.gates import GateKind
from memlogic.harness import (
    adder_truth,
    build_full_adder,
    default_characterization_schedule,
    fixture_dir,
    fixture_text,
    gate_circuit,
    make_pattern_stimulus,
    run_pattern,
)
from memlogic.netlist import parse_circuit, parse_stimulus, topological_order

CFG = SimConfig()


class TestAdderGraph:
    def test_shape(self):
        graph = build_full_adder()
        assert len(graph.nodes) == 12
        assert graph.probes == {"COUT": 7, "SUM": 12}
        assert topological_order(graph)  # acyclic

    def test_truth_helper(self):
        assert adder_truth(0, 1, 0) == (1, 0)
        assert adder_truth(1, 0, 1) == (0, 1)
        assert adder_truth(1, 1, 1) == (1, 1)

    def test_pattern_stimulus_matches_fixture(self):
        assert make_pattern_stimulus(0, 1, 0, CFG) == parse_stimulus(fixture_text("pattern_010.mls"))
        assert make_pattern_stimulus(1, 0, 1, CFG) == parse_stimulus(fixture_text("pattern_101.mls"))

    def test_fixture_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MEMLOGIC_FIXTURES", raising=False)
        package = fixture_dir()
        (tmp_path / "adder.mlc").write_text("input A\ninput B\ngate 1 MOR A B\noutput SUM 1\n")
        monkeypatch.setenv("MEMLOGIC_FIXTURES", str(tmp_path))
        assert fixture_dir() == str(tmp_path)
        graph = build_full_adder()
        assert len(graph.nodes) == 1
        assert graph.probes == {"SUM": 1}
        # An empty override falls back to the package's own fixtures.
        monkeypatch.setenv("MEMLOGIC_FIXTURES", "")
        assert fixture_dir() == package
        assert len(build_full_adder().nodes) == 12


class TestReferencePatterns:
    def test_010_verdicts(self):
        trace, verdicts = run_pattern(0, 1, 0, CFG)
        assert all(v.passed for v in verdicts), [v.as_dict() for v in verdicts]
        assert read_binary(trace, "SUM", 400.0) == 1
        assert read_binary(trace, "COUT", 400.0) == 0

    def test_101_verdicts(self):
        trace, verdicts = run_pattern(1, 0, 1, CFG)
        assert all(v.passed for v in verdicts), [v.as_dict() for v in verdicts]
        assert read_binary(trace, "SUM", 400.0) == 0
        assert read_binary(trace, "COUT", 400.0) == 1

    def test_010_regression_bands(self):
        trace, _ = run_pattern(0, 1, 0, CFG)
        assert 0.555 < trace.voltage_at("SUM", 400.0) < 0.568
        assert trace.voltage_at("COUT", 400.0) == 0.0

    def test_101_regression_bands(self):
        trace, _ = run_pattern(1, 0, 1, CFG)
        assert 0.234 < trace.voltage_at("SUM", 400.0) < 0.247
        assert 0.388 < trace.voltage_at("COUT", 400.0) < 0.401

    def test_no_probed_net_in_dead_band_at_400(self):
        for bits in ((0, 1, 0), (1, 0, 1)):
            trace, _ = run_pattern(*bits, cfg=CFG)
            for net in ("SUM", "COUT"):
                v = trace.voltage_at(net, 400.0)
                assert not (0.25 < v < 0.35), (bits, net, v)

    def test_000_is_fully_quiescent(self):
        trace, _ = run_pattern(0, 0, 0, CFG)
        for node in build_full_adder().nodes:
            assert trace.column(f"g{node.id}_x1")[-1] == 1.0
            assert trace.column(f"g{node.id}_x2")[-1] == 1.0
        assert all(read_binary(trace, "SUM", t) == 0 for t in (1.0, 100.0, 250.0, 400.0))

    def test_verdict_report_is_json_serializable(self):
        _, verdicts = run_pattern(1, 0, 1, CFG)
        payload = json.dumps([v.as_dict() for v in verdicts])
        assert "adder_101" in payload


class TestExtendedTruthTable:
    @pytest.mark.parametrize("a,b,cin", [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    def test_all_patterns(self, a, b, cin):
        trace, _ = run_pattern(a, b, cin, CFG)
        s_expected, c_expected = adder_truth(a, b, cin)
        assert read_binary(trace, "SUM", 400.0) == s_expected
        assert read_binary(trace, "COUT", 400.0) == c_expected

    @pytest.mark.parametrize("build", [run_pattern, make_pattern_stimulus])
    @pytest.mark.parametrize("bits", [(2, 0, 0), (0, -1, 0), (0, 0, 3)])
    def test_a_pattern_bit_other_than_0_or_1_is_rejected(self, build, bits):
        with pytest.raises(ValueError, match="pattern bits must be 0 or 1"):
            build(*bits, CFG)


class TestMnotFloor:
    def test_global_minimum_brackets_reported_floor(self):
        graph = build_full_adder()
        traces = [run_pattern(*bits, cfg=CFG)[0] for bits in ((0, 1, 0), (1, 0, 1))]
        mnot_ids = [n.id for n in graph.nodes if n.kind is GateKind.MNOT]
        floor = min(min(trace.column(f"g{i}")) for trace in traces for i in mnot_ids)
        assert 0.07 <= floor <= 0.13
        # regression: the realized floor sits near 0.104-0.108
        assert 0.10 < floor < 0.115

    def test_inverters_never_reach_zero(self):
        graph = build_full_adder()
        mnot_ids = [n.id for n in graph.nodes if n.kind is GateKind.MNOT]
        for bits in ((0, 1, 0), (1, 0, 1)):
            trace, _ = run_pattern(*bits, cfg=CFG)
            for gate_id in mnot_ids:
                assert min(trace.column(f"g{gate_id}")) > 0.0


class TestLearningPersistence:
    def test_retrained_circuit_settles_faster_on_reinforcing_pattern(self):
        graph = build_full_adder()
        stim = make_pattern_stimulus(0, 1, 0, CFG)
        first = simulate(graph, stim, CFG)
        t_first = settle_time(first, "SUM", 1)
        second = simulate(graph, stim, CFG, states=final_states(first, graph))
        t_second = settle_time(second, "SUM", 1)
        assert t_first is not None and t_second is not None
        assert t_second < t_first

    def test_retrained_carry_settles_faster(self):
        graph = build_full_adder()
        stim = make_pattern_stimulus(1, 0, 1, CFG)
        first = simulate(graph, stim, CFG)
        t_first = settle_time(first, "COUT", 1)
        second = simulate(graph, stim, CFG, states=final_states(first, graph))
        t_second = settle_time(second, "COUT", 1)
        assert t_first is not None and t_second is not None
        assert t_second < t_first

    @pytest.mark.xfail(
        strict=True,
        reason="Accumulated device state raises the retrained XOR-low readout above the "
        "low threshold: inhibition is nonvolatile but the surviving drive path keeps "
        "strengthening, so the 101 SUM verdict degrades instead of settling faster.",
    )
    def test_retraining_helps_every_probed_verdict(self):
        graph = build_full_adder()
        for bits in ((0, 1, 0), (1, 0, 1)):
            stim = make_pattern_stimulus(*bits, cfg=CFG)
            s_expected, c_expected = adder_truth(*bits)
            first = simulate(graph, stim, CFG)
            second = simulate(graph, stim, CFG, states=final_states(first, graph))
            for net, level in (("SUM", s_expected), ("COUT", c_expected)):
                t_first = settle_time(first, net, level)
                t_second = settle_time(second, net, level)
                assert t_first is not None and t_second is not None
                assert t_second < t_first


class TestCharacterization:
    def test_mor_rises_during_activation_and_holds_between(self):
        trace = simulate(gate_circuit(GateKind.MOR), default_characterization_schedule(GateKind.MOR, CFG), CFG)
        out = trace.column("OUT")
        idx = {int(ms): trace.index_at(float(ms)) for ms in (100, 101, 150, 160, 200, 250, 300, 310, 400)}
        assert out[idx[150]] > out[idx[101]]                 # rises while driven
        assert out[idx[200]] == out[idx[160]]                # holds in the gap (low-bias readout)
        x1 = trace.column("g1_x1")
        assert x1[idx[200]] == x1[idx[150]]                  # state frozen in the gap
        assert out[idx[300]] > out[idx[250]]                 # resumes rising
        assert out[idx[400]] == out[idx[310]]                # holds after release
        assert out[idx[300]] > out[idx[150]]                 # accumulation across activations

    def test_mand_flat_for_alternating_then_rises_together(self):
        trace = simulate(gate_circuit(GateKind.MAND), default_characterization_schedule(GateKind.MAND, CFG), CFG)
        out = trace.column("OUT")
        t = trace.times
        assert all(out[k] == 0.0 for k in range(t.index(300.0)))   # single inputs: no change
        assert out[-1] > 0.0                                        # joint drive reinforces

    def test_mnot_starts_high_falls_then_holds(self):
        trace = simulate(gate_circuit(GateKind.MNOT), default_characterization_schedule(GateKind.MNOT, CFG), CFG)
        out = trace.column("OUT")
        t = trace.times
        k_onset, k_off = t.index(100.0), t.index(250.0)
        assert out[0] >= 0.98 * 0.8
        assert out[k_off] < out[k_onset]
        assert out[-1] == out[k_off + 1]                            # nonvolatile after pulse

    @pytest.mark.parametrize("kind, text", [
        (GateKind.MOR, "IN1: 0..100=0.1, 100..150=0.6, 150..200=0.1, 200..300=0.6, 300..400=0.1\nIN2: 0..400=0.1\n"),
        (GateKind.MAND, "IN1: 0..100=0.1, 100..200=0.6, 200..300=0.1, 300..400=0.6\n"
                        "IN2: 0..200=0.1, 200..300=0.6, 300..400=0.6\n"),
        (GateKind.MNOT, "IN1: 0..100=0.1, 100..250=0.6, 250..400=0.1\n"),
    ])
    def test_canned_schedule_holds_its_last_levels_to_the_horizon(self, kind, text):
        assert default_characterization_schedule(kind) == parse_stimulus(text)
        longer = default_characterization_schedule(kind, SimConfig(horizon=600.3))
        assert longer == parse_stimulus(text.replace("..400=", "..600.3="))
        assert default_characterization_schedule(kind, SimConfig(horizon=250.0)) == parse_stimulus(text)

    def test_built_stimuli_hold_float_times_and_levels_from_an_int_config(self):
        cfg = SimConfig(horizon=500, v_logic1=1, v_logic0=0)
        stimuli = [make_pattern_stimulus(1, 0, 1, cfg), *(default_characterization_schedule(k, cfg) for k in GateKind)]
        assert stimuli[0] == parse_stimulus("A: 0..100=0, 100..500=1\nB: 0..500=0\nCIN: 0..100=0, 100..500=1\n")
        assert {type(x) for stim in stimuli for _, segs in stim.segments for seg in segs for x in seg} == {float}

    def test_gate_circuit_probes_its_one_gate(self):
        assert gate_circuit(GateKind.MAND) == parse_circuit("input IN1\ninput IN2\ngate 1 MAND IN1 IN2\noutput OUT 1\n")
        assert gate_circuit(GateKind.MNOT) == parse_circuit("input IN1\ngate 1 MNOT IN1\noutput OUT 1\n")
