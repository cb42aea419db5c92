"""Gate-level behaviour: drive combination, memory laws, inversion."""

import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from memlogic.gates import (R1, R2, R_OFF_CAP, V_RAIL, DeviceParams, GateInstance, GateKind, MemristorState,
                            model_current, new_state)

from closed_form import closed_form_current

PARAMS = DeviceParams()


def drive_gate(gate: GateInstance, inputs, ms: int, dt: float = 1.0) -> float:
    out = None
    for _ in range(int(ms / dt)):
        out = gate.step(list(inputs), dt)
    return out


def saturated_step(kind: GateKind, inputs) -> float:
    """One step of a saturated gate, whose state no drive above v_red changes: the drive's ohmic current."""
    gate = GateInstance(kind, state=MemristorState(0.0, 0.0))
    return gate.step(list(inputs), 1.0)


def ohmic(drive: float) -> float:
    """A saturated device's readout current at ``drive``."""
    return model_current(MemristorState(0.0, 0.0), PARAMS) / PARAMS.v_ref * drive


class TestEffectiveVoltages:
    def test_mor_takes_stronger_input(self):
        assert saturated_step(GateKind.MOR, (0.6, 0.1)) == ohmic(0.6)
        assert saturated_step(GateKind.MOR, (0.1, 0.1)) == ohmic(0.1)
        # two active inputs must not overdrive beyond a single one
        assert saturated_step(GateKind.MOR, (0.6, 0.6)) == ohmic(0.6)

    def test_mand_halves_the_sum(self):
        assert saturated_step(GateKind.MAND, (0.6, 0.6)) == ohmic(0.6)
        assert saturated_step(GateKind.MAND, (0.6, 0.1)) == ohmic(0.35)
        assert saturated_step(GateKind.MAND, (0.1, 0.1)) == pytest.approx(ohmic(0.1))


class TestArity:
    def test_kind_arities(self):
        assert GateKind.MOR.arity == 2
        assert GateKind.MAND.arity == 2
        assert GateKind.MNOT.arity == 1

    def test_step_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            GateInstance(GateKind.MNOT).step([0.1, 0.1], 1.0)
        with pytest.raises(ValueError):
            GateInstance(GateKind.MOR).step([0.1], 1.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_step_rejects_non_positive_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            GateInstance(GateKind.MOR).step([0.6, 0.1], dt)


class TestRunInputRule:
    """``run``, which the engine and ``step`` both call, refuses a call that breaks the input rule before any step."""

    @pytest.mark.parametrize("kind,count", [(GateKind.MNOT, 2), (GateKind.MOR, 1), (GateKind.MAND, 3)])
    def test_a_source_count_other_than_the_arity(self, kind, count):
        with pytest.raises(ValueError, match=rf"^{kind.value} expects {kind.arity} input\(s\), got {count}$"):
            GateInstance(kind).run(new_state(), [array("d", [0.6])] * count, 1.0, 1.0)

    @pytest.mark.parametrize("kind", [GateKind.MOR, GateKind.MAND])
    @pytest.mark.parametrize("lengths", [(3, 1), (1, 3)])
    def test_series_of_unequal_length(self, kind, lengths):
        with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer) than argument 1$"):
            GateInstance(kind).run(new_state(), [array("d", [0.6] * n) for n in lengths], 1.0, 1.0)

    @pytest.mark.parametrize("kind", list(GateKind))
    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
    def test_non_positive_dt(self, kind, dt):
        with pytest.raises(ValueError, match=rf"^dt must be positive, got {dt}$"):
            GateInstance(kind).run(new_state(), [array("d", [0.6] * 3)] * kind.arity, dt, 1.0)


class TestMor:
    def test_single_active_input_potentiates(self):
        gate = GateInstance(GateKind.MOR)
        out = drive_gate(gate, (0.6, 0.1), 300)
        want = closed_form_current(300.0)
        assert abs(out - want) / want < 1e-12
        assert abs(want - 3.632e-7) < 1e-10

    def test_both_low_holds(self):
        gate = GateInstance(GateKind.MOR)
        out = drive_gate(gate, (0.1, 0.1), 200)
        assert out == 0.0
        assert gate.state == MemristorState(1.0, 1.0)

    def test_duration_law_split_equals_contiguous(self):
        """Output depends on cumulative activation, not on its segmentation."""
        split = GateInstance(GateKind.MOR)
        drive_gate(split, (0.6, 0.1), 100)
        drive_gate(split, (0.1, 0.1), 100)
        drive_gate(split, (0.1, 0.6), 200)   # resumes on the other input
        contiguous = GateInstance(GateKind.MOR)
        drive_gate(contiguous, (0.6, 0.1), 300)
        assert split.state == contiguous.state

    @given(gaps=st.lists(st.integers(1, 60), min_size=1, max_size=5))
    @settings(deadline=None)
    def test_duration_law_random_interruptions(self, gaps):
        active_chunks = [25] * (len(gaps) + 1)
        split = GateInstance(GateKind.MOR)
        for chunk, gap in zip(active_chunks, gaps + [0]):
            drive_gate(split, (0.6, 0.1), chunk)
            if gap:
                drive_gate(split, (0.1, 0.1), gap)
        contiguous = GateInstance(GateKind.MOR)
        drive_gate(contiguous, (0.6, 0.1), sum(active_chunks))
        assert split.state == contiguous.state


class TestMand:
    def test_single_input_never_reinforces(self):
        gate = GateInstance(GateKind.MAND)
        for _ in range(400):
            out = gate.step([0.6, 0.1], 1.0)
            assert out == 0.0
        assert gate.state == MemristorState(1.0, 1.0)

    def test_both_inputs_reinforce(self):
        gate = GateInstance(GateKind.MAND)
        out = drive_gate(gate, (0.6, 0.6), 300)
        want = closed_form_current(300.0)
        assert abs(out - want) / want < 1e-12

    def test_coincidence_law(self):
        """Only simultaneous activation counts; alternating is a no-op."""
        overlap = GateInstance(GateKind.MAND)
        drive_gate(overlap, (0.6, 0.1), 80)    # alone
        drive_gate(overlap, (0.6, 0.6), 75)    # together
        drive_gate(overlap, (0.1, 0.6), 120)   # alone, other side
        drive_gate(overlap, (0.6, 0.6), 75)    # together again
        contiguous = GateInstance(GateKind.MAND)
        drive_gate(contiguous, (0.6, 0.6), 150)
        assert overlap.state == contiguous.state


class TestMnot:
    # An input at logic 0 keeps the MNOT device in its hold window, so a step reads the present output.
    def test_fresh_output_is_near_rail(self):
        gate = GateInstance(GateKind.MNOT)
        want = V_RAIL * R_OFF_CAP / (R1 + R2 + R_OFF_CAP)
        out = gate.step([0.1], 1.0)
        assert out == pytest.approx(want, rel=1e-12)
        assert out >= 0.98 * V_RAIL

    def test_on_resistance_floor(self):
        gate = GateInstance(GateKind.MNOT)
        gate.state = MemristorState(0.0, 0.0)  # on-resistance 1.5e6 ohm
        ratio = 1.5e6 / (1e6 + 1e7 + 1.5e6)
        assert ratio == pytest.approx(0.12)
        assert gate.step([0.1], 1.0) == pytest.approx(V_RAIL * ratio, rel=1e-12)

    def test_constant_source_alone_is_nonvolatile(self):
        gate = GateInstance(GateKind.MNOT)
        outputs = {gate.step([0.1], 1.0) for _ in range(1000)}
        assert gate.state == MemristorState(1.0, 1.0)
        assert len(outputs) == 1

    def test_active_input_inverts(self):
        gate = GateInstance(GateKind.MNOT)
        out = drive_gate(gate, (0.6,), 300)
        g = model_current(gate.state, PARAMS) / PARAMS.v_ref
        want = V_RAIL * (1 / g) / (R1 + R2 + 1 / g)
        assert out == pytest.approx(want, rel=1e-12)
        assert 0.07 <= out <= 0.13

    def test_inhibition_depth_grows_with_duration(self):
        outputs = []
        for ms in (20, 60, 150, 300):
            gate = GateInstance(GateKind.MNOT)
            outputs.append(drive_gate(gate, (0.6,), ms))
        assert outputs == sorted(outputs, reverse=True)
        assert all(o > 0.0 for o in outputs)

    def test_hold_after_input_removed(self):
        gate = GateInstance(GateKind.MNOT)
        frozen = drive_gate(gate, (0.6,), 100)
        assert drive_gate(gate, (0.1,), 200) == frozen


def normalized_output(gate: GateInstance) -> float:
    """Saturation fraction of the gate's device, in [0, 1]."""
    return model_current(gate.state, gate.params) / gate.params.c


class TestNormalizedOutput:
    def test_fresh_is_zero(self):
        assert normalized_output(GateInstance(GateKind.MOR)) == 0.0

    def test_saturated_is_one(self):
        gate = GateInstance(GateKind.MAND)
        gate.state = MemristorState(0.0, 0.0)
        assert normalized_output(gate) == pytest.approx(1.0, rel=1e-12)

    def test_mid_trajectory_value(self):
        gate = GateInstance(GateKind.MOR)
        drive_gate(gate, (0.6, 0.1), 30)
        want = closed_form_current(30.0) / PARAMS.c
        assert normalized_output(gate) == pytest.approx(want, rel=1e-12)
        assert abs(want - 0.4979) < 1e-4


# A device whose on-resistance (0.6 V / 5e-8 A = 1.2e7 ohm) exceeds R2, and one that V_CON would potentiate.
HIGH_ON_RESISTANCE = DeviceParams(a1=-3e-8, a2=-1e-8, c=5e-8)
LOW_VOX = DeviceParams(v_ox=0.3)


class TestMnotConfigValidation:
    def test_on_resistance_must_lie_below_r2(self):
        with pytest.raises(ValueError):
            GateInstance(kind=GateKind.MNOT, params=HIGH_ON_RESISTANCE)

    def test_constant_source_must_not_potentiate(self):
        with pytest.raises(ValueError):
            GateInstance(kind=GateKind.MNOT, params=LOW_VOX)

    @pytest.mark.parametrize("kind", [GateKind.MOR, GateKind.MAND])
    @pytest.mark.parametrize("params", [HIGH_ON_RESISTANCE, LOW_VOX])
    def test_divider_checks_skip_mor_and_mand(self, kind, params):
        GateInstance(kind=kind, params=params)  # no error
