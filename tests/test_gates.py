"""Gate-level behaviour: drive combination, memory laws, inversion."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from memlogic.device import DeviceParams, MemristorState, model_current
from memlogic.gates import R_OFF_CAP, GateInstance, GateKind

PARAMS = DeviceParams()


def closed_form_current(t_ms: float, p: DeviceParams = PARAMS) -> float:
    return p.a1 * math.exp(-t_ms / p.t1) + p.a2 * math.exp(-t_ms / p.t2) + p.c


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
        want = gate.v_rail * R_OFF_CAP / (gate.r1 + gate.r2 + R_OFF_CAP)
        out = gate.step([0.1], 1.0)
        assert out == pytest.approx(want, rel=1e-12)
        assert out >= 0.98 * gate.v_rail

    def test_on_resistance_floor(self):
        gate = GateInstance(GateKind.MNOT)
        gate.state = MemristorState(0.0, 0.0)  # on-resistance 1.5e6 ohm
        ratio = 1.5e6 / (1e6 + 1e7 + 1.5e6)
        assert ratio == pytest.approx(0.12)
        assert gate.step([0.1], 1.0) == pytest.approx(gate.v_rail * ratio, rel=1e-12)

    def test_constant_source_alone_is_nonvolatile(self):
        gate = GateInstance(GateKind.MNOT)
        outputs = {gate.step([0.1], 1.0) for _ in range(1000)}
        assert gate.state == MemristorState(1.0, 1.0)
        assert len(outputs) == 1

    def test_active_input_inverts(self):
        gate = GateInstance(GateKind.MNOT)
        out = drive_gate(gate, (0.6,), 300)
        g = model_current(gate.state, PARAMS) / PARAMS.v_ref
        want = gate.v_rail * (1 / g) / (gate.r1 + gate.r2 + 1 / g)
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


class TestMnotConfigValidation:
    def test_r1_must_be_below_r2(self):
        with pytest.raises(ValueError):
            GateInstance(kind=GateKind.MNOT, r1=2e7, r2=1e7)

    def test_r2_must_be_intermediate(self):
        with pytest.raises(ValueError):
            GateInstance(kind=GateKind.MNOT, r1=1e5, r2=1e6)  # below on-resistance
        with pytest.raises(ValueError):
            GateInstance(kind=GateKind.MNOT, r1=1e6, r2=2e9)  # above off-resistance

    def test_constant_source_must_not_potentiate(self):
        with pytest.raises(ValueError):
            GateInstance(kind=GateKind.MNOT, v_con=0.55)

    def test_divider_fields_ignored_for_mor(self):
        GateInstance(kind=GateKind.MOR, r1=2e7, r2=1e7)  # no error
