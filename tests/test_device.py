"""Device kinetics against the closed-form relaxation law."""

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from memlogic.device import (
    ConfigError,
    DeviceParams,
    MemristorState,
    model_current,
    new_state,
    step,
)
from memlogic.engine import SimConfig
from memlogic.gates import GateInstance, GateKind

PARAMS = DeviceParams()


def closed_form_current(t_ms: float, p: DeviceParams = PARAMS) -> float:
    """Independent oracle: direct evaluation of the double-exponential law."""
    return p.a1 * math.exp(-t_ms / p.t1) + p.a2 * math.exp(-t_ms / p.t2) + p.c


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class TestNewState:
    def test_fresh(self):
        assert new_state(1.0) == MemristorState(1.0, 1.0)

    def test_saturated(self):
        assert new_state(0.0) == MemristorState(0.0, 0.0)

    def test_half(self):
        assert new_state(0.5) == MemristorState(0.5, 0.5)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, 2.0])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            new_state(bad)


class TestModelCurrent:
    def test_fresh_is_zero(self):
        # a1 + a2 + c = 0 exactly with the default constants
        assert model_current(new_state(1.0), PARAMS) == 0.0

    def test_saturated_is_c(self):
        assert model_current(new_state(0.0), PARAMS) == PARAMS.c

    def test_after_30ms_matches_oracle(self):
        s = MemristorState(math.exp(-1.0), math.exp(-0.1))
        want = closed_form_current(30.0)
        assert rel_err(model_current(s, PARAMS), want) < 1e-12
        assert abs(want - 1.9915e-7) < 1e-11


def device_current(state: MemristorState, v_applied: float) -> float:
    """Readout current at a hold-window bias: one step of an MOR gate with the device in ``state``."""
    assert PARAMS.v_red < v_applied < PARAMS.v_ox
    gate = GateInstance(GateKind.MOR, params=PARAMS, state=state)
    out = gate.step([v_applied, v_applied], 1.0)
    assert gate.state == state  # readout never alters the state
    return out


def conductance(state: MemristorState) -> float:
    return device_current(state, 0.3) / 0.3


class TestConductance:
    def test_fresh(self):
        assert conductance(new_state(1.0)) == 0.0

    def test_saturated(self):
        want = PARAMS.c / PARAMS.v_ref  # 6.667e-7 S, on-resistance 1.5e6 ohm
        assert rel_err(conductance(new_state(0.0)), want) < 1e-12
        assert abs(want - 6.667e-7) < 1e-10

    def test_mid_state(self):
        s = MemristorState(math.exp(-1.0), math.exp(-0.1))
        want = closed_form_current(30.0) / 0.6
        assert rel_err(conductance(s), want) < 1e-12
        assert abs(want - 3.319e-7) < 1e-10


class TestDeviceCurrent:
    def test_saturated_at_reference(self):
        # v_ref potentiates, which leaves a saturated device saturated
        gate = GateInstance(GateKind.MOR, params=PARAMS, state=new_state(0.0))
        assert rel_err(gate.step([0.6, 0.6], 1.0), 4e-7) < 1e-12

    def test_zero_bias(self):
        assert device_current(MemristorState(0.3, 0.7), 0.0) == 0.0

    def test_half_reference(self):
        assert rel_err(device_current(new_state(0.0), 0.3), 2e-7) < 1e-12


class TestStep:
    def test_potentiation_30ms(self):
        s = step(new_state(1.0), PARAMS, 0.6, 30.0)
        assert rel_err(s.x1, math.exp(-1.0)) < 1e-12
        assert rel_err(s.x2, math.exp(-0.1)) < 1e-12

    def test_hold_window_returns_identical_state(self):
        s = MemristorState(0.42, 0.87)
        for v in (0.3, 0.0, -0.05, 0.499, -0.099):
            assert step(s, PARAMS, v, 5.0) is s

    def test_depression_from_saturation(self):
        dt = 17.0
        s = step(new_state(0.0), PARAMS, -0.3, dt)
        assert rel_err(s.x1, 1.0 - math.exp(-dt / PARAMS.t1_dep)) < 1e-12
        assert rel_err(s.x2, 1.0 - math.exp(-dt / PARAMS.t2_dep)) < 1e-12

    def test_boundaries_are_active(self):
        # v_ox potentiates, v_red depresses
        assert step(new_state(1.0), PARAMS, PARAMS.v_ox, 1.0) != new_state(1.0)
        assert step(new_state(0.0), PARAMS, PARAMS.v_red, 1.0) != new_state(0.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            step(new_state(1.0), PARAMS, 0.6, 0.0)
        with pytest.raises(ValueError):
            step(new_state(1.0), PARAMS, 0.6, -1.0)


def test_iterated_step_matches_closed_form():
    """1 ms steps from fresh reproduce the law exactly at any time."""
    s = new_state(1.0)
    for k in range(1, 301):
        s = step(s, PARAMS, 0.6, 1.0)
        if k in (1, 30, 100, 300):
            assert rel_err(model_current(s, PARAMS), closed_form_current(float(k))) < 1e-12


def test_partition_invariance():
    """Different dt partitions of the same interval agree to 1e-12."""
    coarse = step(new_state(1.0), PARAMS, 0.6, 120.0)
    fine = new_state(1.0)
    for _ in range(240):
        fine = step(fine, PARAMS, 0.6, 0.5)
    assert rel_err(fine.x1, coarse.x1) < 1e-12
    assert rel_err(fine.x2, coarse.x2) < 1e-12


@given(
    x=st.floats(0.0, 1.0), v=st.floats(0.5, 1.5),
    d1=st.floats(0.1, 200.0), d2=st.floats(0.1, 200.0),
)
@settings(deadline=None)
def test_step_composition(x, v, d1, d2):
    s = MemristorState(x, x)
    combined = step(s, PARAMS, v, d1 + d2)
    chained = step(step(s, PARAMS, v, d1), PARAMS, v, d2)
    assert math.isclose(chained.x1, combined.x1, rel_tol=1e-12, abs_tol=1e-300)
    assert math.isclose(chained.x2, combined.x2, rel_tol=1e-12, abs_tol=1e-300)


@given(v=st.floats(-0.099, 0.499), dt=st.floats(0.001, 1000.0))
@settings(deadline=None)
def test_nonvolatility(v, dt):
    s = MemristorState(0.25, 0.75)
    assert step(s, PARAMS, v, dt) is s


@given(durations=st.lists(st.floats(0.5, 50.0), min_size=1, max_size=8))
@settings(deadline=None)
def test_duration_additivity_across_holds(durations):
    """Interrupted potentiation composes like one contiguous interval."""
    interrupted = new_state(1.0)
    for d in durations:
        interrupted = step(interrupted, PARAMS, 0.6, d)
        interrupted = step(interrupted, PARAMS, 0.1, 13.0)  # hold gap
    contiguous = step(new_state(1.0), PARAMS, 0.6, sum(durations))
    assert math.isclose(interrupted.x1, contiguous.x1, rel_tol=1e-9)
    assert math.isclose(interrupted.x2, contiguous.x2, rel_tol=1e-9)


def test_monotonicity_and_bounds():
    s = new_state(1.0)
    previous = model_current(s, PARAMS)
    for _ in range(500):
        s = step(s, PARAMS, 0.6, 1.0)
        i = model_current(s, PARAMS)
        assert 0.0 <= i <= PARAMS.c
        assert i >= previous
        previous = i
    for _ in range(500):
        s = step(s, PARAMS, -0.2, 1.0)
        i = model_current(s, PARAMS)
        assert 0.0 <= i <= PARAMS.c
        assert i <= previous
        previous = i


class TestParamValidation:
    def test_depression_constants_default_to_potentiation(self):
        p = DeviceParams()
        assert p.t1_dep == p.t1 and p.t2_dep == p.t2

    def test_override_depression_constants(self):
        p = DeviceParams(t1_dep=10.0, t2_dep=99.0)
        assert (p.t1_dep, p.t2_dep) == (10.0, 99.0)

    @pytest.mark.parametrize("kwargs", [
        {"t1": 0.0},
        {"t2": -5.0},
        {"v_red": 0.6},           # above v_ox
        {"c": -1e-7},
        {"a1": 1e-7},             # positive amplitude
        {"a1": -6e-7},            # fresh current would be negative
        {"v_ref": 0.4},           # below v_ox
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            DeviceParams(**kwargs)

    @pytest.mark.parametrize("make", [
        lambda: DeviceParams(v_ref=0.4),
        lambda: SimConfig(dt=0.0),
        lambda: GateInstance(GateKind.MNOT, params=DeviceParams(v_ox=0.25)),  # v_con 0.3 V would potentiate
    ])
    def test_setting_errors_are_config_errors(self, make):
        with pytest.raises(ConfigError):
            make()

    def test_state_bounds_enforced(self):
        with pytest.raises(ValueError):
            MemristorState(-0.01, 0.5)
        with pytest.raises(ValueError):
            MemristorState(0.5, 1.01)
