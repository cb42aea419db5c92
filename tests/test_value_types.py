"""The value types' boundary: each bad setting's exception and message, immutability, derived copies.

``SimConfig``, ``DeviceParams`` and ``MemristorState`` check their fields
when they are made, and an MNOT gate checks that its params suit the fixed divider.  A ``Trace`` packs
its columns into double arrays and checks that each is all numbers and that they are all the same length.
"""

import math
import sys
from array import array
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from memlogic.engine import SimConfig, Trace
from memlogic.gates import (R2, V_CON, ConfigError, DeviceParams, GateInstance, GateKind, MemristorState, model_current,
                            new_state)

# A float subclass, such as ``numpy.float64``: arithmetic takes it, but no sidecar holds it.
Millis = type("Millis", (float,), {})

BAD_VALUES = [
    # SimConfig: every field finite, then one check per setting.
    (lambda: SimConfig(dt=math.nan), ConfigError, "dt must be finite, got nan"),
    (lambda: SimConfig(horizon=math.inf), ConfigError, "horizon must be finite, got inf"),
    (lambda: SimConfig(b=-math.inf), ConfigError, "b must be finite, got -inf"),
    (lambda: SimConfig(v_logic1=math.nan), ConfigError, "v_logic1 must be finite, got nan"),
    (lambda: SimConfig(v_logic0=math.inf), ConfigError, "v_logic0 must be finite, got inf"),
    (lambda: SimConfig(threshold_low=math.nan), ConfigError, "threshold_low must be finite, got nan"),
    (lambda: SimConfig(threshold_high=math.inf), ConfigError, "threshold_high must be finite, got inf"),
    # A bool is an int to ``math.isfinite`` and to arithmetic, but no sidecar or flag holds one.
    (lambda: SimConfig(dt=True), ConfigError, "dt must be a number, got True"),
    (lambda: SimConfig(horizon=True, dt=0.5), ConfigError, "horizon must be a number, got True"),
    (lambda: SimConfig(threshold_low=False), ConfigError, "threshold_low must be a number, got False"),
    # Any other type that is not exactly int or float, before it reaches a sum or a sidecar.
    (lambda: SimConfig(dt=Millis(1.0)), ConfigError, "dt must be an int or a float, not Millis"),
    (lambda: SimConfig(dt=Fraction(1, 2)), ConfigError, "dt must be an int or a float, not Fraction"),
    (lambda: SimConfig(dt="1"), ConfigError, "dt must be an int or a float, not str"),
    (lambda: SimConfig(horizon=Decimal("0.5"), dt=0.5), ConfigError, "horizon must be an int or a float, not Decimal"),
    (lambda: SimConfig(b=1 + 0j), ConfigError, "b must be an int or a float, not complex"),
    (lambda: SimConfig(threshold_high=None), ConfigError, "threshold_high must be an int or a float, not NoneType"),
    # An int past float range: ``math.isfinite`` cannot convert it, and its digits are too many to print.
    (lambda: SimConfig(horizon=10**400), ConfigError, "horizon must fit in a float, got an int of 1329 bits"),
    (lambda: SimConfig()._replace(dt=10**400), ConfigError, "dt must fit in a float, got an int of 1329 bits"),
    (lambda: SimConfig(dt=0.0), ConfigError, "dt must be positive"),
    (lambda: SimConfig(dt=-1.0), ConfigError, "dt must be positive"),
    (lambda: SimConfig(dt=1.0, horizon=0.5), ConfigError, "horizon must cover at least one step"),
    # A step count that ``range`` cannot hold, checked before any run starts.
    (lambda: SimConfig(dt=1e-17), ConfigError, f"horizon / dt is 4e+19 steps, more than {sys.maxsize}"),
    (lambda: SimConfig(dt=1e-310), ConfigError, f"horizon / dt is inf steps, more than {sys.maxsize}"),
    (lambda: SimConfig(horizon=1e308), ConfigError, f"horizon / dt is 1e+308 steps, more than {sys.maxsize}"),
    (lambda: SimConfig(horizon=2.0 ** 63), ConfigError, f"horizon / dt is 9.22337e+18 steps, more than {sys.maxsize}"),
    (lambda: SimConfig(b=0.0), ConfigError, "current-to-voltage constant must be positive"),
    (lambda: SimConfig(threshold_low=0.35, threshold_high=0.35), ConfigError,
     "threshold_low must lie below threshold_high"),
    # DeviceParams: every field finite, checked after t1_dep and t2_dep take t1 and t2.
    (lambda: DeviceParams(t1=math.nan), ConfigError, "t1 must be finite, got nan"),
    (lambda: DeviceParams(c=math.inf), ConfigError, "c must be finite, got inf"),
    (lambda: DeviceParams(t2_dep=math.inf), ConfigError, "t2_dep must be finite, got inf"),
    (lambda: DeviceParams(v_ox=math.nan), ConfigError, "v_ox must be finite, got nan"),
    (lambda: DeviceParams(a1=-math.inf), ConfigError, "a1 must be finite, got -inf"),
    (lambda: DeviceParams(c=True), ConfigError, "c must be a number, got True"),
    (lambda: DeviceParams(t1=True), ConfigError, "t1 must be a number, got True"),
    (lambda: DeviceParams(t2_dep=True), ConfigError, "t2_dep must be a number, got True"),
    (lambda: DeviceParams(a2=False), ConfigError, "a2 must be a number, got False"),
    (lambda: DeviceParams(t1=Millis(30.0)), ConfigError, "t1 must be an int or a float, not Millis"),
    (lambda: DeviceParams(t2_dep=Fraction(300)), ConfigError, "t2_dep must be an int or a float, not Fraction"),
    (lambda: DeviceParams(c="4e-7"), ConfigError, "c must be an int or a float, not str"),
    (lambda: DeviceParams(v_ox=Decimal("0.5")), ConfigError, "v_ox must be an int or a float, not Decimal"),
    (lambda: DeviceParams(v_red=-0.1 + 0j), ConfigError, "v_red must be an int or a float, not complex"),
    # A ``None`` t1 or t2 is not a default to fill t1_dep or t2_dep from.
    (lambda: DeviceParams(t1=None), ConfigError, "t1 must be an int or a float, not NoneType"),
    (lambda: DeviceParams(t2=None, t2_dep=None), ConfigError, "t2 must be an int or a float, not NoneType"),
    (lambda: DeviceParams(t1=10**400), ConfigError, "t1 must fit in a float, got an int of 1329 bits"),
    (lambda: DeviceParams(c=-10**400), ConfigError, "c must fit in a float, got an int of 1329 bits"),
    # DeviceParams: then one check per setting.
    (lambda: DeviceParams(t1=0.0), ConfigError, "time constants must be positive"),
    (lambda: DeviceParams(t2=-1.0), ConfigError, "time constants must be positive"),
    (lambda: DeviceParams(t1_dep=0.0), ConfigError, "time constants must be positive"),
    (lambda: DeviceParams(t2_dep=-5.0), ConfigError, "time constants must be positive"),
    (lambda: DeviceParams(v_red=0.5), ConfigError, "reduction potential must lie below oxidation potential"),
    (lambda: DeviceParams(c=0.0), ConfigError, "saturation current must be positive"),
    (lambda: DeviceParams(a1=1e-9), ConfigError, "exponential amplitudes must be non-positive"),
    (lambda: DeviceParams(a2=1e-9), ConfigError, "exponential amplitudes must be non-positive"),
    (lambda: DeviceParams(a2=-2e-7), ConfigError, "fresh-state current would be negative"),
    # Two ints that each fit in a float, but whose sum does not.
    (lambda: DeviceParams(a1=-10**308, a2=-10**308, c=1e308), ConfigError, "fresh-state current would be negative"),
    (lambda: DeviceParams(v_ref=0.5), ConfigError, "reference bias must exceed the oxidation potential"),
    # MemristorState: both coordinates in [0, 1].
    (lambda: MemristorState(1.5, 0.5), ValueError, "relaxation coordinates out of [0, 1]: (1.5, 0.5)"),
    (lambda: MemristorState(0.5, -0.1), ValueError, "relaxation coordinates out of [0, 1]: (0.5, -0.1)"),
    (lambda: MemristorState(math.nan, 0.5), ValueError, "relaxation coordinates out of [0, 1]: (nan, 0.5)"),
    (lambda: new_state(2.0), ValueError, "initial fraction must be in [0, 1], got 2.0"),
    # An MNOT's params against the fixed divider, checked when the gate is made.
    (lambda: GateInstance(GateKind.MNOT, params=DeviceParams(a1=-3e-8, a2=-1e-8, c=5e-8)), ConfigError,
     "MNOT device on-resistance (1.2e+07 ohm) must lie below the divider's R2 (1e+07 ohm)"),
    (lambda: GateInstance(GateKind.MNOT, params=DeviceParams(v_ox=0.3)), ConfigError,
     "MNOT constant source (0.3 V) must lie below the oxidation potential (0.3 V), "
     "or it potentiates the device on its own"),
    (lambda: GateInstance(GateKind.MNOT, params=DeviceParams(v_ox=0.25)), ConfigError,
     "MNOT constant source (0.3 V) must lie below the oxidation potential (0.25 V), "
     "or it potentiates the device on its own"),
]


@pytest.mark.parametrize("make, error, message", BAD_VALUES)
def test_bad_value_raises_its_error_and_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("make, error, message", [
    (lambda: SimConfig()._replace(dt=0.0), ConfigError, "dt must be positive"),
    (lambda: DeviceParams()._replace(c=0.0), ConfigError, "saturation current must be positive"),
    (lambda: MemristorState(1.0, 1.0)._replace(x2=1.5), ValueError,
     "relaxation coordinates out of [0, 1]: (1.0, 1.5)"),
    (lambda: SimConfig._make([math.nan, 400.0, 1.5e6, 0.6, 0.1, 0.25, 0.35]), ConfigError,
     "dt must be finite, got nan"),
    (lambda: SimConfig()._replace(v_logic1=True), ConfigError, "v_logic1 must be a number, got True"),
    (lambda: DeviceParams()._replace(v_red=False), ConfigError, "v_red must be a number, got False"),
    (lambda: SimConfig()._replace(dt=Millis(0.5)), ConfigError, "dt must be an int or a float, not Millis"),
    (lambda: SimConfig()._replace(dt=1e-17), ConfigError, f"horizon / dt is 4e+19 steps, more than {sys.maxsize}"),
])
def test_derived_copies_are_checked_too(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_the_largest_step_count_below_sys_maxsize_is_accepted_without_running():
    cfg = SimConfig(horizon=2.0 ** 63 - 1024)
    assert cfg.steps == 2 ** 63 - 1024 <= sys.maxsize
    assert len(range(cfg.steps)) == cfg.steps


# Every kind of number a settings field can be handed: ints past float range, and floats with NaN, the infinities,
# subnormals and -0.0 among them.  ``ANY_VALUE`` adds each type that is not exactly an int or a float.
NUMBERS = st.one_of(
    st.integers(),
    st.sampled_from([10**400, -10**400, 2**1024, -2**1024, int(sys.float_info.max), 10**308, -10**308]),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max]),
)
ANY_VALUE = st.one_of(NUMBERS, st.booleans(), st.floats().map(Millis), st.fractions(), st.decimals(),
                      st.text(max_size=4), st.none())


def assert_documented_checks_hold(value):
    """The checks ``SimConfig`` and ``DeviceParams`` document, restated on a value that was built."""
    for name, field in zip(value._fields, value):
        assert type(field) in (int, float) and math.isfinite(float(field)), (name, field)
    if isinstance(value, SimConfig):
        assert value.dt > 0 and value.horizon >= value.dt and value.b > 0
        assert value.threshold_low < value.threshold_high
        assert 1 <= value.steps <= sys.maxsize
    else:
        assert min(value.t1, value.t2, value.t1_dep, value.t2_dep) > 0 and value.c > 0
        assert value.v_red < value.v_ox < value.v_ref
        assert value.a1 <= 0 and value.a2 <= 0 and model_current(new_state(), value) >= 0


@pytest.mark.parametrize("cls, field", [(cls, field) for cls in (SimConfig, DeviceParams) for field in cls._fields])
@settings(deadline=None)
@given(data=st.data())
def test_any_field_value_builds_a_checked_value_or_is_a_config_error(cls, field, data):
    """Any value for ``field``, with numbers for some other fields so draws reach the later checks, through the
    constructor or ``_replace``: the value built passes every documented check, or the draw is a ``ConfigError``."""
    others = {name: NUMBERS for name in cls._fields if name != field}
    values = data.draw(st.fixed_dictionaries({field: ANY_VALUE}, optional=others), label="values")
    via_replace = data.draw(st.booleans(), label="via _replace")
    try:
        value = cls()._replace(**values) if via_replace else cls(**values)
    except ConfigError:
        return
    assert_documented_checks_hold(value)


@pytest.mark.parametrize("kind", list(GateKind))
@settings(deadline=None)
@given(values=st.fixed_dictionaries({}, optional={name: NUMBERS for name in DeviceParams._fields}))
@example(values={})
@example(values={"a1": -0.0, "a2": 0, "c": 5e-324, "v_ref": 1e308})
@example(values={"v_ref": 10**308, "c": 1})
def test_any_params_build_a_checked_gate_or_are_a_config_error(kind, values):
    try:
        gate = GateInstance(kind, DeviceParams(**values))
    except ConfigError:
        return
    assert_documented_checks_hold(gate.params)
    if kind is GateKind.MNOT:
        assert gate.params.v_ref / gate.params.c < R2 and V_CON < gate.params.v_ox


def test_replace_derives_a_checked_copy():
    cfg = SimConfig()._replace(dt=0.5)
    assert cfg == SimConfig(dt=0.5) and cfg.steps == 800
    assert DeviceParams(t1=10.0)._replace(v_ox=0.4) == DeviceParams(t1=10.0, v_ox=0.4)


@pytest.mark.parametrize("value, name", [
    (SimConfig(), "dt"),
    (DeviceParams(), "v_ox"),
    (MemristorState(1.0, 1.0), "x1"),
])
def test_value_types_reject_assignment(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, 0.5)
    with pytest.raises(AttributeError):
        value.extra = 0.5


def test_depression_constants_fill_from_potentiation():
    p = DeviceParams()
    assert (p.t1_dep, p.t2_dep) == (p.t1, p.t2) == (30.0, 300.0)


@pytest.mark.parametrize("columns, name, length, first, records", [
    ({"t_ms": [1.0, 2.0, 3.0], "NET": [0.1]}, "NET", 1, "t_ms", 3),
    ({"t_ms": array("d", [1.0]), "A": array("d", [0.1]), "B": array("d")}, "B", 0, "t_ms", 1),
    ({"t_ms": [], "NET": [0.1, 0.2]}, "NET", 2, "t_ms", 0),
])
def test_trace_rejects_columns_of_unequal_length(columns, name, length, first, records):
    with pytest.raises(ValueError) as info:
        Trace(SimConfig(horizon=3.0), columns)
    assert str(info.value) == f"column {name!r} has {length} records but column {first!r} has {records}"


def test_trace_replace_checks_the_columns():
    trace = Trace(SimConfig(horizon=3.0), {"t_ms": [1.0, 2.0, 3.0], "NET": [0.1, 0.2, 0.3]})
    with pytest.raises(ValueError, match="column 'NET' has 1 records but column 't_ms' has 3"):
        trace._replace(columns={"t_ms": [1.0, 2.0, 3.0], "NET": [0.1]})


@pytest.mark.parametrize("columns", [{}, {"t_ms": []}, {"t_ms": array("d"), "NET": []}])
def test_header_only_tables_are_still_valid(columns):
    assert Trace(SimConfig(), columns).to_csv() == ",".join(columns) + "\n"


@pytest.mark.parametrize("columns", [
    {"t_ms": [1.0, 2.0], "A": ["x", None]},
    {"t_ms": [1.0, 2.0], "A": [0.1, "0.2"]},
    {"t_ms": [1.0, 2.0], "A": 0.1},
])
def test_trace_rejects_a_column_that_is_not_numbers_when_it_is_made(columns):
    with pytest.raises(ValueError, match=r"^column 'A' is not a series of numbers: "):
        Trace(SimConfig(), columns)


def test_trace_packs_its_columns_and_keeps_packed_ones():
    packed = array("d", [1.0, 2.0])
    trace = Trace(SimConfig(), {"t_ms": packed, "A": [0, True], "B": packed, "C": array("q", [3, -4])})
    assert trace.columns["t_ms"] is packed and trace.columns["B"] is packed
    assert trace.columns["A"] == array("d", [0.0, 1.0]) and trace.columns["C"] == array("d", [3.0, -4.0])
    assert all(type(c) is array and c.typecode == "d" for c in trace.columns.values())
