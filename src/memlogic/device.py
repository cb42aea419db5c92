"""Lumped kinetic model of one organic memristive element.

The element's conduction history is carried by two relaxation coordinates,
one per exponential term of its conduction law.  A bias at or above the
oxidation threshold drives both coordinates toward 0 (the saturated,
conducting state); a bias at or below the reduction threshold relaxes them
back toward 1 (the fresh, insulating state); anywhere strictly between the
two thresholds the state is frozen, which is what makes the element usable
as nonvolatile memory.

Every update is an exact per-regime exponential, so composing many small
steps is equivalent to one long step up to float rounding, and a constant
supra-threshold bias applied to a fresh device reproduces the measured
double-exponential current rise in closed form.
"""

from __future__ import annotations

import math
from collections import namedtuple


class ConfigError(ValueError):
    """A device, gate or run setting that the model rejects."""


def _check_numbers(fields) -> None:
    """Raise ``ConfigError`` naming the first field of a settings tuple that is not a finite, exact int or float."""
    for name, value in zip(fields._fields, fields):
        if type(value) not in (int, float):
            raise ConfigError(f"{name} must be a number, got {value}" if type(value) is bool
                              else f"{name} must be an int or a float, not {type(value).__name__}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past float range, whose digits are too many to print
            raise ConfigError(f"{name} must fit in a float, got an int of {value.bit_length()} bits") from None
        if not finite:
            raise ConfigError(f"{name} must be finite, got {value}")


class DeviceParams(namedtuple("DeviceParams", "a1 a2 t1 t2 c v_ox v_red v_ref t1_dep t2_dep",
                              defaults=(-3e-7, -1e-7, 30.0, 300.0, 4e-7, 0.5, -0.1, 0.6, None, None))):
    """Physical constants of one memristive element.

    Currents are in amperes, potentials in volts, time constants in
    milliseconds.  ``a1``/``t1`` describe the fast relaxation term and
    ``a2``/``t2`` the slow one; ``c`` is the saturation current at the
    reference bias ``v_ref``.  Depression (conductance decay) may use its
    own time constants ``t1_dep``/``t2_dep``; they default to the
    potentiation values.  Every field must be a finite ``int`` or ``float``, of exactly that type.
    """

    __slots__ = ()
    # ``_replace`` builds through ``_make``, so both go through the checks below.
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.t1_dep is None or self.t2_dep is None:  # filled once, so a None t1 or t2 cannot recurse
            self = super().__new__(cls, *self[:-2], self.t1 if self.t1_dep is None else self.t1_dep,
                                   self.t2 if self.t2_dep is None else self.t2_dep)
        _check_numbers(self)
        if min(self.t1, self.t2, self.t1_dep, self.t2_dep) <= 0:
            raise ConfigError("time constants must be positive")
        if not self.v_red < self.v_ox:
            raise ConfigError("reduction potential must lie below oxidation potential")
        if self.c <= 0:
            raise ConfigError("saturation current must be positive")
        if self.a1 > 0 or self.a2 > 0:
            raise ConfigError("exponential amplitudes must be non-positive")
        if float(self.a1) + self.a2 + self.c < 0:  # summed in floats, as the model sums it, so two ints cannot overflow
            raise ConfigError("fresh-state current would be negative")
        if not self.v_ref > self.v_ox:
            raise ConfigError("reference bias must exceed the oxidation potential")
        return self


class MemristorState(namedtuple("MemristorState", "x1 x2")):
    """Nonvolatile state: the two relaxation coordinates, each in [0, 1].

    (1, 1) is the fresh insulating device, (0, 0) full saturation.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, x1, x2):
        if not (0.0 <= x1 <= 1.0 and 0.0 <= x2 <= 1.0):
            raise ValueError(f"relaxation coordinates out of [0, 1]: ({x1}, {x2})")
        return super().__new__(cls, x1, x2)


def new_state(initial: float = 1.0) -> MemristorState:
    """Create a state with both coordinates at ``initial`` (1 = insulating)."""
    if not 0.0 <= initial <= 1.0:
        raise ValueError(f"initial fraction must be in [0, 1], got {initial}")
    return MemristorState(initial, initial)


def model_current(state: MemristorState, params: DeviceParams) -> float:
    """Current through the device at the reference bias, in amperes."""
    return params.a1 * state.x1 + params.a2 * state.x2 + params.c


def step(state: MemristorState, params: DeviceParams, v_applied: float, dt: float) -> MemristorState:
    """Advance the state by ``dt`` milliseconds under a constant bias.

    At or above the oxidation potential the coordinates decay toward 0
    (potentiation); at or below the reduction potential they relax toward
    1 (depression); strictly inside the hold window the state is returned
    unchanged, bit for bit.  This is the device spec: ``GateInstance.run``
    applies the same updates with the factors taken out of its step loop.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if v_applied >= params.v_ox:
        return MemristorState(
            state.x1 * math.exp(-dt / params.t1),
            state.x2 * math.exp(-dt / params.t2),
        )
    if v_applied <= params.v_red:
        return MemristorState(
            1.0 - (1.0 - state.x1) * math.exp(-dt / params.t1_dep),
            1.0 - (1.0 - state.x2) * math.exp(-dt / params.t2_dep),
        )
    return state
