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
from dataclasses import dataclass


class ConfigError(ValueError):
    """A device, gate or run setting that the model rejects."""


@dataclass(frozen=True)
class DeviceParams:
    """Physical constants of one memristive element.

    Currents are in amperes, potentials in volts, time constants in
    milliseconds.  ``a1``/``t1`` describe the fast relaxation term and
    ``a2``/``t2`` the slow one; ``c`` is the saturation current at the
    reference bias ``v_ref``.  Depression (conductance decay) may use its
    own time constants ``t1_dep``/``t2_dep``; they default to the
    potentiation values.
    """

    a1: float = -3e-7
    a2: float = -1e-7
    t1: float = 30.0
    t2: float = 300.0
    c: float = 4e-7
    v_ox: float = 0.5
    v_red: float = -0.1
    v_ref: float = 0.6
    t1_dep: float | None = None
    t2_dep: float | None = None

    def __post_init__(self) -> None:
        if self.t1_dep is None:
            object.__setattr__(self, "t1_dep", self.t1)
        if self.t2_dep is None:
            object.__setattr__(self, "t2_dep", self.t2)
        if min(self.t1, self.t2, self.t1_dep, self.t2_dep) <= 0:
            raise ConfigError("time constants must be positive")
        if not self.v_red < self.v_ox:
            raise ConfigError("reduction potential must lie below oxidation potential")
        if self.c <= 0:
            raise ConfigError("saturation current must be positive")
        if self.a1 > 0 or self.a2 > 0:
            raise ConfigError("exponential amplitudes must be non-positive")
        if self.a1 + self.a2 + self.c < 0:
            raise ConfigError("fresh-state current would be negative")
        if not self.v_ref > self.v_ox:
            raise ConfigError("reference bias must exceed the oxidation potential")


@dataclass(frozen=True)
class MemristorState:
    """Nonvolatile state: the two relaxation coordinates, each in [0, 1].

    (1, 1) is the fresh insulating device, (0, 0) full saturation.
    """

    x1: float
    x2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.x1 <= 1.0 and 0.0 <= self.x2 <= 1.0):
            raise ValueError(f"relaxation coordinates out of [0, 1]: ({self.x1}, {self.x2})")


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
