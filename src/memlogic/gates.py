"""The three memorized logic elements: MOR, MAND and MNOT.

Each gate owns a single memristive device.  MOR couples both inputs to the
device electrode, so the stronger input sets the drive; MAND sums its
inputs and halves them, so only simultaneous activation crosses the
oxidation threshold; MNOT places the device in a resistive divider biased
by a small constant source, so the output rail collapses as the device
conducts.

MOR and MAND report an output current, which the circuit engine converts
back to a node voltage; MNOT reports a voltage directly, taken from the
divider tap through an ideal buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .device import ConfigError, DeviceParams, MemristorState, conductance, device_current, model_current, new_state, step

# Divider resistance assigned to a fully insulating device; keeps the
# MNOT transfer ratio finite while the device passes no current.
R_OFF_CAP = 1e9


class GateKind(Enum):
    MOR = "MOR"
    MAND = "MAND"
    MNOT = "MNOT"

    @property
    def arity(self) -> int:
        return 1 if self is GateKind.MNOT else 2


def mor_effective_voltage(v_in1: float, v_in2: float) -> float:
    """Drive seen by an MOR device: the stronger of the two inputs.

    Either active input alone is sufficient to switch the device, and two
    active inputs must not overdrive it beyond a single one.
    """
    return max(v_in1, v_in2)


def mand_effective_voltage(v_in1: float, v_in2: float) -> float:
    """Drive seen by an MAND device: the summed inputs after the halving divider."""
    return (v_in1 + v_in2) / 2.0


@dataclass
class GateInstance:
    """One gate: a kind, its device, and (for MNOT) the divider network.

    ``r1``/``r2`` are the divider resistors, ``v_con`` the constant source
    that biases the device together with the input, and ``v_rail`` the
    buffered logic-high level the divider ratio is scaled to.  The divider
    fields are meaningful for MNOT only.
    """

    kind: GateKind
    params: DeviceParams = field(default_factory=DeviceParams)
    state: MemristorState = field(default_factory=new_state)
    r1: float = 1e6
    r2: float = 1e7
    v_con: float = 0.3
    v_rail: float = 0.8

    def __post_init__(self) -> None:
        if self.kind is GateKind.MNOT:
            if not self.r1 < self.r2:
                raise ConfigError("MNOT requires r1 < r2")
            on_resistance = self.params.v_ref / self.params.c
            if not on_resistance < self.r2 < R_OFF_CAP:
                raise ConfigError("MNOT r2 must lie between the on- and off-resistance")
            if not self.v_con < self.params.v_ox:
                raise ConfigError(f"MNOT constant source ({self.v_con} V) must lie below the oxidation potential "
                                  f"({self.params.v_ox} V), or it potentiates the device on its own")

    def step(self, inputs: list[float], dt: float) -> float:
        """Advance the gate one timestep and return its output.

        MOR/MAND return the output current in amperes; MNOT returns the
        divider tap voltage in volts.
        """
        if len(inputs) != self.kind.arity:
            raise ValueError(f"{self.kind.value} expects {self.kind.arity} input(s), got {len(inputs)}")
        if self.kind is GateKind.MOR:
            drive = mor_effective_voltage(inputs[0], inputs[1])
        elif self.kind is GateKind.MAND:
            drive = mand_effective_voltage(inputs[0], inputs[1])
        else:
            # The summing stage combines the input with the constant source,
            # so the device switches once the input alone clears
            # v_ox - v_con, while v_con by itself keeps it in the hold window.
            drive = inputs[0] + self.v_con
        self.state = step(self.state, self.params, drive, dt)
        if self.kind is GateKind.MNOT:
            return self.output_voltage()
        return device_current(self.state, self.params, drive)

    def output_voltage(self) -> float:
        """MNOT divider tap voltage for the present state."""
        if self.kind is not GateKind.MNOT:
            raise ValueError("output_voltage is defined for MNOT only")
        g = conductance(self.state, self.params)
        r_m = R_OFF_CAP if g <= 1.0 / R_OFF_CAP else 1.0 / g
        return self.v_rail * r_m / (self.r1 + self.r2 + r_m)

    def normalized_output(self) -> float:
        """Saturation fraction of the device, in [0, 1]."""
        if self.kind is GateKind.MNOT:
            raise ValueError("normalized output is defined for MOR and MAND only")
        return model_current(self.state, self.params) / self.params.c

