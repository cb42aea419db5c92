"""The three memorized logic elements: MOR, MAND and MNOT.

Each gate owns a single memristive device.  MOR couples both inputs to the
device electrode, so the stronger input sets the drive; MAND sums its
inputs and halves them, so only simultaneous activation crosses the
oxidation threshold; MNOT places the device in a resistive divider biased
by a small constant source, so the output rail collapses as the device
conducts.

:meth:`GateInstance.run` is the one definition of a gate's drive, state
loop and readout: it advances the gate through a whole run of input
samples, and both the circuit engine and :meth:`GateInstance.step`, its
one-step case, call it.  MOR and MAND read out an ohmic current, which
``run`` converts to a node voltage through ``b``; MNOT reports a voltage
directly, taken from the divider tap through an ideal buffer.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum

from .device import ConfigError, DeviceParams, MemristorState, new_state
# ``step`` stays importable here because the benchmark tracer wraps ``memlogic.gates.step``.
from .device import step  # noqa: F401

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
        """Advance the gate one timestep and return its output: :meth:`run` over one step.

        MOR/MAND return the output current in amperes (``b = 1.0`` leaves
        the ohmic readout a current); MNOT returns the divider tap voltage
        in volts.
        """
        if len(inputs) != self.kind.arity:
            raise ValueError(f"{self.kind.value} expects {self.kind.arity} input(s), got {len(inputs)}")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        return self.run([[v] for v in inputs], dt, 1.0)[0][0]

    def run(self, sources: list[array], dt: float, b: float):
        """Advance the gate through every step; return its voltage, current, x1 and x2 series, packed.

        ``sources`` are the drivers' voltage series and ``b`` converts the
        MOR/MAND output current to a node voltage.  The final device state
        is written back to ``self.state``.  The loops run on lists, whose
        ``append`` is fastest, and each finished series is packed once.
        """
        p = self.params
        if self.kind is GateKind.MOR:
            # The stronger input sets the drive, so two active inputs do not overdrive it beyond one.
            drive = list(map(max, *sources))
        elif self.kind is GateKind.MAND:
            # The summed inputs, halved by the divider.
            drive = [(u + w) / 2.0 for u, w in zip(*sources)]
        else:
            # The summing stage adds the constant source to the input, so the
            # device switches once the input alone clears v_ox - v_con, while
            # v_con by itself keeps it in the hold window.
            v_con = self.v_con
            drive = [v + v_con for v in sources[0]]

        # ``device.step``'s per-regime factors, taken out of the loop.
        e1p, e2p = math.exp(-dt / p.t1), math.exp(-dt / p.t2)
        e1d, e2d = math.exp(-dt / p.t1_dep), math.exp(-dt / p.t2_dep)
        v_ox, v_red = p.v_ox, p.v_red
        x1, x2 = self.state.x1, self.state.x2
        x1s: list[float] = []
        x2s: list[float] = []
        for v in drive:
            if v >= v_ox:
                x1 = x1 * e1p
                x2 = x2 * e2p
            elif v <= v_red:
                x1 = 1.0 - (1.0 - x1) * e1d
                x2 = 1.0 - (1.0 - x2) * e2d
            x1s.append(x1)
            x2s.append(x2)
        self.state = MemristorState(x1, x2)

        # ``device.model_current`` at each step.
        a1, a2, c, v_ref = p.a1, p.a2, p.c, p.v_ref
        currents = [a1 * u + a2 * w + c for u, w in zip(x1s, x2s)]
        x1s = array("d", x1s)
        x2s = array("d", x2s)
        if self.kind is GateKind.MNOT:
            # Divider tap through the buffer; an insulating device counts as R_OFF_CAP.
            r12, v_rail, g_off = self.r1 + self.r2, self.v_rail, 1.0 / R_OFF_CAP
            volts = []
            for i in currents:
                g = i / v_ref
                r_m = R_OFF_CAP if g <= g_off else 1.0 / g
                volts.append(v_rail * r_m / (r12 + r_m))
        else:
            # Ohmic readout at the drive, then the B conversion to a node voltage.
            volts = [i / v_ref * v * b for i, v in zip(currents, drive)]
        return array("d", volts), array("d", currents), x1s, x2s
