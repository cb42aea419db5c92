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
from enum import Enum
from itertools import chain

from .device import ConfigError, DeviceParams, MemristorState, new_state
# ``step`` stays importable here because the benchmark tracer wraps ``memlogic.gates.step``.
from .device import step  # noqa: F401

# Divider resistance assigned to a fully insulating device; keeps the
# MNOT transfer ratio finite while the device passes no current.
R_OFF_CAP = 1e9
# The MNOT divider: resistors R1 and R2 in ohms, the constant source V_CON
# that biases the device together with the input, and the buffered
# logic-high level V_RAIL the divider ratio is scaled to, in volts.
R1, R2, V_CON, V_RAIL = 1e6, 1e7, 0.3, 0.8


class GateKind(Enum):
    MOR = "MOR"
    MAND = "MAND"
    MNOT = "MNOT"

    @property
    def arity(self) -> int:
        return 1 if self is _MNOT else 2


# Looked up once: each ``GateKind.X`` goes through ``EnumType.__getattr__``, several times a plain attribute's cost.
_MOR, _MAND, _MNOT = GateKind.MOR, GateKind.MAND, GateKind.MNOT


class GateInstance:
    """One gate: a kind, its device's params, and the device's state.

    An MNOT's divider is the module's fixed ``R1``/``R2``/``V_CON``/``V_RAIL``,
    and making an MNOT checks that ``params`` suit it.  ``state`` is the one field
    that changes: every run writes the device's final state back.
    """

    # ``params`` and ``state`` are immutable, so one default instance serves every gate.
    def __init__(self, kind: GateKind, params: DeviceParams = DeviceParams(),
                 state: MemristorState = new_state()) -> None:
        self.kind, self.params, self.state = kind, params, state
        if kind is _MNOT:
            on_resistance = params.v_ref / params.c
            if not on_resistance < R2:
                raise ConfigError(f"MNOT device on-resistance ({on_resistance:g} ohm) must lie below "
                                  f"the divider's R2 ({R2:g} ohm)")
            if not V_CON < params.v_ox:
                raise ConfigError(f"MNOT constant source ({V_CON} V) must lie below the oxidation potential "
                                  f"({params.v_ox} V), or it potentiates the device on its own")

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
        return self.run([*zip(inputs)], dt, 1.0)[0][0]

    def run(self, sources: list[array], dt: float, b: float, runs=()):
        """Advance the gate through every step; return its voltage, current, x1 and x2 series, packed, and held runs.

        ``sources`` are the drivers' voltage series, each constant over every ``(lo, hi)`` step range in
        ``runs``; ``b`` converts the MOR/MAND output current to a node voltage.  The ranges must be non-empty,
        ascending, disjoint and within the series, or ``ValueError`` names the first that is not.  A held run,
        one whose drive lies strictly inside the hold window, repeats its first step in all four series, bit for
        bit.  The final state goes to ``self.state``.  Loops run on lists, whose ``append`` is fastest; each
        series is packed once.
        """
        p = self.params
        if self.kind is _MOR:
            # The stronger input sets the drive, so two active inputs do not overdrive it; max()'s bits: u unless w > u.
            drive = [w if w > u else u for u, w in zip(*sources)]
        elif self.kind is _MAND:
            # The summed inputs, halved by the divider.
            drive = [(u + w) / 2.0 for u, w in zip(*sources)]
        else:
            # The summing stage adds the constant source to the input, so the
            # device switches once the input alone clears v_ox - v_con, while
            # v_con by itself keeps it in the hold window.
            v_con = V_CON
            drive = [v + v_con for v in sources[0]]

        # ``device.step``'s per-regime factors, taken out of the loop.
        e1p, e2p = math.exp(-dt / p.t1), math.exp(-dt / p.t2)
        e1d, e2d = math.exp(-dt / p.t1_dep), math.exp(-dt / p.t2_dep)
        v_ox, v_red = p.v_ox, p.v_red
        end, steps = 0, len(drive)
        for lo, hi in runs:
            if not end <= lo < hi <= steps:
                raise ValueError(f"run {(lo, hi)} is empty, unsorted, overlapping or outside the {steps} steps")
            end = hi
        held = runs and [(lo, hi) for lo, hi in runs if v_red < drive[lo] < v_ox]
        if held:  # step each held run's first step only; ``_fill`` puts its other steps back
            cuts = [0, *(cut for lo, hi in held for cut in (lo + 1, hi)), steps]
            drive = list(chain.from_iterable(drive[a:e] for a, e in zip(cuts[::2], cuts[1::2])))
        x1, x2 = self.state.x1, self.state.x2
        x1s, x2s = [], []
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
        if self.kind is _MNOT:
            # Divider tap through the buffer; an insulating device counts as R_OFF_CAP.
            r12, v_rail, g_off = R1 + R2, V_RAIL, 1.0 / R_OFF_CAP
            volts = []
            for i in currents:
                g = i / v_ref
                r_m = R_OFF_CAP if g <= g_off else 1.0 / g
                volts.append(v_rail * r_m / (r12 + r_m))
        else:
            # Ohmic readout at the drive, then the B conversion to a node voltage.
            volts = [i / v_ref * v * b for i, v in zip(currents, drive)]
        series = array("d", volts), array("d", currents), x1s, x2s, held
        return (*(_fill(s, held) for s in series[:4]), held) if held else series


def _fill(kept: array, held) -> array:
    """A series stepped on each held run's first step only, with the run's other steps put back as repeats."""
    out, a = array("d"), 0
    for lo, hi in held:
        b = a + lo + 1 - len(out)
        out += kept[a:b] + kept[b - 1:b] * (hi - lo - 1)
        a = b
    return out + kept[a:]
