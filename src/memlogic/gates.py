"""The organic memristive element and the three memorized logic elements built from it: MOR, MAND and MNOT.

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

Each gate owns a single memristive device.  MOR couples both inputs to the
device electrode, so the stronger input sets the drive; MAND sums its
inputs and halves them, so only simultaneous activation crosses the
oxidation threshold; MNOT places the device in a resistive divider biased
by a small constant source, so the output rail collapses as the device
conducts.

:meth:`GateInstance.run` is the one definition of a gate's input rule,
drive, state loop and readout: it advances a device from a given state
through a whole run of input samples and returns the final state with the
series, and both the circuit engine and :meth:`GateInstance.step`, its
one-step case, call it.  MOR and MAND read out an ohmic current, which
``run`` converts to a node voltage through ``b``; MNOT reports a voltage
directly, taken from the divider tap through an ideal buffer.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from enum import Enum
from itertools import chain


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
    if not dt > 0:  # NaN too
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
    that changes: :meth:`step` writes the device's state back; :meth:`run` leaves it.
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
        """Advance the gate one timestep and return its output: :meth:`run` over one step, which owns the input rule.

        MOR/MAND return the output current in amperes (``b = 1.0`` leaves the ohmic readout a current); MNOT returns
        the divider tap voltage in volts.
        """
        volts, *_, self.state = self.run(self.state, [*zip(inputs)], dt, 1.0)
        return volts[0]

    def run(self, state: MemristorState, sources: list[array], dt: float, b: float, runs=()):
        """Advance a device from ``state`` through every step; return the gate's voltage, current, x1 and x2
        series, packed, its held runs and the device's final state.

        ``sources`` are the drivers' voltage series, each constant over every ``(lo, hi)`` step range in ``runs``; ``b``
        converts the MOR/MAND output current to a node voltage.  This is the one owner of a gate's input rule: a source
        count other than the kind's arity, series of unequal length or a ``dt`` that is not positive is a ``ValueError``
        before any step.  The ranges must be non-empty, ascending, disjoint and within the series, or ``ValueError``
        names the first that is not.  A held run, one whose drive lies strictly inside the hold window, repeats its
        first step in all four series, bit for bit.  ``self.state`` is neither read nor written.  Loops run on lists,
        whose ``append`` is fastest; each series is packed once.
        """
        p, kind = self.params, self.kind
        if len(sources) != kind.arity:
            raise ValueError(f"{kind.value} expects {kind.arity} input(s), got {len(sources)}")
        if not dt > 0:  # NaN too
            raise ValueError(f"dt must be positive, got {dt}")
        if kind is _MOR:
            # The stronger input sets the drive, so two active inputs do not overdrive it; max()'s bits: u unless w > u.
            drive = [w if w > u else u for u, w in zip(*sources, strict=True)]
        elif kind is _MAND:
            # The summed inputs, halved by the divider.
            drive = [(u + w) / 2.0 for u, w in zip(*sources, strict=True)]
        else:
            # The summing stage adds the constant source to the input, so the
            # device switches once the input alone clears v_ox - v_con, while
            # v_con by itself keeps it in the hold window.
            v_con = V_CON
            drive = [v + v_con for v in sources[0]]

        # ``step``'s per-regime factors, taken out of the loop.
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
        x1, x2 = state
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
        state = MemristorState(x1, x2)

        # ``model_current`` at each step.
        a1, a2, c, v_ref = p.a1, p.a2, p.c, p.v_ref
        currents = [a1 * u + a2 * w + c for u, w in zip(x1s, x2s)]
        x1s = array("d", x1s)
        x2s = array("d", x2s)
        if kind is _MNOT:
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
        series = array("d", volts), array("d", currents), x1s, x2s
        if held:
            series = [_fill(s, held) for s in series]
        return (*series, held, state)


def _fill(kept: array, held) -> array:
    """A series stepped on each held run's first step only, with the run's other steps put back as repeats."""
    out, a = array("d"), 0
    for lo, hi in held:
        b = a + lo + 1 - len(out)
        out += kept[a:b] + kept[b - 1:b] * (hi - lo - 1)
        a = b
    return out + kept[a:]
