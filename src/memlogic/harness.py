"""Reference experiments: the one-bit full adder and single-gate characterization.

The adder fixture is probed at COUT (gate 7) and SUM (gate 12).  Runs
follow the standard protocol: every input held at logic 0 for the first
100 ms, then the chosen pattern applied for the remaining 300 ms.
"""

from __future__ import annotations

import os
from collections import deque, namedtuple

from .device import ConfigError, DeviceParams
from .engine import ONSET_MS, SimConfig, Trace, read_binary, simulate_windows
from .gates import GateKind
from .netlist import CircuitGraph, NetlistSyntaxError, Stimulus, parse_circuit, parse_stimulus

_FIXTURE_ENV = "MEMLOGIC_FIXTURES"
_PACKAGE_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_dir() -> str:
    return os.environ.get(_FIXTURE_ENV) or _PACKAGE_FIXTURES


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:  # ``exc.object`` is the whole file; its lines count as ``_lines`` counts them
            raise NetlistSyntaxError(f"{path!r} is not UTF-8: {exc.reason}",
                                     len((exc.object[:exc.start].decode() + ".").splitlines())) from None


def fixture_text(name: str) -> str:
    return _read(os.path.join(fixture_dir(), name))


def build_full_adder() -> CircuitGraph:
    """The shipped one-bit full adder: 12 gates, COUT at 7, SUM at 12."""
    return parse_circuit(fixture_text("adder.mlc"))


def make_pattern_stimulus(a: int, b: int, cin: int, cfg: SimConfig | None = None) -> Stimulus:
    """Stimulus for one input pattern: 100 ms all-low, then the pattern.  Times and levels are written exactly."""
    cfg = cfg or SimConfig()
    if not cfg.horizon > ONSET_MS:
        raise ConfigError(f"the adder protocol needs a horizon past its {ONSET_MS:g} ms onset, got {cfg.horizon:g} ms")
    lines = ["format memlogic/1"]
    for name, bit in (("A", a), ("B", b), ("CIN", cin)):
        level = cfg.v_logic1 if bit else cfg.v_logic0
        if bit:
            lines.append(f"{name}: 0..{ONSET_MS!r}={cfg.v_logic0!r}, {ONSET_MS!r}..{cfg.horizon!r}={level!r}")
        else:
            lines.append(f"{name}: 0..{cfg.horizon!r}={cfg.v_logic0!r}")
    return parse_stimulus("\n".join(lines) + "\n")


def adder_truth(a: int, b: int, cin: int) -> tuple[int, int]:
    """Expected (SUM, COUT) for one bit of addition."""
    total = a + b + cin
    return total & 1, total >> 1


class Verdict(namedtuple("Verdict", "experiment check passed measured")):
    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "check": self.check,
            "pass": self.passed,
            "measured": self.measured,
        }


def run_pattern(a: int, b: int, cin: int, cfg: SimConfig | None = None,
                params: DeviceParams | None = None) -> tuple[Trace, list[Verdict]]:
    """Simulate one adder pattern and check SUM, then COUT, against the truth table at the horizon.

    Every device starts fresh, with ``params``.  The returned trace is the run's last ``simulate_windows`` window.
    """
    for bit in (a, b, cin):
        if bit not in (0, 1):
            raise ValueError("pattern bits must be 0 or 1")
    cfg = cfg or SimConfig()
    trace = deque(simulate_windows(build_full_adder(), make_pattern_stimulus(a, b, cin, cfg), cfg, params), maxlen=1)[0]
    verdicts = []
    for net, expected in zip(("SUM", "COUT"), adder_truth(a, b, cin)):
        got = read_binary(trace, net, cfg.horizon)
        verdicts.append(Verdict(
            experiment=f"adder_{a}{b}{cin}",
            check=f"{net}@{cfg.horizon:g}ms == {expected}",
            passed=got == expected,
            measured=f"{got} ({trace.voltage_at(net, cfg.horizon):.4f} V)",
        ))
    return trace, verdicts


def gate_circuit(kind: GateKind) -> CircuitGraph:
    """The one-gate netlist: inputs IN1 (and IN2 for two-input kinds), gate 1 of ``kind``, probed as OUT."""
    pins = ["IN1", "IN2"][:kind.arity]
    inputs = "".join(f"input {pin}\n" for pin in pins)
    return parse_circuit(f"{inputs}gate 1 {kind.value} {' '.join(pins)}\noutput OUT 1\n")


def default_characterization_schedule(kind: GateKind, cfg: SimConfig | None = None) -> Stimulus:
    """Canned schedules illustrating each gate's memory behaviour, each level last held to the horizon or 400 ms."""
    cfg = cfg or SimConfig()
    lo, hi, end = cfg.v_logic0, cfg.v_logic1, max(400.0, cfg.horizon)
    if kind is GateKind.MOR:
        lines = [f"IN1: 0..100={lo!r}, 100..150={hi!r}, 150..200={lo!r}, 200..300={hi!r}, 300..{end!r}={lo!r}",
                 f"IN2: 0..{end!r}={lo!r}"]
    elif kind is GateKind.MAND:
        lines = [f"IN1: 0..100={lo!r}, 100..200={hi!r}, 200..300={lo!r}, 300..{end!r}={hi!r}",
                 f"IN2: 0..200={lo!r}, 200..300={hi!r}, 300..{end!r}={hi!r}"]
    else:
        lines = [f"IN1: 0..100={lo!r}, 100..250={hi!r}, 250..{end!r}={lo!r}"]
    return parse_stimulus("format memlogic/1\n" + "\n".join(lines) + "\n")
