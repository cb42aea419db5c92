"""Reference experiments: the one-bit full adder and single-gate characterization.

The adder fixture is probed at COUT (gate 7) and SUM (gate 12).  Runs
follow the standard protocol: every input held at logic 0 for the first
100 ms, then the chosen pattern applied for the remaining 300 ms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .device import DeviceParams
from .engine import SimConfig, Trace, read_binary, simulate
from .gates import GateKind
from .netlist import CircuitGraph, Stimulus, parse_circuit, parse_stimulus

ONSET_MS = 100.0

_FIXTURE_ENV = "MEMLOGIC_FIXTURES"
_PACKAGE_FIXTURES = Path(__file__).parent / "fixtures"


def fixture_dir() -> Path:
    override = os.environ.get(_FIXTURE_ENV)
    return Path(override) if override else _PACKAGE_FIXTURES


def fixture_text(name: str) -> str:
    return (fixture_dir() / name).read_text(encoding="utf-8")


def build_full_adder() -> CircuitGraph:
    """The shipped one-bit full adder: 12 gates, COUT at 7, SUM at 12."""
    return parse_circuit(fixture_text("adder.mlc"))


def make_pattern_stimulus(a: int, b: int, cin: int, cfg: SimConfig | None = None) -> Stimulus:
    """Stimulus for one input pattern: 100 ms all-low, then the pattern."""
    cfg = cfg or SimConfig()
    lines = ["format memlogic/1"]
    for name, bit in (("A", a), ("B", b), ("CIN", cin)):
        level = cfg.v_logic1 if bit else cfg.v_logic0
        if bit:
            lines.append(f"{name}: 0..{ONSET_MS:g}={cfg.v_logic0:g}, {ONSET_MS:g}..{cfg.horizon:g}={level:g}")
        else:
            lines.append(f"{name}: 0..{cfg.horizon:g}={cfg.v_logic0:g}")
    return parse_stimulus("\n".join(lines) + "\n")


def adder_truth(a: int, b: int, cin: int) -> tuple[int, int]:
    """Expected (SUM, COUT) for one bit of addition."""
    total = a + b + cin
    return total & 1, total >> 1


@dataclass(frozen=True)
class Verdict:
    experiment: str
    check: str
    passed: bool
    measured: object

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

    Every device starts fresh, with ``params``.
    """
    for bit in (a, b, cin):
        if bit not in (0, 1):
            raise ValueError("pattern bits must be 0 or 1")
    cfg = cfg or SimConfig()
    trace = simulate(build_full_adder(), make_pattern_stimulus(a, b, cin, cfg), cfg, params=params)
    verdicts = []
    for net, expected in zip(("SUM", "COUT"), adder_truth(a, b, cin)):
        got = read_binary(trace, net, cfg.horizon, cfg)
        verdicts.append(Verdict(
            experiment=f"adder_{a}{b}{cin}",
            check=f"{net}@{cfg.horizon:g}ms == {expected}",
            passed=got == expected,
            measured=f"{got} ({trace.voltage_at(net, cfg.horizon):.4f} V)",
        ))
    return trace, verdicts


def characterize_gate(kind: GateKind, schedule: Stimulus, cfg: SimConfig | None = None,
                      params: DeviceParams | None = None) -> Trace:
    """Simulate a single gate of the given kind under an input schedule.

    The circuit has inputs IN1 (and IN2 for two-input kinds) and probes
    the gate output as OUT.
    """
    if kind is GateKind.MNOT:
        text = "format memlogic/1\ninput IN1\ngate 1 MNOT IN1\noutput OUT 1\n"
    else:
        text = f"format memlogic/1\ninput IN1\ninput IN2\ngate 1 {kind.value} IN1 IN2\noutput OUT 1\n"
    graph = parse_circuit(text)
    return simulate(graph, schedule, cfg, params=params)


def default_characterization_schedule(kind: GateKind, cfg: SimConfig | None = None) -> Stimulus:
    """Canned schedules illustrating each gate's memory behaviour."""
    cfg = cfg or SimConfig()
    lo, hi = cfg.v_logic0, cfg.v_logic1
    if kind is GateKind.MOR:
        lines = [
            f"IN1: 0..100={lo}, 100..150={hi}, 150..200={lo}, 200..300={hi}, 300..400={lo}",
            f"IN2: 0..400={lo}",
        ]
    elif kind is GateKind.MAND:
        lines = [
            f"IN1: 0..100={lo}, 100..200={hi}, 200..300={lo}, 300..400={hi}",
            f"IN2: 0..200={lo}, 200..300={hi}, 300..400={hi}",
        ]
    else:
        lines = [f"IN1: 0..100={lo}, 100..250={hi}, 250..400={lo}"]
    return parse_stimulus("format memlogic/1\n" + "\n".join(lines) + "\n")
