"""Reference experiments: the one-bit full adder and single-gate characterization.

The adder fixture is probed at COUT (gate 7) and SUM (gate 12).  Runs follow the standard protocol: every input held
at logic 0 for the first 100 ms, then the chosen pattern applied for the remaining 300 ms.  Fixtures are read from
``fixture_dir()`` by ``_parse``, which reads the CLI's files too, so a diagnostic in a fixture names its file.
"""

from __future__ import annotations

import os
from collections import deque, namedtuple

from .engine import ONSET_MS, SimConfig, Trace, read_binary, simulate_windows
from .gates import ConfigError, DeviceParams, GateKind
from .netlist import CircuitGraph, GateNode, NetlistError, NetlistSyntaxError, Segment, Stimulus, parse_circuit

_FIXTURE_ENV = "MEMLOGIC_FIXTURES"
_PACKAGE_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_dir() -> str:
    return os.environ.get(_FIXTURE_ENV) or _PACKAGE_FIXTURES


def _parse(parse, path: str):
    """The file at ``path``, read as UTF-8 and given to ``parse``: its value and its text.  A byte that is not UTF-8
    is a ``NetlistSyntaxError`` at its line.  A ``NetlistError`` keeps its type, line and column, and gains the prefix
    ``<path>: ``, as in ``<path>: line 2: not UTF-8: <reason>``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:  # ``exc.object`` is the whole file; ``_lines`` counts by ``splitlines``
                line = len((exc.object[:exc.start].decode() + ".").splitlines())
                raise NetlistSyntaxError(f"not UTF-8: {exc.reason}", line) from None
        return parse(text), text
    except NetlistError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def fixture_text(name: str) -> str:
    return _parse(str, os.path.join(fixture_dir(), name))[1]


def build_full_adder() -> CircuitGraph:
    """The shipped one-bit full adder: 12 gates, COUT at 7, SUM at 12."""
    return _parse(parse_circuit, os.path.join(fixture_dir(), "adder.mlc"))[0]


def make_pattern_stimulus(a: int, b: int, cin: int, cfg: SimConfig | None = None) -> Stimulus:
    """Stimulus for one input pattern: 100 ms all-low, then the pattern.  Any bit but 0 or 1 is a ``ValueError``."""
    if any(bit not in (0, 1) for bit in (a, b, cin)):
        raise ValueError("pattern bits must be 0 or 1")
    cfg = cfg or SimConfig()
    if not cfg.horizon > ONSET_MS:
        raise ConfigError(f"the adder protocol needs a horizon past its {ONSET_MS:g} ms onset, got {cfg.horizon:g} ms")
    lo, hi, end = float(cfg.v_logic0), float(cfg.v_logic1), float(cfg.horizon)
    return Stimulus(tuple((name, (Segment(0.0, ONSET_MS, lo), Segment(ONSET_MS, end, hi)) if bit
                                 else (Segment(0.0, end, lo),)) for name, bit in (("A", a), ("B", b), ("CIN", cin))))


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
    pins = ("IN1", "IN2")[:kind.arity]
    return CircuitGraph((GateNode(1, kind, pins),), pins, (("OUT", 1),))


def default_characterization_schedule(kind: GateKind, cfg: SimConfig | None = None) -> Stimulus:
    """Canned schedules illustrating each gate's memory behaviour, each level last held to the horizon or 400 ms."""
    cfg = cfg or SimConfig()
    lo, hi, end = float(cfg.v_logic0), float(cfg.v_logic1), float(max(400.0, cfg.horizon))
    if kind is GateKind.MOR:  # each terminal's segment starts, then their levels
        schedule = [("IN1", (0.0, 100.0, 150.0, 200.0, 300.0), (lo, hi, lo, hi, lo)), ("IN2", (0.0,), (lo,))]
    elif kind is GateKind.MAND:
        schedule = [("IN1", (0.0, 100.0, 200.0, 300.0), (lo, hi, lo, hi)), ("IN2", (0.0, 200.0, 300.0), (lo, hi, hi))]
    else:
        schedule = [("IN1", (0.0, 100.0, 250.0), (lo, hi, lo))]
    return Stimulus(tuple((name, tuple(map(Segment, starts, (*starts[1:], end), levels)))
                          for name, starts, levels in schedule))
