"""Time-stepped circuit simulation.

Each timestep resolves node voltages in topological order with zero-delay
combinational semantics: a gate reads its drivers' freshly computed values
for the same step, advances its device by dt under the resulting drive,
and publishes its new output.  Cascade delays therefore come purely from
device kinetics, not from artificial gate delays.

MOR and MAND outputs are currents; the engine converts them to node
voltages through the proportionality constant ``b`` (V = I * b), chosen so
that a fully saturated device driven at logic-1 reproduces logic-1 at the
next input.  MNOT outputs are voltages already and pass through unchanged.

:func:`simulate` compiles the run once: every input terminal is sampled
into a column, and each gate's constants, including its four
``exp(-dt/tau)`` factors, are taken out of the step loop.  The netlist is
acyclic, so at step k a gate depends only on its drivers at step k and on
its own state; the engine therefore runs one gate at a time through every
step, in topological order, reading its drivers' finished columns.  Each
value comes from the same float operations, in the same order, as
stepping the :class:`~memlogic.gates.GateInstance` objects would give.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import asdict, dataclass

# ``model_current`` stays importable from this module for callers that look it up here.
from .device import ConfigError, DeviceParams, MemristorState, model_current  # noqa: F401
from .gates import R_OFF_CAP, GateInstance, GateKind
from .netlist import CircuitGraph, CoverageError, Stimulus, check_drives, topological_order

AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class SimConfig:
    """Timestep, horizon and signal-level conventions for one run.

    ``threshold_low``/``threshold_high`` bound the binary readout band:
    voltages above the high threshold read 1, below the low threshold read
    0, and anything between is reported as ambiguous.  The defaults put
    the canonical 0.3 V ambiguity marker inside the band while staying
    reachable by second-level gates within the standard 400 ms protocol.
    Every field must be finite.
    """

    dt: float = 1.0
    horizon: float = 400.0
    b: float = 1.5e6
    v_logic1: float = 0.6
    v_logic0: float = 0.1
    threshold_low: float = 0.25
    threshold_high: float = 0.35

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.horizon < self.dt:
            raise ConfigError("horizon must cover at least one step")
        if self.b <= 0:
            raise ConfigError("current-to-voltage constant must be positive")
        if not self.threshold_low < self.threshold_high:
            raise ConfigError("threshold_low must lie below threshold_high")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class Trace:
    """Per-timestep record of every node voltage and device state, as one table.

    ``columns`` maps each CSV column name to its series, in CSV order:
    ``t_ms``, the input terminals, the probes (each the same series as its
    gate's), ``g<ID>`` per gate, then ``g<ID>_I``, ``g<ID>_x1`` and
    ``g<ID>_x2`` per gate.  ``simulate`` packs every series as an
    ``array("d")``, 8 bytes a value; a hand-built table of lists reads the same.
    """

    config: SimConfig
    columns: dict[str, array]

    @property
    def times(self) -> array:
        return self.columns["t_ms"]

    def column(self, net: str) -> array:
        """Series of one column: an input, a probe, ``g<ID>`` or a device internal."""
        try:
            return self.columns[net]
        except KeyError:
            raise KeyError(f"unknown net {net!r}") from None

    def index_at(self, t_ms: float) -> int:
        idx = int(round(t_ms / self.config.dt)) - 1
        if not 0 <= idx < len(self.times):
            raise ValueError(f"t={t_ms} ms is outside the recorded horizon")
        return idx

    def voltage_at(self, net: str, t_ms: float) -> float:
        return self.column(net)[self.index_at(t_ms)]

    def csv_columns(self) -> list[str]:
        return list(self.columns)

    def csv_lines(self):
        """Yield the CSV text line by line: the header, then one line per record.

        Values are in 9-significant-digit scientific notation; ``"%.8e"``
        renders a float exactly as ``f"{v:.8e}"`` does.
        """
        yield ",".join(self.columns) + "\n"
        row_format = ",".join(["%.8e"] * len(self.columns)) + "\n"
        yield from map(row_format.__mod__, zip(*self.columns.values()))

    def to_csv(self) -> str:
        """Render the trace as CSV, values in 9-significant-digit scientific notation."""
        return "".join(self.csv_lines())

    def metadata(self, fixture_texts: dict[str, str] | None = None, params: DeviceParams | None = None) -> dict:
        """JSON-serializable sidecar: package version, config and device params echo (null if not given),
        columns, fixture hashes."""
        from . import __version__

        fixtures = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in (fixture_texts or {}).items()}
        return {"version": __version__, "config": asdict(self.config), "params": asdict(params) if params else None,
                "records": len(self.times), "columns": self.csv_columns(), "fixtures": fixtures}


def build_gates(graph: CircuitGraph, params: DeviceParams | None = None) -> dict[int, GateInstance]:
    """Fresh gate instances for every node of a graph."""
    params = params or DeviceParams()
    return {node.id: GateInstance(kind=node.kind, params=params) for node in graph.nodes}


def _check_gates(graph: CircuitGraph, gates: dict[int, GateInstance]) -> None:
    """Reject a ``gates`` dict that does not give each netlist gate its own instance of its kind."""
    seen: dict[int, int] = {}
    for node in graph.nodes:
        gate = gates.get(node.id)
        if gate is None:
            raise ValueError(f"gates has no instance for gate {node.id}")
        if gate.kind is not node.kind:
            raise ValueError(f"gate {node.id} is {node.kind.value} in the netlist "
                             f"but its instance is {gate.kind.value}")
        if id(gate) in seen:
            raise ValueError(f"gates {seen[id(gate)]} and {node.id} share one instance")
        seen[id(gate)] = node.id


def _sample(stimulus: Stimulus, name: str, starts: list[float]) -> list[float]:
    """A terminal's voltage at each of the ascending times, by ``Stimulus.value_at``'s rule.

    A cursor walks the segments once.  Every segment it has passed ends at
    or before the current time, so the segment under the cursor, when it
    covers the time, is the first that does.  Any other time (at or past
    the horizon, or in a gap) is left to ``value_at`` itself.
    """
    segs = next(segs for terminal, segs in stimulus.segments if terminal == name)
    pending = iter(segs)
    seg = next(pending, None)
    out = []
    for t in starts:
        while seg is not None and seg.end <= t:
            seg = next(pending, None)
        out.append(seg.volts if seg is not None and seg.start <= t < seg.end else stimulus.value_at(name, t))
    return out


def _run_gate(gate: GateInstance, sources: list[array], dt: float, b: float):
    """Advance one gate through every step; return its voltage, current, x1 and x2 series, packed.

    ``sources`` are the drivers' voltage series.  The final device state
    is written back to ``gate.state``.  The loops run on lists, whose
    ``append`` is fastest, and each finished series is packed once.
    """
    p = gate.params
    # The drives are the expressions of ``mor_effective_voltage`` and ``mand_effective_voltage``, inlined.
    if gate.kind is GateKind.MOR:
        drive = list(map(max, *sources))
    elif gate.kind is GateKind.MAND:
        drive = [(u + w) / 2.0 for u, w in zip(*sources)]
    else:
        # The summing stage adds the constant source to the input.
        v_con = gate.v_con
        drive = [v + v_con for v in sources[0]]

    e1p, e2p = math.exp(-dt / p.t1), math.exp(-dt / p.t2)
    e1d, e2d = math.exp(-dt / p.t1_dep), math.exp(-dt / p.t2_dep)
    v_ox, v_red = p.v_ox, p.v_red
    x1, x2 = gate.state.x1, gate.state.x2
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
    gate.state = MemristorState(x1, x2)

    a1, a2, c, v_ref = p.a1, p.a2, p.c, p.v_ref
    currents = [a1 * u + a2 * w + c for u, w in zip(x1s, x2s)]
    x1s = array("d", x1s)
    x2s = array("d", x2s)
    if gate.kind is GateKind.MNOT:
        # Divider tap through the buffer; an insulating device counts as R_OFF_CAP.
        r12, v_rail, g_off = gate.r1 + gate.r2, gate.v_rail, 1.0 / R_OFF_CAP
        volts = []
        for i in currents:
            g = i / v_ref
            r_m = R_OFF_CAP if g <= g_off else 1.0 / g
            volts.append(v_rail * r_m / (r12 + r_m))
    else:
        # Ohmic readout at the drive, then the B conversion to a node voltage.
        volts = [i / v_ref * v * b for i, v in zip(currents, drive)]
    return array("d", volts), array("d", currents), x1s, x2s


def simulate(
    graph: CircuitGraph,
    stimulus: Stimulus,
    cfg: SimConfig | None = None,
    params: DeviceParams | None = None,
    gates: dict[int, GateInstance] | None = None,
) -> Trace:
    """Run the circuit under the stimulus and record a full trace.

    Identical arguments produce bit-identical traces.  Pass ``gates`` to
    continue from previously trained devices; by default every device
    starts fresh.  Either way each gate's final state is left in its
    instance.
    """
    cfg = cfg or SimConfig()
    check_drives(graph, stimulus)
    if stimulus.horizon_ms < cfg.horizon:
        raise CoverageError(
            f"stimulus covers {stimulus.horizon_ms} ms but the run needs {cfg.horizon} ms")
    nodes = {node.id: node for node in graph.nodes}
    names = ["t_ms", *graph.inputs, *graph.probes, *(f"g{i}" for i in nodes)]
    names += [f"g{i}{part}" for i in nodes for part in ("_I", "_x1", "_x2")]
    # ``parse_circuit`` keeps input and probe names off t_ms and the gate columns, so the names are distinct.
    columns: dict[str, array] = dict.fromkeys(names)
    if gates is None:
        gates = build_gates(graph, params)
    else:
        _check_gates(graph, gates)

    dt, steps = cfg.dt, cfg.steps
    starts = [k * dt for k in range(steps)]
    for name in graph.inputs:
        columns[name] = array("d", _sample(stimulus, name, starts))
    del starts
    for gate_id in topological_order(graph):
        sources = [columns[src if isinstance(src, str) else f"g{src}"] for src in nodes[gate_id].sources]
        g = f"g{gate_id}"
        columns[g], columns[g + "_I"], columns[g + "_x1"], columns[g + "_x2"] = _run_gate(
            gates[gate_id], sources, dt, cfg.b)
    for name, gate_id in graph.outputs:
        columns[name] = columns[f"g{gate_id}"]
    # Made last, once the gates' temporaries are freed, so it does not raise the peak memory.
    columns["t_ms"] = array("d", [k * dt + dt for k in range(steps)])
    return Trace(cfg, columns)


def classify(v: float, cfg: SimConfig):
    """Binary reading of a voltage: 1 above the high threshold, 0 below the low one, else ``AMBIGUOUS``."""
    if v > cfg.threshold_high:
        return 1
    if v < cfg.threshold_low:
        return 0
    return AMBIGUOUS


def read_binary(trace: Trace, net: str, t_ms: float, cfg: SimConfig | None = None):
    """Binary readout of a net at time t: 0, 1, or ``AMBIGUOUS``."""
    return classify(trace.voltage_at(net, t_ms), cfg or trace.config)


def settle_time(
    trace: Trace,
    net: str,
    level,
    cfg: SimConfig | None = None,
    onset_ms: float = 100.0,
) -> float | None:
    """Earliest time from which the net reads ``level`` through the horizon.

    Scans records at or after the input onset; returns None if the net
    never reaches and holds the level.
    """
    cfg = cfg or trace.config
    column = trace.column(net)
    settled: float | None = None
    for k, t in enumerate(trace.times):
        if t < onset_ms:
            continue
        if classify(column[k], cfg) == level:
            if settled is None:
                settled = t
        else:
            settled = None
    return settled


def write_trace(trace: Trace, csv_path: str, fixture_texts: dict[str, str] | None = None,
                params: DeviceParams | None = None) -> None:
    """Write the CSV trace, streamed line by line, and its JSON metadata sidecar."""
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(trace.csv_lines())
    with open(csv_path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(trace.metadata(fixture_texts, params), fh, indent=2, sort_keys=True)
        fh.write("\n")
