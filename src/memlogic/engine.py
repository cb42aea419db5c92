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

The engine goes through the run in consecutive windows of records: each
window samples its input columns straight from the stimulus segments, one
constant run of steps per segment, and each gate goes on from the state
the window before left it in.
:func:`simulate` is the one-window case; :func:`simulate_windows` yields
windows of ``_WINDOW`` records, so that every ``memlogic`` command holds
one or two of them at a time, whatever the horizon.  The netlist is
acyclic, so at step k a gate depends only on its drivers at step k and
on its own state; the engine therefore runs one gate at a time through
every step of a window, in topological order, with
:meth:`~memlogic.gates.GateInstance.run` reading its drivers' finished
columns.  Each value comes from the same float operations, in the same
order, as stepping the gate's device one step at a time with
:func:`~memlogic.gates.step` would give, and a held run
cut at a window edge steps its first step again from an unchanged state,
so the windows hold the full trace's bits.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import reduce
from itertools import accumulate, islice
from operator import attrgetter

from .gates import ConfigError, DeviceParams, GateInstance, MemristorState, _check_numbers, new_state
# ``model_current`` stays importable here because the benchmark tracer wraps ``memlogic.engine.model_current``.
from .gates import model_current  # noqa: F401
from .netlist import CircuitGraph, CoverageError, Stimulus, check_drives, topological_order

AMBIGUOUS = "ambiguous"
# Time at which the standard protocol applies the input pattern, after all-low initialisation.
ONSET_MS = 100.0
# Records per CSV block.  Each block rebuilds its row template, which for a wide table
# (ripple32: 1635 columns) costs more than it saves below about 256 rows.
_CSV_BLOCK = 256
# Bytes of the CSV file's write buffer, which batches records into writes.  A whole block of a wide table
# (ripple32: 25 kB a record, 6.4 MB a block) would raise peak memory; a far smaller buffer costs more write calls.
_CSV_CHUNK = 1 << 16
# Records per window of ``simulate_windows``, in whole CSV blocks.  ``memlogic run`` at dt = 0.01 ms peaks at
# 15.5 MB RSS with it, against 33.1 MB holding the whole trace; smaller windows save little and cost more windows.
_WINDOW = 8 * _CSV_BLOCK


class SimConfig(namedtuple("SimConfig", "dt horizon b v_logic1 v_logic0 threshold_low threshold_high",
                           defaults=(1.0, 400.0, 1.5e6, 0.6, 0.1, 0.25, 0.35))):
    """Timestep, horizon and signal-level conventions for one run.

    ``threshold_low``/``threshold_high`` bound the binary readout band:
    voltages above the high threshold read 1, below the low threshold read
    0, and anything between is reported as ambiguous.  The defaults put
    the canonical 0.3 V ambiguity marker inside the band while staying
    reachable by second-level gates within the standard 400 ms protocol.
    Every field must be a finite ``int`` or ``float``, of exactly that
    type, and ``horizon / dt`` at most ``sys.maxsize``.
    """

    __slots__ = ()
    # ``_replace`` builds through ``_make``, so both go through the checks below.
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_numbers(self)
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.horizon < self.dt:
            raise ConfigError("horizon must cover at least one step")
        if not self.horizon / self.dt <= sys.maxsize:  # so ``steps`` is an int that ``range`` can hold
            raise ConfigError(f"horizon / dt is {self.horizon / self.dt:g} steps, more than {sys.maxsize}")
        if self.b <= 0:
            raise ConfigError("current-to-voltage constant must be positive")
        if not self.threshold_low < self.threshold_high:
            raise ConfigError("threshold_low must lie below threshold_high")
        return self

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


class Trace(namedtuple("Trace", "config columns params", defaults=(None,))):
    """Per-timestep record of every node voltage and device state, as one table.

    ``columns`` maps each CSV column name to its series, in CSV order:
    ``t_ms``, the input terminals, the probes, ``g<ID>`` per gate, then
    ``g<ID>_I``, ``g<ID>_x1`` and ``g<ID>_x2`` per gate.  Construction packs each
    series into an ``array("d")``, 8 bytes a value, and keeps one that is already
    packed, so a probe's column stays its gate's and a twin's its first twin's.
    A series that is not all numbers, or not as long as the first, is a ``ValueError``.
    ``params`` is the ``DeviceParams`` the run used, which ``simulate`` sets; a
    hand-built trace has none, and its sidecar records ``null``.  :meth:`csv_chunks`
    is the one CSV renderer: UTF-8 bytes, one record an item.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, config: SimConfig, columns: dict[str, array], params: DeviceParams | None = None):
        packed = {}
        for name, series in columns.items():
            try:
                packed[name] = series if isinstance(series, array) and series.typecode == "d" else array("d", series)
            except TypeError as exc:
                raise ValueError(f"column {name!r} is not a series of numbers: {exc}") from None
            first = next(iter(packed))
            if len(packed[name]) != len(packed[first]):
                raise ValueError(f"column {name!r} has {len(packed[name])} records "
                                 f"but column {first!r} has {len(packed[first])}")
        return super().__new__(cls, config, packed, params)

    @property
    def records(self) -> int:
        """The number of records: the length of the first column, or 0 with none."""
        return len(next(iter(self.columns.values()), ()))

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
        """The record at ``t_ms``, counted in steps from the first stamp, so that a window answers by its own."""
        times, dt = self.times, self.config.dt
        try:
            idx = round(t_ms / dt, 0) - round(times[0] / dt, 0) if times else -1
        except OverflowError:  # an int time past float range
            idx = -1
        if not 0 <= idx < len(times):  # a float count, so a NaN or infinite time is outside too
            raise ValueError(f"t={t_ms} ms is outside the recorded horizon")
        return int(idx)

    def voltage_at(self, net: str, t_ms: float) -> float:
        return self.column(net)[self.index_at(t_ms)]

    def csv_columns(self) -> list[str]:
        return list(self.columns)

    def csv_chunks(self):
        """Yield the CSV as UTF-8 bytes: the header, then each record as its own item.

        Values are in 9-significant-digit scientific notation; ``b"%.8e"``
        renders a float as the ASCII of ``f"{v:.8e}"``.  Records are rendered
        in blocks of ``_CSV_BLOCK``, and no block's text is joined: the
        writer's file buffer batches the records.  A column whose
        doubles are bit-identical across a block has its text baked into the
        block's row template.  A varying block that two or more columns hold is
        formatted once, with one ``%``, and split into cells that each of them
        takes as ``%b``; the other columns are formatted per record.  This is
        exact: the compares are on bytes, so ``-0.0``, NaN payloads and ``inf``
        never merge with other values; baked and shared text is the same ``%``
        conversion of the same double; and ``"%.8e"`` text holds no ``%`` or ``,``.
        """
        yield (",".join(self.columns) + "\n").encode()
        # Views, not copies: a copy of every varying column of a 1635-column block raises peak memory.
        columns = [memoryview(c) for c in self.columns.values()]
        records = self.records
        for a in range(0, records, _CSV_BLOCK):
            b = min(a + _CSV_BLOCK, records)
            # Each column's lead: None if its block holds one value, else the first column whose block has its bytes.
            leads, blocks = {}, (c[a:b].tobytes() for c in columns)
            lead = [None if k == k[:8] * (b - a) else leads.setdefault(k, i) for i, k in enumerate(blocks)]
            del leads
            varies = [(i, k) for i, k in enumerate(lead) if k is not None]
            shared = {k for i, k in varies if i != k}  # the leads of blocks that two or more columns hold
            template = b",".join(b"%.8e" % c[a] if k is None else b"%b" if k in shared else b"%.8e"
                                 for k, c in zip(lead, columns)) + b"\n"
            # A quarter block at a time, each shared block formatted with one ``%`` and split into its cells: made
            # per whole block, its cells raised ripple32's child peak RSS from 19.99 to 20.37 MB.
            for s in range(a, b, _CSV_BLOCK // 4):
                e = min(s + _CSV_BLOCK // 4, b)
                texts = {j: (b",".join([b"%.8e"] * (e - s)) % tuple(columns[j][s:e])).split(b",") for j in shared}
                varying = [texts.get(k) or columns[i][s:e] for i, k in varies]
                # One ``%`` per record, yielded as it is made.  zip() of no columns gives no rows, so a block with
                # every column constant repeats its template.
                yield from map(template.__mod__, zip(*varying)) if varying else [template] * (e - s)

    def to_csv(self) -> str:
        """Render the trace as CSV text, values in 9-significant-digit scientific notation."""
        return b"".join(self.csv_chunks()).decode()

    def metadata(self, fixture_texts: dict[str, str] | None = None) -> dict:
        """JSON-serializable sidecar: package version, config and device params echo (null if not set),
        columns, fixture hashes."""
        try:  # CPython's own sha256 module (``_sha2`` from 3.12), so that a run does not map ``hashlib``'s OpenSSL
            from _sha256 import sha256
        except ImportError:
            try:
                from _sha2 import sha256
            except ImportError:
                from hashlib import sha256

        from . import __version__

        fixtures = {name: sha256(text.encode()).hexdigest() for name, text in (fixture_texts or {}).items()}
        params = self.params._asdict() if self.params is not None else None
        return {"version": __version__, "config": self.config._asdict(), "params": params, "fixtures": fixtures,
                "records": self.records, "columns": self.csv_columns()}


def _sample(segs: tuple, dt: float, a: int, e: int) -> tuple[array, list[tuple[int, int]]]:
    """A terminal's column over the steps ``k`` of time ``k * dt`` from ``a`` to ``e - 1``, and its runs counted from
    ``a``: ``(lo, hi)``, in order, tiling every step.

    From the segment holding step ``a``, each segment fills the steps from the first unfilled one up to its end; a fill
    that is not empty is a run.  ``_windows`` has checked that the last segment holds the run's last step.
    ``bisect_left`` reads the step times from ``range(e)``, so no list of them is built.
    """
    column, runs, lo = array("d"), [], a
    i = bisect_right(segs, a * dt, key=attrgetter("end"))
    while lo < e:
        hi = bisect_left(range(e), segs[i].end, lo, key=lambda k: k * dt)
        if lo < hi:
            column += array("d", [segs[i].volts]) * (hi - lo)
            runs.append((lo - a, hi - a))
        lo, i = hi, i + 1
    return column, runs


def _common_runs(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The step ranges inside a run of each of two ascending, disjoint run lists."""
    spans = sorted(a + b)
    # The furthest end before each run: a run that starts before it overlaps the other list's run ending there.
    reach = accumulate((hi for _, hi in spans), max, initial=0)
    return [(lo, min(hi, r)) for (lo, hi), r in zip(spans, reach) if lo < r]


def _windows(graph: CircuitGraph, stimulus: Stimulus, cfg: SimConfig, params: DeviceParams | None,
             states: dict[int, MemristorState] | None, size: int):
    """Make every check of the run, then return an iterator over its traces of ``size`` records each.

    Each window starts every gate from the state the one before left it in; ``t_ms`` counts the run's steps.
    """
    params = params or DeviceParams()
    states = states or {}
    check_drives(graph, stimulus)
    if stimulus.horizon_ms < cfg.horizon:
        raise CoverageError(f"stimulus covers {stimulus.horizon_ms} ms but the run needs {cfg.horizon} ms")
    nodes = {node.id: node for node in graph.nodes}
    for gate_id in states:
        if gate_id not in nodes:
            raise ValueError(f"states has gate {gate_id!r}, which the netlist does not declare")
    gates = {i: GateInstance(node.kind, params) for i, node in nodes.items()}
    states = {i: states.get(i, new_state()) for i in nodes}
    names = ["t_ms", *graph.inputs, *graph.probes, *(f"g{i}" for i in nodes)]
    names += [f"g{i}{part}" for i in nodes for part in ("_I", "_x1", "_x2")]
    dt, steps = cfg.dt, cfg.steps
    # Every terminal ends at the horizon, and ``k * dt`` grows with ``k``, so each holds every step if this one does.
    if graph.inputs and (steps - 1) * dt >= stimulus.horizon_ms:
        raise CoverageError(f"stimulus has no segment covering the run's last step, at t={(steps - 1) * dt}")
    inputs = {name: segs for name, segs in stimulus.segments if name in graph.inputs}
    order = topological_order(graph)
    sources = {i: [src if isinstance(src, str) else f"g{src}" for src in nodes[i].sources] for i in order}

    def run():
        for a in range(0, steps, size):
            e = min(a + size, steps)
            # ``CircuitGraph`` keeps input and probe names off t_ms and the gate columns, so the names are distinct.
            # The last window's tables are dropped before any is filled, so one window is live at a time.
            columns, runs, twins = dict.fromkeys(names), {}, {}
            for name, segs in inputs.items():
                columns[name], runs[name] = _sample(segs, dt, a, e)
            for gate_id in order:
                nets, gate = sources[gate_id], gates[gate_id]
                series = [columns[net] for net in nets]
                # Twins (one kind, the same source series in order, bitwise-equal states) share the first one's
                # arrays and final state.
                key = (gate.kind, *map(id, series), *(float(x).hex() for x in states[gate_id]))
                if key not in twins:
                    twins[key] = gate.run(states[gate_id], series, dt, cfg.b,
                                          reduce(_common_runs, [runs[net] for net in nets]))
                g = f"g{gate_id}"
                columns[g], columns[g + "_I"], columns[g + "_x1"], columns[g + "_x2"], runs[g], states[gate_id] = \
                    twins[key]
            for name, gate_id in graph.outputs:
                columns[name] = columns[f"g{gate_id}"]
            # Made last, once the gates' temporaries are freed, so it does not raise the peak memory.
            columns["t_ms"] = array("d", [k * dt + dt for k in range(a, e)])
            yield Trace(cfg, columns, params)

    return run()


def simulate(
    graph: CircuitGraph,
    stimulus: Stimulus,
    cfg: SimConfig | None = None,
    params: DeviceParams | None = None,
    states: dict[int, MemristorState] | None = None,
) -> Trace:
    """Run the circuit under the stimulus and record a full trace: :func:`simulate_windows` in one window.

    Identical arguments produce bit-identical traces.  Every gate's device has ``params`` and starts from its
    entry in ``states``, or fresh if it has none; ``states=final_states(trace, graph)`` continues an earlier run.
    A ``states`` id that the netlist does not declare is a ``ValueError``.  The trace records ``params``.  This is
    the one path whose memory grows with the step count, as it holds the whole trace; no command calls it.
    """
    cfg = cfg or SimConfig()
    return next(_windows(graph, stimulus, cfg, params, states, cfg.steps))


def simulate_windows(graph: CircuitGraph, stimulus: Stimulus, cfg: SimConfig | None = None,
                     params: DeviceParams | None = None, states: dict[int, MemristorState] | None = None):
    """The trace of :func:`simulate` as an iterator of its consecutive windows of ``_WINDOW`` records.

    Every check of ``simulate`` is made before this returns.  Each window
    holds those records of the full trace, bit for bit, so ``write_trace``
    writes the same bytes from the windows with one of them live at a time.
    """
    return _windows(graph, stimulus, cfg or SimConfig(), params, states, _WINDOW)


def final_states(trace: Trace, graph: CircuitGraph) -> dict[int, MemristorState]:
    """Each gate's device state at the trace's last record, for ``simulate(..., states=)`` to continue from.
    A trace with no records is a ``ValueError``."""
    if not trace.records:
        raise ValueError("the trace has no records, so no gate has a final state")
    return {node.id: MemristorState(trace.column(f"g{node.id}_x1")[-1], trace.column(f"g{node.id}_x2")[-1])
            for node in graph.nodes}


def classify(v: float, cfg: SimConfig):
    """Binary reading of a voltage: 1 above the high threshold, 0 below the low one, else ``AMBIGUOUS``."""
    if v > cfg.threshold_high:
        return 1
    if v < cfg.threshold_low:
        return 0
    return AMBIGUOUS


def read_binary(trace: Trace, net: str, t_ms: float):
    """Binary readout of a net at time t by the trace's thresholds: 0, 1, or ``AMBIGUOUS``."""
    return classify(trace.voltage_at(net, t_ms), trace.config)


def settle_time(trace: Trace, net: str, level, onset_ms: float = ONSET_MS) -> float | None:
    """Earliest time from which the net reads ``level``, by the trace's thresholds, through the horizon.

    Walks back from the last record and stops at the first one before the
    input onset or not reading ``level``; returns None if the last record
    does not qualify.  Records are in ascending time, so this is the start
    of the final run of ``level`` at or after the onset.  Raises
    ``ValueError`` if the walk reaches the first record of a trace that
    starts after the run's first step, such as a later window: the run may
    have settled before it.  A ``level`` other than 0, 1 or ``AMBIGUOUS``, which no record reads, is a ``ValueError``,
    and so is a NaN ``onset_ms``, which every record would pass.
    """
    if level not in (0, 1, AMBIGUOUS):
        raise ValueError(f"level must be 0, 1 or {AMBIGUOUS!r}, which a net can read; got {level!r}")
    if onset_ms != onset_ms:  # NaN; compared, not ``math.isnan``, so an int past float range stays valid
        raise ValueError(f"onset_ms must be a number, not {onset_ms}")
    cfg = trace.config
    column, times = trace.column(net), trace.times
    settled: float | None = None
    for k in range(len(times) - 1, -1, -1):
        t = times[k]
        if t < onset_ms or classify(column[k], cfg) != level:
            break
        settled = t
    else:
        if times and int(round(times[0] / cfg.dt)) != 1:
            raise ValueError(f"{net} reads {level!r} from the trace's first record at {times[0]:g} ms, after the "
                             "run's first step, so its settle time may lie before the trace")
    return settled


def _json_text(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it, for a str, a finite float, an int, a
    bool, None, and lists and str-keyed dicts of them: what a sidecar or adder report holds.  Else a TypeError."""
    from _json import encode_basestring_ascii as quote
    if isinstance(value, str):
        return quote(value)
    if value is None or type(value) is bool:
        return {None: "null", True: "true", False: "false"}[value]
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    if not isinstance(value, (dict, list)):
        raise TypeError(f"no JSON text is written for the {type(value).__name__} {value!r}")
    inner, ends = indent + "  ", "{}" if isinstance(value, dict) else "[]"
    items = ([f"{quote(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())] if isinstance(value, dict)
             else [_json_text(v, inner) for v in value])
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _write_json(path: str, value) -> None:
    """Write ``value`` as ``json.dump(value, indent=2, sort_keys=True)`` does, then a newline.  The text is made
    first, so a value it cannot hold (a ``TypeError``) opens no file."""
    text = _json_text(value) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_trace(trace, csv_path: str, fixture_texts: dict[str, str] | None = None) -> None:
    """Write the CSV trace to a binary file through a ``_CSV_CHUNK``-byte buffer, and its JSON metadata sidecar.

    ``trace`` is a ``Trace`` or an iterator of consecutive ones, such as :func:`simulate_windows` returns,
    written under one header and counted in one sidecar; each is dropped once written.  An iterator of none is
    a ``ValueError``, and no file is opened.
    """
    windows = iter([trace] if isinstance(trace, Trace) else trace)
    window = next(windows, None)
    if window is None:
        raise ValueError("write_trace was given no trace to write")
    # The sidecar, taken before any file is opened, so a failure leaves none.  It imports neither ``hashlib``, which
    # maps OpenSSL's libcrypto, nor ``json``: without them adder8's peak RSS fell from 18.10 to 15.43 MB.
    meta = window.metadata(fixture_texts)
    meta["records"] = 0  # counted below, over every trace
    with open(csv_path, "wb", buffering=_CSV_CHUNK) as fh:
        fh.write(next(window.csv_chunks()))  # the header; each trace's own is skipped below
        while window is not None:
            fh.writelines(islice(window.csv_chunks(), 1, None))
            meta["records"] += window.records
            del window  # so that the next trace is made without this one live
            window = next(windows, None)
    _write_json(csv_path + ".meta.json", meta)
