"""One unit of benchmark work, run in its own process.

Usage::

    python benchmarks/child.py [--trace LEVEL --spans PATH] [--memory PATH] TASK ARGS...

Tasks:

``cli ARGS...``
    ``memlogic.cli.main(ARGS)``, the same work as ``memlogic ARGS``.
``retention CIRCUIT STIMULUS SCHEDULE OUT``
    The retention runner: simulate at dt = 1 ms without writing a CSV,
    then read SUM and COUT and their settle times at the end of every
    hold listed in the SCHEDULE JSON; write the readout list to OUT.
``patterns OUT``
    ``harness.run_pattern`` on all eight adder patterns, plus the settle
    time of each probe to its expected level; write the results to OUT.

``--trace LEVEL`` (readout, coarse or fine) wraps memlogic's layer
functions with a :class:`tracer.Tracer` and writes its spans to PATH.
``--memory PATH`` runs tracemalloc during every ``simulate`` call and
writes its peak, the trace size and the share of steps that left
every CSV value but the time unchanged.  Never combine it with timing.
"""

from __future__ import annotations

import contextlib
import json
import sys

import memlogic.cli
from memlogic import engine, harness, netlist

from inputs import ADDER_PATTERNS
from tracer import Tracer


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def retention(circuit: str, stimulus: str, schedule: str, out: str) -> int:
    graph = netlist.parse_circuit(_read(circuit))
    stim = netlist.parse_stimulus(_read(stimulus))
    trace = engine.simulate(graph, stim, engine.SimConfig(dt=1.0, horizon=stim.horizon_ms))
    readouts = []
    for slot in json.loads(_read(schedule)):
        row = [slot["end"]]
        for probe in ("SUM", "COUT"):
            level = engine.read_binary(trace, probe, slot["end"])
            row += [level, engine.settle_time(trace, probe, level, onset_ms=slot["hold_start"])]
        readouts.append(row)
    _write_json(out, readouts)
    return 0


def patterns(out: str) -> int:
    results = []
    for bits in ADDER_PATTERNS:
        trace, verdicts = harness.run_pattern(*bits)
        s, c = harness.adder_truth(*bits)
        results.append({
            "pattern": "".join(map(str, bits)),
            "passed": sum(v.passed for v in verdicts),
            "checks": len(verdicts),
            "settle_ms": {"SUM": engine.settle_time(trace, "SUM", s),
                          "COUT": engine.settle_time(trace, "COUT", c)},
        })
    _write_json(out, results)
    return 0


def _skippable_steps(trace) -> int:
    """Steps whose CSV row, apart from the time, equals the previous row."""
    rows = [line.split(",", 1)[1] for line in trace.to_csv().splitlines()[1:]]
    return sum(rows[k] == rows[k - 1] for k in range(1, len(rows)))


@contextlib.contextmanager
def _measure_memory(path: str):
    import tracemalloc

    runs, traces = [], []
    original = engine.simulate

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            trace = original(*args, **kwargs)
            runs.append({"peak_bytes": tracemalloc.get_traced_memory()[1]})
        finally:
            tracemalloc.stop()
        traces.append(trace)
        return trace

    memlogic.cli.simulate = engine.simulate = measured
    yield
    for run, trace in zip(runs, traces):
        run.update(records=len(trace.times), cells=len(trace.times) * len(trace.csv_columns()),
                   skippable=_skippable_steps(trace))
    _write_json(path, runs)


def main(argv: list[str]) -> int:
    tracer = spans = memory = None
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--trace":
            tracer = Tracer()
            tracer.install(value)
        elif flag == "--spans":
            spans = value
        elif flag == "--memory":
            memory = value
        else:
            raise SystemExit(f"unknown option {flag}")
    task, args = argv[0], argv[1:]
    run = {"cli": lambda: memlogic.cli.main(args),
           "retention": lambda: retention(*args),
           "patterns": lambda: patterns(*args)}[task]
    with _measure_memory(memory) if memory else contextlib.nullcontext():
        code = run()
    if tracer is not None:
        tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
