"""memlogic benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage::

    python3 benchmarks/bench.py [--workload adder8|fine_dt|retention|ripple32|all]
                                [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths resolve against the checkout that holds this
file, and the program is imported from its ``src/`` directory.  Inputs,
outputs and ``BENCH_<workload>_seed<N>_trace<T>.json`` result files go to
``benchmarks/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  See ``benchmarks/README.md`` for what each metric means.

All load comes from this process and at most one child process at a
time, with no threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
from tracer import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = str(BENCH / "child.py")
ADDER = SRC / "memlogic" / "fixtures" / "adder.mlc"
PINS = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))

WORKLOADS = ("adder8", "fine_dt", "retention", "ripple32")
DEFAULT_SEED = 1
SETUP_SAMPLES = 10
SIDE_REPEATS = 5
READ_LOW, READ_HIGH = 0.25, 0.35  # the engine's default readout dead band

# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def classify(volts: float):
    if volts > READ_HIGH:
        return 1
    if volts < READ_LOW:
        return 0
    return "ambiguous"


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    log: str


# Children see none of the caller's PYTHON* settings, so that, for example,
# PYTHONDONTWRITEBYTECODE cannot make every call recompile memlogic, and the
# package is imported from this checkout.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")} | {"PYTHONPATH": str(SRC)}


def spawn(args: list[str], log: Path) -> Proc:
    """Run the interpreter on ``args`` and wait for it; stdout and stderr go to ``log``.

    This uses fork and exec, not ``posix_spawn``: a vfork-style spawn
    shares this process's memory map until exec, so the child's
    ``ru_maxrss`` would include this process's own peak.
    """
    argv = [sys.executable, *args]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            os.execve(argv[0], argv, CHILD_ENV)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Proc(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024,
                log.read_text(encoding="utf-8", errors="replace"))


@dataclass
class Op:
    """One CLI invocation or retention run of a workload."""

    label: str
    task: list[str]  # child.py task; for CLI ops, ``cli`` followed by the memlogic arguments
    circuit: Path
    stimulus: Path
    out: Path
    records: int
    gates: int
    pin: str | None
    kind: str  # "csv" or "readouts"
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> list[str]:
        """The untraced command: the public CLI, or the benchmark's retention runner."""
        if self.task[0] == "cli":
            return ["-m", "memlogic.cli", *self.task[1:]]
        return [CHILD, *self.task]


@dataclass
class Workload:
    name: str
    work: Path
    ops: list[Op]
    segments: int
    stats: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    checked: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL {self.name}: {message}", file=sys.stderr)

    @property
    def gate_steps(self) -> int:
        return sum(op.records * op.gates for op in self.ops)


def _cli_op(label: str, circuit: Path, stimulus: Path, out: Path, dt: str, records: int,
            gates: int, pin: str | None, expect: dict) -> Op:
    task = ["cli", "run", "--circuit", str(circuit), "--stimulus", str(stimulus), "--out", str(out), "--dt", dt]
    return Op(label, task, circuit, stimulus, out, records, gates, pin, "csv", expect)


def _segments(text: str) -> int:
    return text.count("..")


def build(name: str, seed: int) -> Workload:
    """Write the workload's inputs for a seed and list its operations."""
    work = OUT / f"{name}_seed{seed}"
    adder_text = ADDER.read_text(encoding="utf-8")
    ops, segments = [], 0
    if name == "adder8":
        for bits in inputs.adder_patterns(seed):
            tag = "".join(map(str, bits))
            text = inputs.pattern_stimulus(bits)
            segments += _segments(text)
            stim = inputs.write_text(work / f"pattern_{tag}.mls", text)
            total = sum(bits)
            ops.append(_cli_op(tag, ADDER, stim, work / f"adder_{tag}.csv", "1", 400, 12,
                               PINS["csv"][f"adder8/{tag}"], {"SUM": total & 1, "COUT": total >> 1}))
    elif name == "fine_dt":
        text = inputs.pattern_stimulus((1, 0, 1))
        segments = _segments(text)
        stim = inputs.write_text(work / "pattern_101.mls", text)
        ops.append(_cli_op("101", ADDER, stim, work / "fine_dt.csv", "0.01", 40000, 12,
                           PINS["csv"]["fine_dt/101"], {}))
    elif name == "retention":
        slots = inputs.retention_schedule(seed)
        text = inputs.retention_stimulus(slots)
        segments = _segments(text)
        stim = inputs.write_text(work / "retention.mls", text)
        schedule = inputs.write_text(work / "holds.json", json.dumps(
            [{"hold_start": s["hold_start"], "end": s["end"]} for s in slots]))
        task = ["retention", str(ADDER), str(stim), str(schedule), str(work / "readouts.json")]
        ops.append(Op("holds", task, ADDER, stim, work / "readouts.json", slots[-1]["end"], 12,
                      PINS["readouts"].get(f"retention/seed{seed}"), "readouts", {"holds": len(slots)}))
    elif name == "ripple32":
        circuit = inputs.write_text(work / "ripple32.mlc", inputs.ripple_circuit(adder_text))
        a, b, cin = inputs.ripple_operands(seed)
        text = inputs.ripple_stimulus(a, b, cin)
        segments = _segments(text)
        stim = inputs.write_text(work / "ripple32.mls", text)
        gates = circuit.read_text(encoding="utf-8").count("\ngate ")
        ops.append(_cli_op("sum", circuit, stim, work / "ripple32.csv", "1", 400, gates,
                           PINS["csv"].get(f"ripple32/seed{seed}"),
                           {"operands": [a, b, cin], "truth": inputs.ripple_expected(a, b, cin)}))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, work, ops, segments)


# --- output checks ----------------------------------------------------------

def _scan_csv(path: Path) -> tuple[str, int, list[str], list[str]]:
    """sha256, row count, header and last row of a CSV, read in blocks.

    The whole file is never held in memory, which keeps this process
    small: a forked child's peak RSS counts the pages it inherits.
    """
    digest, newlines, head, tail = hashlib.sha256(), 0, b"", b""
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
            newlines += block.count(b"\n")
            if not head:
                head = block
            tail = (tail + block)[-(1 << 16):]
    header = head.split(b"\n", 1)[0].decode("ascii").split(",")
    last = tail.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode("ascii").split(",")
    return digest.hexdigest(), newlines - 1, header, last


def _check_csv(wl: Workload, op: Op) -> list[str]:
    errors = []
    meta_path = Path(str(op.out) + ".meta.json")
    if not meta_path.is_file():
        return ["metadata sidecar missing"]
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    _, rows, header, last = _scan_csv(op.out)
    fixtures = {"circuit": sha256(op.circuit.read_bytes()), "stimulus": sha256(op.stimulus.read_bytes())}
    if meta.get("records") != op.records or rows != op.records:
        errors.append(f"expected {op.records} records, sidecar says {meta.get('records')}, CSV has {rows}")
    if meta.get("columns") != header:
        errors.append("sidecar columns differ from the CSV header")
    if meta.get("fixtures") != fixtures:
        errors.append("sidecar fixture hashes differ from the input files")
    final = dict(zip(header, last))
    stats = wl.stats.setdefault(op.label, {})
    if wl.name == "ripple32":
        counts = {"correct": 0, "wrong": 0, "ambiguous": 0}
        for probe, level in op.expect["truth"].items():
            got = classify(float(final[probe]))
            counts["ambiguous" if got == "ambiguous" else "correct" if got == level else "wrong"] += 1
        a, b, cin = op.expect["operands"]
        stats["truth_table_readout"] = {"operands": f"{a:#010x} + {b:#010x} + {cin}", **counts}
        return errors
    volts = {probe: final[probe] for probe in ("SUM", "COUT")}
    stats["volts_400ms"] = volts
    pinned = PINS["probe_volts"].get(f"{wl.name}/{op.label}")
    if pinned is not None and pinned != volts:
        errors.append(f"probe voltages at 400 ms {volts} differ from the pinned {pinned}")
    for probe, level in op.expect.items():
        got = classify(float(final[probe]))
        stats.setdefault("verdicts", {})[probe] = got
        if got != level:
            errors.append(f"{probe}@400ms reads {got}, truth table says {level}")
    return errors


def _check_readouts(wl: Workload, op: Op) -> list[str]:
    readouts = json.loads(op.out.read_text(encoding="utf-8"))
    if len(readouts) != op.expect["holds"]:
        return [f"expected {op.expect['holds']} readouts, got {len(readouts)}"]
    levels = [row[1] for row in readouts] + [row[3] for row in readouts]
    if any(level not in (0, 1, "ambiguous") for level in levels):
        return ["readout outside {0, 1, ambiguous}"]
    wl.stats[op.label] = {
        probe: {str(level): [row[col] for row in readouts].count(level) for level in (0, 1, "ambiguous")}
        for probe, col in (("SUM", 1), ("COUT", 3))}
    return []


def check(wl: Workload, op: Op, proc: Proc) -> None:
    """Count one operation and check its exit code and outputs."""
    wl.attempted += 1
    if proc.code != 0:
        wl.fail(f"{op.label}: exit code {proc.code}: {proc.log.strip()[-500:]}")
        return
    if not op.out.is_file():
        wl.fail(f"{op.label}: output {op.out.name} missing")
        return
    digest = _scan_csv(op.out)[0] if op.kind == "csv" else sha256(op.out.read_bytes())
    seen = wl.digests.setdefault(op.label, digest)
    if op.pin is not None and digest != op.pin:
        wl.fail(f"{op.label}: output sha256 {digest} differs from the pinned {op.pin}")
    elif digest != seen:
        wl.fail(f"{op.label}: output changed between runs of the same input")
    elif digest not in wl.checked:
        errors = (_check_csv if op.kind == "csv" else _check_readouts)(wl, op)
        for error in errors:
            wl.fail(f"{op.label}: {error}")
        if not errors:
            wl.checked.add(digest)


# --- running ----------------------------------------------------------------

def run_side(wl: Workload, args: list[str], tag: str) -> Proc:
    """A run that is not one of the workload's operations; it must exit 0."""
    wl.attempted += 1
    proc = spawn(args, wl.work / f"{tag}.log")
    if proc.code != 0:
        wl.fail(f"{tag}: exit code {proc.code}: {proc.log.strip()[-500:]}")
    return proc


def validate(wl: Workload) -> bool:
    """``memlogic check`` on every input pair before anything is timed.

    The calls go through ``child.py``, so they also compile the bytecode of
    every module a timed run imports: they are the untimed warm-up.
    """
    ok = True
    for op in wl.ops:
        proc = run_side(wl, [CHILD, "cli", "check", "--circuit", str(op.circuit),
                             "--stimulus", str(op.stimulus)], f"check_{op.label}")
        ok = ok and proc.code == 0 and "stimulus OK" in proc.log
    return ok


def iterate(wl: Workload, flags: Callable[[int], list[str]] | None = None,
            tag: str = "run") -> tuple[float, float]:
    """One pass over the workload's operations: summed wall time and peak child RSS.

    ``flags(i)`` gives ``child.py`` options for operation ``i``; with flags,
    each operation runs through ``child.py`` instead of its untraced command.
    """
    wall, rss = 0.0, 0.0
    for i, op in enumerate(wl.ops):
        args = op.command if flags is None else [CHILD, *flags(i), *op.task]
        proc = spawn(args, wl.work / f"{tag}_{op.label}.log")
        wall += proc.wall_s
        rss = max(rss, proc.rss_mb)
        check(wl, op, proc)
    return wall, rss


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99, 95, 90, 75, 50):
        if len(samples) * (100 - q) / 100 >= 10:
            return f"p{q} {statistics.quantiles(samples, n=100, method='inclusive')[q - 1]:.6g}"
    return "no percentile has 10 samples beyond it"


def spread(samples: list[float]) -> str:
    if len(samples) < 2:
        return "single sample"
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return f"IQR {q1:.6g}..{q3:.6g}"


def measure_e2e(wl: Workload, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics, their notes, and the raw samples."""
    first = wl.ops[0]
    check_args = ["-m", "memlogic.cli", "check", "--circuit", str(first.circuit), "--stimulus", str(first.stimulus)]
    setup, walls, rss = [], [], []
    per_iteration = 0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, peak = iterate(wl)
        walls.append(wall)
        rss.append(peak)
        # Set-up calls follow every iteration, about SETUP_SAMPLES in all, so
        # that their median sees the same machine as wall_s does.
        per_iteration = per_iteration or min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * wall / seconds))
        setup += [run_side(wl, check_args, "setup").wall_s for _ in range(per_iteration)]
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "gate_steps_per_s": wl.gate_steps / wall_s,
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "setup_s": f"median of {len(setup)} `memlogic check` calls, {spread(setup)}",
        "wall_s": f"median of {len(walls)} iterations of {len(wl.ops)} op(s), {spread(walls)}, {tail(walls)}",
        "gate_steps_per_s": f"{wl.gate_steps} simulated gate-steps per iteration / wall_s",
        "peak_rss_mb": f"largest child per iteration, median of {len(rss)}",
    }
    return metrics, notes, {"setup_s": setup, "wall_s": walls, "peak_rss_mb": rss}


def fresh(paths: list[Path]) -> list[Path]:
    """Remove files a child is about to write, so a failed child leaves none behind."""
    for path in paths:
        path.unlink(missing_ok=True)
    return paths


def load(path: Path, default):
    """JSON written by a child, or ``default`` if the child failed before writing it."""
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else default


def measure_layers(wl: Workload, seconds: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics, their notes, and the spans of the first round."""
    rounds = {"untraced": [], "coarse": [], "fine": []}
    dumps = {"coarse": [], "fine": []}
    deadline = time.perf_counter() + seconds
    while not rounds["fine"] or time.perf_counter() < deadline:
        rounds["untraced"].append(iterate(wl)[0])
        for level in ("coarse", "fine"):
            n = len(rounds[level])
            files = fresh([wl.work / f"spans_{level}{n}_{op.label}.json" for op in wl.ops])
            rounds[level].append(iterate(wl, lambda i: ["--trace", level, "--spans", str(files[i])], level)[0])
            dumps[level].append([load(p, {"spans": [], "calls": []}) for p in files])

    memory = fresh([wl.work / f"memory_{op.label}.json" for op in wl.ops])
    iterate(wl, lambda i: ["--memory", str(memory[i])], "memory")
    mem = [run for p in memory for run in load(p, [])] or [{"peak_bytes": 0, "records": 1, "cells": 0, "skippable": 0}]

    side = []
    if wl.name == "adder8":
        spans_file, out = fresh([wl.work / "spans_patterns.json", wl.work / "patterns.json"])
        if run_side(wl, [CHILD, "--trace", "readout", "--spans", str(spans_file), "patterns", str(out)],
                    "patterns").code == 0:
            side = [json.loads(spans_file.read_text(encoding="utf-8"))]
            wl.stats["harness"] = json.loads(out.read_text(encoding="utf-8"))
    interp = [run_side(wl, ["-c", "pass"], "interp").wall_s for _ in range(SIDE_REPEATS)]
    imported = [run_side(wl, ["-c", "import memlogic.cli"], "import").wall_s for _ in range(SIDE_REPEATS)]

    csv_cells = csv_bytes = 0
    for op in wl.ops:
        if op.kind == "csv" and op.out.is_file():
            meta = json.loads(Path(str(op.out) + ".meta.json").read_text(encoding="utf-8"))
            csv_cells += meta["records"] * len(meta["columns"])
            csv_bytes += op.out.stat().st_size

    def per_round(coarse_dumps: list[dict], fine_dumps: list[dict]) -> dict:
        c, f = summarize(coarse_dumps + side), summarize(fine_dumps)

        def get(summary: dict, name: str, key: str = "ns") -> float:
            return summary.get(name, {}).get(key, 0)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        reads, settles = get(c, "engine.read_binary", "count"), get(c, "engine.settle_time", "count")
        return {
            "netlist.parse_circuit_s": get(c, "netlist.parse_circuit") / 1e9,
            "netlist.parse_stimulus_s": get(c, "netlist.parse_stimulus") / 1e9,
            "netlist.topological_order_s": get(c, "netlist.topological_order") / 1e9,
            "netlist.value_at_calls": get(f, "netlist.value_at", "count"),
            "netlist.value_at_ns": ratio(get(f, "netlist.value_at"), get(f, "netlist.value_at", "count")),
            "gates.step_calls": get(f, "gates.step", "count"),
            "gates.step_ns": ratio(get(f, "gates.step"), get(f, "gates.step", "count")),
            "device.step_calls": get(f, "device.step", "count"),
            "device.step_ns": ratio(get(f, "device.step"), get(f, "device.step", "count")),
            "device.model_current_calls": get(f, "device.model_current", "count"),
            "device.hold_frac": ratio(get(f, "device.step", "held"), get(f, "device.step", "count")),
            "engine.simulate_s": get(c, "engine.simulate") / 1e9,
            "engine.ns_per_gate_step": ratio(get(c, "engine.simulate"), wl.gate_steps),
            "engine.loop_self_s": get(f, "engine.simulate", "self_ns") / 1e9,
            "engine.to_csv_s": get(c, "engine.to_csv") / 1e9,
            "engine.csv_ns_per_cell": ratio(get(c, "engine.to_csv"), csv_cells),
            "engine.write_trace_s": get(c, "engine.write_trace") / 1e9,
            "engine.metadata_s": get(c, "engine.metadata") / 1e9,
            "engine.readout_calls": reads + settles,
            "engine.read_binary_us": ratio(get(c, "engine.read_binary"), reads) / 1e3,
            "engine.settle_time_ms": ratio(get(c, "engine.settle_time"), settles) / 1e6,
            "harness.run_pattern_s": get(c, "harness.run_pattern") / 1e9,
        }

    per = [per_round(cd, fd) for cd, fd in zip(dumps["coarse"], dumps["fine"])]
    # Counts repeat exactly from round to round; times are medians over rounds.
    metrics = {name: per[0][name] if LAYER_UNITS[name] == "count" else statistics.median(r[name] for r in per)
               for name in per[0]}
    untraced = statistics.median(rounds["untraced"])
    metrics.update({
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(imported) - statistics.median(interp),
        "netlist.stimulus_segments": wl.segments,
        "engine.skippable_step_frac": sum(m["skippable"] for m in mem) / sum(m["records"] for m in mem),
        "engine.trace_cells": sum(m["cells"] for m in mem),
        "engine.trace_peak_mb": max(m["peak_bytes"] for m in mem) / 2**20,
        "engine.csv_bytes": csv_bytes,
        "harness.verdicts_passed": sum(r["passed"] for r in wl.stats.get("harness", ())),
        "trace.overhead_s": statistics.median(rounds["fine"]) - untraced,
        "trace.coarse_overhead_s": statistics.median(rounds["coarse"]) - untraced,
    })
    notes = {
        "trace.overhead_s": (f"fine-traced wall {statistics.median(rounds['fine']):.6g} s - untraced "
                             f"{untraced:.6g} s, medians of {len(rounds['fine'])} round(s)"),
        "harness.verdicts_passed": (f"of {sum(r['checks'] for r in wl.stats.get('harness', ()))} attempted"
                                    if wl.name == "adder8" else "harness not used by this workload"),
        "engine.loop_self_s": "self time of engine.simulate under fine tracing",
    }
    return metrics, notes, {"coarse": dumps["coarse"][0] + side, "fine": dumps["fine"][0]}


# --- reporting --------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else ():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
        return "unknown"
    return ref


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "memlogic").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def print_stats(wl: Workload) -> None:
    for label, stats in wl.stats.items():
        print(f"  simulated {wl.name}/{label}: {json.dumps(stats, sort_keys=True)}")
    if wl.name == "fine_dt" and "101" in wl.stats:
        coarse = PINS["probe_volts"]["adder8/101"]
        fine = wl.stats["101"]["volts_400ms"]
        for probe in ("SUM", "COUT"):
            print(f"  simulated dt-convergence {probe}@400ms pattern 101: {float(coarse[probe]):.4f} V at dt=1 ms, "
                  f"{float(fine[probe]):.4f} V at dt=0.01 ms (low threshold {READ_LOW} V)")


def run_workload(name: str, seed: int, seconds: float, traced: bool, env: dict) -> dict:
    wl = build(name, seed)
    if not validate(wl):
        raise SystemExit(f"{name}: generated inputs fail `memlogic check`; see {wl.work}")
    metrics, notes, detail = (measure_layers if traced else measure_e2e)(wl, seconds)
    units = LAYER_UNITS if traced else E2E_UNITS
    metrics = {m: metrics[m] for m in units}
    print(f"== {name} (seed {seed}, trace {int(traced)}): {len(wl.ops)} op(s), {wl.gate_steps} gate-steps "
          f"per iteration; host times unless marked simulated")
    for metric, value in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {name} {metric} = {value:.6g} {units[metric]}{note}")
    print(f"  {name} error_rate = {wl.failed}/{wl.attempted} = {wl.failed / wl.attempted:.4g} "
          f"(failed / attempted operations)")
    print_stats(wl)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": env,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "notes": notes,
        "attempted": wl.attempted, "failed": wl.failed,
        "digests": wl.digests,
        "simulated": wl.stats,
        "spans" if traced else "samples": detail,
    }
    (OUT / f"BENCH_{name}_seed{seed}_trace{int(traced)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="measuring time per workload")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "memlogic" / "cli.py").is_file():
        print(f"error: no memlogic sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print("accuracy: the repository holds no hardware reference data, so the device model is unvalidated "
          "and no error figure is given")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace), env) for name in names]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
