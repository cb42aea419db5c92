"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and writes plain
``.mlc``/``.mls`` text, so the program under test only ever sees the
generated files.  Nothing here imports ``memlogic``: the inputs are made
from the shipped fixture text, and ``memlogic check`` validates them
before anything is timed.
"""

from __future__ import annotations

import random
from pathlib import Path

FORMAT_LINE = "format memlogic/1"
V_LOW, V_HIGH, V_ERASE = 0.1, 0.6, -0.2
ONSET_MS, HORIZON_MS = 100, 400
ADDER_INPUTS = ("A", "B", "CIN")

RIPPLE_BITS = 32

# Retention: a fixed number of equal slots, each a short pulse followed by a
# long all-low hold.  Fixing the slot count and length keeps the step count
# and the segment count per terminal (2 per slot) the same for every seed, so
# seeds change what is stored, not how much work a run does.
RETENTION_SLOTS = 90
RETENTION_SLOT_MS = 330
RETENTION_PULSE_MS = (5, 30)
RETENTION_ERASE_SHARE = 0.25


def protocol_stimulus(levels: dict[str, int]) -> str:
    """Standard protocol: 100 ms all-low, then each input at its bit until 400 ms."""
    lines = [FORMAT_LINE]
    for name, bit in levels.items():
        if bit:
            lines.append(f"{name}: 0..{ONSET_MS}={V_LOW:g}, {ONSET_MS}..{HORIZON_MS}={V_HIGH:g}")
        else:
            lines.append(f"{name}: 0..{HORIZON_MS}={V_LOW:g}")
    return "\n".join(lines) + "\n"


def pattern_stimulus(bits: tuple[int, int, int]) -> str:
    return protocol_stimulus(dict(zip(ADDER_INPUTS, bits)))


ADDER_PATTERNS = [((n >> 2) & 1, (n >> 1) & 1, n & 1) for n in range(8)]


def adder_patterns(seed: int) -> list[tuple[int, int, int]]:
    """All eight input patterns, in an order drawn from the seed."""
    patterns = list(ADDER_PATTERNS)
    random.Random(seed).shuffle(patterns)
    return patterns


def _adder_parts(adder_text: str) -> tuple[list[tuple[int, str, list[str]]], dict[str, int]]:
    """Gate lines and probe targets of the one-bit adder netlist."""
    gates, probes = [], {}
    for raw in adder_text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "gate":
            gates.append((int(tokens[1]), tokens[2], tokens[3:]))
        elif tokens[0] == "output":
            probes[tokens[1]] = int(tokens[2])
    return gates, probes


def ripple_circuit(adder_text: str, bits: int = RIPPLE_BITS) -> str:
    """An N-bit ripple-carry adder made by chaining copies of the one-bit adder.

    Stage i uses gate ids offset by i times the adder's largest id and
    inputs ``A<i>``/``B<i>``; its carry in is the previous stage's COUT
    gate, except stage 0, which takes the circuit input ``CIN``.  Probes
    are ``S<i>`` for every sum bit and ``COUT`` for the last carry.
    """
    gates, probes = _adder_parts(adder_text)
    span = max(gate_id for gate_id, _, _ in gates)
    lines = [FORMAT_LINE, "input CIN"]
    for i in range(bits):
        lines += [f"input A{i}", f"input B{i}"]
    for i in range(bits):
        rename = {"A": f"A{i}", "B": f"B{i}",
                  "CIN": "CIN" if i == 0 else str((i - 1) * span + probes["COUT"])}
        for gate_id, kind, sources in gates:
            srcs = [str(int(s) + i * span) if s.isdigit() else rename[s] for s in sources]
            lines.append(f"gate {gate_id + i * span} {kind} {' '.join(srcs)}")
    lines += [f"output S{i} {i * span + probes['SUM']}" for i in range(bits)]
    lines.append(f"output COUT {(bits - 1) * span + probes['COUT']}")
    return "\n".join(lines) + "\n"


def ripple_operands(seed: int, bits: int = RIPPLE_BITS) -> tuple[int, int, int]:
    """Seeded operands (a, b, carry in), with carries left as they fall."""
    rng = random.Random(seed)
    return rng.getrandbits(bits), rng.getrandbits(bits), rng.getrandbits(1)


def ripple_stimulus(a: int, b: int, cin: int, bits: int = RIPPLE_BITS) -> str:
    levels = {"CIN": cin}
    for i in range(bits):
        levels[f"A{i}"] = (a >> i) & 1
        levels[f"B{i}"] = (b >> i) & 1
    return protocol_stimulus(levels)


def ripple_expected(a: int, b: int, cin: int, bits: int = RIPPLE_BITS) -> dict[str, int]:
    """Truth-table value of every probe of the ripple adder."""
    total = a + b + cin
    expected = {f"S{i}": (total >> i) & 1 for i in range(bits)}
    expected["COUT"] = (total >> bits) & 1
    return expected


def retention_schedule(seed: int) -> list[dict]:
    """Seeded slots: each is a write or an erase pulse, then a hold.

    A write drives a non-empty random subset of the adder inputs to
    logic 1; an erase drives every input to the erase level.  The hold
    keeps every input at logic 0 until the slot ends.
    """
    rng = random.Random(seed)
    slots = []
    for k in range(RETENTION_SLOTS):
        start = k * RETENTION_SLOT_MS
        pulse = rng.randint(*RETENTION_PULSE_MS)
        if rng.random() < RETENTION_ERASE_SHARE:
            levels = {name: V_ERASE for name in ADDER_INPUTS}
        else:
            mask = rng.randint(1, 7)
            levels = {name: V_HIGH if mask >> (2 - j) & 1 else V_LOW
                      for j, name in enumerate(ADDER_INPUTS)}
        slots.append({"start": start, "hold_start": start + pulse,
                      "end": start + RETENTION_SLOT_MS, "levels": levels})
    return slots


def retention_stimulus(slots: list[dict]) -> str:
    lines = [FORMAT_LINE]
    for name in ADDER_INPUTS:
        pieces = []
        for slot in slots:
            pieces.append(f"{slot['start']}..{slot['hold_start']}={slot['levels'][name]:g}")
            pieces.append(f"{slot['hold_start']}..{slot['end']}={V_LOW:g}")
        lines.append(f"{name}: " + ", ".join(pieces))
    return "\n".join(lines) + "\n"


def write_text(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path
