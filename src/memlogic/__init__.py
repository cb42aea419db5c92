"""memlogic: a deterministic simulator for logic built from memristive elements.

The package models a nonvolatile resistive switching element, the three
memorized gates built from it (MOR, MAND, MNOT), a line-oriented netlist
and stimulus format, a time-stepped circuit engine, and a harness that
ships a one-bit full adder as the reference circuit.
"""

from .device import (
    ConfigError,
    DeviceParams,
    MemristorState,
    model_current,
    new_state,
    step,
)
from .engine import (AMBIGUOUS, SimConfig, Trace, final_states, read_binary, settle_time, simulate,
                     simulate_windows, write_trace)
from .gates import R_OFF_CAP, GateInstance, GateKind
from .harness import (
    Verdict,
    adder_truth,
    build_full_adder,
    characterize_gate,
    make_pattern_stimulus,
    run_pattern,
)
from .netlist import (
    ArityError,
    CircuitGraph,
    CoverageError,
    CycleError,
    DanglingNetError,
    DuplicateError,
    GateNode,
    NetlistError,
    NetlistSyntaxError,
    OverlapError,
    Segment,
    Stimulus,
    UnknownTerminalError,
    parse_circuit,
    parse_stimulus,
    serialize_circuit,
    serialize_stimulus,
    topological_order,
)

__version__ = "0.1.0"

__all__ = [
    "AMBIGUOUS",
    "ArityError",
    "ConfigError",
    "CircuitGraph",
    "CoverageError",
    "CycleError",
    "DanglingNetError",
    "DeviceParams",
    "DuplicateError",
    "GateInstance",
    "GateKind",
    "GateNode",
    "MemristorState",
    "NetlistError",
    "NetlistSyntaxError",
    "OverlapError",
    "R_OFF_CAP",
    "Segment",
    "SimConfig",
    "Stimulus",
    "Trace",
    "UnknownTerminalError",
    "Verdict",
    "adder_truth",
    "build_full_adder",
    "characterize_gate",
    "final_states",
    "make_pattern_stimulus",
    "model_current",
    "new_state",
    "parse_circuit",
    "parse_stimulus",
    "read_binary",
    "run_pattern",
    "serialize_circuit",
    "serialize_stimulus",
    "settle_time",
    "simulate",
    "simulate_windows",
    "step",
    "topological_order",
    "write_trace",
]
