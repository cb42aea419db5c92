"""Command-line front end.

Commands:
  run           simulate a netlist under a stimulus, write the trace CSV
  adder         run the bundled full adder on all 8 patterns and report verdicts
  characterize  run a single gate under a canned or custom schedule
  check         parse and validate fixtures without simulating

Exit codes: 0 success / all checks passed, 1 a verdict failed,
2 usage, config or parse error.
"""

from __future__ import annotations

import argparse
import sys

from .engine import SimConfig, _write_json, simulate_windows, write_trace
# ``simulate`` stays importable here because the benchmark tracer wraps ``memlogic.cli.simulate``.
from .engine import simulate  # noqa: F401
from .gates import ConfigError, DeviceParams, GateKind
from .harness import _read, default_characterization_schedule, gate_circuit, run_pattern
from .netlist import CircuitGraph, NetlistError, Stimulus, check_drives, parse_circuit, parse_stimulus


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    cfg, params = SimConfig(), DeviceParams()
    parser.add_argument("--dt", type=float, default=cfg.dt, help="timestep in ms (default %(default)s)")
    parser.add_argument("--horizon", type=float, default=cfg.horizon,
                        help="total simulated time in ms (default %(default)s)")
    parser.add_argument("--b", type=float, default=cfg.b,
                        help="current-to-voltage constant in ohms (default %(default)s)")
    parser.add_argument("--vox", type=float, default=params.v_ox,
                        help="oxidation potential in volts (default %(default)s)")
    parser.add_argument("--vred", type=float, default=params.v_red,
                        help="reduction potential in volts (default %(default)s)")


def _config_from(args: argparse.Namespace) -> tuple[SimConfig, DeviceParams]:
    """The run's config and device params; warn on stderr when the dt grid cuts the horizon short."""
    cfg = SimConfig(dt=args.dt, horizon=args.horizon, b=args.b)
    params = DeviceParams(v_ox=args.vox, v_red=args.vred)
    end = cfg.steps * cfg.dt
    if abs(end - cfg.horizon) > 1e-9 * cfg.horizon:
        print(f"warning: horizon {cfg.horizon:g} ms is not a whole number of {cfg.dt:g} ms steps; "
              f"the last record is at {end:g} ms", file=sys.stderr)
    return cfg, params


def _write_run(graph: CircuitGraph, stimulus: Stimulus, cfg: SimConfig, params: DeviceParams, out: str,
               fixture_texts: dict[str, str]) -> int:
    """Make every check of the run, then write its trace to ``out`` one window at a time, and its sidecar."""
    write_trace(simulate_windows(graph, stimulus, cfg, params=params), out, fixture_texts)
    print(f"wrote {cfg.steps} records to {out}")
    return 0


def _parse(parse, path: str):
    """The file at ``path`` given to ``parse``: its value, and its text.  A diagnostic in the file names it."""
    text = _read(path)
    try:
        return parse(text), text
    except NetlistError as exc:
        raise NetlistError(f"{path}: {exc}") from None


def cmd_run(args: argparse.Namespace) -> int:
    cfg, params = _config_from(args)
    graph, circuit = _parse(parse_circuit, args.circuit)
    stimulus, stimulus_text = _parse(parse_stimulus, args.stimulus)
    return _write_run(graph, stimulus, cfg, params, args.out, {"circuit": circuit, "stimulus": stimulus_text})


def cmd_adder(args: argparse.Namespace) -> int:
    cfg, params = _config_from(args)
    report = []
    all_passed = True
    for bits in ((a, b, cin) for a in (0, 1) for b in (0, 1) for cin in (0, 1)):
        _, verdicts = run_pattern(*bits, cfg=cfg, params=params)
        for v in verdicts:
            line = f"[{'PASS' if v.passed else 'FAIL'}] {v.experiment}: {v.check}  measured {v.measured}"
            print(line)
            report.append(v.as_dict())
            all_passed = all_passed and v.passed
    if args.out:
        _write_json(args.out, report)
    return 0 if all_passed else 1


def cmd_characterize(args: argparse.Namespace) -> int:
    cfg, params = _config_from(args)
    kind = GateKind(args.gate)
    fixture_texts = {}
    if args.schedule:
        schedule, fixture_texts["schedule"] = _parse(parse_stimulus, args.schedule)
    else:
        schedule = default_characterization_schedule(kind, cfg)
    return _write_run(gate_circuit(kind), schedule, cfg, params, args.out, fixture_texts)


def cmd_check(args: argparse.Namespace) -> int:
    graph, _ = _parse(parse_circuit, args.circuit)
    print(f"circuit OK: {len(graph.nodes)} gates, inputs {', '.join(graph.inputs)}, "
          f"probes {', '.join(name for name, _ in graph.outputs)}")
    if args.stimulus:
        stimulus, _ = _parse(parse_stimulus, args.stimulus)
        check_drives(graph, stimulus)
        print(f"stimulus OK: terminals {', '.join(stimulus.terminals)}, "
              f"horizon {stimulus.horizon_ms:g} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memlogic", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a netlist under a stimulus")
    p_run.add_argument("--circuit", required=True)
    p_run.add_argument("--stimulus", required=True)
    p_run.add_argument("--out", required=True, help="trace CSV path (metadata sidecar written next to it)")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_adder = sub.add_parser("adder", help="run the bundled full adder on all 8 input patterns")
    p_adder.add_argument("--out", help="optional JSON verdict report path")
    _add_config_flags(p_adder)
    p_adder.set_defaults(func=cmd_adder)

    p_char = sub.add_parser("characterize", help="run a single gate under a schedule")
    p_char.add_argument("--gate", required=True, choices=[k.value for k in GateKind])
    p_char.add_argument("--schedule", help="stimulus file; a canned schedule is used if omitted")
    p_char.add_argument("--out", required=True)
    _add_config_flags(p_char)
    p_char.set_defaults(func=cmd_characterize)

    p_check = sub.add_parser("check", help="parse and validate fixtures")
    p_check.add_argument("--circuit", required=True)
    p_check.add_argument("--stimulus")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetlistError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
