"""Command-line behaviour: exit codes, diagnostics, artifact files."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from memlogic.cli import _config_from, build_parser, main
from memlogic.engine import SimConfig, simulate, write_trace
from memlogic.gates import DeviceParams, GateKind
from memlogic.harness import default_characterization_schedule, fixture_dir, gate_circuit, run_pattern
from memlogic.netlist import parse_stimulus


ADDER = os.path.join(fixture_dir(), "adder.mlc")
PATTERN_101 = os.path.join(fixture_dir(), "pattern_101.mls")


def test_run_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--circuit", ADDER, "--stimulus", PATTERN_101, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 401  # header + one row per ms
    meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
    assert meta["records"] == 400
    assert set(meta["fixtures"]) == {"circuit", "stimulus"}


def test_flag_defaults_are_the_config_defaults(capsys):
    args = build_parser().parse_args(["adder"])
    assert _config_from(args) == (SimConfig(), DeviceParams())
    assert capsys.readouterr().err == ""


def test_sidecar_records_device_params(tmp_path):
    sidecars = []
    for vox in ("0.45", "0.5"):
        out = tmp_path / f"trace_{vox}.csv"
        assert main(["run", "--circuit", ADDER, "--stimulus", PATTERN_101, "--out", str(out), "--vox", vox]) == 0
        sidecars.append(json.loads((tmp_path / f"trace_{vox}.csv.meta.json").read_text()))
    assert sidecars[0] != sidecars[1]
    assert sidecars[0]["params"] == DeviceParams(v_ox=0.45)._asdict()
    assert sidecars[1]["params"] == DeviceParams()._asdict()


def test_characterize_sidecar_records_device_params(tmp_path):
    out = tmp_path / "mor.csv"
    assert main(["characterize", "--gate", "MOR", "--out", str(out), "--vred", "-0.2"]) == 0
    meta = json.loads((tmp_path / "mor.csv.meta.json").read_text())
    assert meta["params"] == DeviceParams(v_red=-0.2)._asdict()
    assert meta["fixtures"] == {}  # a canned schedule has no fixture text


def test_characterize_sidecar_records_the_schedule(tmp_path):
    text = "format memlogic/1\nIN1: 0..50=0.1, 50..120=0.6, 120..200=0.1\nIN2: 0..200=0.1\n"
    schedule = tmp_path / "schedule.mls"
    schedule.write_text(text)
    out = tmp_path / "mor.csv"
    assert main(["characterize", "--gate", "MOR", "--schedule", str(schedule), "--horizon", "200",
                 "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "mor.csv.meta.json").read_text())
    assert meta["fixtures"] == {"schedule": hashlib.sha256(text.encode()).hexdigest()}


def test_run_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--circuit", ADDER, "--stimulus", PATTERN_101, "--out", str(out1)]) == 0
    assert main(["run", "--circuit", ADDER, "--stimulus", PATTERN_101, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_adder_command_passes_and_reports(tmp_path, capsys):
    report = tmp_path / "verdicts.json"
    code = main(["adder", "--out", str(report)])
    captured = capsys.readouterr()
    assert code == 0
    assert "[PASS]" in captured.out and "[FAIL]" not in captured.out
    payload = json.loads(report.read_text())
    assert len(payload) == 16
    assert all(entry["pass"] is True for entry in payload)


@pytest.mark.parametrize("flags", [[], ["--vox", "0.45"]])
def test_adder_report_is_the_verdicts_in_the_json_dumps_layout(tmp_path, capsys, flags):
    report = tmp_path / "verdicts.json"
    main(["adder", *flags, "--out", str(report)])
    text = report.read_text(encoding="utf-8")
    # Keys sorted and a two-space indent, as the sidecar is written.
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    cfg, params = _config_from(build_parser().parse_args(["adder", *flags]))
    bits = [(a, b, cin) for a in (0, 1) for b in (0, 1) for cin in (0, 1)]
    assert json.loads(text) == [v.as_dict() for p in bits for v in run_pattern(*p, cfg=cfg, params=params)[1]]


def test_adder_verdicts_stable_at_half_timestep(capsys):
    assert main(["adder", "--dt", "0.5"]) == 0


def test_adder_applies_device_flags(tmp_path):
    reports = []
    for vox in ("0.45", "0.5"):
        out = tmp_path / f"verdicts_{vox}.json"
        main(["adder", "--vox", vox, "--out", str(out)])
        reports.append([entry["measured"] for entry in json.loads(out.read_text())])
    assert reports[0] != reports[1]


@pytest.mark.parametrize("flags", [
    ["--dt", "0"], ["--dt", "nan"], ["--vox", "0.7"], ["--b", "nan"], ["--horizon", "nan"], ["--vred", "nan"],
    # A step count past sys.maxsize, refused before any run starts.
    ["--dt", "1e-17"], ["--dt", "1e-310"], ["--horizon", "1e308"],
])
def test_bad_config_flag_is_a_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "trace.csv"
    assert main(["run", "--circuit", ADDER, "--stimulus", PATTERN_101, "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", [["adder"], ["characterize", "--gate", "MOR"]])
@pytest.mark.parametrize("flags", [["--dt", "1e-17"], ["--dt", "1e-310"], ["--horizon", "1e308"]])
def test_a_step_count_past_sys_maxsize_is_a_usage_error_for_every_command(tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    assert main([*command, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizon / dt is ") and err.endswith(f" steps, more than {sys.maxsize}\n"), err
    assert not out.exists()


def test_vox_that_lets_an_mnot_source_potentiate_is_a_usage_error(tmp_path, capsys):
    # At --vox 0.25 an MNOT's 0.3 V constant source would switch its device on its own.
    out = tmp_path / "trace.csv"
    assert main(["run", "--circuit", ADDER, "--stimulus", PATTERN_101, "--out", str(out), "--vox", "0.25"]) == 2
    assert capsys.readouterr().err.startswith("error: MNOT constant source")
    assert not out.exists()
    report = tmp_path / "verdicts.json"
    assert main(["adder", "--vox", "0.25", "--out", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: MNOT constant source")
    assert not report.exists()


def test_vox_that_lets_the_characterized_mnot_source_potentiate_is_a_usage_error(tmp_path, capsys):
    # At --vox 0.3 the 0.3 V constant source is no longer below the oxidation potential.
    assert main(["characterize", "--gate", "MNOT", "--vox", "0.3", "--out", str(tmp_path / "MNOT.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MNOT constant source") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []  # neither a CSV nor a sidecar


def test_characterize_gate_without_mnot_accepts_low_vox(tmp_path):
    assert main(["characterize", "--gate", "MOR", "--vox", "0.25", "--out", str(tmp_path / "mor.csv")]) == 0


def test_check_valid_fixture(capsys):
    code = main(["check", "--circuit", ADDER, "--stimulus", PATTERN_101])
    captured = capsys.readouterr()
    assert code == 0
    assert "circuit OK: 12 gates" in captured.out
    assert "stimulus OK" in captured.out


def test_check_reports_diagnostic_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.mlc"
    bad.write_text("input A\ninput B\ngate 1 XOR A B\n")
    code = main(["check", "--circuit", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 3" in captured.err


def test_check_rejects_a_name_reserved_for_a_trace_column(tmp_path, capsys):
    bad = tmp_path / "bad.mlc"
    bad.write_text("input A\ninput t_ms\ngate 1 MOR A t_ms\noutput OUT 1\n")
    assert main(["check", "--circuit", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_check_rejects_a_stimulus_that_leaves_an_input_undriven(tmp_path, capsys):
    partial = tmp_path / "ab_only.mls"
    partial.write_text("A: 0..400=0.6\nB: 0..400=0.1\n")
    assert main(["check", "--circuit", ADDER, "--stimulus", str(partial)]) == 2
    check_err = capsys.readouterr().err
    assert check_err == "error: stimulus does not drive circuit input 'CIN'\n"
    assert main(["run", "--circuit", ADDER, "--stimulus", str(partial), "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == check_err


MALFORMED = Path(__file__).parent / "data" / "malformed"
# The one stderr line ``memlogic check`` prints for each malformed netlist, after "error: <path>: ".
GOLDEN_CIRCUIT_DIAGNOSTICS = {
    "01_unknown_directive.mlc": "line 3, column 1: unknown directive 'wire'",
    "02_unknown_kind.mlc": "line 3, column 8: unknown gate kind 'XOR'",
    "03_mnot_arity.mlc": "line 3: MNOT takes 1 input(s), got 2",
    "04_mor_arity.mlc": "line 2: MOR takes 2 input(s), got 1",
    "05_duplicate_id.mlc": "line 4: gate id 1 already declared on line 3",
    "06_dangling_name.mlc": "line 2: gate 1 references undeclared input 'Bogus'",
    "07_dangling_id.mlc": "line 3: gate 1 references undeclared gate 7",
    "08_cycle.mlc": "circuit contains a feedback loop through gate 1",
    "09_dangling_output.mlc": "line 4: output 'S' references undeclared gate 4",
    "10_bad_format.mlc": "line 1, column 1: unsupported format 'format memlogic/9'",
    # A gate id, an output target and a source naming a gate are ASCII digits, though ``int`` takes these spellings.
    "11_underscore_id.mlc": "line 3, column 6: gate id must be an integer, got '1_0'",
    "12_plus_id.mlc": "line 3, column 6: gate id must be an integer, got '+10'",
    "13_plus_target.mlc": "line 4, column 10: output target must be a gate id, got '+10'",
    "14_non_ascii_id.mlc": "line 3, column 6: gate id must be an integer, got '\u0662'",
    "15_non_ascii_source.mlc": "line 3, column 15: invalid source '\u0661\u0660'",
    # Gate 1 reads the loop 2 <-> 3 but is not on it.
    "16_cycle_off_loop.mlc": "circuit contains a feedback loop through gate 2",
    # Only a first word that is ``format`` makes a format line.
    "17_format_prefix.mlc": "line 1, column 1: unknown directive 'formats'",
}


def test_every_malformed_netlist_has_a_golden_diagnostic():
    assert sorted(p.name for p in MALFORMED.glob("*.mlc")) == sorted(GOLDEN_CIRCUIT_DIAGNOSTICS)


@pytest.mark.parametrize("name", sorted(GOLDEN_CIRCUIT_DIAGNOSTICS))
def test_check_prints_the_golden_diagnostic_of_a_malformed_netlist(capsys, name):
    assert main(["check", "--circuit", str(MALFORMED / name)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {MALFORMED / name}: {GOLDEN_CIRCUIT_DIAGNOSTICS[name]}\n")


@pytest.mark.parametrize("text, diagnostic", [
    # A bad interval's column points at it, or just past the ":" or "," that opens a blank one.
    ("A: 0..100=0.1, 100..200=0.6, 1\n", "line 1, column 30: bad interval '1'"),
    ("A:\n", "line 1, column 3: bad interval ''"),
    ("A: 0..100=0.1,\n", "line 1, column 15: bad interval ''"),
    ("A: 0..100=0.1,   , 100..400=0.6\n", "line 1, column 15: bad interval ''"),
    ("A: 0..100=0.1, 0..1\n", "line 1, column 16: bad interval '0..1'"),
    ("A: 0..400=0.1\nB: 0..400=0.1\n# again\nA: 0..400=0.6\n", "line 4: terminal 'A' already declared on line 1"),
    ("A: 0..1e309=0.1\n", "line 1: non-finite value in interval '0..1e309=0.1'"),
    # An empty interval is quoted as ``serialize_stimulus`` writes it, at its column.
    ("A: 100..100=0.1\n", "line 1, column 4: empty interval '100.0..100.0=0.1'"),
    # A name's column is where it starts, past any indent.
    ("  1A: 0..400=0.1\n", "line 1, column 3: invalid terminal name '1A'"),
    # A first terminal whose name begins with "format" is a terminal.
    ("formats: 0..400=0.1\nformats: 0..400=0.6\n", "line 2: terminal 'formats' already declared on line 1"),
])
def test_check_prints_the_golden_diagnostic_of_a_malformed_stimulus(tmp_path, capsys, text, diagnostic):
    bad = tmp_path / "bad.mls"
    bad.write_text(text)
    assert main(["check", "--circuit", ADDER, "--stimulus", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {diagnostic}\n"


def test_a_bad_stimulus_is_named_in_its_diagnostic_and_the_good_circuit_is_not(tmp_path, capsys):
    stim, out = tmp_path / "short_cin.mls", tmp_path / "trace.csv"
    stim.write_text("A: 0..400=0.6\nB: 0..400=0.1\nCIN: 0..300=0.6\n")
    assert main(["run", "--circuit", ADDER, "--stimulus", str(stim), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: {stim}: line 3: terminal 'CIN' ends at t=300.0 but the horizon is 400.0\n"


def test_a_bad_circuit_is_named_in_its_diagnostic_and_the_good_stimulus_is_not(tmp_path, capsys):
    circuit, out = MALFORMED / "02_unknown_kind.mlc", tmp_path / "trace.csv"
    assert main(["run", "--circuit", str(circuit), "--stimulus", PATTERN_101, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {circuit}: line 3, column 8: unknown gate kind 'XOR'\n"


@pytest.mark.parametrize("dt, cut", [("0.7", True), ("1", False), ("0.01", False)])
def test_horizon_cut_by_the_dt_grid_is_reported(tmp_path, capsys, dt, cut):
    out = tmp_path / "trace.csv"
    assert main(["run", "--circuit", ADDER, "--stimulus", PATTERN_101, "--out", str(out), "--dt", dt]) == 0
    err = capsys.readouterr().err
    if cut:
        assert err.startswith("warning: ") and err.count("\n") == 1
        assert "399.7 ms" in err
        assert out.read_text().splitlines()[-1].startswith("3.99700000e+02,")
    else:
        assert err == ""


@pytest.mark.parametrize("command", [["adder"], ["characterize", "--gate", "MNOT"]])
def test_adder_and_characterize_report_a_horizon_cut(tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "out")]
    assert main([*command, *out, "--dt", "0.7"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert "399.7 ms" in err


# Breakpoints off the 1 ms and 0.05 ms grids; the MNOT schedule drives IN1 only.
SCHEDULES = {
    "MOR": "format memlogic/1\nIN1: 0..70.31=0.1, 70.31..222.2=0.6, 222.2..400=0.1\nIN2: 0..130=0.6, 130..400=0.1\n",
    "MAND": "format memlogic/1\nIN1: 0..90=0.1, 90..380.1=0.6, 380.1..400=0.1\nIN2: 0..150.02=0.1, 150.02..400=0.6\n",
    "MNOT": "format memlogic/1\nIN1: 0..33.333=0.1, 33.333..333.33=0.6, 333.33..400=0.1\n",
}


@pytest.mark.parametrize("gate", ["MOR", "MAND", "MNOT"])
@pytest.mark.parametrize("dt", ["1", "0.05"])
@pytest.mark.parametrize("scheduled", [False, True], ids=["canned", "schedule"])
def test_characterize_writes_the_bytes_of_the_whole_trace(tmp_path, capsys, gate, dt, scheduled):
    """``characterize`` writes one window at a time: at dt = 0.05 ms its 8000 records are four windows.  Its CSV
    and sidecar equal those ``write_trace`` leaves from the whole trace of ``gate_circuit(kind)``."""
    cfg, kind = SimConfig(dt=float(dt)), GateKind(gate)
    flags, fixtures, schedule = [], {}, default_characterization_schedule(kind, cfg)
    if scheduled:
        (tmp_path / "schedule.mls").write_text(SCHEDULES[gate])
        flags, fixtures = ["--schedule", str(tmp_path / "schedule.mls")], {"schedule": SCHEDULES[gate]}
        schedule = parse_stimulus(SCHEDULES[gate])
    out = tmp_path / "cli.csv"
    assert main(["characterize", "--gate", gate, "--dt", dt, "--out", str(out), *flags]) == 0
    assert capsys.readouterr().out == f"wrote {cfg.steps} records to {out}\n"
    write_trace(simulate(gate_circuit(kind), schedule, cfg), str(tmp_path / "whole.csv"), fixtures)
    for suffix in ("", ".meta.json"):
        assert (tmp_path / f"cli.csv{suffix}").read_bytes() == (tmp_path / f"whole.csv{suffix}").read_bytes()


@pytest.mark.parametrize("gate", ["MOR", "MAND", "MNOT"])
def test_canned_characterize_schedule_lasts_to_a_longer_horizon(tmp_path, capsys, gate):
    out = tmp_path / "trace.csv"
    assert main(["characterize", "--gate", gate, "--horizon", "600", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 600 records to {out}\n"
    assert json.loads((tmp_path / "trace.csv.meta.json").read_text())["records"] == 600
    assert out.read_text().splitlines()[-1].startswith("6.00000000e+02,")


def test_missing_file_is_a_usage_error(capsys):
    assert main(["check", "--circuit", "/nonexistent/file.mlc"]) == 2
    assert "error" in capsys.readouterr().err


# Bytes that are not UTF-8, the line of the first bad byte, and the decoder's reason.
NOT_UTF8 = {
    "latin-1 comment": (b"input A\n# caf\xe9 au lait\ngate 1 MNOT A\n", 2, "invalid continuation byte"),
    "binary header": (b"\x7fELF\x02\x01\x01\x00" + bytes(8) + b"\x03\x00>\x00\x01\x00\x00\x00\x90\x6a", 1,
                      "invalid start byte"),
}


@pytest.mark.parametrize("kind", sorted(NOT_UTF8))
@pytest.mark.parametrize("argv", [
    ["run", "--circuit", "BAD", "--stimulus", PATTERN_101, "--out", "OUT"],
    ["run", "--circuit", ADDER, "--stimulus", "BAD", "--out", "OUT"],
    ["check", "--circuit", "BAD"],
    ["check", "--circuit", ADDER, "--stimulus", "BAD"],
    ["characterize", "--gate", "MOR", "--schedule", "BAD", "--out", "OUT"],
], ids=["run circuit", "run stimulus", "check circuit", "check stimulus", "characterize schedule"])
def test_a_file_that_is_not_utf8_is_a_usage_error_naming_the_file_and_line(tmp_path, capsys, argv, kind):
    data, line, reason = NOT_UTF8[kind]
    bad, out = tmp_path / "bad.txt", tmp_path / "out.csv"
    bad.write_bytes(data)
    assert main([{"BAD": str(bad), "OUT": str(out)}.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line {line}: not UTF-8: {reason}\n"
    assert sorted(tmp_path.iterdir()) == [bad]


def test_characterize_writes_trace(tmp_path, capsys):
    out = tmp_path / "mor.csv"
    code = main(["characterize", "--gate", "MOR", "--out", str(out)])
    assert code == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header.startswith("t_ms,IN1,IN2,OUT")


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# Modules that made ``import memlogic.cli`` tens of ms slower.  The CLI runs
# one process per command, so each adds to every ``memlogic`` call.
HEAVY_IMPORTS = {"dataclasses", "inspect", "hashlib", "json"}
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import memlogic.cli
code = memlogic.cli.main(["check", "--circuit", sys.argv[1], "--stimulus", sys.argv[2]])
print(code, *sorted(set(sys.modules) - before))
"""


def test_cli_import_and_check_load_no_heavy_modules():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, ADDER, PATTERN_101], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "memlogic.cli" in loaded
    assert HEAVY_IMPORTS.isdisjoint(loaded), sorted(HEAVY_IMPORTS.intersection(loaded))


def test_cli_import_in_a_bare_interpreter_leaves_pathlib_out():
    """Under ``python -S`` no ``site`` hook preloads ``pathlib``, so this sees what ``memlogic.cli`` itself imports."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-S", "-c", "import sys, memlogic.cli; print('pathlib' in sys.modules)"],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.split() == ["False"]


# ``_hashlib`` maps OpenSSL's libcrypto, which raised a run's peak RSS by 3 MB.
SIDECAR_IMPORTS = {"hashlib", "_hashlib", "json"}
RUN_PROBE = """
import sys
before = set(sys.modules)
from memlogic.cli import main
circuit, stimulus, schedule, out = sys.argv[1:]
codes = [main(["run", "--circuit", circuit, "--stimulus", stimulus, "--out", out + "/run.csv"]),
         main(["characterize", "--gate", "MOR", "--schedule", schedule, "--out", out + "/mor.csv"]),
         main(["adder", "--out", out + "/adder.json"])]
print(*codes, *sorted(set(sys.modules) - before))
"""


def test_run_and_characterize_write_their_sidecars_without_hashlib_or_json(tmp_path):
    """``adder --out`` writes its report through the same JSON writer as the sidecars, so it loads neither too."""
    schedule = tmp_path / "schedule.mls"
    schedule.write_text(SCHEDULES["MOR"])
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", RUN_PROBE, ADDER, PATTERN_101, str(schedule), str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
                          check=True)
    run_code, characterize_code, adder_code, *loaded = done.stdout.splitlines()[-1].split()
    assert (run_code, characterize_code, adder_code) == ("0", "0", "0")
    assert SIDECAR_IMPORTS.isdisjoint(loaded), sorted(SIDECAR_IMPORTS.intersection(loaded))
    assert json.loads((tmp_path / "mor.csv.meta.json").read_text())["fixtures"]["schedule"] == \
        hashlib.sha256(SCHEDULES["MOR"].encode()).hexdigest()
    assert set(json.loads((tmp_path / "run.csv.meta.json").read_text())["fixtures"]) == {"circuit", "stimulus"}
    assert len(json.loads((tmp_path / "adder.json").read_text())) == 16


def _flag_values(valid, invalid):
    """A flag's values: one draw in five from ``invalid``, the rest from ``valid``, so most examples reach a run."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else invalid)


# Zero, a negative or a non-finite value: what a time or ``--b`` must not be.
NOT_POSITIVE = st.one_of(st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
                         st.floats(max_value=0.0, allow_nan=False))


# ``--dt`` is drawn after ``--horizon``, and never below 0.005 ms, as a tiny step makes a run of unbounded
# time: every command streams its run, so memory stays flat, but a valid dt of 1e-16 ms at 400 ms is 4e18
# steps.  It goes below 0.05 ms only at a horizon of at most 150 ms, so no run takes more than 30,000 steps
# (10^4 at a horizon of up to 500 ms, 8,000 at the default 400 ms).  ``adder`` makes 8 runs, so its floor is 8
# times higher, and no example starts more than 30,000 steps.  A step count past ``sys.maxsize`` is refused
# before any run starts, and ``test_a_step_count_past_sys_maxsize_is_a_usage_error_for_every_command`` holds it.
def _dt_values(horizon, runs):
    floor = (0.005 if horizon <= 150.0 else 0.05) * runs
    cap = horizon if floor <= horizon <= 1e3 else 1e3  # a valid dt is at most the horizon
    return _flag_values(st.one_of(st.floats(floor, cap), st.floats(floor, min(10 * floor, cap))), NOT_POSITIVE)


# Valid potentials satisfy v_red < v_ox < v_ref (0.6 V), and an MNOT needs v_ox above its 0.3 V constant source;
# any float is an invalid draw.
CONFIG_FLAGS = {
    "--horizon": _flag_values(st.floats(1.0, 500.0), NOT_POSITIVE),
    "--b": _flag_values(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), NOT_POSITIVE),
    "--vox": _flag_values(st.floats(0.3, 0.6, exclude_min=True, exclude_max=True), st.floats()),
    "--vred": _flag_values(st.floats(-1.0, 0.3), st.floats()),
}


@pytest.mark.parametrize("command", [
    ["run", "--circuit", ADDER, "--stimulus", PATTERN_101], ["adder"], ["characterize", "--gate", "MOR"],
    ["characterize", "--gate", "MNOT"],
])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_any_config_flag_values_exit_with_a_code_not_a_traceback(command, data):
    flags = data.draw(st.lists(st.sampled_from(sorted([*CONFIG_FLAGS, "--dt"])), unique=True, max_size=5),
                      label="flags")
    values = {flag: data.draw(CONFIG_FLAGS[flag], label=flag) for flag in flags if flag != "--dt"}
    if "--dt" in flags:
        horizon = values.get("--horizon", SimConfig().horizon)
        values["--dt"] = data.draw(_dt_values(horizon, 8 if command == ["adder"] else 1), label="--dt")
    # ``--flag=value``, as argparse would take a separate ``-inf`` for an option.
    argv = command + [f"{flag}={values[flag]!r}" for flag in flags]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv if command == ["adder"] else [*argv, "--out", os.path.join(tmp, "out.csv")])
    assert code in (0, 1, 2)
    if code == 2:  # a diagnostic, after at most a horizon-cut warning
        assert stderr.getvalue().splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("horizon", ["193.25331", "400.0000001"])
def test_adder_runs_at_a_horizon_of_more_than_six_digits(capsys, horizon):
    # The pattern stimulus once wrote the horizon to 6 digits, and so ended before it.
    assert main(["adder", "--horizon", horizon]) in (0, 1)
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["100", "50"])
def test_adder_horizon_not_past_the_onset_is_a_usage_error(capsys, horizon):
    assert main(["adder", "--horizon", horizon]) == 2
    assert capsys.readouterr().err.startswith("error: the adder protocol needs a horizon past its 100 ms onset")
