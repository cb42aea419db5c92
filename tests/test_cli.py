"""Command-line behaviour: exit codes, diagnostics, artifact files."""

import json
from dataclasses import asdict

import pytest

from memlogic.cli import _config_from, build_parser, main
from memlogic.device import DeviceParams
from memlogic.engine import SimConfig
from memlogic.harness import fixture_dir


ADDER = str(fixture_dir() / "adder.mlc")
PATTERN_101 = str(fixture_dir() / "pattern_101.mls")


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
    assert sidecars[0]["params"] == asdict(DeviceParams(v_ox=0.45))
    assert sidecars[1]["params"] == asdict(DeviceParams())


def test_characterize_sidecar_records_device_params(tmp_path):
    out = tmp_path / "mor.csv"
    assert main(["characterize", "--gate", "MOR", "--out", str(out), "--vred", "-0.2"]) == 0
    meta = json.loads((tmp_path / "mor.csv.meta.json").read_text())
    assert meta["params"] == asdict(DeviceParams(v_red=-0.2))


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
    assert all(entry["pass"] for entry in payload)


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
])
def test_bad_config_flag_is_a_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "trace.csv"
    assert main(["run", "--circuit", ADDER, "--stimulus", PATTERN_101, "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
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


def test_missing_file_is_a_usage_error(capsys):
    assert main(["check", "--circuit", "/nonexistent/file.mlc"]) == 2
    assert "error" in capsys.readouterr().err


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
