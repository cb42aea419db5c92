"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL report.  Criterion 8 is expected to fail and is marked strict-xfail:
with the shipped kinetics a freshly initialised gate needs ~140 ms at full
drive before its converted output clears the high readout threshold, so no
multi-stage output can settle within 100 ms of onset; the achieved settle
times are pinned by the companion regression test below it.
"""

import random
import time
from pathlib import Path

import pytest

from memlogic.engine import AMBIGUOUS, SimConfig, read_binary, settle_time
from memlogic.gates import V_RAIL, DeviceParams, GateInstance, GateKind, MemristorState, model_current, new_state, step
from memlogic.harness import adder_truth, fixture_text, run_pattern
from memlogic.netlist import (
    ArityError,
    CycleError,
    DanglingNetError,
    DuplicateError,
    NetlistError,
    NetlistSyntaxError,
    parse_circuit,
    parse_stimulus,
)

from closed_form import closed_form_current

PARAMS = DeviceParams()
CFG = SimConfig()
MALFORMED_DIR = Path(__file__).parent / "data" / "malformed"


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion:02d}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_closed_form_kinetics():
    """Iterated stepping at logic-1 reproduces the conduction law exactly."""
    marks = {1, 30, 100, 300}
    step(new_state(), PARAMS, 0.6, 1.0)  # warm-up outside the timed region

    start = time.perf_counter()
    state = new_state()
    measured = {}
    for k in range(1, 301):
        state = step(state, PARAMS, 0.6, 1.0)
        if k in marks:
            measured[k] = model_current(state, PARAMS)
    elapsed = time.perf_counter() - start

    worst = max(abs(measured[k] - closed_form_current(k)) / closed_form_current(k) for k in marks)
    ok = worst < 1e-12 and elapsed < 1e-3
    report(1, ok, f"max rel err {worst:.2e} (tol 1e-12), runtime {elapsed * 1e3:.3f} ms (< 1 ms)")
    assert worst < 1e-12
    assert elapsed < 1e-3


def test_criterion_02_saturation_value():
    """Long potentiation converges to the saturation current."""
    state = step(new_state(), PARAMS, 0.6, 3000.0)
    current = model_current(state, PARAMS)
    rel = abs(current - PARAMS.c) / PARAMS.c
    ok = rel < 5e-5
    report(2, ok, f"I(3000 ms) = {current:.6e} A, within {rel:.2e} of C (tol 5e-5)")
    assert rel < 5e-5


def test_criterion_03_nonvolatility_one_million_holds():
    """A million randomized hold-window steps leave the state bit-identical."""
    rng = random.Random(1250283)
    state = MemristorState(0.37, 0.82)
    x1, x2 = state.x1, state.x2
    for _ in range(1_000_000):
        state = step(state, PARAMS, rng.uniform(-0.09, 0.49), 1.0)
    ok = state.x1 == x1 and state.x2 == x2
    report(3, ok, f"state after 1e6 hold steps: ({state.x1}, {state.x2}) == ({x1}, {x2})")
    assert state.x1 == x1 and state.x2 == x2


def test_criterion_04_mor_duration_additivity():
    """100 ms on + 100 ms off + 200 ms on equals one contiguous 300 ms on."""
    split = GateInstance(GateKind.MOR)
    for _ in range(100):
        split.step([0.6, 0.1], 1.0)
    for _ in range(100):
        split.step([0.1, 0.1], 1.0)
    for _ in range(200):
        split.step([0.1, 0.6], 1.0)
    contiguous = GateInstance(GateKind.MOR)
    for _ in range(300):
        contiguous.step([0.6, 0.1], 1.0)
    a = model_current(split.state, split.params) / split.params.c
    b = model_current(contiguous.state, contiguous.params) / contiguous.params.c
    rel = abs(a - b) / b
    ok = rel < 1e-12
    report(4, ok, f"split {a:.15f} vs contiguous {b:.15f}, rel err {rel:.2e} (tol 1e-12)")
    assert rel < 1e-12


def test_criterion_05_mand_coincidence():
    """Alternating single inputs change nothing; only overlap accumulates."""
    alternating = GateInstance(GateKind.MAND)
    outputs = set()
    for _ in range(170):
        outputs.add(alternating.step([0.6, 0.1], 1.0))
    for _ in range(230):
        outputs.add(alternating.step([0.1, 0.6], 1.0))
    no_change = outputs == {0.0} and alternating.state == new_state()

    overlap = GateInstance(GateKind.MAND)
    for _ in range(40):
        overlap.step([0.6, 0.1], 1.0)
    for _ in range(75):
        overlap.step([0.6, 0.6], 1.0)
    for _ in range(60):
        overlap.step([0.1, 0.6], 1.0)
    for _ in range(75):
        overlap.step([0.6, 0.6], 1.0)
    contiguous = GateInstance(GateKind.MAND)
    for _ in range(150):
        contiguous.step([0.6, 0.6], 1.0)
    a = model_current(overlap.state, overlap.params) / overlap.params.c
    b = model_current(contiguous.state, contiguous.params) / contiguous.params.c
    rel = abs(a - b) / b

    ok = no_change and rel < 1e-12
    report(5, ok, f"alternating drift: none={no_change}; 150 ms overlap vs contiguous rel err {rel:.2e}")
    assert no_change
    assert rel < 1e-12


def test_criterion_06_mnot_inversion():
    """Fresh inverter sits at the rail; 300 ms of drive pulls it to the floor."""
    gate = GateInstance(GateKind.MNOT)
    pre = gate.step([0.1], 1.0)  # logic 0 keeps the device in its hold window
    assert gate.state == new_state()
    for _ in range(300):
        out = gate.step([0.6], 1.0)
    ok = pre >= 0.98 * V_RAIL and 0.07 <= out <= 0.13
    report(6, ok, f"pre-input {pre:.4f} V (>= {0.98 * V_RAIL:.4f}), after 300 ms {out:.4f} V (in [0.07, 0.13])")
    assert pre >= 0.98 * V_RAIL
    assert 0.07 <= out <= 0.13


def _pattern_verdicts(cfg: SimConfig):
    results = {}
    for bits in ((0, 1, 0), (1, 0, 1)):
        trace, _ = run_pattern(*bits, cfg=cfg)
        results[bits] = {
            "SUM": read_binary(trace, "SUM", cfg.horizon),
            "COUT": read_binary(trace, "COUT", cfg.horizon),
            "v": {net: trace.voltage_at(net, cfg.horizon) for net in ("SUM", "COUT")},
            "trace": trace,
        }
    return results


def test_criterion_07_adder_truth_values():
    """Both reference patterns produce their truth-table verdicts, unambiguously."""
    results = _pattern_verdicts(CFG)
    details = []
    ok = True
    for bits, res in results.items():
        s_expected, c_expected = adder_truth(*bits)
        ok &= res["SUM"] == s_expected and res["COUT"] == c_expected
        ok &= res["SUM"] != AMBIGUOUS and res["COUT"] != AMBIGUOUS
        details.append(f"{bits[0]}{bits[1]}{bits[2]}: SUM={res['v']['SUM']:.3f}->{res['SUM']} "
                       f"COUT={res['v']['COUT']:.3f}->{res['COUT']}")
    report(7, ok, "; ".join(details))
    for bits, res in results.items():
        s_expected, c_expected = adder_truth(*bits)
        assert res["SUM"] == s_expected, (bits, res["v"])
        assert res["COUT"] == c_expected, (bits, res["v"])


@pytest.mark.xfail(
    strict=True,
    reason="Unattainable with the shipped kinetics: one fresh gate at full drive needs "
    "~140 ms before its converted output clears the high threshold, so a probe at the "
    "end of a three-stage cascade cannot reach a held verdict 100 ms after onset. "
    "Measured settles: SUM 273 ms (010) and 211 ms (101) after t=0, i.e. 173/111 ms "
    "after onset.",
)
def test_criterion_08_settle_bound():
    """SUM must reach and hold its verdict within 100 ms of input onset."""
    ok = True
    details = []
    for bits in ((0, 1, 0), (1, 0, 1)):
        trace, _ = run_pattern(*bits, cfg=CFG)
        s_expected, _ = adder_truth(*bits)
        settled = settle_time(trace, "SUM", s_expected)
        details.append(f"{bits}: SUM settles at {settled} ms (bound 200 ms)")
        ok &= settled is not None and settled <= 200.0
    report(8, ok, "; ".join(details))
    assert ok


def test_criterion_08_achieved_settle_times():
    """Regression pin for the settle times the circuit actually achieves."""
    expected = {(0, 1, 0): (260.0, 290.0), (1, 0, 1): (205.0, 225.0)}
    for bits, (low, high) in expected.items():
        trace, _ = run_pattern(*bits, cfg=CFG)
        s_expected, c_expected = adder_truth(*bits)
        settled = settle_time(trace, "SUM", s_expected)
        assert settled is not None and low <= settled <= high, (bits, settled)
        assert settle_time(trace, "COUT", c_expected) is not None


def test_criterion_09_timestep_robustness():
    """Halving dt flips no verdict and moves final voltages by less than 1%."""
    coarse = _pattern_verdicts(SimConfig(dt=1.0))
    fine = _pattern_verdicts(SimConfig(dt=0.5))
    verdicts_stable = all(
        coarse[bits][net] == fine[bits][net]
        for bits in coarse
        for net in ("SUM", "COUT")
    )
    worst = 0.0
    for bits in coarse:
        t1, t2 = coarse[bits]["trace"], fine[bits]["trace"]
        for node in parse_circuit(fixture_text("adder.mlc")).nodes:
            gate_id = node.id
            v1 = t1.column(f"g{gate_id}")[-1]
            v2 = t2.column(f"g{gate_id}")[-1]
            if v1 == 0.0:
                assert v2 == 0.0, (bits, gate_id)
            else:
                worst = max(worst, abs(v2 - v1) / abs(v1))
    ok = verdicts_stable and worst < 0.01
    report(9, ok, f"verdicts stable={verdicts_stable}, max node perturbation {worst:.3%} (< 1%)")
    assert verdicts_stable
    assert worst < 0.01


EXPECTED_DIAGNOSTICS = {
    "01_unknown_directive.mlc": NetlistSyntaxError,
    "02_unknown_kind.mlc": NetlistSyntaxError,
    "03_mnot_arity.mlc": ArityError,
    "04_mor_arity.mlc": ArityError,
    "05_duplicate_id.mlc": DuplicateError,
    "06_dangling_name.mlc": DanglingNetError,
    "07_dangling_id.mlc": DanglingNetError,
    "08_cycle.mlc": CycleError,
    "09_dangling_output.mlc": DanglingNetError,
    "10_bad_format.mlc": NetlistSyntaxError,
}


def test_criterion_10_parser_suite():
    """Fixture corpus parses as expected; heavy fuzzing never crashes."""
    graph = parse_circuit(fixture_text("adder.mlc"))
    corpus_ok = len(graph.nodes) == 12

    for name, expected in EXPECTED_DIAGNOSTICS.items():
        text = (MALFORMED_DIR / name).read_text(encoding="utf-8")
        try:
            parse_circuit(text)
            corpus_ok = False
        except expected:
            pass
        except NetlistError:
            corpus_ok = False

    rng = random.Random(20121250)
    tokens = [
        "input", "gate", "output", "format", "memlogic/1", "MOR", "MAND", "MNOT",
        "A", "B", "CIN", "1", "2", "7", "12", "-1", "0", "999999999999",
        ":", "=", "..", ",", "#", "0..100=0.1", "100..400", "=0.6", "\t",
        "\x00", "\x7f", "é", "∞", "nan", "inf", "1e309", "gate1MORAB",
        "e", "--1", "+.e+", "A:e..e=e", "B:--1..5=+",
    ]
    crashes = 0
    for _ in range(100_000):
        if rng.random() < 0.3:
            text = "".join(chr(rng.randint(1, 0x2FF)) for _ in range(rng.randint(0, 40)))
        else:
            text = "\n".join(
                " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 7)))
                for _ in range(rng.randint(0, 6))
            )
        parser = parse_circuit if rng.random() < 0.5 else parse_stimulus
        try:
            parser(text)
        except NetlistError:
            pass
        except Exception:  # noqa: BLE001 - the point is to catch unexpected crashes
            crashes += 1

    ok = corpus_ok and crashes == 0
    report(10, ok, f"corpus outcomes correct={corpus_ok}, fuzz crashes={crashes}/100000")
    assert corpus_ok
    assert crashes == 0
