"""Pinned sha256 of the trace CSV as ``write_trace`` leaves it on disk.

``tests/test_csv_pins.py`` hashes ``Trace.to_csv()``; these hash the file
that ``write_trace`` writes through its binary handle, so the bytes a run
leaves behind are pinned too.  The dt = 0.01 pin is ``fine_dt/101`` of
``benchmarks/pins.json``: 40,000 records in 157 blocks of the renderer.
"""

import hashlib
import json

import pytest

from memlogic.engine import SimConfig, simulate, write_trace
from memlogic.harness import build_full_adder, make_pattern_stimulus
from test_csv_pins import PINS

FILE_PINS = [(1.0, pattern, digest) for pattern, digest in PINS[1.0].items()]
FILE_PINS.append((0.01, "101", "50f0a5d7c214701e5ff3b94418615307250ccbeae147e179be196ad9ac2024a0"))


@pytest.mark.parametrize("dt,pattern,digest", FILE_PINS)
def test_written_csv_sha256(tmp_path, dt, pattern, digest):
    cfg = SimConfig(dt=dt)
    trace = simulate(build_full_adder(), make_pattern_stimulus(*(int(c) for c in pattern), cfg), cfg)
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path))
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        header = fh.readline()
        sha.update(header)
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    assert sha.hexdigest() == digest
    meta = json.loads((tmp_path / "trace.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["columns"] == header.decode("utf-8").rstrip("\n").split(",")
