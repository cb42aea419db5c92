"""Pinned sha256 of the trace CSV for every adder pattern at dt = 1, 0.5 and 0.7.

Any engine or CSV rewrite must reproduce these bytes exactly.  The dt = 1
values equal the ``adder8/*`` pins of ``benchmarks/pins.json``.  At
dt = 0.7 the 100 ms onset falls between step times (99.4 and 100.1 ms)
and the dt grid cuts the horizon at 399.7 ms.
"""

import hashlib

import pytest

from memlogic.engine import SimConfig, simulate
from memlogic.harness import build_full_adder, make_pattern_stimulus

PINS = {
    1.0: {
        "000": "bd1c27a017e261df87caff7836d9fd3b3d7c8c510cf303ce14e3f515405ed3bf",
        "001": "c4436e4960b8e550c7d9cf1d13ef94f8fc90c1f000fc93121bb1d52ec01a8b74",
        "010": "728c03daf03878cb8afbe0f62c7910eb1e7f23ecc3a5f0d5ba4a2e68e3ec78a7",
        "011": "46384ca8557f1a4fe855f5ca384f968ae667fe4c7c9838f56d250aaf707acf92",
        "100": "817f33b3668608491f23b36d0aee42e9f1f6cc6ec71eed7194e28a5c0f311c46",
        "101": "ca5690ba2779162ac4bff19b333ef6952e56a4c8dc26f909cb1896e676575150",
        "110": "759735a1a2f59051e09d32d5e9cfe4789afb81fa71eff7263e819213df2ad491",
        "111": "8ad3dbc0ed42af3883d5cabb764a45349e3a0ff3df6df2b50e48d2a2c495e00a",
    },
    0.5: {
        "000": "81458ab1175a7cf9933c5bebf5351c6310756ab11024a9c896276227baf0ad7f",
        "001": "94c944ee5cf691aed13953759a2c4c959764171b55804388768c27d9cbadeb26",
        "010": "870fbebefedf6df78c2f541e2da814ec92c59b0c08c24552f2aded9fac9175e7",
        "011": "cfde662a68c3870ca750d30fcb0944af1600180292f8e6116ea8239b01569c63",
        "100": "f67b24168df67b32732b5e40bd09e2ebc2cf3bbaa57576228bdc3ec94d840431",
        "101": "7c109a89ec0530367ba2009f414667b791f5d499b5d264590a8793f3b30f7c95",
        "110": "0f2e510dac3e9c9c2ffb1f5b4c5b4b03f1eba312d413e9890cb1c7def9e03a13",
        "111": "3e5c791c52187001ea1a9add10219278548c340626df8aa51c57ba6eee8e8c8e",
    },
    0.7: {
        "000": "74bf029f1e390a79b925926bd4b7cfb5468e7c5a8802bf6409e4372eafebde3f",
        "001": "08356d0c08decee4c9955cf610be06a030f2881bc8a037f0bfa4abf6857e85e5",
        "010": "d4d8a07dcc42ee6e9db87022fc291027c20eb5e8a1bbe3926512deb2dabf9c1e",
        "011": "689a100150ef615958a7922c8527519b3a987c1b66377d8f1f0d99bf025e1457",
        "100": "c5b87687e1821882a6136634829e777f303800ab15f42aaf2157288cf989ff1d",
        "101": "436861a701736c4d679bab0ec58c7451d35351d5a4f829b7dc05f6ec3f54af8f",
        "110": "bfbb359cd000aa2fc9fcf0d141b3bd32290154d14db41f8b76042b0e1380ab53",
        "111": "d2b658cc93b79876e27e7e0ef56057e16128a931cd53bc0c7d5bd2730dad2b48",
    },
}


@pytest.mark.parametrize("dt,pattern", [(dt, p) for dt in PINS for p in PINS[dt]])
def test_adder_csv_sha256(dt, pattern):
    cfg = SimConfig(dt=dt)
    bits = tuple(int(c) for c in pattern)
    trace = simulate(build_full_adder(), make_pattern_stimulus(*bits, cfg), cfg)
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == PINS[dt][pattern]
