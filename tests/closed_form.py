"""The device's conduction law in closed form: the oracle the device, gate, engine and acceptance tests share."""

import math

from memlogic.gates import DeviceParams


def closed_form_current(t_ms: float, p: DeviceParams = DeviceParams()) -> float:
    """Independent oracle: direct scalar evaluation of the double-exponential conduction law."""
    return p.a1 * math.exp(-t_ms / p.t1) + p.a2 * math.exp(-t_ms / p.t2) + p.c
