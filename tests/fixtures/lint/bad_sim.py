"""Fixture: one known violation per SIM rule (kernel misuse)."""

import gc
import time


def hazards(engine):
    engine.timeout(5)  # SIM101: event discarded, never waited on
    time.sleep(0.01)  # SIM102
    gc.collect()  # SIM107
    yield engine.timeout(-3)  # SIM103
    if engine.now == 10.0:  # SIM104
        return True
    return False


def leaky(engine, device):
    try:
        yield engine.timeout(1)
    finally:
        yield device.flush()  # SIM105: GeneratorExit lands on this yield
