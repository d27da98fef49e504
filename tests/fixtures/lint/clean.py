"""Fixture: clean simulation code plus pragma-suppressed hazards.

``repro lint`` must exit 0 on this file: idiomatic kernel usage is not
flagged, and the two real hazards carry ``# reprolint: disable`` pragmas.
"""

import time


def well_behaved(engine, rng, dies):
    t0 = engine.now
    for die in sorted(dies):
        yield from touch(engine, die)
    delay = rng.stream("jitter").expovariate(1e6)
    yield engine.timeout(delay)
    wall = time.perf_counter()  # reprolint: disable=DET001
    time.sleep(0)  # reprolint: disable=all
    return engine.now - t0, wall


def touch(engine, die):
    yield engine.timeout(1e-6 * (die + 1))
