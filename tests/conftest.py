"""Shared pytest configuration for the tier-1 suite."""

import pytest

from repro.analysis import sanitizer as simsan
from repro.platform import Platform


@pytest.fixture
def sanitized_device():
    """A full :class:`Platform` running under the runtime sanitizer.

    Every die access, durability step, and mapping-table mutation is
    invariant-checked; violations raise :class:`SanitizerError` at the
    offending simulated instant.  The sanitizer state is restored on
    teardown so other tests see it disabled.
    """
    with simsan.activated() as state:
        platform = Platform(seed=1234)
        platform.sanitizer_state = state
        yield platform


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "soak: long whole-system soak tests (deselect with -m \"not soak\")",
    )
    config.addinivalue_line(
        "markers",
        "perf: wall-clock performance measurements (deselect with -m \"not perf\")",
    )
    config.addinivalue_line(
        "markers",
        "oracle: a changed path checked against the one it replaced, or a "
        "cost budget; run whole, soak passes included, with -m oracle",
    )
