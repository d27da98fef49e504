"""What the ``scripts/*_cost.py`` meters share: the best-of-N bracket, the
counting wrapper, the opcode counter, and the ceiling report that sets
the exit status.

Everything here observes ``src/`` from outside, so a meter built on it runs
unchanged on any commit.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

_ABSENT = object()


def best_of(repeats: int, timed, key=None):
    """The smallest of ``repeats`` calls of ``timed()`` (by ``key``)."""
    return min((timed() for _ in range(repeats)), key=key)


def opcodes(fn):
    """``(fn(), n)``: what ``fn()`` returns and the Python opcodes it ran.

    Counted with ``sys.settrace`` and ``f_trace_opcodes``, so it is exact
    and repeats, but a call into C — ``bytes.join``, a dict operation,
    ``heapq.heappush`` — counts as one opcode however much it does.
    """
    count = 0

    def opcode(frame, event, _arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcode

    def call(frame, _event, _arg):
        frame.f_trace_opcodes = True
        return opcode

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return result, count


@contextmanager
def wrapped(owner, name: str, before):
    """Until exit, every call of ``owner.name`` first shows its arguments
    to ``before`` — the counting wrapper.  ``owner`` is a class, a module
    or an instance with a ``__dict__``; what it held under ``name`` (a
    staticmethod included) is put back afterwards."""
    held = vars(owner).get(name, _ABSENT)
    call = getattr(owner, name)

    def wrapper(*args, **kwargs):
        before(*args, **kwargs)
        return call(*args, **kwargs)

    setattr(owner, name,
            staticmethod(wrapper) if isinstance(held, staticmethod) else wrapper)
    try:
        yield
    finally:
        if held is _ABSENT:
            delattr(owner, name)
        else:
            setattr(owner, name, held)


def exit_status(broken: list) -> int:
    """Print each broken ceiling to stderr; the meter's exit status."""
    for reason in broken:
        print(f"BROKEN: {reason}", file=sys.stderr)
    return 1 if broken else 0
