"""What the ``scripts/*_cost.py`` meters share: the best-of-N bracket, the
counting wrapper, the opcode counter, the resident-memory probe, and the
ceiling report that sets the exit status.

Everything here observes ``src/`` from outside, so a meter built on it runs
unchanged on any commit.
"""

from __future__ import annotations

import builtins
import ctypes
import struct
import sys
from contextlib import contextmanager
from typing import Optional

_ABSENT = object()
_PAGE = 4096
_OWNED = 1 << 63 | 1 << 56  # pagemap: present, exclusively mapped


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
    staticmethod included) is put back afterwards.  A builtin a module
    calls by name (``bytearray``) is wrapped for that module alone."""
    held = vars(owner).get(name, _ABSENT)
    call = getattr(owner, name, None) or getattr(builtins, name)

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


def resident_kib(buffer) -> Optional[int]:
    """KiB of ``buffer`` resident in RAM — the pages of its address range
    backed by a frame of their own — or ``None`` where
    ``/proc/self/pagemap`` is absent (not Linux).  ``buffer`` is any
    writable buffer (an ``mmap``, a ``bytearray``); ``None`` is an
    unallocated one, 0 KiB.

    ``/proc/self/smaps`` reports RSS per mapping, and the kernel merges
    adjacent anonymous mappings (the BA-DRAM of three pool nodes shows up
    as one), so this reads the page table ``smaps`` sums, one entry per
    page of the buffer's own range.  A page counts when it is present and
    mapped only here (bits 63 and 56): a read of a never-written page
    maps the kernel's shared zero page, which RSS does not count either.
    Pages shared copy-on-write with a fork parent do not count.
    """
    if buffer is None:
        return 0
    try:
        pagemap = open("/proc/self/pagemap", "rb")
    except OSError:
        return None
    address = ctypes.addressof(ctypes.c_char.from_buffer(buffer))
    first, last = address // _PAGE, (address + len(buffer) - 1) // _PAGE
    with pagemap:
        pagemap.seek(first * 8)
        entries = pagemap.read((last - first + 1) * 8)
    owned = sum(1 for (entry,) in struct.iter_unpack("<Q", entries)
                if entry & _OWNED == _OWNED)
    return owned * _PAGE // 1024


def exit_status(broken: list) -> int:
    """Print each broken ceiling to stderr; the meter's exit status."""
    for reason in broken:
        print(f"BROKEN: {reason}", file=sys.stderr)
    return 1 if broken else 0
