"""Bidirectional logical-to-physical page mapping.

Maintains the invariant that the L2P and P2L maps are exact inverses: no
two logical pages ever share a live physical page, and every live physical
page belongs to exactly one logical page.  Property tests in
``tests/test_ftl.py`` hammer on this invariant.
"""

from __future__ import annotations

from typing import Optional


def keys_in_range(keys, start: int, end: int) -> list[int]:
    """The integer keys of ``keys`` (a dict or set) in ``[start, end)``,
    found by walking whichever is shorter: the range or the keys."""
    if end - start <= len(keys):
        return [key for key in range(start, end) if key in keys]
    return [key for key in keys if start <= key < end]


class MappingTable:
    """L2P / P2L page map with inverse-consistency enforcement."""

    def __init__(self) -> None:
        self._l2p: dict[int, int] = {}
        self._p2l: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._l2p)

    def lookup(self, lpn: int) -> Optional[int]:
        """Return the physical page for logical page ``lpn``, or None."""
        return self._l2p.get(lpn)

    def reverse_lookup(self, ppn: int) -> Optional[int]:
        """Return the logical page stored at physical page ``ppn``, or None."""
        return self._p2l.get(ppn)

    def bind(self, lpn: int, ppn: int) -> Optional[int]:
        """Map ``lpn`` to ``ppn``; returns the previous PPN (now stale), if any.

        The target physical page must not already be live for another
        logical page — the FTL must have invalidated or GC'd it first.
        """
        if ppn in self._p2l:
            raise ValueError(
                f"physical page {ppn} is still live for logical page {self._p2l[ppn]}"
            )
        previous = self._l2p.get(lpn)
        if previous is not None:
            del self._p2l[previous]
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        return previous

    def unbind(self, lpn: int) -> Optional[int]:
        """Remove the mapping for ``lpn`` (trim); returns the freed PPN, if any."""
        ppn = self._l2p.pop(lpn, None)
        if ppn is not None:
            del self._p2l[ppn]
        return ppn

    def is_live(self, ppn: int) -> bool:
        return ppn in self._p2l

    def live_pages(self) -> list[int]:
        return list(self._p2l)

    def check_consistency(self) -> None:
        """Assert the L2P/P2L inverse invariant (used by tests)."""
        if len(self._l2p) != len(self._p2l):
            raise AssertionError("L2P and P2L sizes diverged")
        for lpn, ppn in self._l2p.items():
            if self._p2l.get(ppn) != lpn:
                raise AssertionError(f"P2L[{ppn}] != {lpn}")
