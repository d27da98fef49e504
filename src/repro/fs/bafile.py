"""Pinning file regions into the BA-buffer (the Fig. 4 ioctl path).

``pin_file_region`` is the glue between the filesystem and the 2B-SSD
API: it resolves a file's byte range to the LBA range backing it,
enforces the paper's permission rule ("Only applications with permission
to access the requested LBA range are allowed to use this API.
Otherwise, the OS will block the attempt"), and issues ``BA_PIN``.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.api import TwoBApiClient
from repro.fs.filesystem import File, FileSystemError, PermissionDenied
from repro.sim.engine import Event


def pin_file_region(
    api: TwoBApiClient,
    file: File,
    entry_id: int,
    buffer_offset: int,
    file_offset: int,
    length: int,
    as_user: str = "root",
) -> Iterator[Event]:
    """Process: BA_PIN the file bytes ``[file_offset, +length)``.

    The region must be page-aligned (the mapping table maps whole pages)
    and must lie within one contiguous extent — log segment files
    guarantee this by preallocating.
    """
    if as_user not in (file.owner, "root"):
        raise PermissionDenied(
            f"user {as_user!r} may not pin {file.name!r} owned by {file.owner!r}"
        )
    page_size = file.fs.page_size
    if file_offset % page_size:
        raise FileSystemError(
            f"pin offset {file_offset} not aligned to {page_size}-byte pages"
        )
    lpn, contiguous_pages = file.extent_for(file_offset)
    npages = -(-length // page_size)
    if npages > contiguous_pages:
        raise FileSystemError(
            f"pin of {npages} pages crosses an extent boundary after "
            f"{contiguous_pages} pages; preallocate the file contiguously"
        )
    entry = yield from api.ba_pin(entry_id, buffer_offset, lpn, length)
    return entry
