"""Byte-path bookkeeping per logged record, pinned as exact counts.

The unit of the byte path is the byte range: a record streamed through the
WC buffer is one extent however it is aligned, evicted and flushed as one
run each, which the link cuts at line boundaries — not line by line, and
not head line + body + tail line.  What a record costs the simulator is
three counts that repeat exactly on a fixed scenario — entries handed to
``PcieLink.posted_burst``, ``region.write`` deposits, and posted TLPs — so
a per-line loop that creeps back fails tier-1 instead of waiting for the
benchmark (``scripts/byte_path_cost.py`` prints the same counts with the
wall-clock cost beside them).

Scenario: unaligned records stored back to back from offset 0 through the
default 10-line buffer, each range-flushed and drained the way ``BaWAL``
does it; 64 records walk every alignment a size allows four times over.
Entries and deposits are ceilings (the per-line tree: 2.50 / 12.88 / 12.88
per record; whole-line runs with masked partial lines: 2.50 / 4.82 / 4.82);
lowering one after a real cut is the point, raising one needs the reason in
the commit that does it.  TLPs are the model's — one per line a record
touches — and must not move at all.  A log append dirties one contiguous
range, so no dirty mask exists on this shape: ``repro.host.wc`` builds no
``bytearray`` at all.
"""

import pytest

import repro.host.wc
from repro.host import ByteRegion, HostParams
from repro.host.wc import WriteCombiningBuffer
from repro.pcie import PcieLink
from repro.pcie.link import PostedRun
from repro.sim import Engine

pytestmark = pytest.mark.oracle

RECORDS = 64


def stream(size):
    """Store + range-flush + drain ``RECORDS`` records; returns the counts
    per record and the landed image with what it should be."""
    engine = Engine()
    link = PcieLink(engine)
    wc = WriteCombiningBuffer(link, HostParams().wc_buffer_lines)
    region = ByteRegion("bar1", RECORDS * size + wc.line_size)
    counts = {"entries": 0, "deposits": 0}
    posted_burst, write = link.posted_burst, region.write

    def counting_burst(tlps):
        counts["entries"] += len(tlps)
        return posted_burst(tlps)

    def counting_write(offset, data):
        counts["deposits"] += 1
        write(offset, data)

    link.posted_burst = counting_burst
    region.write = counting_write
    expected = bytearray(region.size)
    for index in range(RECORDS):
        data = bytes([index + 1]) * size
        wc.store(region, index * size, data)
        wc.flush(region, index * size, size)
        engine.run()
        expected[index * size:(index + 1) * size] = data
    assert len(wc) == 0 and link.in_flight == 0
    return (counts["entries"] / RECORDS, counts["deposits"] / RECORDS,
            link.posted_writes_issued / RECORDS, region.snapshot(), bytes(expected))


@pytest.mark.parametrize("size,run_ceiling,tlps", [
    (100, 1.00, 2.50),      # fits the buffer: the flush posts the one extent
    (1060, 2.00, 17.50),    # the store evicts the extent's head, the flush posts the rest
    (2100, 2.00, 33.75),
])
def test_runs_per_record_within_budget(size, run_ceiling, tlps):
    entries, deposits, issued, image, expected = stream(size)
    assert image == expected
    assert issued == tlps, f"{size} B: the model posts one TLP per line touched"
    assert entries <= run_ceiling, (
        f"{size} B records: {entries} burst entries each, budget {run_ceiling} "
        "— lines posted one by one again? (scripts/byte_path_cost.py)")
    assert deposits <= run_ceiling, (
        f"{size} B records: {deposits} region.write deposits each, budget "
        f"{run_ceiling} — a landed run deposited line by line?")


def test_streaming_never_asks_a_run_for_its_per_tlp_keys(monkeypatch):
    """Store, flush, drain: every settle finds a run wholly landed or wholly
    in flight, so the first and last keys decide and nothing is replayed."""
    def replayed(_run):
        raise AssertionError("per-TLP landing keys materialised while streaming")

    monkeypatch.setattr(PostedRun, "keys", replayed)
    monkeypatch.setattr(PostedRun, "flights", replayed)
    for size in (100, 1060, 2100):
        _entries, _deposits, _issued, image, expected = stream(size)
        assert image == expected


def test_streaming_builds_no_dirty_mask(monkeypatch):
    """Back-to-back records never leave a gap in a line, so nothing on this
    shape is a masked line: the WC buffer allocates no ``bytearray``."""
    def built(*_args):
        raise AssertionError("bytearray built in repro.host.wc while streaming")

    monkeypatch.setattr(repro.host.wc, "bytearray", built, raising=False)
    for size in (100, 1060, 2100):
        _entries, _deposits, _issued, image, expected = stream(size)
        assert image == expected
