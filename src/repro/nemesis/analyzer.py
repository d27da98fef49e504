"""Streaming event analyzer: durability invariants checked as they must hold.

The analyzer subscribes to the campaign's typed event bus
(:mod:`repro.obs.events`) and evaluates invariants *at the simulated
instant each event fires* — the ScyllaDB ``sct_events`` model — instead
of post-processing a log after the run.  Subscribers must never raise
(an exception thrown into an arbitrary emission site would surface as an
unrelated process failure), so violations are recorded and the campaign
driver fails fast at its next checkpoint.

Three layers of checking:

* **streaming** (``on_event``): a quorum-acked commit while fewer than
  ``quorum`` of the stream's legs are on up nodes; a failover promoting
  onto a downed node; bookkeeping for the fault/failover timeline.
* **recovery** (``check_recovery``): after the campaign's last segment,
  every stream's log is re-read from its first surviving leg and every
  acked record must be present and untorn, with each client's acked
  sequence numbers forming a gapless prefix — the paper's §III-B BA_SYNC
  durability promise, lifted to the pool.
* **SLO** (``check_slo``): latency-percentile ceilings evaluated against
  the campaign's ``repro.obs`` histograms.

BA_SYNC ordering and torn-publish invariants at the device layer are
simsan's job (:mod:`repro.analysis.sanitizer`); campaigns run under it
and fold its counters into the same verdict.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.obs.events import SimEvent


@dataclasses.dataclass
class Violation:
    """One invariant breach, with enough context to debug from the bundle."""

    time: float
    invariant: str
    message: str

    def to_dict(self) -> dict:
        return {"time": self.time, "invariant": self.invariant,
                "message": self.message}


def parse_payload(payload: bytes) -> Optional[tuple[str, int, int]]:
    """Decode a ``make_payload`` stamp -> (stream, client, seq), or None
    for a torn/foreign record."""
    try:
        head = payload.split(b":", 3)
        if len(head) != 4 or not head[1].startswith(b"c") \
                or not head[2].startswith(b"r"):
            return None
        stream = head[0].decode("ascii")
        client = int(head[1][1:])
        seq = int(head[2][1:])
    except (ValueError, UnicodeDecodeError):
        return None
    if head[3].strip(b"\0"):
        return None  # padding must be zeros: anything else is torn
    return stream, client, seq


class StreamingAnalyzer:
    """Consumes the event bus; accumulates violations and a timeline."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self.crashes: list[tuple[float, str]] = []
        self.faults: list[dict] = []
        self.failovers = 0
        self.failovers_impossible = 0
        self.commits_acked = 0
        self.fallbacks = 0
        self._down: set[str] = set()

    # -- streaming ----------------------------------------------------------

    def on_event(self, event: SimEvent) -> None:
        handler = getattr(self, "_on_" + event.kind.replace(".", "_"), None)
        if handler is not None:
            handler(event)

    def _violate(self, time: float, invariant: str, message: str) -> None:
        self.violations.append(Violation(time, invariant, message))

    def _on_cluster_commit_acked(self, event: SimEvent) -> None:
        self.commits_acked += 1
        quorum = event.get("quorum", 1)
        up_legs = event.get("up_legs")
        if up_legs is not None and up_legs < quorum:
            self._violate(
                event.time, "commit.below-quorum",
                f"stream {event.get('stream')!r} acked lsn "
                f"{event.get('lsn')} with only {up_legs} up leg(s) "
                f"against a quorum of {quorum}")

    def _on_cluster_node_crashed(self, event: SimEvent) -> None:
        self.crashes.append((event.time, event.get("victim")))
        self._down.add(event.get("victim"))

    def _on_cluster_failover_promoted(self, event: SimEvent) -> None:
        self.failovers += 1
        for node in event.get("nodes", ()):
            if node in self._down:
                self._violate(
                    event.time, "failover.promoted-to-downed-node",
                    f"stream {event.get('stream')!r} promoted onto downed "
                    f"node {node!r}")

    def _on_cluster_failover_impossible(self, event: SimEvent) -> None:
        self.failovers_impossible += 1

    def _on_cluster_stream_fallback(self, event: SimEvent) -> None:
        self.fallbacks += 1

    def _on_nemesis_fault_injected(self, event: SimEvent) -> None:
        self.faults.append(event.to_dict())

    # -- end-of-campaign checks ---------------------------------------------

    def check_recovery(self, pool, acked: dict, decode=None) -> dict:
        """Re-read every stream's log from its first up leg; every acked
        record must be present, untorn, and per-client gapless.

        ``acked`` maps stream name -> [(ack_time, payload), ...] as the
        clients recorded them.  Returns a JSON-safe summary.  Streams
        with no surviving leg cannot be checked (they also cannot have
        clients still acking — that *would* be a violation, flagged by
        the streaming layer).

        ``decode`` optionally maps a raw WAL record to the logical
        payload carrying the ``make_payload`` stamp (or ``None`` for an
        undecodable record, counted torn).  The gateway logs
        command-encoded AOF records, so its durability check passes
        :func:`repro.gateway.driver.decode_gateway_record` here; the
        plain replicated-logging campaigns log stamps directly and omit
        it.
        """
        engine = pool.engine
        summary: dict = {}
        for name in sorted(acked):
            acked_payloads = [payload for _time, payload in acked[name]]
            stream = pool.streams.get(name)
            survivor = None
            if stream is not None:
                for leg in stream.legs():
                    if leg.node.up:
                        survivor = leg
                        break
            if survivor is None:
                summary[name] = {"checked": False,
                                 "acked": len(acked_payloads)}
                if acked_payloads and stream is None:
                    self._violate(
                        engine.now, "recovery.stream-lost",
                        f"stream {name!r} with {len(acked_payloads)} acked "
                        "records has vanished from the pool")
                continue
            torn = recovered = 0
            recovered_set = set()

            def check(_lsn, record):
                # One copy per record: the stamp itself, or what decode
                # copies out of the record.
                nonlocal torn, recovered
                recovered += 1
                payload = record.tobytes() if decode is None else decode(record)
                if payload is None or parse_payload(payload) is None:
                    torn += 1
                else:
                    recovered_set.add(payload)

            engine.run_process(survivor.wal.replay(0, check))
            missing = [payload for payload in set(acked_payloads)
                       if bytes(payload) not in recovered_set]
            if torn:
                self._violate(
                    engine.now, "recovery.torn-record",
                    f"stream {name!r}: {torn} unparseable record(s) in the "
                    f"recovered log of leg {survivor.node.name}")
            if missing:
                stamp = bytes(missing[0]).split(b":", 3)[:3]
                self._violate(
                    engine.now, "recovery.acked-lost",
                    f"stream {name!r}: {len(missing)} quorum-acked "
                    f"record(s) missing after recovery from "
                    f"{survivor.node.name} (first: "
                    f"{b':'.join(stamp).decode('ascii', 'replace')})")
            # Acked seqs per client must be a gapless prefix of what the
            # client produced: an acked seq N with an unacked M < N would
            # mean an ack was issued out of order.
            acked_seqs: dict[int, set] = {}
            for payload in acked_payloads:
                parsed = parse_payload(bytes(payload))
                if parsed is not None:
                    acked_seqs.setdefault(parsed[1], set()).add(parsed[2])
            for client, client_seqs in sorted(acked_seqs.items()):
                expected = set(range(len(client_seqs)))
                if client_seqs != expected:
                    self._violate(
                        engine.now, "recovery.ack-gap",
                        f"stream {name!r} client {client}: acked seqs are "
                        f"not a gapless prefix (holes at "
                        f"{sorted(expected - client_seqs)[:4]})")
            summary[name] = {
                "checked": True,
                "leg": survivor.node.name,
                "kind": survivor.kind,
                "acked": len(acked_payloads),
                "recovered": recovered,
                "torn": torn,
                "missing": len(missing),
            }
        return summary

    def check_slo(self, tracer, slo: tuple) -> list[dict]:
        """Evaluate ``(histogram, percentile, max_seconds)`` ceilings.

        Histograms come from the campaign's own tracer; a missing
        histogram is only a violation when the campaign recorded the
        matching activity (e.g. no appends -> no append histogram).
        """
        results = []
        for name, pct, ceiling in slo:
            histogram = tracer.histograms.get(name)
            if histogram is None or not len(histogram):
                results.append({"histogram": name, "pct": pct,
                                "observed": None, "max": ceiling})
                continue
            observed = histogram.percentile(pct)
            results.append({"histogram": name, "pct": pct,
                            "observed": observed, "max": ceiling})
            if observed > ceiling:
                self._violate(
                    0.0, "slo.latency",
                    f"{name} p{pct:g} = {observed:.3e}s exceeds the "
                    f"{ceiling:.3e}s ceiling")
        return results

    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        return {
            "violations": [violation.to_dict()
                           for violation in self.violations],
            "crashes": [{"time": time, "victim": victim}
                        for time, victim in self.crashes],
            "faults": self.faults,
            "failovers": self.failovers,
            "failovers_impossible": self.failovers_impossible,
            "commits_acked": self.commits_acked,
            "fallbacks": self.fallbacks,
        }
