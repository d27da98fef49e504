"""What the benchmark runs and what it reports: workloads and metric tables.

``BENCHMARK.json`` at the repository root is the committed copy of the
tables below (``tests/test_contract.py`` keeps the two in step); the
README explains every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: ``--seconds`` of one reference run.  A run is sized in deterministic
#: *rounds*, not by watching the clock, so that simulated and exact
#: metrics are a function of ``(seed, seconds)`` alone: ``ROUNDS_AT_REF``
#: rounds at scale 1.0 take about this long to measure on the 2-core
#: reference box.
RUN_SECONDS = 10
ROUNDS_AT_REF = 3

CONNECTIONS = 64            # simulated connections of the gw-* workloads
KEYS = 4096                 # key space of every gateway workload
PRELOAD_RATE = 200_000.0    # ops/s (simulated) of the open-loop preload
LATENCY_LIMIT_US = 250.0    # the capacity rule's limit on all-op p99
WARMUP_SHARE = 0.10         # first share of each step that is discarded
GENERATOR_LAG_SHARE = 0.10  # a step whose generator ran later is invalid
LOG_WRAP_SHARE = 0.75       # of a shard's log area; see the README
WATCHDOG_SECONDS = 120      # wall limit of one workload process
REPLY_TIMEOUT_SECONDS = 5.0  # wall limit on one TCP reply


def sizing(seconds: float) -> tuple[int, float]:
    """``--seconds`` -> (rounds, scale); (ROUNDS_AT_REF, 1.0) at RUN_SECONDS.

    Longer runs add rounds; shorter ones drop rounds and then shrink
    every op count by the common ``scale``.
    """
    work = ROUNDS_AT_REF * seconds / RUN_SECONDS
    rounds = max(1, round(work))
    return rounds, min(1.0, work / rounds)


@dataclass(frozen=True)
class GatewaySpec:
    """One in-engine gateway workload (sizes are per round)."""

    name: str
    get_share: float
    value_bytes: int
    zipf_theta: Optional[float]  # None: uniform keys
    preload: bool
    ladder: tuple[float, ...]    # offered ops/s (simulated), ascending
    overload: float
    ops_per_step: int
    reference_rate: float
    readback: bool = False       # GET every written key after the ladder
    # The reference-rate step runs this many times as long as the other
    # steps, where the tail of its latency needs the extra samples to
    # hold still from seed to seed.
    reference_length: int = 1


GATEWAY = {
    spec.name: spec for spec in (
        GatewaySpec("gw-mixed", 0.5, 64, 0.99, True,
                    (100e3, 200e3, 300e3, 400e3, 500e3, 600e3, 800e3, 1000e3),
                    2e6, 3000, 300e3, reference_length=3),
        GatewaySpec("gw-get", 1.0, 64, None, True,
                    (200e3, 400e3, 600e3, 800e3, 1000e3, 1200e3, 1600e3),
                    4e6, 8000, 400e3),
        GatewaySpec("gw-set", 0.0, 2048, None, False,
                    (200e3, 300e3, 400e3, 500e3),
                    2e6, 1500, 200e3, readback=True),
    )
}


@dataclass(frozen=True)
class TcpSpec:
    """``tcp-mixed``: op counts are per run, split evenly over the rounds."""

    connections: int = 2
    window: int = 16            # outstanding requests per connection
    closed_ops: int = 24_000    # phase A
    open_ops: int = 8_000       # phase B
    open_rate: float = 2000.0   # ops/s (wall), Poisson
    get_share: float = 0.5
    value_bytes: int = 64
    zipf_theta: float = 0.99


@dataclass(frozen=True)
class LsmSpec:
    """``lsm-dual``: ``ops`` is per run, split evenly over the rounds."""

    records: int = 4000
    value_bytes: int = 1024
    memtable_bytes: int = 128 * 1024
    area_pages: int = 32768     # the BA-WAL area Fig. 9 uses
    clients: int = 4
    ops: int = 40_000


TCP = TcpSpec()
LSM = LsmSpec()

WORKLOADS = {
    "gw-mixed": "Headline serving mix, open loop: every layer from gateway to "
                "NAND takes part and reads wait behind undurable writes on hot "
                "keys, so a write gain that costs reads shows here.",
    "gw-get": "All GETs: gateway and sim kernel do all the work, the commit "
              "path none. The bypass workload for commit-path changes; "
              "protocol, lane and kernel changes show largest here.",
    "gw-set": "All 2 KiB SETs: commit-path-bound. Coalescer windows, "
              "replicated append, interconnect, WC buffer, PCIe posted writes "
              "and BA_FLUSH of full halves to NAND do most of the work.",
    "tcp-mixed": "The gw-mixed mix over real sockets against a repro serve "
                 "child, closed then open loop: the only workload crossing "
                 "gateway.tcp, so its gap to gw-mixed is the bridge.",
    "lsm-dual": "The paper's own use: an LSM tree with its WAL on the byte "
                "path and its SSTables on the block path of one 2B-SSD, YCSB-A, "
                "4 closed-loop clients; no gateway, no cluster.",
}

# name, unit, clock, better, bound.  A unit names its clock too: plain
# ``s``/``ms``/``us`` are host (wall) time, ``sim_us``/``sim_ms`` are
# simulated time.  Bounds are shares of the parent's median, sized to
# about three times the interquartile spread seen across seeds 1-10
# (README, "Bounds"): the benchmark driver varies the seed between runs.
END_TO_END = (
    ("setup_s", "s", "wall", "lower", 0.25),
    ("wall_ops_per_s", "ops/s", "wall", "higher", 0.15),
    ("wall_p50_ms", "ms", "wall", "lower", 0.25),
    ("sim_get_p50_us", "sim_us", "sim", "lower", 0.05),
    ("sim_get_p99_us", "sim_us", "sim", "lower", 0.25),
    ("sim_set_p50_us", "sim_us", "sim", "lower", 0.10),
    ("sim_set_p99_us", "sim_us", "sim", "lower", 0.25),
    ("sim_capacity_ops_per_s", "ops/s", "sim", "higher", 0.20),
    ("sim_peak_ops_per_s", "ops/s", "sim", "higher", 0.15),
    ("kernel_events_per_op", "count", "exact", "lower", 0.06),
    ("nand_write_amp", "ratio", "exact", "lower", 0.20),
    ("sim_recover_ms", "sim_ms", "sim", "lower", 0.02),
    ("peak_rss_mb", "MiB", "wall", "lower", 0.08),
)

#: Metrics that must be bit-identical for a fixed (seed, seconds).
DETERMINISTIC_CLOCKS = ("sim", "exact")

# name, unit, better.  Layer = package under src/repro/.
PER_LAYER = (
    ("gateway.self_us_per_op", "us", "lower"),
    ("gateway.frame_parse_p50_us", "sim_us", "lower"),
    ("gateway.queue_wait_p50_us", "sim_us", "lower"),
    ("gateway.queue_wait_p99_us", "sim_us", "lower"),
    ("gateway.reply_write_p50_us", "sim_us", "lower"),
    ("gateway.queue_stalls_per_kop", "count", "lower"),
    ("gateway.socket_stalls_per_kop", "count", "lower"),
    ("gateway.proto_encode_ns_per_frame", "ns", "lower"),
    ("gateway.proto_decode_ns_per_frame", "ns", "lower"),
    ("gateway.commit_batch_mean", "count", "higher"),
    ("gateway.commit_barriers_per_kop", "count", "lower"),
    ("gateway.admit_stalls_per_kop", "count", "lower"),
    ("gateway.wal_append_p50_us", "sim_us", "lower"),
    ("gateway.wal_quorum_p50_us", "sim_us", "lower"),
    ("gateway.wal_quorum_p99_us", "sim_us", "lower"),
    ("gateway.tcp_rtt_p99_ms", "ms", "lower"),
    ("gateway.tcp_closed_p50_ms", "ms", "lower"),
    ("gateway.tcp_max_send_lag_ms", "ms", "lower"),
    ("gateway.tcp_server_cpu_us_per_op", "us", "lower"),
    ("gateway.tcp_client_cpu_us_per_op", "us", "lower"),
    ("cluster.self_us_per_op", "us", "lower"),
    ("cluster.append_batch_p50_us", "sim_us", "lower"),
    ("cluster.quorum_wait_p50_us", "sim_us", "lower"),
    ("cluster.quorum_wait_p99_us", "sim_us", "lower"),
    ("cluster.net_send_p50_us", "sim_us", "lower"),
    ("cluster.net_messages_per_op", "count", "lower"),
    ("cluster.net_bytes_per_user_byte", "ratio", "lower"),
    ("wal.self_us_per_op", "us", "lower"),
    ("wal.ba_append_p50_us", "sim_us", "lower"),
    ("wal.ba_commit_p50_us", "sim_us", "lower"),
    ("wal.ba_commit_p99_us", "sim_us", "lower"),
    ("wal.bytes_per_user_byte", "ratio", "lower"),
    ("wal.flush_stalls", "count", "lower"),
    ("wal.ba_commit_probe_us", "sim_us", "lower"),
    ("wal.block_commit_probe_us", "sim_us", "lower"),
    ("core.self_us_per_op", "us", "lower"),
    ("core.ba_sync_p50_us", "sim_us", "lower"),
    ("core.ba_flush_p50_us", "sim_us", "lower"),
    ("core.ba_pin_p50_us", "sim_us", "lower"),
    ("core.ba_flushes", "count", "lower"),
    ("core.pages_flushed_per_user_page", "ratio", "lower"),
    ("core.lba_checks_per_kop", "count", "lower"),
    ("host.self_us_per_op", "us", "lower"),
    ("host.wc_store_p50_us", "sim_us", "lower"),
    ("host.wc_flush_p50_us", "sim_us", "lower"),
    ("host.write_verify_read_p50_us", "sim_us", "lower"),
    ("host.wc_lines_per_op", "count", "lower"),
    ("host.wc_evictions_per_kop", "count", "lower"),
    ("pcie.self_us_per_op", "us", "lower"),
    ("pcie.posted_flight_p50_us", "sim_us", "lower"),
    ("pcie.posted_writes_per_op", "count", "lower"),
    ("pcie.posted_bytes_per_user_byte", "ratio", "lower"),
    ("pcie.read_tlps_per_op", "count", "lower"),
    ("ssd.self_us_per_op", "us", "lower"),
    ("ssd.nvme_submit_p50_us", "sim_us", "lower"),
    ("ssd.block_writes_per_kop", "count", "lower"),
    ("ssd.block_bytes_per_user_byte", "ratio", "lower"),
    ("ssd.flushes_per_kop", "count", "lower"),
    ("ftl.self_us_per_op", "us", "lower"),
    ("ftl.write_p50_us", "sim_us", "lower"),
    ("ftl.host_pages_written", "count", "lower"),
    ("ftl.waf", "ratio", "lower"),
    ("ftl.gc_runs", "count", "lower"),
    ("ftl.foreground_gc_stalls", "count", "lower"),
    ("nand.self_us_per_op", "us", "lower"),
    ("nand.program_p50_us", "sim_us", "lower"),
    ("nand.page_programs_per_user_page", "ratio", "lower"),
    ("nand.page_reads_per_kop", "count", "lower"),
    ("nand.block_erases", "count", "lower"),
    ("db.self_us_per_op", "us", "lower"),
    ("db.lsm_flushes", "count", "lower"),
    ("db.lsm_compactions", "count", "lower"),
    ("db.lsm_write_stalls", "count", "lower"),
    ("db.lsm_compaction_mb_per_sim_s", "MB/s", "higher"),
    ("sim.self_us_per_op", "us", "lower"),
    ("sim.self_share", "ratio", "lower"),
    ("sim.kernel_events_per_s", "1/s", "higher"),
    ("obs.self_us_per_op", "us", "lower"),
    ("obs.trace_overhead_share", "ratio", "lower"),
    ("stdlib.self_us_per_op", "us", "lower"),
    ("harness.self_us_per_op", "us", "lower"),
    ("other.self_us_per_op", "us", "lower"),
    ("accuracy.mmio_vs_block_write_x", "ratio", "higher"),
    ("accuracy.read_dma_vs_mmio_4k_x", "ratio", "higher"),
)

END_TO_END_NAMES = tuple(row[0] for row in END_TO_END)
PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
CLOCK = {name: clock for name, _unit, clock, _better, _bound in END_TO_END}
UNIT = {**{row[0]: row[1] for row in END_TO_END},
        **{row[0]: row[1] for row in PER_LAYER}}
