"""Crash recovery with BA-WAL: what survives a power failure, and why.

Runs the relational engine with BA-WAL, commits transactions, leaves one
transaction uncommitted and one mid-flight in the CPU write-combining
buffer, then cuts the power mid-workload.  After recovery, exactly the
committed transactions are back.  A second run shrinks the capacitors to
show the recovery manager's failure path.

Run:  python examples/power_loss_recovery.py
"""

from repro.core import BaParams
from repro.db.relational import RelationalEngine
from repro.platform import Platform
from repro.wal import BaWAL


def build(ba_params=None):
    platform = Platform(ba_params=ba_params, seed=9)
    wal = BaWAL(platform.engine, platform.api, area_pages=16384)
    platform.engine.run_process(wal.start())
    db = RelationalEngine(platform.engine, wal)
    db.create_table("accounts")
    return platform, db


def run_workload(platform, db):
    engine = platform.engine

    def scenario():
        for i in range(5):
            txn = db.begin()
            yield from db.insert(txn, "accounts", i,
                                 {"balance": 100 * (i + 1)})
            yield from db.commit(txn)
        # One transaction that never commits...
        dangling = db.begin()
        yield from db.insert(dangling, "accounts", 99,
                             {"balance": -1})
        # ...and the crash happens here.

    engine.run_process(scenario())


def recover(platform, db):
    engine = platform.engine
    fresh = RelationalEngine(engine, db.wal)
    fresh.create_table("accounts")

    def scenario():
        replayed = yield from fresh.recover()
        rows = {}
        for key in list(range(6)) + [99]:
            row = yield from fresh.get("accounts", key)
            if row is not None:
                rows[key] = row["balance"]
        return replayed, rows

    return engine.run_process(scenario())


def main() -> None:
    print("== healthy capacitors (Table I: 3 x 270 uF)")
    platform, db = build()
    run_workload(platform, db)
    report, restored = platform.power.power_cycle()
    print(f"   crash: WC lines lost={report.wc_lines_lost}, "
          f"emergency dump ok={report.device_dumps['2B-SSD']}, "
          f"restored={restored['2B-SSD']}")
    replayed, rows = recover(platform, db)
    print(f"   recovery replayed {replayed} committed ops -> {rows}")
    assert rows == {i: 100 * (i + 1) for i in range(5)}
    assert 99 not in rows, "uncommitted transaction must not survive"

    print("== failure injection: capacitors too small for the 8 MiB dump")
    weak = BaParams(capacitance_farads=1e-6)
    platform, db = build(ba_params=weak)
    run_workload(platform, db)
    report, restored = platform.power.power_cycle()
    print(f"   crash: emergency dump ok={report.device_dumps['2B-SSD']}, "
          f"restored={restored['2B-SSD']}")
    replayed, rows = recover(platform, db)
    print(f"   recovery found {replayed} ops -> {rows} "
          f"(BA-buffer contents were lost)")
    assert rows == {}
    print("power-loss recovery example OK")


if __name__ == "__main__":
    main()
