"""SQL on 2B-SSD: the PostgreSQL story, end to end.

A SQL session runs against the relational engine whose XLOG is a BA-WAL
in the 2B-SSD's BA-buffer.  Transactions commit at memory speed, a crash
hits mid-session, and recovery brings back exactly the committed rows —
followed by a platform-wide statistics dump showing where the bytes went.

Run:  python examples/sql_logging.py
"""

import json

from repro.db.relational import RelationalEngine, SqlSession
from repro.observability import collect_stats
from repro.platform import Platform
from repro.wal import BaWAL


def run_sql(platform, session, *statements):
    engine = platform.engine

    def script():
        results = []
        for statement in statements:
            results.append((yield from session.execute(statement)))
        return results

    return engine.run_process(script())


def main() -> None:
    platform = Platform(seed=44)
    engine = platform.engine
    wal = BaWAL(engine, platform.api, area_pages=16384)
    engine.run_process(wal.start())
    db = RelationalEngine(engine, wal)
    session = SqlSession(db)

    print("== committed work (auto-commit + explicit transaction)")
    run_sql(platform, session,
            "CREATE TABLE accounts",
            "INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)",
            "INSERT INTO accounts (id, owner, balance) VALUES (2, 'bob', 250)",
            "BEGIN",
            "UPDATE accounts SET balance = 80 WHERE id = 1",
            "UPDATE accounts SET balance = 270 WHERE id = 2",
            "COMMIT")
    rows = run_sql(platform, session,
                   "SELECT * FROM accounts WHERE id BETWEEN 1 AND 2")[0]
    for row in rows:
        print(f"   {row}")

    print("== an uncommitted transaction is in flight when the power dies")
    run_sql(platform, session,
            "BEGIN",
            "UPDATE accounts SET balance = 0 WHERE id = 1",
            "INSERT INTO accounts (id, owner, balance) VALUES (3, 'eve', 1)")
    report, restored = platform.power.power_cycle()
    print(f"   crash: dump ok={report.device_dumps['2B-SSD']}, "
          f"restored={restored['2B-SSD']}")

    fresh = RelationalEngine(engine, wal)
    fresh.create_table("accounts")
    replayed = engine.run_process(fresh.recover())
    fresh_session = SqlSession(fresh)
    rows = run_sql(platform, fresh_session,
                   "SELECT * FROM accounts WHERE id BETWEEN 1 AND 3")[0]
    print(f"   recovery replayed {replayed} ops:")
    for row in rows:
        print(f"   {row}")
    assert [r["balance"] for r in rows] == [80, 270]
    assert all(r["id"] != 3 for r in rows), "uncommitted insert must not survive"

    print("== where the bytes went")
    stats = collect_stats(platform)
    twob = stats["devices"]["2B-SSD"]
    summary = {
        "MMIO posted writes": stats["pcie"]["posted_writes"],
        "BA-buffer pins/flushes": (twob["ba_buffer"]["pins"],
                                   twob["ba_buffer"]["flushes"]),
        "NAND page programs": twob["nand"]["page_programs"],
        "emergency dumps": twob["recovery"]["emergency_dumps"],
    }
    print("   " + json.dumps(summary))
    print("sql-logging example OK")


if __name__ == "__main__":
    main()
