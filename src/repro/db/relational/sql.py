"""A small SQL front end for the relational engine.

Enough SQL to exercise the engine the way the paper's PostgreSQL workloads
do — point and range operations on primary-keyed tables inside explicit
transactions:

.. code-block:: sql

    CREATE TABLE accounts;
    BEGIN;
    INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100);
    UPDATE accounts SET balance = 150 WHERE id = 1;
    SELECT * FROM accounts WHERE id = 1;
    SELECT owner FROM accounts WHERE id BETWEEN 1 AND 10 LIMIT 5;
    DELETE FROM accounts WHERE id = 1;
    COMMIT;

Grammar (case-insensitive keywords):

* ``CREATE TABLE <name>``
* ``INSERT INTO <t> (<col>, ...) VALUES (<literal>, ...)`` — must include
  the primary-key column ``id``;
* ``SELECT *|<cols> FROM <t> WHERE id = <v>`` or
  ``WHERE id BETWEEN <a> AND <b>`` with optional ``LIMIT <n>``;
* ``UPDATE <t> SET <col> = <v>[, ...] WHERE id = <v>``;
* ``DELETE FROM <t> WHERE id = <v>``;
* ``BEGIN`` / ``COMMIT`` / ``ROLLBACK``.

Literals: integers, single-quoted strings (``''`` escapes a quote),
``X'hex'`` byte strings, ``NULL``, ``TRUE``/``FALSE``.

Statements outside an explicit transaction auto-commit.  All execution is
simulated-time honest: each statement runs through the same engine ops
(and therefore the same WAL) as the programmatic API.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.db.relational.engine import RelationalEngine, Transaction
from repro.sim.engine import Event

_TOKEN = re.compile(r"""
    \s*(?:
        (?P<hexstr>[Xx]'(?:[0-9a-fA-F]{2})*')
      | (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+)
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<punct>\*|=|,|\(|\)|;)
    )""", re.VERBOSE)

PRIMARY_KEY = "id"


class SqlError(Exception):
    """Raised for parse errors or unsupported constructs."""


@dataclass
class _Token:
    kind: str
    text: str


def _tokenize(statement: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(statement):
        match = _TOKEN.match(statement, position)
        if match is None:
            remainder = statement[position:].strip()
            if not remainder:
                break
            raise SqlError(f"cannot tokenize near {remainder[:20]!r}")
        position = match.end()
        for kind in ("hexstr", "string", "number", "word", "punct"):
            text = match.group(kind)
            if text is not None:
                tokens.append(_Token(kind, text))
                break
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], source: str) -> None:
        self.tokens = tokens
        self.position = 0
        self.source = source

    def peek(self) -> Optional[_Token]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise SqlError(f"unexpected end of statement: {self.source!r}")
        self.position += 1
        return token

    def expect_word(self, *words: str) -> str:
        token = self.next()
        if token.kind != "word" or token.text.upper() not in words:
            raise SqlError(f"expected {' or '.join(words)}, got {token.text!r}")
        return token.text.upper()

    def expect_punct(self, punct: str) -> None:
        token = self.next()
        if token.kind != "punct" or token.text != punct:
            raise SqlError(f"expected {punct!r}, got {token.text!r}")

    def identifier(self) -> str:
        token = self.next()
        if token.kind != "word":
            raise SqlError(f"expected identifier, got {token.text!r}")
        return token.text

    def literal(self) -> Any:
        token = self.next()
        if token.kind == "number":
            return int(token.text)
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "hexstr":
            return bytes.fromhex(token.text[2:-1])
        if token.kind == "word":
            upper = token.text.upper()
            if upper == "NULL":
                return None
            if upper == "TRUE":
                return True
            if upper == "FALSE":
                return False
        raise SqlError(f"expected a literal, got {token.text!r}")

    def done(self) -> bool:
        token = self.peek()
        if token is not None and token.kind == "punct" and token.text == ";":
            self.position += 1
            token = self.peek()
        return token is None

    def finish(self) -> None:
        if not self.done():
            raise SqlError(f"trailing tokens in {self.source!r}")


class SqlSession:
    """One client connection: statement execution + transaction state."""

    def __init__(self, db: RelationalEngine) -> None:
        self.db = db
        self._txn: Optional[Transaction] = None
        self.statements_executed = 0

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def execute(self, statement: str) -> Iterator[Event]:
        """Process: run one SQL statement; returns rows for SELECT, a row
        count for writes, None for transaction control."""
        parser = _Parser(_tokenize(statement), statement)
        verb = parser.expect_word(
            "CREATE", "INSERT", "SELECT", "UPDATE", "DELETE",
            "BEGIN", "COMMIT", "ROLLBACK",
        )
        handler = getattr(self, f"_exec_{verb.lower()}")
        result = yield from handler(parser)
        self.statements_executed += 1
        return result

    # -- transaction control ----------------------------------------------------

    def _exec_begin(self, parser: _Parser) -> Iterator[Event]:
        parser.finish()
        if self._txn is not None:
            raise SqlError("already in a transaction")
        self._txn = self.db.begin()
        yield self.db.engine.timeout(0.0)
        return None

    def _exec_commit(self, parser: _Parser) -> Iterator[Event]:
        parser.finish()
        if self._txn is None:
            raise SqlError("COMMIT outside a transaction")
        txn, self._txn = self._txn, None
        yield from self.db.commit(txn)
        return None

    def _exec_rollback(self, parser: _Parser) -> Iterator[Event]:
        parser.finish()
        if self._txn is None:
            raise SqlError("ROLLBACK outside a transaction")
        txn, self._txn = self._txn, None
        yield from self.db.abort(txn)
        return None

    def _autocommit(self, work) -> Iterator[Event]:
        """Run a write inside the session txn, or auto-commit one."""
        if self._txn is not None:
            result = yield from work(self._txn)
            return result
        txn = self.db.begin()
        try:
            result = yield from work(txn)
        except BaseException:
            yield from self.db.abort(txn)
            raise
        yield from self.db.commit(txn)
        return result

    # -- DDL / DML ----------------------------------------------------------------

    def _exec_create(self, parser: _Parser) -> Iterator[Event]:
        parser.expect_word("TABLE")
        name = parser.identifier()
        parser.finish()
        self.db.create_table(name)
        yield self.db.engine.timeout(0.0)
        return None

    def _exec_insert(self, parser: _Parser) -> Iterator[Event]:
        parser.expect_word("INTO")
        table = parser.identifier()
        parser.expect_punct("(")
        columns = [parser.identifier()]
        while parser.peek() and parser.peek().text == ",":
            parser.next()
            columns.append(parser.identifier())
        parser.expect_punct(")")
        parser.expect_word("VALUES")
        parser.expect_punct("(")
        values = [parser.literal()]
        while parser.peek() and parser.peek().text == ",":
            parser.next()
            values.append(parser.literal())
        parser.expect_punct(")")
        parser.finish()
        if len(columns) != len(values):
            raise SqlError(f"{len(columns)} columns but {len(values)} values")
        row = dict(zip(columns, values))
        if PRIMARY_KEY not in row:
            raise SqlError(f"INSERT must provide the primary key {PRIMARY_KEY!r}")
        key = row.pop(PRIMARY_KEY)

        def work(txn):
            return self.db.insert(txn, table, key, row)

        result = yield from self._autocommit(work)
        return 1 if result is None else result

    def _parse_where(self, parser: _Parser):
        """Returns ("point", key) or ("range", lo, hi)."""
        parser.expect_word("WHERE")
        column = parser.identifier()
        if column != PRIMARY_KEY:
            raise SqlError(f"only WHERE on {PRIMARY_KEY!r} is supported")
        token = parser.next()
        if token.text == "=":
            return ("point", parser.literal())
        if token.kind == "word" and token.text.upper() == "BETWEEN":
            low = parser.literal()
            parser.expect_word("AND")
            high = parser.literal()
            return ("range", low, high)
        raise SqlError(f"unsupported WHERE operator {token.text!r}")

    def _exec_select(self, parser: _Parser) -> Iterator[Event]:
        token = parser.next()
        if token.text == "*":
            columns = None
        else:
            columns = [token.text]
            while parser.peek() and parser.peek().text == ",":
                parser.next()
                columns.append(parser.identifier())
        parser.expect_word("FROM")
        table = parser.identifier()
        where = self._parse_where(parser)
        limit = 10_000
        if parser.peek() and parser.peek().kind == "word" \
                and parser.peek().text.upper() == "LIMIT":
            parser.next()
            limit = parser.literal()
        parser.finish()
        if where[0] == "point":
            row = yield from self.db.get(table, where[1], txn=self._txn)
            rows = [] if row is None else [(where[1], row)]
        else:
            rows = yield from self.db.range_scan(
                table, where[1], limit=limit, end_key=where[2] + 1
                if isinstance(where[2], int) else where[2], txn=self._txn)
        result = []
        for key, row in rows[:limit]:
            full = {PRIMARY_KEY: key, **row}
            if columns is None:
                result.append(full)
            else:
                missing = [c for c in columns if c not in full]
                if missing:
                    raise SqlError(f"no such column(s): {missing}")
                result.append({c: full[c] for c in columns})
        return result

    def _exec_update(self, parser: _Parser) -> Iterator[Event]:
        table = parser.identifier()
        parser.expect_word("SET")
        updates = {}
        while True:
            column = parser.identifier()
            parser.expect_punct("=")
            updates[column] = parser.literal()
            if parser.peek() and parser.peek().text == ",":
                parser.next()
                continue
            break
        where = self._parse_where(parser)
        parser.finish()
        if where[0] != "point":
            raise SqlError("UPDATE supports WHERE id = <value> only")
        if PRIMARY_KEY in updates:
            raise SqlError("cannot update the primary key")
        key = where[1]
        existing = yield from self.db.get(table, key, txn=self._txn)
        if existing is None:
            return 0
        existing.update(updates)

        def work(txn):
            return self.db.update(txn, table, key, existing)

        yield from self._autocommit(work)
        return 1

    def _exec_delete(self, parser: _Parser) -> Iterator[Event]:
        parser.expect_word("FROM")
        table = parser.identifier()
        where = self._parse_where(parser)
        parser.finish()
        if where[0] != "point":
            raise SqlError("DELETE supports WHERE id = <value> only")
        key = where[1]
        existing = yield from self.db.get(table, key, txn=self._txn)
        if existing is None:
            return 0

        def work(txn):
            return self.db.delete(txn, table, key)

        yield from self._autocommit(work)
        return 1
