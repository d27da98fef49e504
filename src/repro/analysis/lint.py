"""reprolint: an AST-based determinism linter for the simulator source.

Discrete-event simulation only reproduces the paper's numbers if the
code is *deterministic* (same seed, same events, bit-identical stats)
and *kernel-clean* (every created event is waited on, simulated time
never mixes with wall-clock time).  Those properties are invisible to
unit tests — a ``time.time()`` call or an iteration order leak changes
nothing observable until a golden fixture drifts weeks later — so this
linter bans the anti-patterns statically, the way large event-driven
simulators lint their model code.

Three rule classes (run ``repro lint --list-rules`` for the live table):

* **DET** — nondeterminism: wall-clock reads, the process-global
  ``random`` module, entropy sources, salted ``hash()``, ordering by
  ``id()``, and set iteration that feeds scheduling decisions.
* **SIM** — kernel misuse: events created and discarded, wall-clock
  blocking, negative timeouts, float equality on simulated timestamps,
  processes spawned only to be joined at once.
* **OBS** — observability contract: BA_* API entry points must emit
  spans, direct ``tracing.observe``/``count`` calls must be guarded by
  ``tracing.enabled``, and span names must follow the dotted
  ``layer.module.op`` convention.

Suppression: append ``# reprolint: disable=DET001`` (comma-separated
IDs, or ``all``) to the offending line.  Path-level exemptions live in
:data:`DEFAULT_PER_PATH_IGNORES` — each carries a justification, and
there are deliberately very few.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import pathlib
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.analysis.scan.report import is_placeholder

#: Every implemented rule: ID -> one-line description (the contract the
#: docs and ``--list-rules`` print; tests assert this table is complete).
RULES: dict[str, str] = {
    "DET001": "wall-clock time source (time.time/monotonic/perf_counter, "
              "datetime.now) in simulation code",
    "DET002": "process-global random.* call; route draws through a seeded "
              "sim.rng.RngStreams substream",
    "DET003": "entropy source (os.urandom, uuid.uuid1/uuid4, secrets, "
              "random.SystemRandom)",
    "DET004": "iteration over a set feeding timing/scheduling decisions "
              "(set order is salted per process)",
    "DET005": "builtin hash() call; string hashes are salted per process "
              "(use hashlib, cf. sim.rng)",
    "DET006": "ordering by id(); memory addresses differ across runs",
    "SIM101": "kernel event created and discarded (timeout/event/all_of/"
              "any_of result neither yielded nor stored)",
    "SIM102": "time.sleep blocks the wall clock; simulated delays must "
              "yield engine.timeout(...)",
    "SIM103": "negative literal delay passed to timeout()",
    "SIM104": "float equality comparison against a simulated timestamp "
              "(.now); compare with tolerance or ordering",
    "SIM105": "yield inside a finally suite of a generator; GeneratorExit "
              "thrown at kernel close lands there and the yield raises "
              "RuntimeError or abandons the cleanup",
    "SIM106": "spawn-and-join: 'yield engine.process(callee())' pays a "
              "process bootstrap and a completion wake-up to await a callee "
              "nobody else sees; delegate with 'yield from callee()', or keep "
              "the process with a '# spawn: <what moves if delegated>' reason",
    "SIM107": "garbage-collector call (collect, disable, freeze) in "
              "simulation code; crash cleanup runs in Engine.purge",
    "OBS101": "BA_* API entry point emits no tracing span/observation",
    "OBS102": "tracing.observe/count call not guarded by 'if "
              "tracing.enabled' (costs allocations when tracing is off)",
    "OBS103": "span name is not dotted lowercase 'layer.module.op'",
    "OBS104": "span/counter name uses an unregistered layer namespace "
              "(see SPAN_NAMESPACES)",
}

#: First-segment namespaces a span or counter name may use.  Keeping the
#: set closed catches typo'd layers ("custer.append") and forces new
#: subsystems to register here — which is how docs/observability.md stays
#: the complete span-name index.
SPAN_NAMESPACES: frozenset[str] = frozenset({
    "core", "host", "pcie", "ssd", "nand", "ftl", "wal", "fs", "db",
    "cluster", "gateway",
})

#: Path-pattern exemptions (fnmatch on the posix path), each justified:
#: the wall-clock harness *measures* wall time — that is its job; the
#: bench harness collects between measurements for memory hygiene.
DEFAULT_PER_PATH_IGNORES: tuple[tuple[str, frozenset[str]], ...] = (
    ("*/bench/wallclock.py", frozenset({"DET001"})),
    ("*/bench/*", frozenset({"SIM107"})),
)

_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
_ENTROPY_CALLS = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom",
})
_RANDOM_OK = frozenset({"random.Random", "random.SystemRandom"})
_COLLECTOR_CALLS = frozenset(f"gc.{name}"
                             for name in ("collect", "disable", "freeze"))
_DISCARDABLE_EVENT_FACTORIES = frozenset({"timeout", "event", "all_of", "any_of"})
_SCHEDULING_ATTRS = frozenset({
    "timeout", "process", "request", "release", "submit", "put",
    "succeed", "fail", "schedule", "_schedule", "_defer",
})
_SPAN_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")
_SPAWN_REASON_RE = re.compile(r"#\s*spawn:\s*(.*)$")


@dataclass(frozen=True)
class Violation:
    """One diagnostic: precise location plus rule ID and message."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class LintConfig:
    """Which rules run where."""

    select: Optional[frozenset[str]] = None  # None = every rule
    per_path_ignores: tuple[tuple[str, frozenset[str]], ...] = (
        DEFAULT_PER_PATH_IGNORES
    )

    def rule_enabled(self, rule: str, path: str) -> bool:
        if self.select is not None and rule not in self.select:
            return False
        posix = pathlib.PurePath(path).as_posix()
        for pattern, ignored in self.per_path_ignores:
            if rule in ignored and fnmatch.fnmatch(posix, pattern):
                return False
        return True


def _parse_pragmas(source: str) -> dict[int, set[str]]:
    """Line number -> rule IDs suppressed on that line (or {'all'})."""
    pragmas: dict[int, set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match:
            pragmas[number] = {
                token.strip().upper() if token.strip().lower() != "all" else "all"
                for token in match.group(1).split(",") if token.strip()
            }
    return pragmas


def _parse_spawn_reasons(source: str) -> set[int]:
    """Line numbers carrying a real ``# spawn: <reason>`` justification."""
    justified: set[int] = set()
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SPAWN_REASON_RE.search(text)
        if match and not is_placeholder(match.group(1)):
            justified.add(number)
    return justified


class _FileLinter(ast.NodeVisitor):
    """One pass over one module's AST, accumulating violations."""

    def __init__(self, path: str, config: LintConfig) -> None:
        self.path = path
        self.config = config
        self.violations: list[Violation] = []
        # local name -> dotted origin ("pc" -> "time.perf_counter").
        self._imports: dict[str, str] = {}
        self._tracing_guard_depth = 0
        self._is_core_api = pathlib.PurePath(path).as_posix().endswith("core/api.py")

    # -- plumbing -----------------------------------------------------------

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if self.config.rule_enabled(rule, self.path):
            self.violations.append(Violation(
                self.path, getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1, rule, message,
            ))

    def _dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted origin string."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._imports[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self._imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    # -- DET / SIM call rules ------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            self._check_call(node, dotted)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, dotted: str) -> None:
        if dotted in _WALLCLOCK_CALLS:
            self._report(node, "DET001",
                         f"call to {dotted}() reads the wall clock; simulated "
                         "time is engine.now")
        elif dotted in _ENTROPY_CALLS or dotted.startswith("secrets."):
            self._report(node, "DET003",
                         f"call to {dotted}() draws OS entropy; derive seeds "
                         "via sim.rng.RngStreams")
        elif dotted.startswith("random.") and dotted not in _RANDOM_OK:
            self._report(node, "DET002",
                         f"call to {dotted}() uses the process-global RNG; "
                         "draw from a named RngStreams substream")
        elif dotted == "time.sleep":
            self._report(node, "SIM102",
                         "time.sleep() blocks the wall clock; yield "
                         "engine.timeout(delay) instead")
        elif dotted in _COLLECTOR_CALLS:
            self._report(node, "SIM107",
                         f"{dotted}() in simulation code; crash cleanup runs "
                         "in Engine.purge, not in the collector")
        elif dotted == "hash":
            self._report(node, "DET005",
                         "builtin hash() is salted per process; use hashlib "
                         "digests for stable keys")
        if isinstance(node.func, ast.Attribute) and node.func.attr == "timeout":
            if node.args and _is_negative_literal(node.args[0]):
                self._report(node, "SIM103",
                             "timeout() called with a negative delay; events "
                             "cannot fire in the past")
        self._check_ordering_by_id(node, dotted)
        self._check_span_call(node)

    def _check_ordering_by_id(self, node: ast.Call, dotted: str) -> None:
        if dotted not in ("sorted", "min", "max") and not (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        ):
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            key = keyword.value
            uses_id = (isinstance(key, ast.Name) and key.id == "id") or (
                isinstance(key, ast.Lambda) and any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name) and sub.func.id == "id"
                    for sub in ast.walk(key.body)
                )
            )
            if uses_id:
                self._report(keyword.value, "DET006",
                             "ordering by id() depends on allocation "
                             "addresses, which differ across runs")

    def visit_Compare(self, node: ast.Compare) -> None:
        comparators = [node.left, *node.comparators]
        if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
            id_calls = [
                side for side in comparators
                if isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
                and side.func.id == "id"
            ]
            if id_calls:
                self._report(node, "DET006",
                             "comparing id() values orders by allocation "
                             "address, which differs across runs")
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for side in comparators:
                if isinstance(side, ast.Attribute) and side.attr == "now":
                    self._report(node, "SIM104",
                                 "equality comparison against a simulated "
                                 "timestamp; float time deserves tolerance "
                                 "or ordering comparisons")
                    break
        self.generic_visit(node)

    # -- DET004: set iteration feeding scheduling ----------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expression(node.iter) and _body_schedules(node.body):
            self._report(node, "DET004",
                         "loop over a set drives timing/scheduling; set "
                         "iteration order is salted — sort or use a list")
        self.generic_visit(node)

    # -- SIM101: discarded kernel events -------------------------------------

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _DISCARDABLE_EVENT_FACTORIES
        ):
            self._report(node, "SIM101",
                         f"result of .{value.func.attr}(...) is discarded; "
                         "the event will never be waited on")
        self.generic_visit(node)

    # -- SIM106: a process spawned only to be joined at once -------------------

    def visit_Yield(self, node: ast.Yield) -> None:
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "process"
            and value.args and isinstance(value.args[0], ast.Call)
        ):
            self._report(node, "SIM106",
                         "process spawned and joined at once by its only "
                         "holder; write 'yield from <callee>(...)', or keep it "
                         "with a '# spawn: <what moves if delegated>' comment "
                         "on this or the preceding line")
        self.generic_visit(node)

    # -- OBS101: BA_* entry points must trace ---------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_yield_in_finally(node)
        if self._is_core_api and node.name.startswith("ba_"):
            emits = any(
                isinstance(sub, ast.Attribute)
                and sub.attr in ("span", "observe")
                and isinstance(sub.value, ast.Name) and sub.value.id == "tracing"
                for sub in ast.walk(node)
            )
            if not emits:
                self._report(node, "OBS101",
                             f"API entry point {node.name}() emits no tracing "
                             "span; every BA_* call must be observable")
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- SIM105: yield in a generator's finally suite --------------------------

    def _check_yield_in_finally(self, node: ast.FunctionDef) -> None:
        own_scope = list(_own_scope_walk(node))
        if not any(isinstance(sub, (ast.Yield, ast.YieldFrom))
                   for sub in own_scope):
            return  # not a generator; finally-yield is someone else's problem
        seen: set[tuple[int, int]] = set()
        for sub in own_scope:
            if not isinstance(sub, ast.Try):
                continue
            for final_stmt in sub.finalbody:
                if isinstance(final_stmt, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue  # a nested def is its own generator scope
                for inner in _own_scope_walk(final_stmt):
                    if not isinstance(inner, (ast.Yield, ast.YieldFrom)):
                        continue
                    where = (inner.lineno, inner.col_offset)
                    if where in seen:  # nested try/finally double-walk
                        continue
                    seen.add(where)
                    self._report(inner, "SIM105",
                                 "yield inside a finally suite: when the "
                                 "kernel closes this generator, GeneratorExit "
                                 "resumes here and the yield raises "
                                 "RuntimeError or skips the cleanup")

    # -- OBS102/OBS103: guarded, well-named observations ----------------------

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        guards = _mentions_tracing_enabled(node.test)
        if guards:
            self._tracing_guard_depth += 1
        for statement in node.body:
            self.visit(statement)
        if guards:
            self._tracing_guard_depth -= 1
        for statement in node.orelse:
            self.visit(statement)

    def _check_span_call(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "tracing"):
            return
        if func.attr in ("observe", "count") and self._tracing_guard_depth == 0:
            self._report(node, "OBS102",
                         f"tracing.{func.attr}() outside an 'if "
                         "tracing.enabled' guard runs even when tracing "
                         "is off")
        if func.attr in ("span", "observe", "count") and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if not _SPAN_NAME_RE.match(first.value):
                    self._report(first, "OBS103",
                                 f"span name {first.value!r} does not follow "
                                 "the dotted lowercase 'layer.module.op' "
                                 "convention")
                elif first.value.split(".", 1)[0] not in SPAN_NAMESPACES:
                    # Only meaningful for well-formed names; a malformed
                    # name already fired OBS103 above.
                    self._report(first, "OBS104",
                                 f"span name {first.value!r} starts with "
                                 f"{first.value.split('.', 1)[0]!r}, not a "
                                 "registered layer namespace "
                                 f"({', '.join(sorted(SPAN_NAMESPACES))})")


def _own_scope_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s subtree, excluding nested function/lambda scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(current))


def _is_negative_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
        and node.operand.value > 0
    )


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("intersection", "union", "difference",
                                  "symmetric_difference")
    return False


def _body_schedules(body: Sequence[ast.stmt]) -> bool:
    for statement in body:
        for sub in ast.walk(statement):
            if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)):
                return True
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _SCHEDULING_ATTRS):
                return True
    return False


def _mentions_tracing_enabled(test: ast.AST) -> bool:
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Name) and sub.id == "enabled":
            return True
    return False


# -- entry points -------------------------------------------------------------


def lint_source(source: str, path: str = "<memory>",
                config: Optional[LintConfig] = None) -> list[Violation]:
    """Lint one module's source text; returns sorted violations."""
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 1, (exc.offset or 0) or 1,
                          "E999", f"syntax error: {exc.msg}")]
    linter = _FileLinter(path, config)
    linter.visit(tree)
    pragmas = _parse_pragmas(source)
    spawn_reasons = _parse_spawn_reasons(source)
    kept = []
    for violation in linter.violations:
        suppressed = pragmas.get(violation.line, ())
        if "all" in suppressed or violation.rule in suppressed:
            continue
        if violation.rule == "SIM106" and (
                {violation.line, violation.line - 1} & spawn_reasons):
            continue
        kept.append(violation)
    return sorted(kept, key=lambda v: (v.path, v.line, v.col, v.rule))


def iter_python_files(paths: Iterable[str | pathlib.Path]) -> Iterator[pathlib.Path]:
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[str | pathlib.Path],
               config: Optional[LintConfig] = None) -> list[Violation]:
    """Lint every ``*.py`` under ``paths``; returns sorted violations."""
    config = config or LintConfig()
    violations: list[Violation] = []
    for file_path in iter_python_files(paths):
        violations.extend(
            lint_source(file_path.read_text(), str(file_path), config)
        )
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule))


def main(argv: Optional[list[str]] = None) -> int:
    """CLI: ``repro lint [paths...]``; exit 1 when violations are found."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST determinism/kernel/observability linter for sim code.",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint (default: src/repro)")
    parser.add_argument("--select", metavar="IDS",
                        help="comma-separated rule IDs to run (default: all)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="diagnostic output format")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule ID and description, then exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule_id, description in RULES.items():
            print(f"{rule_id}  {description}")
        return 0
    select = None
    if args.select:
        select = frozenset(token.strip().upper()
                           for token in args.select.split(",") if token.strip())
        unknown = select - set(RULES)
        if unknown:
            parser.error(f"unknown rule IDs: {', '.join(sorted(unknown))}")
    config = LintConfig(select=select)
    violations = lint_paths(args.paths, config)
    if args.format == "json":
        print(json.dumps([violation.__dict__ for violation in violations],
                         indent=2))
    else:
        for violation in violations:
            print(violation.format())
        if violations:
            print(f"{len(violations)} violation(s) "
                  f"across {len({v.path for v in violations})} file(s)")
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
