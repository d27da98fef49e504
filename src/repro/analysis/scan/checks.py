"""The three reproscan check families: DUR, GEN, LOCK.

**DUR — durability ordering** (static twin of simsan's ``sync.*`` rules):
inside kernel-process generators, a *publish* — storing a durable
watermark (``_synced``/``_durable``/``_quorum_durable``/``_drained``),
succeeding an ``ack``-named event, or registering an SST extent in
``_extents[...]`` — must be dominated on every path by a *barrier*: a
yielded ``ba_sync``/``fsync``/``_await_quorum`` call, or a yielded call
to a function proven (by interprocedural fixpoint) to barrier on every
return path.  Branch edges guarded by a comparison against a durable
watermark (``if lsn <= self._synced: return``) establish durability on
the implied edge, and yields that take in *new* data (``append``,
``append_batch``, ``write``, ``mmio_write``, ``put``) kill it.

**GEN — process-generator discipline** (the PR-6 ``GeneratorExit``
hazard class): kernel generators may yield only kernel events — no bare
``yield``/literal yields (GEN001), no wall-clock sleeps transitively
reachable through the call graph (GEN002) — and no generator may yield
inside a ``finally`` suite, where a ``GeneratorExit`` delivered at an
interpreter-chosen instant turns the yield into a crash or a silently
skipped cleanup (GEN003).

**LOCK — die-parallel locksets** (static twin of simsan's ``die.*``
rules): in modules that arbitrate per-die resources, die-shared state
(the backing ``_data`` page store, per-block ``write_pointer``/
``erase_count``/``programmed``) may be mutated only while a request
token is provably held, or in the *atomic tail* after a release —
``Resource.release`` defers waiter wake-ups, so code up to the next
yield still runs under mutual exclusion (LOCK001).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.scan.cfg import (
    CFG, must_fixpoint, scoped_walk, shallow_nodes,
)
from repro.analysis.scan.project import FunctionInfo, Project
from repro.analysis.scan.report import Finding

#: Every implemented rule: ID -> one-line description.
RULES: dict[str, str] = {
    "DUR001": "durability publish (watermark store / ack.succeed) not "
              "dominated by a WAL barrier (ba_sync/fsync/quorum) on every "
              "path",
    "DUR002": "SST extent registered in the manifest map before the flush "
              "barrier that makes its pages durable",
    "GEN001": "bare/literal yield in a kernel-process generator; processes "
              "may yield only kernel events",
    "GEN002": "wall-clock sleep reachable from a kernel-process generator "
              "through the call graph",
    "GEN003": "yield inside a finally suite of a generator; GeneratorExit "
              "lands here at an arbitrary instant (PR-6 hazard class)",
    "LOCK001": "die-shared state mutated without holding a die/channel "
               "request token or the post-release atomic tail",
}

#: Durable-watermark attributes: storing one claims durability.
WATERMARKS = frozenset({"_synced", "_durable", "_quorum_durable", "_drained"})
#: Event names whose ``.succeed()`` acknowledges durability to a caller.
_ACK_RE = re.compile(r"(^ack$)|(_ack$)")
#: Attribute maps whose subscript-store publishes an SST extent.
EXTENT_MAPS = frozenset({"_extents"})
#: Call names that constitute a durability barrier when yielded.
BARRIER_CALLS = frozenset({"ba_sync", "fsync", "_await_quorum"})
#: Call names that take in new (not yet durable) data; yielding one
#: invalidates an earlier barrier for anything published after it.
NEW_DATA_CALLS = frozenset({"append", "append_batch", "write", "mmio_write",
                            "put"})
#: Names that look like request tokens when tuple-unpacked.
_TOKEN_NAME_RE = re.compile(r"(^|_)(req|request|lock)(_|$)|(^|_)(req|lock)$")
#: Die-shared state atoms (LOCK001), valid only in die-parallel modules.
DIE_SUBSCRIPT_MAPS = frozenset({"_data"})
DIE_ATTR_STORES = frozenset({"write_pointer", "erase_count"})
DIE_MUTATOR_OWNERS = frozenset({"programmed", "_data"})
DIE_MUTATOR_METHODS = frozenset({"add", "discard", "remove", "clear", "pop",
                                 "update", "setdefault", "popitem"})
#: Dotted call targets that block the wall clock (GEN002).
WALLCLOCK_CALLS = frozenset({"time.sleep"})
#: Function-name prefixes exempt from DUR checks: recovery/restore paths
#: legitimately reconstruct watermarks from already-durable storage.
_RECOVERY_PREFIXES = ("recover", "crash_reset", "restore", "reboot",
                      "_recover")
#: Cap on GEN002 call-graph exploration depth.
_REACH_DEPTH = 10


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _is_recovery(fn: FunctionInfo) -> bool:
    return fn.name.startswith(_RECOVERY_PREFIXES)


# -- DUR: durability ordering -------------------------------------------------


def _yield_values(stmt: Optional[ast.AST]) -> Iterator[ast.expr]:
    for node in shallow_nodes(stmt):
        if isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
            yield node.value


def _yield_establishes_barrier(value: ast.expr, fn: FunctionInfo,
                               project: Project,
                               guarantees: set[str]) -> bool:
    for node in ast.walk(value):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in BARRIER_CALLS:
            return True
        if any(target.qualname in guarantees
               for target in project.resolve_call(node, fn)):
            return True
    return False


def _yield_takes_new_data(value: ast.expr) -> bool:
    return any(isinstance(node, ast.Call)
               and _call_name(node) in NEW_DATA_CALLS
               for node in ast.walk(value))


def _durable_guard_edge(test: ast.expr) -> Optional[str]:
    """Which branch edge of ``test`` implies the durability fact.

    Recognizes a bare comparison against a durable-watermark attribute:
    ``lsn <= self._synced`` -> true edge; ``lsn > self._synced`` ->
    false edge (and mirrored operand orders).
    """
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    left, op, right = test.left, test.ops[0], test.comparators[0]

    def is_watermark(expr: ast.expr) -> bool:
        return isinstance(expr, ast.Attribute) and expr.attr in WATERMARKS

    if is_watermark(right):
        if isinstance(op, (ast.Lt, ast.LtE)):
            return "true"
        if isinstance(op, (ast.Gt, ast.GtE)):
            return "false"
    if is_watermark(left):
        if isinstance(op, (ast.Gt, ast.GtE)):
            return "true"
        if isinstance(op, (ast.Lt, ast.LtE)):
            return "false"
    return None


def _durability_facts(fn: FunctionInfo, project: Project,
                      guarantees: set[str]) -> tuple[dict, dict]:
    """Must-analysis: is durability established at each CFG node?"""

    def transfer(stmt: Optional[ast.AST], fact: object) -> object:
        durable = bool(fact)
        for value in _yield_values(stmt):
            if _yield_establishes_barrier(value, fn, project, guarantees):
                durable = True
            elif _yield_takes_new_data(value):
                durable = False
        return durable

    def refine(stmt: Optional[ast.AST], label: Optional[str],
               fact: object) -> object:
        if isinstance(stmt, (ast.If, ast.While)) and label in ("true", "false"):
            if _durable_guard_edge(stmt.test) == label:
                return True
        return fact

    return must_fixpoint(fn.cfg, entry_fact=False, top=True,
                         transfer=transfer,
                         meet=lambda a, b: bool(a) and bool(b),
                         edge_refine=refine)


def _compute_guarantees(project: Project) -> set[str]:
    """Fixpoint: generators that barrier (or prove durability) on every
    return path — callable as interprocedural barriers."""
    guarantees: set[str] = set()
    changed = True
    while changed:
        changed = False
        for fn in project.functions:
            if not fn.is_generator or fn.qualname in guarantees:
                continue
            _in, out = _durability_facts(fn, project, guarantees)
            returns = fn.cfg.return_edges()
            if returns and all(out[edge.src] for edge in returns):
                guarantees.add(fn.qualname)
                changed = True
    return guarantees


def _publishes(stmt: Optional[ast.AST]) -> list[tuple[str, str, ast.AST]]:
    """(rule, stable key, anchor node) for each publish in a statement."""
    found: list[tuple[str, str, ast.AST]] = []
    for node in shallow_nodes(stmt):
        targets: list[ast.expr] = []
        if isinstance(node, (ast.Assign,)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in WATERMARKS:
                found.append(("DUR001", f"watermark:{target.attr}", node))
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in EXTENT_MAPS):
                found.append(("DUR002", f"extents:{target.value.attr}", node))
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "succeed"
                and isinstance(node.func.value, ast.Name)
                and _ACK_RE.search(node.func.value.id)):
            found.append(("DUR001", f"ack:{node.func.value.id}", node))
    return found


def check_durability(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    guarantees = _compute_guarantees(project)
    for fn in project.kernel_generators():
        if _is_recovery(fn):
            continue
        facts_in, _out = _durability_facts(fn, project, guarantees)
        for node_id, stmt in fn.cfg.stmts.items():
            publishes = _publishes(stmt)
            if not publishes:
                continue
            # Yields in the same statement execute before the store.
            fact = bool(facts_in[node_id])
            for value in _yield_values(stmt):
                if _yield_establishes_barrier(value, fn, project, guarantees):
                    fact = True
            if fact:
                continue
            for rule, key, anchor in publishes:
                what = ("durable watermark store"
                        if key.startswith("watermark") else
                        "commit acknowledgement" if key.startswith("ack")
                        else "SST extent registration")
                findings.append(Finding(
                    rule=rule, path=fn.module.path,
                    line=getattr(anchor, "lineno", fn.line),
                    col=getattr(anchor, "col_offset", 0) + 1,
                    function=fn.qualname, key=key,
                    message=f"{what} ({key.split(':', 1)[1]}) is not "
                            "dominated by a barrier "
                            "(ba_sync/fsync/quorum wait) on every path "
                            f"through {fn.name}()",
                ))
    return findings


# -- GEN: process-generator discipline ---------------------------------------


def _direct_wallclock(fn: FunctionInfo) -> Optional[str]:
    for node in scoped_walk(fn.node):
        if isinstance(node, ast.Call):
            dotted = fn.dotted(node.func)
            if dotted in WALLCLOCK_CALLS:
                return dotted
    return None


def check_generators(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    # GEN003 applies to *every* generator: GeneratorExit does not care
    # whether the kernel or a plain for-loop drives it.
    for fn in project.functions:
        if not fn.is_generator:
            continue
        for node in scoped_walk(fn.node):
            is_try = isinstance(node, ast.Try) or (
                hasattr(ast, "TryStar") and isinstance(node, ast.TryStar))
            if not is_try or not node.finalbody:
                continue
            for fin_stmt in node.finalbody:
                for sub in scoped_walk(fin_stmt):
                    if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                        findings.append(Finding(
                            rule="GEN003", path=fn.module.path,
                            line=sub.lineno, col=sub.col_offset + 1,
                            function=fn.qualname, key="yield-in-finally",
                            message="yield inside a finally suite: a "
                                    "GeneratorExit thrown at the kernel's "
                                    "discretion lands here and either "
                                    "crashes or skips the cleanup",
                        ))
    wallclock_cache: dict[str, Optional[str]] = {}
    for fn in project.kernel_generators():
        # GEN001: bare or literal yields.
        for node in scoped_walk(fn.node):
            if isinstance(node, ast.Yield) and (
                    node.value is None
                    or isinstance(node.value, ast.Constant)):
                findings.append(Finding(
                    rule="GEN001", path=fn.module.path,
                    line=node.lineno, col=node.col_offset + 1,
                    function=fn.qualname, key="bare-yield",
                    message="kernel process yields a non-event (bare or "
                            "literal yield); the kernel cannot schedule it "
                            "and the process starves",
                ))
        # GEN002: wall-clock blocking reachable through the call graph.
        chain = _find_wallclock_chain(fn, project, wallclock_cache)
        if chain is not None:
            path_text = " -> ".join(chain)
            findings.append(Finding(
                rule="GEN002", path=fn.module.path,
                line=fn.line, col=fn.node.col_offset + 1,
                function=fn.qualname, key="wallclock",
                message="kernel process reaches a wall-clock sleep "
                        f"({path_text}); simulated delays must yield "
                        "engine.timeout(...)",
            ))
    return findings


def _find_wallclock_chain(fn: FunctionInfo, project: Project,
                          cache: dict[str, Optional[str]]
                          ) -> Optional[list[str]]:
    """BFS over resolved calls; returns the qualname chain to a sleeper."""
    start = (fn.qualname, (fn.qualname,))
    queue: list[tuple[FunctionInfo, tuple[str, ...]]] = [(fn, (fn.qualname,))]
    seen = {start[0]}
    while queue:
        current, trail = queue.pop(0)
        if current.qualname not in cache:
            cache[current.qualname] = _direct_wallclock(current)
        direct = cache[current.qualname]
        if direct is not None:
            return list(trail) + [direct]
        if len(trail) >= _REACH_DEPTH:
            continue
        for call in project.calls_in(current):
            for target in project.resolve_call(call, current):
                if target.qualname in seen:
                    continue
                seen.add(target.qualname)
                queue.append((target, trail + (target.qualname,)))
    return None


# -- LOCK: die-parallel locksets ---------------------------------------------


def _module_is_die_parallel(module_functions: list[FunctionInfo]) -> bool:
    """A module arbitrates dies when some ``.request()`` receiver names one."""
    for fn in module_functions:
        for node in scoped_walk(fn.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "request"):
                try:
                    receiver = ast.unparse(node.func.value)
                except Exception:
                    continue
                if "die" in receiver.lower():
                    return True
    return False


def _collect_tokens(fn: FunctionInfo) -> set[str]:
    """Local names that may hold a granted/grantable request token."""
    tokens: set[str] = set()
    for node in scoped_walk(fn.node):
        if not isinstance(node, ast.Assign):
            continue
        if (isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "request"):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    tokens.add(target.id)
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if (isinstance(element, ast.Name)
                            and _TOKEN_NAME_RE.search(element.id)):
                        tokens.add(element.id)
    return tokens


_LOCK_TOP = (None, True)  # universal held set, atomic tail


def _lock_transfer(tokens: set[str]):
    def transfer(stmt: Optional[ast.AST], fact: object) -> object:
        held, tail = fact  # type: ignore[misc]
        for node in shallow_nodes(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                value = node.value
                if (isinstance(node, ast.Yield)
                        and isinstance(value, ast.Name)
                        and value.id in tokens):
                    held = (held or frozenset()) | {value.id}
                elif held is None or not held:
                    tail = False
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "release"):
                released = {arg.id for arg in node.args
                            if isinstance(arg, ast.Name)}
                if held is not None:
                    held = frozenset(held) - released
                tail = True
        return (held, tail)
    return transfer


def _lock_meet(a: object, b: object) -> object:
    held_a, tail_a = a  # type: ignore[misc]
    held_b, tail_b = b  # type: ignore[misc]
    if held_a is None:
        held = held_b
    elif held_b is None:
        held = held_a
    else:
        held = frozenset(held_a) & frozenset(held_b)
    return (held, bool(tail_a) and bool(tail_b))


def _die_mutations(stmt: Optional[ast.AST]) -> list[tuple[str, ast.AST]]:
    found: list[tuple[str, ast.AST]] = []
    for node in shallow_nodes(stmt):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in DIE_SUBSCRIPT_MAPS):
                found.append((f"{target.value.attr}[...]", node))
            elif (isinstance(target, ast.Attribute)
                  and target.attr in DIE_ATTR_STORES):
                found.append((target.attr, node))
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in DIE_MUTATOR_METHODS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in DIE_MUTATOR_OWNERS):
            found.append(
                (f"{node.func.value.attr}.{node.func.attr}()", node))
    return found


def check_locksets(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    by_module: dict[str, list[FunctionInfo]] = {}
    for fn in project.functions:
        by_module.setdefault(fn.module.path, []).append(fn)
    for path in sorted(by_module):
        module_fns = by_module[path]
        if not _module_is_die_parallel(module_fns):
            continue
        for fn in module_fns:
            if not fn.kernel:
                continue
            tokens = _collect_tokens(fn)
            facts_in, _out = must_fixpoint(
                fn.cfg, entry_fact=(frozenset(), False), top=_LOCK_TOP,
                transfer=_lock_transfer(tokens), meet=_lock_meet)
            transfer = _lock_transfer(tokens)
            for node_id, stmt in fn.cfg.stmts.items():
                mutations = _die_mutations(stmt)
                if not mutations:
                    continue
                held, tail = transfer(stmt, facts_in[node_id])
                if (held is not None and held) or tail:
                    continue
                for what, anchor in mutations:
                    findings.append(Finding(
                        rule="LOCK001", path=fn.module.path,
                        line=getattr(anchor, "lineno", fn.line),
                        col=getattr(anchor, "col_offset", 0) + 1,
                        function=fn.qualname, key=f"die-shared:{what}",
                        message=f"die-shared state {what} mutated in "
                                f"{fn.name}() without a held request token "
                                "or the post-release atomic tail",
                    ))
    return findings


# -- entry point --------------------------------------------------------------


def run_checks(project: Project,
               select: Optional[frozenset[str]] = None) -> list[Finding]:
    """Run every check family over a loaded project."""
    findings = (check_durability(project)
                + check_generators(project)
                + check_locksets(project))
    if select is not None:
        findings = [f for f in findings if f.rule in select]
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.col, f.rule, f.key))
