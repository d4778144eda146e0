"""SimFlow — static resource-flow liveness analysis for the event engine.

The DC-L1 designs live or die on credit/queue behaviour: NoC#1 Q1
credits, L1/L2 MSHR entries and crossbar ports form a chain of
hold-and-wait acquisitions threaded across ``GPUSystem``'s event
handlers.  A single leaked credit (acquired, never released on some
path) or a circular acquire order silently wedges a run instead of
failing.  SimLint proves determinism hygiene and SimRace proves
same-cycle order-independence; SimFlow is the third leg of the tripod —
**liveness**: every acquired resource is eventually released, and the
acquire-order graph is cycle-free.

**What counts as a resource event.**  Per handler (with SimRace's local
alias + transitive self-call resolution):

* ``<res>.acquire(...)`` / ``<res>.allocate(...)`` — acquire of the
  rooted ``self`` attribute (e.g. ``self.l1_mshrs[i].allocate`` acquires
  ``l1_mshrs``).  Calls through the sanitizer ledger
  (``self._ledger.acquire("dcl1-q1", ...)``) acquire the *named* ledger
  scope instead.
* ``<res>.release(...)`` / ``<res>.free(...)`` — release, same rooting.
* ``<credits>[n] -= 1`` / ``+= 1`` on an attribute whose name contains
  ``credit`` — credit acquire / release (flow-control tokens).

``Server.reserve`` is deliberately *not* an acquire: reservation servers
are time-released by construction (``next_free`` expires), so they
cannot leak.  Only classes that schedule at least one of their own
methods on the engine are analysed — resource wrappers themselves
(``MSHRFile``, ``ResourceLedger``) implement the primitives and are out
of scope.

**Rules.**

========  ========  =====================================================
Rule ID   Severity  What it flags
========  ========  =====================================================
SF301     error     acquire without a reachable release: no handler in
                    the schedule-reachability closure of the acquiring
                    handler (itself included, self-calls folded in) ever
                    releases the resource — or an explicit ``raise`` is
                    reached while the resource is held and not yet handed
                    to a scheduled continuation (exception-path leak)
SF302     error     release of a resource no handler in the class ever
                    acquires, or a double release on one path without an
                    intervening acquire
SF303     error     cycle in the inter-handler acquire-order graph
                    (acquiring R2 while holding R1 adds edge R1 -> R2;
                    a cycle is hold-and-wait deadlock potential)
========  ========  =====================================================

An acquire is "handed to a continuation" once the path performs a
``schedule``/``schedule_in`` call (or calls a helper that transitively
schedules): from then on the release is the continuation's job and the
schedule-reachability closure judges it, not the local path.  The path
walker explores branch/try unions with per-method state caps, so the
pass stays linear in practice.

Suppress a finding with ``# simflow: disable=SF301`` (comma list, or
``all``) on the flagged line or on the enclosing ``def`` line —
SimLint's convention with the ``simflow:`` marker.  Exit codes and
``--select/--strict/--list-rules`` mirror ``repro lint``.

The runtime complement is the stall watchdog
(:mod:`repro.sim.watchdog`): what SimFlow cannot prove statically, the
watchdog diagnoses dynamically with a resource wait-graph dump.  See
``docs/analysis.md``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    Severity,
    normalize_select,
    parse_module,
    scan_files,
    sort_findings,
)
from repro.analysis.simrace import (
    _root_attr,
    method_aliases,
    single_assignment_defs,
)

__all__ = [
    "FLOW_RULES",
    "FlowFinding",
    "flow_source",
    "run_flow",
]

FLOW_RULES: List[Rule] = [
    Rule("SF301", Severity.ERROR,
         "resource acquired without a reachable release (leak)"),
    Rule("SF302", Severity.ERROR,
         "release without acquire / double release"),
    Rule("SF303", Severity.ERROR,
         "cycle in the inter-handler acquire-order graph (deadlock potential)"),
]

#: Method names that acquire / release the object they are called on.
ACQUIRE_METHODS: Set[str] = {"acquire", "allocate"}
RELEASE_METHODS: Set[str] = {"release", "free"}

#: Roots treated as the sanitizer ledger: the resource is the constant
#: scope-name argument, not the ledger attribute itself.
LEDGER_ATTRS: Set[str] = {"_ledger", "ledger"}

_CREDIT_RE = re.compile(r"credit", re.IGNORECASE)

#: Cap on simultaneously-tracked path states per method.  Branch unions
#: are deduplicated first; methods that still exceed the cap are merged
#: conservatively (states beyond the cap are dropped — a may-analysis,
#: so dropping states can only lose findings, never invent them).
_MAX_PATH_STATES = 64


@dataclass(frozen=True)
class FlowFinding(Finding):
    """One liveness finding (leak, bad release, or acquire-order cycle)
    on one resource."""

    resource: str = "<module>"


# --------------------------------------------------------- event extraction


@dataclass(frozen=True)
class _Event:
    """One resource-flow event inside a statement, in source order."""

    kind: str   # "acquire" | "release" | "schedule" | "call"
    name: str   # resource name, or scheduled/called method name
    line: int
    col: int


def _preorder(node: ast.AST) -> Iterator[ast.AST]:
    """Source-order (pre-order) traversal — ``ast.walk`` is BFS and
    would interleave events from sibling subtrees."""
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _preorder(child)


def _resource_of(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Resource name for an acquire/release call, or None when the base
    does not root in ``self`` state."""
    base = call.func.value  # type: ignore[attr-defined]
    root = _root_attr(base, aliases)
    if root is None:
        return None
    if root in LEDGER_ATTRS:
        if (
            call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            return call.args[0].value
        return None  # dynamic scope name: not trackable
    return root


def _expr_events(node: ast.AST, aliases: Dict[str, str]) -> List[_Event]:
    """Ordered resource events inside one expression/simple statement."""
    events: List[_Event] = []
    for sub in _preorder(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            attr = sub.func.attr
            base = sub.func.value
            if attr in ("schedule", "schedule_in"):
                cb: Optional[ast.AST] = sub.args[1] if len(sub.args) > 1 else None
                for kw in sub.keywords:
                    if kw.arg == "callback":
                        cb = kw.value
                handler = ""
                if (
                    isinstance(cb, ast.Attribute)
                    and isinstance(cb.value, ast.Name)
                    and cb.value.id == "self"
                ):
                    handler = cb.attr
                events.append(_Event("schedule", handler, sub.lineno, sub.col_offset))
                continue
            if isinstance(base, ast.Name) and base.id == "self":
                events.append(_Event("call", attr, sub.lineno, sub.col_offset))
                continue
            if attr in ACQUIRE_METHODS or attr in RELEASE_METHODS:
                res = _resource_of(sub, aliases)
                if res is not None:
                    kind = "acquire" if attr in ACQUIRE_METHODS else "release"
                    events.append(_Event(kind, res, sub.lineno, sub.col_offset))
        elif isinstance(sub, ast.AugAssign) and isinstance(
            sub.target, (ast.Attribute, ast.Subscript)
        ):
            root = _root_attr(sub.target, aliases)
            if root is not None and _CREDIT_RE.search(root):
                if isinstance(sub.op, ast.Sub):
                    events.append(
                        _Event("acquire", root, sub.lineno, sub.col_offset)
                    )
                elif isinstance(sub.op, ast.Add):
                    events.append(
                        _Event("release", root, sub.lineno, sub.col_offset)
                    )
    return events


# ------------------------------------------------------- per-method facts


@dataclass
class _MethodFacts:
    """Direct resource-flow facts of one method (flat scan, no paths)."""

    name: str
    lineno: int
    acquires: Dict[str, List[int]] = field(default_factory=dict)   # res -> lines
    releases: Dict[str, List[int]] = field(default_factory=dict)   # res -> lines
    schedules: Set[str] = field(default_factory=set)               # self-handlers
    any_schedule: bool = False
    calls: Set[str] = field(default_factory=set)


@dataclass
class _TransFacts:
    """Facts with direct self-calls folded in (fixpoint over the call
    graph, cycles cut at the back edge)."""

    acquires: Set[str] = field(default_factory=set)
    releases: Set[str] = field(default_factory=set)
    schedules: Set[str] = field(default_factory=set)
    any_schedule: bool = False


def _scan_method(func: ast.AST, aliases: Dict[str, str]) -> _MethodFacts:
    facts = _MethodFacts(name=func.name, lineno=func.lineno)
    for ev in _expr_events(func, aliases):
        if ev.kind == "acquire":
            facts.acquires.setdefault(ev.name, []).append(ev.line)
        elif ev.kind == "release":
            facts.releases.setdefault(ev.name, []).append(ev.line)
        elif ev.kind == "schedule":
            facts.any_schedule = True
            if ev.name:
                facts.schedules.add(ev.name)
        elif ev.kind == "call":
            facts.calls.add(ev.name)
    return facts


def _transitive_facts(methods: Dict[str, _MethodFacts]) -> Dict[str, _TransFacts]:
    memo: Dict[str, _TransFacts] = {}

    def visit(name: str, stack: Set[str]) -> _TransFacts:
        if name in memo:
            return memo[name]
        facts = methods.get(name)
        if facts is None or name in stack:
            return _TransFacts()
        stack.add(name)
        out = _TransFacts(
            acquires={r for r in facts.acquires},
            releases={r for r in facts.releases},
            schedules=set(facts.schedules),
            any_schedule=facts.any_schedule,
        )
        for callee in sorted(facts.calls):
            sub = visit(callee, stack)
            out.acquires |= sub.acquires
            out.releases |= sub.releases
            out.schedules |= sub.schedules
            out.any_schedule = out.any_schedule or sub.any_schedule
        stack.discard(name)
        memo[name] = out
        return out

    for name in methods:
        visit(name, set())
    return memo


# ------------------------------------------------------------- path walker


@dataclass
class _Hold:
    """A held resource on one path: where acquired, and whether a
    scheduled continuation has since taken responsibility for it."""

    line: int
    handed: bool = False


class _State:
    """Held/released resource state along one abstract path."""

    __slots__ = ("held", "released")

    def __init__(
        self,
        held: Optional[Dict[str, _Hold]] = None,
        released: Optional[Set[str]] = None,
    ):
        self.held: Dict[str, _Hold] = held if held is not None else {}
        self.released: Set[str] = released if released is not None else set()

    def copy(self) -> "_State":
        return _State(
            {r: _Hold(h.line, h.handed) for r, h in self.held.items()},
            set(self.released),
        )

    def key(self) -> Tuple:
        return (
            tuple(sorted((r, h.line, h.handed) for r, h in self.held.items())),
            tuple(sorted(self.released)),
        )


@dataclass
class _PathReport:
    """Path-sensitive findings collected while walking one method."""

    order_edges: Dict[Tuple[str, str], int] = field(default_factory=dict)
    raise_leaks: Set[Tuple[str, int, int]] = field(default_factory=set)
    double_releases: Set[Tuple[str, int]] = field(default_factory=set)


class _PathWalker:
    """Statement-level abstract interpreter over one method body.

    Tracks, per path, which resources are held (and whether handed to a
    scheduled continuation) and which were released; records acquire-order
    edges, exception-path leaks and double releases.  ``If`` forks,
    ``Try`` unions body and handler paths (handlers approximated from the
    try-entry state), loops walk the body once plus the zero-iteration
    path.  May-analysis: the state cap drops excess paths, losing — never
    inventing — findings.
    """

    def __init__(
        self,
        aliases: Dict[str, str],
        trans: Dict[str, _TransFacts],
        report: _PathReport,
    ):
        self.aliases = aliases
        self.trans = trans
        self.report = report
        # Enclosing (finalbody, has_handlers) entries, outermost first: a
        # raise runs through the finalbodies before leak-checking, and is
        # skipped entirely when an enclosing handler may catch it.
        self._finally_stack: List[Tuple[List[ast.stmt], bool]] = []

    # -- event application -------------------------------------------------

    def _apply_event(self, state: _State, ev: _Event) -> None:
        report = self.report
        if ev.kind == "acquire":
            for held_res in state.held:
                if held_res != ev.name:
                    report.order_edges.setdefault((held_res, ev.name), ev.line)
            state.held[ev.name] = _Hold(ev.line)
            state.released.discard(ev.name)
        elif ev.kind == "release":
            if ev.name in state.held:
                del state.held[ev.name]
                state.released.add(ev.name)
            elif ev.name in state.released:
                report.double_releases.add((ev.name, ev.line))
            else:
                # Releasing something acquired by an earlier handler —
                # the normal producer/consumer handoff.
                state.released.add(ev.name)
        elif ev.kind == "schedule":
            for hold in state.held.values():
                hold.handed = True
        elif ev.kind == "call":
            callee = self.trans.get(ev.name)
            if callee is None:
                return
            for held_res in state.held:
                for acq in callee.acquires:
                    if acq != held_res:
                        report.order_edges.setdefault((held_res, acq), ev.line)
            for rel in sorted(callee.releases):
                if rel in state.held:
                    del state.held[rel]
                    state.released.add(rel)
            if callee.any_schedule:
                for hold in state.held.values():
                    hold.handed = True

    def _apply_expr(self, states: List[_State], node: ast.AST) -> List[_State]:
        events = _expr_events(node, self.aliases)
        if events:
            for state in states:
                for ev in events:
                    self._apply_event(state, ev)
        return states

    # -- statement walk ----------------------------------------------------

    def _dedup(self, states: List[_State]) -> List[_State]:
        seen: Set[Tuple] = set()
        out: List[_State] = []
        for state in states:
            k = state.key()
            if k not in seen:
                seen.add(k)
                out.append(state)
            if len(out) >= _MAX_PATH_STATES:
                break
        return out

    def walk_block(self, stmts: Sequence[ast.stmt], states: List[_State]) -> List[_State]:
        for stmt in stmts:
            if not states:
                break
            states = self._walk_stmt(stmt, states)
            states = self._dedup(states)
        return states

    def _walk_stmt(self, stmt: ast.stmt, states: List[_State]) -> List[_State]:
        if isinstance(stmt, ast.If):
            states = self._apply_expr(states, stmt.test)
            then_states = self.walk_block(stmt.body, [s.copy() for s in states])
            else_states = self.walk_block(stmt.orelse, states)
            return then_states + else_states
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            states = self._apply_expr(states, stmt.iter)
            once = self.walk_block(stmt.body, [s.copy() for s in states])
            skip = self.walk_block(stmt.orelse, states)
            return once + skip
        if isinstance(stmt, ast.While):
            states = self._apply_expr(states, stmt.test)
            once = self.walk_block(stmt.body, [s.copy() for s in states])
            skip = self.walk_block(stmt.orelse, states)
            return once + skip
        if isinstance(stmt, ast.Try):
            entry = [s.copy() for s in states]
            self._finally_stack.append((list(stmt.finalbody), bool(stmt.handlers)))
            body_states = self.walk_block(stmt.body, states)
            body_states = self.walk_block(stmt.orelse, body_states)
            merged = body_states
            for handler in stmt.handlers:
                merged = merged + self.walk_block(
                    handler.body, [s.copy() for s in entry]
                )
            self._finally_stack.pop()
            return self.walk_block(stmt.finalbody, self._dedup(merged))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                states = self._apply_expr(states, item.context_expr)
            return self.walk_block(stmt.body, states)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                states = self._apply_expr(states, stmt.value)
            return []  # path ends; end-of-path leaks are the global check's job
        if isinstance(stmt, ast.Raise):
            states = self._apply_expr(states, stmt)
            if any(has_handlers for _fb, has_handlers in self._finally_stack):
                # May be caught by an enclosing handler; handler paths are
                # modelled separately, so stay silent (may-analysis).
                return []
            # The exception propagates through every enclosing finally
            # block (innermost first) before leaving the method.
            saved = self._finally_stack
            leak_states = [s.copy() for s in states]
            for i in range(len(saved) - 1, -1, -1):
                self._finally_stack = saved[:i]
                leak_states = self.walk_block(saved[i][0], leak_states)
            self._finally_stack = saved
            for state in leak_states:
                for res, hold in state.held.items():
                    if not hold.handed:
                        self.report.raise_leaks.add((res, hold.line, stmt.lineno))
            return []
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return []  # rejoins the loop exit paths already modelled
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return states  # nested defs: not executed here
        return self._apply_expr(states, stmt)


# -------------------------------------------------------------- class pass


def _schedule_closure(
    start: str, trans: Dict[str, _TransFacts]
) -> Set[str]:
    """Handlers reachable from ``start`` over the schedule graph
    (``start`` included): M -> H when M transitively schedules H."""
    seen: Set[str] = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for nxt in trans.get(cur, _TransFacts()).schedules:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _find_cycle(edges: Dict[Tuple[str, str], int]) -> Optional[Tuple[List[str], int]]:
    """A cycle (as a resource list, first == last) in the acquire-order
    graph plus its anchor line, or None.  Deterministic DFS in sorted
    order."""
    graph: Dict[str, List[str]] = {}
    for (a, b) in sorted(edges):
        graph.setdefault(a, []).append(b)

    color: Dict[str, int] = {}  # 0 absent/white, 1 grey, 2 black
    stack: List[str] = []

    def dfs(node: str) -> Optional[List[str]]:
        color[node] = 1
        stack.append(node)
        for nxt in graph.get(node, ()):
            if color.get(nxt, 0) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if color.get(nxt, 0) == 0:
                cycle = dfs(nxt)
                if cycle is not None:
                    return cycle
        stack.pop()
        color[node] = 2
        return None

    for root in sorted(graph):
        if color.get(root, 0) == 0:
            cycle = dfs(root)
            if cycle is not None:
                anchor = min(
                    edges[(cycle[i], cycle[i + 1])]
                    for i in range(len(cycle) - 1)
                )
                return cycle, anchor
    return None


def _analyze_class(
    cls: ast.ClassDef, ctx: ModuleContext, select: Optional[Set[str]]
) -> List[FlowFinding]:
    methods: Dict[str, _MethodFacts] = {}
    asts: Dict[str, ast.AST] = {}
    aliases_by_method: Dict[str, Dict[str, str]] = {}
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            aliases = method_aliases(item, single_assignment_defs(item))
            methods[item.name] = _scan_method(item, aliases)
            asts[item.name] = item
            aliases_by_method[item.name] = aliases

    # Only event-driven classes: at least one method schedules another
    # self-method on the engine.  Resource wrappers (MSHRFile, Server,
    # ResourceLedger...) define acquire/release primitives without the
    # handler protocol and are out of scope.
    if not any(m.schedules for m in methods.values()):
        return []

    trans = _transitive_facts(methods)

    # Path-sensitive pass: order edges, raise-path leaks, double releases.
    reports: Dict[str, _PathReport] = {}
    for name, func in sorted(asts.items()):
        report = _PathReport()
        walker = _PathWalker(aliases_by_method[name], trans, report)
        walker.walk_block(func.body, [_State()])  # type: ignore[attr-defined]
        reports[name] = report

    findings: List[FlowFinding] = []

    def wanted(rule_id: str) -> bool:
        return select is None or rule_id in select

    def emit(
        rule_id: str,
        resource: str,
        line: int,
        extra_suppress: Sequence[int],
        message: str,
    ) -> None:
        if not wanted(rule_id):
            return
        severity = next(sev for rid, sev, _ in FLOW_RULES if rid == rule_id)
        if ctx.suppressed(rule_id, line, *extra_suppress):
            return
        findings.append(
            FlowFinding(
                path=ctx.path, line=line, col=0, rule_id=rule_id,
                severity=severity, resource=resource, message=message,
            )
        )

    # -- SF301: acquire without a reachable release ------------------------
    # Judged at root methods (not called by any other method): a helper's
    # acquires are handed back to its caller, whose schedule closure is
    # the one that must contain the release.
    called_by_others: Set[str] = set()
    for facts in methods.values():
        called_by_others |= facts.calls
    for name in sorted(methods):
        if name in called_by_others:
            continue
        facts = methods[name]
        tfacts = trans.get(name, _TransFacts())
        if not tfacts.acquires:
            continue
        closure = _schedule_closure(name, trans)
        reachable_releases: Set[str] = set()
        for member in closure:
            reachable_releases |= trans.get(member, _TransFacts()).releases
        for resource in sorted(tfacts.acquires):
            if resource in reachable_releases:
                continue
            if resource in facts.acquires:
                line = facts.acquires[resource][0]
            else:  # acquired inside a helper this method calls
                line = min(
                    m.acquires[resource][0]
                    for m in methods.values()
                    if resource in m.acquires
                )
            emit(
                "SF301", resource, line, [facts.lineno],
                f"{cls.name}.{name} acquires '{resource}' but no handler "
                f"reachable from it (checked {len(closure)} handler(s) in "
                "its schedule closure) ever releases it — every acquisition "
                "leaks; pair it with a release or hand it to a handler "
                "that releases it",
            )

    # -- SF301: exception-path leaks ---------------------------------------
    for name in sorted(reports):
        facts = methods[name]
        for resource, acq_line, raise_line in sorted(reports[name].raise_leaks):
            emit(
                "SF301", resource, raise_line, [acq_line, facts.lineno],
                f"{cls.name}.{name} raises while holding '{resource}' "
                f"(acquired at line {acq_line}) before any scheduled "
                "continuation takes it over — the exception path leaks "
                "the resource; release it in a finally block or before "
                "raising",
            )

    # -- SF302: release without acquire / double release -------------------
    class_acquires: Set[str] = set()
    for facts in methods.values():
        class_acquires |= set(facts.acquires)
    for name in sorted(methods):
        facts = methods[name]
        for resource in sorted(facts.releases):
            if resource in class_acquires:
                continue
            line = facts.releases[resource][0]
            emit(
                "SF302", resource, line, [facts.lineno],
                f"{cls.name}.{name} releases '{resource}' but no handler "
                "in the class ever acquires it — a stray release corrupts "
                "the resource's accounting (double-free once the real "
                "owner releases too)",
            )
    for name in sorted(reports):
        facts = methods[name]
        for resource, line in sorted(reports[name].double_releases):
            emit(
                "SF302", resource, line, [facts.lineno],
                f"{cls.name}.{name} releases '{resource}' twice on one "
                "path without an intervening acquire — the second release "
                "frees state another request may already own",
            )

    # -- SF303: acquire-order cycles ---------------------------------------
    if wanted("SF303"):
        edges: Dict[Tuple[str, str], int] = {}
        for report in reports.values():
            for edge, line in report.order_edges.items():
                prev = edges.get(edge)
                if prev is None or line < prev:
                    edges[edge] = line
        found = _find_cycle(edges)
        if found is not None:
            cycle, anchor = found
            emit(
                "SF303", cycle[0], anchor, [cls.lineno],
                f"acquire-order cycle in {cls.name}: "
                + " -> ".join(cycle)
                + " — two requests interleaving these handlers can each "
                "hold one resource while waiting for the other "
                "(hold-and-wait deadlock); acquire in one global order "
                "or release before re-acquiring",
            )
    return findings


# ------------------------------------------------------------- entry points


def flow_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[FlowFinding]:
    """Run the liveness analysis over one source string."""
    wanted = normalize_select(select)
    tree = parse_module(source, path, "SF001", FlowFinding)
    if isinstance(tree, Finding):
        return [tree]
    ctx = ModuleContext(path, source, tree, "simflow")
    findings: List[FlowFinding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            findings.extend(_analyze_class(node, ctx, wanted))
    return sort_findings(findings)


def run_flow(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
) -> List[FlowFinding]:
    """Run the liveness analysis over every Python file under ``paths``."""
    return scan_files(paths, flow_source, select)
