"""SimHeat — hot-path hygiene analyzer and twin-path replay confirmer.

The SimTurbo hot path (see ``docs/performance.md``) buys its speed with
hand-maintained *twin implementations*: every instrumented slow path
(``Server.reserve``, ``Crossbar.traverse``, the cold issue path) has an
uninstrumented fast twin whose arithmetic must stay bit-exact.  Replays
enforce that contract: the differential tests in
``tests/test_simturbo.py`` (fast vs forced-slow, fused vs scalar vs
slow, the golden fingerprints) and :func:`confirm_heat` below.

The static pass holds *hot handlers* to review-time hygiene rules
(SH611–SH615): every callback a class schedules, their transitive
self-call closure (skipping calls made under elided instrumentation
guards), and the functions a module names in ``SIMHEAT_HOT_FUNCTIONS``.
SH600 reports a module that does not parse.

The dynamic half, :func:`confirm_heat`, replays a small app/design grid
twice — fast wiring vs. :meth:`GPUSystem.force_slow_path` — and requires
bit-identical fingerprints, then attributes per-handler heap allocation
via the tracemalloc-backed profiler, grading the static findings
CONFIRMED / BENIGN / UNOBSERVED.

Suppression: ``# simheat: disable=SH611`` (or ``ALL``) on the flagged
line, SimLint convention.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    diff_fingerprints,
    single_assignment_defs,
)

__all__ = [
    "HEAT_RULES",
    "HeatFinding",
    "HeatProbe",
    "HeatReport",
    "DEFAULT_CONFIRM_GRID",
    "heat_source",
    "run_heat",
    "confirm_heat",
]

HEAT_RULES: List[Rule] = [
    Rule("SH600", Severity.ERROR, "module failed to parse"),
    Rule("SH611", Severity.WARNING,
         "per-event allocation in a hot handler (container/closure/f-string)"),
    Rule("SH612", Severity.WARNING,
         "attribute chain re-resolved repeatedly inside an event loop"),
    Rule("SH613", Severity.ERROR,
         "per-event environment/config read in a hot handler"),
    Rule("SH614", Severity.ERROR,
         "pooled request stored into a container that outlives completion"),
    Rule("SH615", Severity.WARNING,
         "logging/printing in a hot handler"),
]

#: ``self`` attributes (and bare names) that are instrumentation, not
#: model semantics: code under guards keyed on them is exempt from the
#: hot-path rules, and calls made there do not make a function hot.
ELIDABLE_ATTRS: Set[str] = {
    "_ledger", "ledger", "_sanitizer", "_watchdog", "owner", "holder",
    "holder_since", "_fast", "_force_slow", "_note", "_live_audit",
    "_sanitized_completions",
}

#: Local names that look like in-flight requests (SH614's escape check).
_REQUEST_NAMES: Set[str] = {"req", "retry", "waiter", "nxt", "request"}

#: Container-mutation verbs that capture a reference (SH614).  ``allocate``
#: is deliberately absent: MSHR allocation is a modelled lifecycle hold,
#: not an accidental escape.
_SINK_VERBS: Set[str] = {
    "append", "add", "appendleft", "insert", "extend", "setdefault",
}

_LOG_METHODS: Set[str] = {"debug", "info", "warning", "error", "critical",
                          "exception", "log"}


@dataclass(frozen=True)
class HeatFinding(Finding):
    """One hot-path-hygiene violation (or an SH600 parse failure)."""

    #: Hot handler the finding sits in (confirmer grading).
    handler: str = ""


# ------------------------------------------------------------ manifests


@dataclass
class _Manifest:
    hot_functions: Tuple[str, ...] = ()
    safe_sinks: Set[str] = field(default_factory=set)


def _extract_manifest(tree: ast.Module) -> _Manifest:
    man = _Manifest()
    for stmt in tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        name = stmt.targets[0].id
        if name not in ("SIMHEAT_HOT_FUNCTIONS", "SIMHEAT_REQUEST_SAFE_SINKS"):
            continue
        try:
            value = ast.literal_eval(stmt.value)
        except (ValueError, SyntaxError):
            continue
        if name == "SIMHEAT_HOT_FUNCTIONS":
            man.hot_functions = tuple(value)
        else:
            man.safe_sinks = set(value)
    return man


def _collect_defs(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    """``Class.method`` (and bare module function) name -> def node."""
    defs: Dict[str, ast.FunctionDef] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{stmt.name}.{sub.name}"] = sub
    return defs


# --------------------------------------------------- expression utilities


def _attr_root_and_chain(node: ast.AST) -> Tuple[Optional[str], List[str]]:
    """(root Name id, attribute names innermost-first) of an
    attribute/subscript chain; root is None for non-Name roots."""
    attrs: List[str] = []
    cur = node
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        if isinstance(cur, ast.Attribute):
            attrs.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        return cur.id, list(reversed(attrs))
    return None, list(reversed(attrs))


def _self_attr(node: ast.AST) -> Optional[str]:
    """First attribute of a ``self``-rooted chain, else None."""
    root, attrs = _attr_root_and_chain(node)
    if root == "self" and attrs:
        return attrs[0]
    return None


def _mentions(node: ast.AST, names: Set[str]) -> bool:
    """True when any Name id or Attribute attr in ``node`` is in ``names``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in names:
            return True
    return False


# --------------------------------------------------------- elision logic


def _is_elidable_test(test: ast.AST) -> bool:
    """True for guards that exist purely for instrumentation: any test
    mentioning an elidable attribute (``owner is not None``,
    ``self._ledger is not None``, ``not self._fast`` …)."""
    return _mentions(test, ELIDABLE_ATTRS)


def _is_raise_only(body: List[ast.stmt]) -> bool:
    return all(isinstance(s, ast.Raise) for s in body)


def _fast_truthiness(test: ast.AST, elidable_fast: Set[str]) -> Optional[bool]:
    """Classify an If/IfExp test against the fast gate: True when the
    *body* runs only on the fast path (bare ``self._fast`` / alias),
    False when it runs only on the slow path (``not self._fast``), None
    when the gate is compound or unrelated."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = _fast_truthiness(test.operand, elidable_fast)
        return None if inner is None else not inner
    if isinstance(test, ast.Name) and test.id in elidable_fast:
        return True
    if isinstance(test, ast.Attribute) and test.attr in elidable_fast:
        return True
    return None


def _fast_gate_names(func: ast.FunctionDef) -> Set[str]:
    """``_fast`` plus any local aliases of it in ``func``."""
    names = {"_fast"}
    for name, rhs in single_assignment_defs(func).items():
        if isinstance(rhs, ast.Attribute) and rhs.attr == "_fast":
            names.add(name)
        elif isinstance(rhs, ast.Name) and rhs.id in names:
            names.add(name)
    return names


def _elide_statements(body: Sequence[ast.stmt]) -> List[ast.stmt]:
    """Drop instrumentation statements from a statement list (shallow:
    nested compound statements are kept whole unless elidable)."""
    out: List[ast.stmt] = []
    for stmt in body:
        if isinstance(stmt, ast.If) and (
                _is_elidable_test(stmt.test)
                or _is_raise_only(stmt.body)):
            continue
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            roots = [_self_attr(t) for t in targets]
            if roots and all(r in ELIDABLE_ATTRS
                             for r in roots if r is not None) \
                    and any(r is not None for r in roots):
                continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            attr = getattr(stmt.value.func, "attr", None)
            if attr in ELIDABLE_ATTRS:
                continue
        out.append(stmt)
    return out


# ---------------------------------------------------------- call graph


def _schedule_callbacks(func: ast.FunctionDef) -> Set[str]:
    """Handler attribute names passed to ``schedule(...)`` calls."""
    out: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else None)
        if name not in ("schedule", "schedule_in"):
            continue
        if len(node.args) >= 2:
            cb = node.args[1]
            attr = getattr(cb, "attr", None)
            if attr is not None:
                out.add(attr)
            elif isinstance(cb, ast.Name):
                out.add(cb.id)
    return out


def _self_call_names(func: ast.FunctionDef) -> Set[str]:
    """Names of self-methods called outside elided contexts."""
    out: Set[str] = set()

    def walk(stmts: Sequence[ast.stmt]) -> None:
        for stmt in _elide_statements(stmts):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute):
                    if isinstance(node.func.value, ast.Name) \
                            and node.func.value.id == "self":
                        out.add(node.func.attr)

    walk(func.body)
    return out


# ----------------------------------------------------- hot-path hygiene


def _hot_handlers(tree: ast.Module,
                  man: _Manifest) -> Dict[str, ast.FunctionDef]:
    """Qualname -> def of every function held to the hot-path rules."""
    defs = _collect_defs(tree)
    hot: Dict[str, ast.FunctionDef] = {}
    for qual in man.hot_functions:
        if qual in defs:
            hot[qual] = defs[qual]
    for cls in [s for s in tree.body if isinstance(s, ast.ClassDef)]:
        seeds: Set[str] = set()
        for func in [s for s in cls.body if isinstance(s, ast.FunctionDef)]:
            seeds |= _schedule_callbacks(func)
        # Transitive self-call closure, skipping elided contexts.
        frontier = [s for s in seeds]
        seen: Set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            func = defs.get(f"{cls.name}.{name}")
            if func is None:
                continue
            hot[f"{cls.name}.{name}"] = func
            for callee in _self_call_names(func):
                if callee not in seen and f"{cls.name}.{callee}" in defs:
                    frontier.append(callee)
    return hot


class _HotScanner:
    """Statement walker applying SH611-SH615 inside one hot function,
    honouring elided (instrumentation-only) regions."""

    def __init__(self, qual: str, func: ast.FunctionDef, man: _Manifest,
                 select: Optional[Set[str]], ctx: ModuleContext):
        self.qual = qual
        self.func = func
        self.man = man
        self.select = select
        self.ctx = ctx
        self.gates = _fast_gate_names(func)
        self.findings: List[HeatFinding] = []

    def _want(self, rule: str) -> bool:
        return self.select is None or rule in self.select

    def _emit(self, node: ast.AST, rule: str, severity: Severity,
              message: str) -> None:
        if not self._want(rule):
            return
        line = getattr(node, "lineno", self.func.lineno)
        col = getattr(node, "col_offset", 0)
        if self.ctx.suppressed(rule, line):
            return
        self.findings.append(HeatFinding(
            self.ctx.path, line, col, rule, severity, message,
            handler=self.qual))

    def scan(self) -> List[HeatFinding]:
        self._scan_stmts(self.func.body, in_loop=False)
        return self.findings

    def _scan_stmts(self, stmts: Sequence[ast.stmt], in_loop: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                if _is_elidable_test(stmt.test) \
                        or _is_raise_only(stmt.body):
                    truth = _fast_truthiness(stmt.test, self.gates)
                    if truth is True:
                        # if self._fast: <hot> else: <instrumented>
                        self._scan_test(stmt.test, in_loop)
                        self._scan_stmts(stmt.body, in_loop)
                    elif truth is False:
                        self._scan_test(stmt.test, in_loop)
                        self._scan_stmts(stmt.orelse, in_loop)
                    # Pure instrumentation guard: skip both arms.
                    continue
                self._scan_test(stmt.test, in_loop)
                self._scan_stmts(stmt.body, in_loop)
                self._scan_stmts(stmt.orelse, in_loop)
                continue
            if isinstance(stmt, (ast.While, ast.For)):
                if isinstance(stmt, ast.While):
                    self._scan_test(stmt.test, in_loop)
                self._scan_stmts(stmt.body, in_loop=True)
                self._scan_stmts(stmt.orelse, in_loop)
                self._check_rebinds(stmt)
                continue
            if isinstance(stmt, (ast.Try,)):
                self._scan_stmts(stmt.body, in_loop)
                for h in stmt.handlers:
                    self._scan_stmts(h.body, in_loop)
                self._scan_stmts(stmt.orelse, in_loop)
                self._scan_stmts(stmt.finalbody, in_loop)
                continue
            if isinstance(stmt, ast.FunctionDef):
                continue  # a nested def runs when called, not here
            self._scan_expr_stmt(stmt, in_loop)

    def _scan_test(self, test: ast.AST, in_loop: bool) -> None:
        self._scan_node(test, in_loop)

    def _scan_expr_stmt(self, stmt: ast.stmt, in_loop: bool) -> None:
        # Skip instrumentation assignments/calls outright.
        for one in _elide_statements([stmt]):
            self._scan_node(one, in_loop)
            self._check_escape(one)

    def _scan_node(self, root: ast.AST, in_loop: bool) -> None:
        cfg_seen: Set[object] = set()
        for node in ast.walk(root):
            if isinstance(node, ast.IfExp):
                truth = _fast_truthiness(node.test, self.gates)
                if truth is not None:
                    # Slow arm of a fast-gated ternary is instrumentation.
                    continue
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp, ast.List, ast.Dict,
                                 ast.Set, ast.JoinedStr, ast.Lambda)):
                if isinstance(node, (ast.List, ast.Dict, ast.Set)) \
                        and not self._in_load_position(node):
                    continue
                if self._under_slow_ifexp(root, node):
                    continue
                kind = type(node).__name__
                self._emit(node, "SH611", Severity.WARNING,
                           f"per-event allocation in {self.qual}: {kind} "
                           "constructed on the hot path (hoist or pool it)")
            elif isinstance(node, ast.Call):
                self._scan_call(node)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                root_id, attrs = _attr_root_and_chain(node)
                if root_id == "self" and len(attrs) >= 3 \
                        and attrs[0] in ("cfg", "config") \
                        and node.lineno not in cfg_seen:
                    # One finding per line: sub-chains of a flagged
                    # traversal are implied (ast.walk is outermost-first).
                    cfg_seen.add(node.lineno)
                    self._emit(node, "SH613", Severity.ERROR,
                               f"per-event config traversal "
                               f"self.{'.'.join(attrs)} in hot handler "
                               f"{self.qual} (prebind it at wiring time)")

    @staticmethod
    def _in_load_position(node: ast.AST) -> bool:
        ctx = getattr(node, "ctx", None)
        return ctx is None or isinstance(ctx, ast.Load)

    def _under_slow_ifexp(self, root: ast.AST, target: ast.AST) -> bool:
        """True when ``target`` only occurs in the slow arm of a
        fast-gated conditional expression."""
        for node in ast.walk(root):
            if isinstance(node, ast.IfExp):
                truth = _fast_truthiness(node.test, self.gates)
                if truth is None:
                    continue
                slow_arm = node.orelse if truth is True else node.body
                for sub in ast.walk(slow_arm):
                    if sub is target:
                        return True
        return False

    def _scan_call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Name):
            if fn.id in ("list", "dict", "set", "frozenset"):
                self._emit(node, "SH611", Severity.WARNING,
                           f"per-event allocation in {self.qual}: "
                           f"{fn.id}() constructed on the hot path")
            elif fn.id == "print":
                self._emit(node, "SH615", Severity.WARNING,
                           f"print() in hot handler {self.qual}")
            elif fn.id == "getenv":
                self._emit(node, "SH613", Severity.ERROR,
                           f"environment read in hot handler {self.qual}")
            return
        if not isinstance(fn, ast.Attribute):
            return
        root, attrs = _attr_root_and_chain(fn)
        if root == "os" and attrs and attrs[0] in ("getenv", "environ"):
            self._emit(node, "SH613", Severity.ERROR,
                       f"environment read in hot handler {self.qual} "
                       "(resolve it once at config time — SimPure SP401)")
        elif (root in ("logging", "logger", "log")
              or "logger" in attrs[:-1]
              or (fn.attr in _LOG_METHODS
                  and root is not None and "log" in root)):
            self._emit(node, "SH615", Severity.WARNING,
                       f"logging call in hot handler {self.qual} "
                       "(gate it behind instrumentation or remove it)")

    def _check_rebinds(self, loop: ast.stmt) -> None:
        """SH612: identical >=2-deep attribute chains resolved >=2 times
        within one loop body."""
        seen: Dict[str, List[ast.Attribute]] = {}
        for node in ast.walk(loop):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            root, attrs = _attr_root_and_chain(node)
            if root != "self" or len(attrs) < 2:
                continue
            if attrs[0] in ELIDABLE_ATTRS or attrs[-1] in ELIDABLE_ATTRS:
                continue
            text = ast.unparse(node)
            seen.setdefault(text, []).append(node)
        repeated = {t for t, nodes in seen.items() if len(nodes) >= 2}
        for text in sorted(repeated):
            # Report only the longest repeated chain: its repeated
            # prefixes are the same re-lookup, not separate findings.
            if any(other != text and other.startswith(text + ".")
                   for other in repeated):
                continue
            nodes = seen[text]
            self._emit(nodes[1], "SH612", Severity.WARNING,
                       f"attribute chain {text} resolved "
                       f"{len(nodes)}x inside the event loop in "
                       f"{self.qual} (prebind it before the loop)")

    def _check_escape(self, stmt: ast.stmt) -> None:
        """SH614: a request-shaped local captured by a self-rooted
        container that is not a declared safe sink."""
        safe = self.man.safe_sinks
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) \
                    and node.func.attr in _SINK_VERBS:
                if not any(isinstance(a, ast.Name)
                           and a.id in _REQUEST_NAMES for a in node.args):
                    continue
                attr = _self_attr(node.func.value)
                if attr is None or attr in safe or attr in ELIDABLE_ATTRS:
                    continue
                self._emit(node, "SH614", Severity.ERROR,
                           f"pooled request stored into self.{attr} in "
                           f"{self.qual}; a reference outliving completion "
                           "defeats reinit() recycling (declare it in "
                           "SIMHEAT_REQUEST_SAFE_SINKS if the container is "
                           "drained before completion)")
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Subscript) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in _REQUEST_NAMES:
                attr = _self_attr(node.targets[0])
                if attr is None or attr in safe or attr in ELIDABLE_ATTRS:
                    continue
                self._emit(node, "SH614", Severity.ERROR,
                           f"pooled request stored into self.{attr}[...] in "
                           f"{self.qual}; a reference outliving completion "
                           "defeats reinit() recycling")


# ------------------------------------------------------------- drivers


def heat_source(source: str, path: str = "<string>",
                select: Optional[Iterable[str]] = None) -> List[HeatFinding]:
    """Analyze one source string."""
    tree = parse_module(source, path, "SH600", HeatFinding)
    if isinstance(tree, Finding):
        return [tree]
    ctx = ModuleContext(path, source, tree, "simheat")
    man = _extract_manifest(tree)
    sel = normalize_select(select)
    findings: List[HeatFinding] = []
    for qual, func in sorted(_hot_handlers(tree, man).items()):
        findings.extend(_HotScanner(qual, func, man, sel, ctx).scan())
    return sort_findings(findings)


def run_heat(paths: Sequence[str],
             select: Optional[Iterable[str]] = None) -> List[HeatFinding]:
    """Analyze every Python file under ``paths``."""
    return scan_files(paths, heat_source, select)


# ------------------------------------------------------------ confirmer


#: Default force-fast vs force-slow replay grid: the acceptance workload
#: on Sh40, a clustered decoupled point, a store-heavy app (C-SP, 30%
#: stores — exercises the cold issue path on fast wiring), and the
#: baseline (no NoC#1, no home mapping).
DEFAULT_CONFIRM_GRID: Tuple[Tuple[str, str], ...] = (
    ("T-AlexNet", "Sh40"),
    ("P-2MM", "Sh40+C10"),
    ("C-SP", "Pr40"),
    ("C-BLK", "Baseline"),
)

_VERDICT_CONFIRMED = "CONFIRMED"
_VERDICT_BENIGN = "BENIGN"
_VERDICT_UNOBSERVED = "UNOBSERVED"


@dataclass(frozen=True)
class HeatProbe:
    """One dynamic check: a twin replay or the allocation profile."""

    kind: str      # "twin-diff" | "alloc"
    target: str    # "APP/DESIGN" or the profiled point
    ok: bool
    detail: str = ""

    def format(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        text = f"[{mark}] {self.kind} {self.target}"
        return f"{text}: {self.detail}" if self.detail else text


class HeatReport:
    """Aggregated result of :func:`confirm_heat`."""

    def __init__(self, grid: Sequence[Tuple[str, str]], scale: float,
                 probes: List[HeatProbe],
                 alloc_rows: Sequence[object] = ()):
        self.grid = list(grid)
        self.scale = scale
        self.probes = probes
        #: Per-handler ProfileRows from the tracemalloc-backed run.
        self.alloc_rows = list(alloc_rows)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.probes)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for p in self.probes:
            out[p.kind] = out.get(p.kind, 0) + 1
        return out

    # ------------------------------------------------------- grading

    def _alloc_row_for(self, handler: str):
        tail = handler.rsplit(".", 1)[-1]
        for row in self.alloc_rows:
            name = getattr(row, "handler", "")
            if name == handler or name.rsplit(".", 1)[-1] == tail:
                return row
        return None

    def _alloc_threshold(self) -> float:
        """2x the median per-event allocation across handlers — every
        handler allocates a little (the schedule tuple itself); a
        confirmed SH611/SH614 hot spot stands clearly above the crowd."""
        vals = sorted(getattr(r, "alloc_b_per_event", 0.0)
                      for r in self.alloc_rows)
        if not vals:
            return float("inf")
        median = vals[len(vals) // 2]
        return max(2.0 * median, 64.0)

    def verdict_for(self, finding: HeatFinding) -> str:
        if finding.rule_id == "SH600":
            twin_failed = any(p.kind == "twin-diff" and not p.ok
                              for p in self.probes)
            return _VERDICT_CONFIRMED if twin_failed else _VERDICT_BENIGN
        row = self._alloc_row_for(finding.handler) if finding.handler else None
        if row is None:
            return _VERDICT_UNOBSERVED
        if finding.rule_id in ("SH611", "SH614"):
            if getattr(row, "alloc_b_per_event", 0.0) >= self._alloc_threshold():
                return _VERDICT_CONFIRMED
            return _VERDICT_BENIGN
        return _VERDICT_BENIGN

    # ------------------------------------------------------- rendering

    def render(self, findings: Optional[Sequence[HeatFinding]] = None) -> str:
        lines = [
            f"SimHeat differential confirmer: {len(self.grid)} grid "
            f"point(s) at scale {self.scale}",
        ]
        lines.extend(f"  {p.format()}" for p in self.probes)
        if self.alloc_rows:
            lines.append("  per-handler allocation (tracemalloc, B/event):")
            for row in self.alloc_rows[:8]:
                lines.append(
                    f"    {getattr(row, 'handler', '?'):<40} "
                    f"{getattr(row, 'alloc_b_per_event', 0.0):>8.1f}")
        if findings:
            lines.append("  graded static findings:")
            for f in findings:
                lines.append(f"    {self.verdict_for(f):<11} "
                             f"{f.rule_id} {f.path}:{f.line}")
        n_twin = sum(1 for p in self.probes if p.kind == "twin-diff")
        if self.ok:
            lines.append(
                f"overall: SOUND ({n_twin} force-fast/force-slow replays "
                f"bit-identical, {len(self.alloc_rows)} handlers "
                "alloc-profiled)")
        else:
            bad = next(p for p in self.probes if not p.ok)
            lines.append(f"overall: UNSOUND — {bad.format()}")
        return "\n".join(lines)


def confirm_heat(grid: Optional[Sequence[Tuple[str, str]]] = None,
                 scale: float = 0.1,
                 config: Optional[object] = None,
                 trace_alloc: bool = True) -> HeatReport:
    """Replay a small grid force-fast vs force-slow and require
    bit-identical fingerprints; attribute per-handler allocation via the
    tracemalloc-backed profiler.

    Imports the simulator lazily (analyzer modules must stay importable
    without the sim core, SimLint convention).
    """
    from repro.cli import parse_design
    from repro.sim.config import SimConfig
    from repro.sim.profiler import profile_simulation
    from repro.sim.system import GPUSystem
    from repro.workloads.suite import get_app

    points = list(grid) if grid is not None else list(DEFAULT_CONFIRM_GRID)
    cfg = config if config is not None else SimConfig(scale=scale)
    probes: List[HeatProbe] = []
    for app_name, design in points:
        target = f"{app_name}/{design}"
        try:
            spec = parse_design(design)
            app = get_app(app_name)
            fast_sys = GPUSystem(app, spec, cfg)
            if not fast_sys._fast:
                probes.append(HeatProbe(
                    "twin-diff", target, False,
                    "config attaches a ledger; fast wiring unavailable"))
                continue
            fp_fast = fast_sys.run().fingerprint()
            slow_sys = GPUSystem(app, spec, cfg)
            slow_sys.force_slow_path()
            fp_slow = slow_sys.run().fingerprint()
        except Exception as exc:  # pragma: no cover - defensive
            probes.append(HeatProbe("twin-diff", target, False, repr(exc)))
            continue
        diffs = diff_fingerprints(fp_fast, fp_slow)
        if diffs:
            probes.append(HeatProbe(
                "twin-diff", target, False,
                f"fast/slow fingerprints diverge: {diffs[0]}"))
        else:
            probes.append(HeatProbe(
                "twin-diff", target, True, "fingerprints bit-identical"))

    alloc_rows: List[object] = []
    if trace_alloc and points:
        app_name, design = points[0]
        try:
            _, prof = profile_simulation(
                get_app(app_name), parse_design(design), cfg,
                trace_alloc=True)
            alloc_rows = prof.rows()
            probes.append(HeatProbe(
                "alloc", f"{app_name}/{design}", True,
                f"{len(alloc_rows)} handler(s) profiled"))
        except Exception as exc:  # pragma: no cover - defensive
            probes.append(HeatProbe(
                "alloc", f"{app_name}/{design}", False, repr(exc)))

    return HeatReport(points, getattr(cfg, "scale", scale), probes,
                      alloc_rows)
