"""SimRace — a same-cycle ordering-hazard (race) detector for the event engine.

The engine breaks same-timestamp ties by insertion order (``seq``), so any
two events scheduled at the same simulated cycle that touch the same
resource (an MSHR, a crossbar port, a Q1 credit, a cache set) produce
results that silently depend on the *textual order* of ``schedule()``
calls.  A refactor that reorders two innocent-looking lines can shift
every figure the repo reproduces.  SimRace hunts those hazards with two
complementary prongs:

**Static pass** (``repro race --static``, :func:`run_race`): walks the
AST of the simulator packages and, per handler (a method passed to
``schedule``), builds a read/write summary of the shared
resources it touches — attribute state on the owning class (caches,
MSHRs, banks, node credits, NoC topology), with simple local-alias
tracking, commutative scalar counters excluded, and summaries propagated
transitively through direct ``self._helper()`` calls.  Handler pairs that
can be *co-scheduled at equal timestamps* — both scheduled with the same
derived time expression from one function, at the same constant time, or
one of them at a now-derived time — are then checked for
conflicts:

========  ========  =====================================================
Rule ID   Severity  What it flags
========  ========  =====================================================
SR201     error     write/write conflict between two co-scheduled
                    handlers (result depends on schedule-call order)
SR202     warning   read/write conflict between two co-scheduled handlers
SR203     warning   a handler scheduled at a now-derived time writes
                    state also written by another handler
                    (it can land in *any* batch, so it conflicts with
                    every co-resident writer)
========  ========  =====================================================

A ``schedule(..., priority=...)`` call site *declares* its same-cycle
order (the engine sorts on ``(time, priority, seq)``), so pairs with a
declared priority are exempt — that is the sanctioned fix.  Suppress a
finding with ``# simrace: disable=SR201`` (comma list, or ``all``) on the
flagged schedule line or on either handler's ``def`` line, the convention
SimPure shares.  Self-pairs (one handler co-scheduled with itself)
are out of scope: FIFO among identical symmetric events models
arbitration, and any real design resolves it arbitrarily too.

**Dynamic confirmer** (``repro race --confirm``, :func:`confirm_races`):
replays one simulation K times under the engine's shadow-shuffle mode
(``SimConfig(race_check=True)``), which deterministically permutes the
distinct-handler blocks of every same-``(time, priority)`` batch under a
seeded RNG, records which handler pairs were actually co-scheduled, and
diffs the bit-exact :meth:`~repro.sim.results.SimResult.fingerprint` of
each replay against the FIFO baseline.  Each static finding is upgraded
to **CONFIRMED** (some permutation changed the results and the pair was
observed co-scheduled), **BENIGN** (observed co-scheduled, bit-identical
under every permutation), or **UNOBSERVED** (the pair never shared a
batch in this workload).

Known limitations (all deliberate, to stay dependency-free and fast):
analysis is per-class (cross-module handler interactions are invisible),
time-expression matching is textual after one level of local-variable
resolution, and interprocedural time flow (a ``now`` passed as a
parameter) is not tracked.  The dynamic confirmer exists precisely to
cover what the static pass cannot prove.

See ``docs/analysis.md`` for the full story; :mod:`repro.analysis.simpure`
and :mod:`repro.analysis.sanitizer` are the sibling tools.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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

__all__ = [
    "RACE_RULES",
    "RaceFinding",
    "ConfirmReport",
    "PermutationRun",
    "analyze_source",
    "run_race",
    "confirm_races",
    "diff_fingerprints",
    "shuffle_outcomes",
]

RACE_RULES: List[Rule] = [
    Rule("SR201", Severity.ERROR,
         "same-cycle write/write conflict between co-scheduled handlers"),
    Rule("SR202", Severity.WARNING,
         "same-cycle read/write conflict between co-scheduled handlers"),
    Rule("SR203", Severity.WARNING,
         "now-scheduled handler writes state written by other handlers"),
]

#: Methods that mutate the object they are called on.  A call through a
#: ``self`` attribute (or a local alias of one) to any of these counts as
#: a *write* of that attribute; any other method call counts as a read.
MUTATING_METHODS: Set[str] = {
    # reservation servers / ports / memory controllers
    "reserve", "reset", "access",
    # caches, MSHRs, directories
    "allocate", "release", "install", "access_load", "access_store",
    "pop_stalled", "drain_writebacks", "evict", "invalidate", "fill",
    # containers used as queues
    "append", "appendleft", "pop", "popleft", "push", "insert", "extend",
    "add", "remove", "discard", "clear", "update", "setdefault",
    # NoC traversal helpers reserve crossbar ports internally
    "to_l2", "from_l2", "core_to_dcl1", "dcl1_to_core", "traverse", "inject",
    # streaming-bypass filter state
    "on_hit", "on_evict", "on_install",
    # core / wavefront bookkeeping
    "count_access", "bind", "next_stream", "assign_ctas",
}

#: ``self`` attributes excluded from conflict summaries: the engine (every
#: handler schedules), result counters (commutative accumulation), and the
#: sanitizer/watchdog mirrors (pure bookkeeping, never model state).
IGNORED_ATTRS: Set[str] = {
    "engine", "result", "cfg", "spec", "_ledger", "ledger",
    "_sanitized_completions", "_watchdog",
}


@dataclass(frozen=True)
class RaceFinding(Finding):
    """One potential same-cycle ordering hazard between two handlers (a
    syntax-error finding names no real pair)."""

    handlers: Tuple[str, str] = ("<module>", "<module>")
    resources: Tuple[str, ...] = ()


# ------------------------------------------------------------- static pass


@dataclass
class _ScheduleSite:
    """One ``schedule`` call scheduling a self-method."""

    func: str            # enclosing method name
    handler: str         # scheduled self-method name
    line: int
    col: int
    key: str             # normalized (resolved) time-expression text
    is_const: bool       # constant absolute time (class-scoped key)
    is_now: bool         # now-derived time
    has_priority: bool   # explicit priority= declared


@dataclass
class _MethodSummary:
    """Direct effects of one method body."""

    name: str
    lineno: int
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)
    sites: List[_ScheduleSite] = field(default_factory=list)


def _root_attr(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute/subscript chain to the ``self`` attribute at
    its root (through local aliases), or None for non-self state."""
    cur = node
    attrs: List[str] = []
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        if isinstance(cur, ast.Attribute):
            attrs.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        if cur.id == "self":
            return attrs[-1] if attrs else None
        return aliases.get(cur.id)
    return None


def _is_alias_rhs(node: ast.AST) -> bool:
    """True when a RHS is a pure attribute/subscript chain (no calls), so
    the assigned name aliases the root resource rather than a result."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Call):
            return False
        node = node.value
    return isinstance(node, ast.Name)


def _contains_now(node: ast.AST) -> bool:
    """True when the expression *is* the current time: ``now``/``x.now``
    itself, or a ``max(...)`` clamp with a now-valued argument.  A call
    that merely takes ``now`` as input (e.g. ``reserve(now)``) returns a
    later time and does not count."""
    if isinstance(node, ast.Name) and node.id == "now":
        return True
    if isinstance(node, ast.Attribute) and node.attr == "now":
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "max"
    ):
        return any(_contains_now(arg) for arg in node.args)
    return False


def _const_value(node: ast.AST) -> Optional[float]:
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return float(node.value)
    return None


def single_assignment_defs(func: ast.AST) -> Dict[str, ast.AST]:
    """Local single-assignment map (for alias and time-expression
    resolution).  Names assigned more than once are dropped — resolving
    them would pick an arbitrary definition."""
    defs: Dict[str, ast.AST] = {}
    assigned_counts: Dict[str, int] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigned_counts[target.id] = assigned_counts.get(target.id, 0) + 1
                defs[target.id] = node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and isinstance(
            getattr(node, "target", None), ast.Name
        ):
            assigned_counts[node.target.id] = assigned_counts.get(node.target.id, 0) + 2
        elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(node.target, ast.Name):
            assigned_counts[node.target.id] = assigned_counts.get(node.target.id, 0) + 2
    return {k: v for k, v in defs.items() if assigned_counts.get(k, 0) == 1}


def method_aliases(func: ast.AST, defs: Dict[str, ast.AST]) -> Dict[str, str]:
    """Local-name -> owning ``self`` attribute alias map for one method,
    from its :func:`single_assignment_defs`."""
    aliases: Dict[str, str] = {}
    for name, rhs in defs.items():
        if _is_alias_rhs(rhs):
            root = _root_attr(rhs, {})
            if root is None and isinstance(rhs, ast.Name):
                continue  # alias of a parameter/local, resolved below
            if root is not None:
                aliases[name] = root
    # One more round so chains like ``slice_ = self.l2_slices[s]`` then
    # ``mshr = slice_.mshr`` resolve to the same root.
    for name, rhs in defs.items():
        if name not in aliases and _is_alias_rhs(rhs):
            root = _root_attr(rhs, aliases)
            if root is not None:
                aliases[name] = root
    return aliases


def _summarize_method(func: ast.AST) -> _MethodSummary:
    """Build the direct read/write/call/schedule summary of one method."""
    summary = _MethodSummary(name=func.name, lineno=func.lineno)
    defs = single_assignment_defs(func)
    aliases = method_aliases(func, defs)

    def resolve_time(expr: ast.AST) -> ast.AST:
        seen: Set[str] = set()
        while isinstance(expr, ast.Name) and expr.id in defs and expr.id not in seen:
            seen.add(expr.id)
            expr = defs[expr.id]
        return expr

    # Pass 2: accesses and schedule sites.
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_attr(target, aliases)
                    if root is not None and root not in IGNORED_ATTRS:
                        summary.writes.add(root)
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Attribute) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                # Commutative scalar counter (self.outstanding += 1):
                # order-insensitive, excluded from conflict detection.
                continue
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                root = _root_attr(target, aliases)
                if root is not None and root not in IGNORED_ATTRS:
                    summary.writes.add(root)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if isinstance(base, ast.Name) and base.id == "self":
                summary.calls.add(node.func.attr)
            if node.func.attr == "schedule":
                site = _schedule_site(summary.name, node, resolve_time)
                if site is not None:
                    summary.sites.append(site)
                continue
            root = _root_attr(base, aliases)
            if root is not None and root not in IGNORED_ATTRS:
                if node.func.attr in MUTATING_METHODS:
                    summary.writes.add(root)
                else:
                    summary.reads.add(root)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Load)
        ):
            if node.attr not in IGNORED_ATTRS:
                summary.reads.add(node.attr)
    return summary


def _schedule_site(func_name: str, node: ast.Call, resolve_time) -> Optional[_ScheduleSite]:
    """Extract a :class:`_ScheduleSite` from one schedule() call, or None
    when the callback is not a self-method."""
    args = node.args
    time_arg: Optional[ast.AST] = args[0] if args else None
    cb_arg: Optional[ast.AST] = args[1] if len(args) > 1 else None
    has_priority = len(args) > 3
    for kw in node.keywords:
        if kw.arg == "time":
            time_arg = kw.value
        elif kw.arg == "callback":
            cb_arg = kw.value
        elif kw.arg == "priority":
            has_priority = True
    if time_arg is None or not (
        isinstance(cb_arg, ast.Attribute)
        and isinstance(cb_arg.value, ast.Name)
        and cb_arg.value.id == "self"
    ):
        return None
    resolved = resolve_time(time_arg)
    const = _const_value(resolved)
    is_now = _contains_now(resolved)
    if const is not None:
        key = f"const:{const:g}"
        is_const = True
    else:
        try:
            text = ast.unparse(resolved)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            text = ast.dump(resolved)
        key = " ".join(text.split())
        is_const = False
    return _ScheduleSite(
        func=func_name,
        handler=cb_arg.attr,
        line=node.lineno,
        col=node.col_offset,
        key=key,
        is_const=is_const,
        is_now=is_now,
        has_priority=has_priority,
    )


def _transitive_summaries(
    methods: Dict[str, _MethodSummary],
) -> Dict[str, Tuple[Set[str], Set[str]]]:
    """(reads, writes) per method with direct self-calls folded in."""
    memo: Dict[str, Tuple[Set[str], Set[str]]] = {}

    def visit(name: str, stack: Set[str]) -> Tuple[Set[str], Set[str]]:
        if name in memo:
            return memo[name]
        summ = methods.get(name)
        if summ is None or name in stack:
            return set(), set()
        stack.add(name)
        reads = set(summ.reads)
        writes = set(summ.writes)
        for callee in sorted(summ.calls):
            r, w = visit(callee, stack)
            reads |= r
            writes |= w
        stack.discard(name)
        memo[name] = (reads, writes)
        return memo[name]

    for name in methods:
        visit(name, set())
    return memo


def _pair_conflicts(
    a: str,
    b: str,
    effects: Dict[str, Tuple[Set[str], Set[str]]],
) -> Tuple[List[str], List[str]]:
    """(write/write, read/write) resource lists for a handler pair."""
    ra, wa = effects.get(a, (set(), set()))
    rb, wb = effects.get(b, (set(), set()))
    ww = sorted(wa & wb)
    rw = sorted(((ra & wb) | (rb & wa)) - set(ww))
    return ww, rw


def _analyze_class(
    cls: ast.ClassDef, ctx: ModuleContext, select: Optional[Set[str]]
) -> List[RaceFinding]:
    methods: Dict[str, _MethodSummary] = {}
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[item.name] = _summarize_method(item)
    effects = _transitive_summaries(methods)
    sites = [s for m in methods.values() for s in m.sites if s.handler in methods]

    findings: List[RaceFinding] = []
    reported: Set[Tuple[str, str]] = set()

    def wanted(rule_id: str) -> bool:
        return select is None or rule_id in select

    def emit(
        rule_id: str,
        severity: Severity,
        pair: Tuple[str, str],
        resources: Sequence[str],
        anchor: _ScheduleSite,
        evidence_lines: Sequence[int],
        evidence: str,
    ) -> None:
        if not wanted(rule_id):
            return
        suppress_lines = list(evidence_lines) + [
            methods[h].lineno for h in pair if h in methods
        ]
        if ctx.suppressed(rule_id, *suppress_lines):
            return
        kind = "write/write" if rule_id == "SR201" else (
            "read/write" if rule_id == "SR202" else "write/write"
        )
        findings.append(
            RaceFinding(
                path=ctx.path,
                line=anchor.line,
                col=anchor.col,
                rule_id=rule_id,
                severity=severity,
                handlers=pair,
                resources=tuple(resources),
                message=(
                    f"handlers {cls.name}.{pair[0]} and {cls.name}.{pair[1]} can "
                    f"run at the same cycle ({evidence}) with a {kind} conflict "
                    f"on {', '.join(resources)} — the outcome depends on "
                    "schedule() call order; declare the order with "
                    "schedule(..., priority=...) or restructure"
                ),
            )
        )
        reported.add(pair)

    # -- same-site / same-key co-scheduling (SR201 / SR202) ----------------
    groups: Dict[Tuple[str, str], List[_ScheduleSite]] = {}
    for site in sites:
        gk = ("<const>", site.key) if site.is_const else (site.func, site.key)
        groups.setdefault(gk, []).append(site)
    for gk in sorted(groups, key=lambda g: (g[0], g[1])):
        group = groups[gk]
        for i, sa in enumerate(group):
            for sb in group[i + 1:]:
                if sa.handler == sb.handler:
                    continue  # self-pairs: arbitration, out of scope
                if sa.has_priority or sb.has_priority:
                    continue  # order declared explicitly
                pair = tuple(sorted((sa.handler, sb.handler)))
                if pair in reported:
                    continue
                ww, rw = _pair_conflicts(pair[0], pair[1], effects)
                where = (
                    f"both scheduled at time `{sa.key}` "
                    f"[{gk[0]}: lines {sa.line} and {sb.line}]"
                )
                anchor = sa if sa.line <= sb.line else sb
                if ww:
                    emit("SR201", Severity.ERROR, pair, ww, anchor,
                         (sa.line, sb.line), where)
                elif rw:
                    emit("SR202", Severity.WARNING, pair, rw, anchor,
                         (sa.line, sb.line), where)

    # -- now-derived co-scheduling (SR203) ---------------------------------
    now_sites: Dict[str, _ScheduleSite] = {}
    for site in sites:
        if site.is_now and not site.has_priority and site.handler not in now_sites:
            now_sites[site.handler] = site
    scheduled_handlers = sorted({s.handler for s in sites})
    for handler in sorted(now_sites):
        site = now_sites[handler]
        for other in scheduled_handlers:
            if other == handler:
                continue
            pair = tuple(sorted((handler, other)))
            if pair in reported:
                continue
            ww, _rw = _pair_conflicts(handler, other, effects)
            if not ww:
                continue
            emit(
                "SR203", Severity.WARNING, pair, ww, site, (site.line,),
                f"{handler} is scheduled at a now-derived time "
                f"[{site.func}: line {site.line}] and can land in any "
                f"same-cycle batch alongside {other}",
            )
    return findings


def analyze_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[RaceFinding]:
    """Run the static race analysis over one source string."""
    wanted = normalize_select(select)
    tree = parse_module(source, path, "SR001", RaceFinding)
    if isinstance(tree, Finding):
        return [tree]
    ctx = ModuleContext(path, source, tree, "simrace")
    findings: List[RaceFinding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            findings.extend(_analyze_class(node, ctx, wanted))
    return sort_findings(findings)


def run_race(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
) -> List[RaceFinding]:
    """Run the static race analysis over every Python file under ``paths``."""
    return scan_files(paths, analyze_source, select)


# -------------------------------------------------------- dynamic confirmer


def diff_fingerprints(
    a: Dict[str, object], b: Dict[str, object], limit: int = 8
) -> List[str]:
    """Fields that differ between two result fingerprints (bit-exact)."""
    out: List[str] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            out.append(f"{key}: {va!r} != {vb!r}")
            if len(out) >= limit:
                out.append("...")
                break
    return out


@dataclass
class PermutationRun:
    """One shadow-shuffle replay vs the FIFO baseline."""

    seed: int
    shuffled_batches: int
    diff: List[str]

    @property
    def identical(self) -> bool:
        return not self.diff


@dataclass
class ConfirmReport:
    """Outcome of a K-replay dynamic confirmation."""

    app: str
    design: str
    k: int
    runs: List[PermutationRun]
    observed_pairs: Dict[Tuple[str, str], int]

    @property
    def ok(self) -> bool:
        """True when every permutation is bit-identical to FIFO."""
        return all(run.identical for run in self.runs)

    def pair_observed(self, handler_a: str, handler_b: str) -> int:
        """Co-scheduled batch count for a handler pair (bare method names
        are matched against recorded qualnames)."""
        count = 0
        for (qa, qb), n in self.observed_pairs.items():
            names = {qa.rsplit(".", 1)[-1], qb.rsplit(".", 1)[-1]}
            if names == {handler_a, handler_b}:
                count += n
        return count

    def verdict_for(self, finding: "RaceFinding") -> str:
        """CONFIRMED / BENIGN / UNOBSERVED for one static finding."""
        if not self.pair_observed(*finding.handlers):
            return "UNOBSERVED"
        return "BENIGN" if self.ok else "CONFIRMED"

    def render(self, findings: Optional[Sequence["RaceFinding"]] = None) -> str:
        lines = [
            f"SimRace confirm: app={self.app} design={self.design} "
            f"K={self.k} co-scheduled pairs observed={len(self.observed_pairs)}"
        ]
        for run in self.runs:
            if run.identical:
                lines.append(
                    f"  seed={run.seed}: bit-identical "
                    f"({run.shuffled_batches} batches shuffled)"
                )
            else:
                lines.append(
                    f"  seed={run.seed}: RESULTS DIFFER "
                    f"({run.shuffled_batches} batches shuffled)"
                )
                lines.extend(f"    {d}" for d in run.diff)
        for pair in sorted(self.observed_pairs):
            lines.append(
                f"  co-scheduled {pair[0]} / {pair[1]}: "
                f"{self.observed_pairs[pair]} batch(es)"
            )
        if findings:
            for f in findings:
                lines.append(
                    f"  {f.rule_id} {f.handlers[0]}/{f.handlers[1]}: "
                    f"{self.verdict_for(f)}"
                )
        lines.append(
            "overall: "
            + (
                "BENIGN (bit-identical under all permutations)"
                if self.ok
                else "CONFIRMED ordering hazard (results depend on same-cycle order)"
            )
        )
        return "\n".join(lines)


def confirm_races(
    app: Any,
    spec: Any,
    config: Any = None,
    k: int = 5,
    findings: Optional[Sequence[RaceFinding]] = None,
) -> ConfirmReport:
    """Replay ``(app, spec, config)`` under K shadow-shuffle permutations
    and diff result fingerprints against the FIFO baseline.

    ``findings`` (from :func:`run_race`) are not consumed here but callers
    typically pass them to :meth:`ConfirmReport.render` for per-finding
    verdicts.
    """
    # Lazy imports: repro.sim.system imports repro.analysis at module
    # load, so importing it here (not at module top) avoids the cycle.
    from dataclasses import replace

    from repro.sim.config import SimConfig
    from repro.sim.system import GPUSystem

    cfg = config if config is not None else SimConfig()
    baseline = GPUSystem(app, spec, cfg).run()
    base_fp = baseline.fingerprint()
    runs: List[PermutationRun] = []
    observed: Dict[Tuple[str, str], int] = {}
    for i in range(1, k + 1):
        shuffled_cfg = replace(cfg, race_check=True, race_seed=cfg.race_seed + i)
        system = GPUSystem(app, spec, shuffled_cfg)
        result = system.run()
        for pair, n in system.engine.batch_pairs.items():
            observed[pair] = observed.get(pair, 0) + n
        runs.append(
            PermutationRun(
                seed=shuffled_cfg.race_seed,
                shuffled_batches=system.engine.shuffled_batches,
                diff=diff_fingerprints(base_fp, result.fingerprint()),
            )
        )
    return ConfirmReport(
        app=baseline.app,
        design=baseline.design,
        k=k,
        runs=runs,
        observed_pairs=observed,
    )


def shuffle_outcomes(factory: Any, k: int = 5, seed: int = 1) -> List[Any]:
    """Run ``factory(engine) -> outcome`` under K shuffled engines.

    A convenience harness for unit-testing ordering sensitivity of small
    hand-built event graphs: if the returned outcomes are not all equal,
    the graph's result depends on same-cycle ordering (CONFIRMED); if they
    are all equal it is BENIGN under these K permutations.
    """
    from repro.sim.engine import Engine

    outcomes = []
    for i in range(k):
        engine = Engine(shuffle_seed=seed + i)
        outcomes.append(factory(engine))
    return outcomes
