"""SimShard — distribution-safety analysis for the sweep layer.

ROADMAP items 1–2 (a sweep-as-a-service HTTP front-end, distributed sweep
sharding over a shared object store) rest on one property nothing else
verifies: every payload that crosses a process or host boundary — grid
points into :meth:`repro.experiments.base.Runner.run_many`'s process
pool, :class:`~repro.sim.results.SimResult`\\ s coming back, cache entries
through :mod:`repro.sim.store` — must serialize faithfully and execute
*worker-pure*.  A lambda in a grid builder or a worker that appends to
a module-level list works fine in-process and fails (or worse, silently
diverges) the moment the sweep is sharded across processes or hosts.

SimShard is the fifth leg of the analysis hexapod (SimLint → SimRace →
SimFlow → SimPure → SimShard → SimHeat): a static AST pass over the
sweep/experiment/store layers plus a dynamic confirmer that actually
replays a grid under serial, fork-pool and spawn-pool execution and
requires bit-identical fingerprints.  Grid construction needs no static
rule: ``Runner.run_many`` resolves the whole grid before it simulates
anything, so a malformed point (wrong shape, unknown ``Runner.run``
keyword or ``overrides`` key) raises with no simulation run.  Nor does
payload-field coverage: ``cache_key_manifest()`` and
``identity_manifest()`` derive from the payload dataclasses' own fields.

Static rules
------------

* **SD501** — a non-picklable value (lambda, locally defined
  function/class, open file handle, live engine/system/lock/pool object)
  flows into a pool boundary: ``run_many`` points, ``pool.map`` /
  ``pool.submit`` payloads, or a worker function's return value.
* **SD502** — worker-reachable code reads or writes a *mutable* module
  global.  Each pool process gets its own copy (fork) or a fresh import
  (spawn), so writes never replicate back and reads may observe state
  the parent mutated after the fork point.  Globals that are provably
  safe (rebuilt identically by module import in every process) are
  declared in :data:`WORKER_SAFE_GLOBALS`, SimPure-style.
* **SD503** — fork-unsafety in worker-reachable code: lock/thread
  construction, module-level RNG, ``os.fork``, nested pool construction,
  or a worker callable that is not an importable top-level function
  (lambdas, nested defs and bound methods cannot be pickled by the
  ``spawn`` start method at all).
* **SD505** — result-merge order dependence: worker results combined by
  iterating ``as_completed(...)`` (completion order is a race) or an
  unordered set instead of submission order.

Suppression uses ``# simshard: disable=SD501`` (or ``ALL``) on the
flagged line, mirroring the sibling analyzers.

Dynamic confirmer
-----------------

``repro shard --confirm`` (:func:`confirm_shard`) grades the static
story against reality: it pre-flights the default grid through
``validate_grid``, pickle-roundtrips every resolved grid point and
requires identical ``sim_cache_key``\\ s, pickle-roundtrips every
``SimResult``, then replays the grid three ways — serial, fork-pool and
spawn-pool — and requires bit-identical
:meth:`~repro.sim.results.SimResult.fingerprint`\\ s in submission order.
Findings are graded CONFIRMED / BENIGN / UNOBSERVED like SimRace: a
finding in a module the replay actually exercised is BENIGN when all
probes pass and CONFIRMED when one fails; findings elsewhere stay
UNOBSERVED.

See ``docs/analysis.md`` ("Distribution safety") for the full story.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    Severity,
    in_path_scope,
    normalize_select,
    parse_module,
    scan_files,
    sort_findings,
)
from repro.analysis.simrace import (
    MUTATING_METHODS,
    diff_fingerprints,
    single_assignment_defs,
)

__all__ = [
    "SHARD_RULES",
    "ShardProbe",
    "ShardReport",
    "WORKER_SAFE_GLOBALS",
    "WORKER_MEMO_GLOBALS",
    "DEFAULT_CONFIRM_GRID",
    "shard_source",
    "run_shard",
    "confirm_shard",
]

SHARD_RULES: List[Rule] = [
    Rule("SD501", Severity.ERROR,
         "non-picklable value reaches a pool boundary"),
    Rule("SD502", Severity.ERROR,
         "worker-side use of a mutable module global"),
    Rule("SD503", Severity.ERROR,
         "fork-unsafe construct in worker-reachable code"),
    Rule("SD505", Severity.ERROR,
         "worker results merged in nondeterministic order"),
]

#: Module globals worker-reachable code may read even though they are
#: mutable containers: each is either rebuilt *identically* by module
#: import in every pool process (fork and spawn alike), so reads
#: replicate and the sweep layer never writes them post-import, or is a
#: declared per-process memoization cache (see
#: :data:`WORKER_MEMO_GLOBALS`).  The value documents why.
WORKER_SAFE_GLOBALS: Dict[str, str] = {
    "EXPERIMENTS": "experiment registry, populated deterministically at "
                   "import time; identical in every worker process",
    "_POLICIES": "replacement-policy registry literal; never mutated "
                 "after import",
    "_NAMED_DESIGNS": "CLI design-label table literal; never mutated "
                      "after import",
    "_STREAM_CACHE": "per-worker workload LRU (repro.sim.fleet): a pure "
                     "memoization cache keyed by the profile cache key — "
                     "hits are bit-identical to recomputation and entries "
                     "never flow back to the parent",
}

#: The subset of :data:`WORKER_SAFE_GLOBALS` that worker-reachable code
#: may also *mutate*: per-process memoization caches whose entries are
#: pure functions of their key, so a hit is bit-identical to
#: recomputation and per-worker divergence of cache *contents* cannot
#: produce per-worker divergence of results.  Anything else that writes
#: a module global in a worker stays an SD502 error.
WORKER_MEMO_GLOBALS: FrozenSet[str] = frozenset({"_STREAM_CACHE"})

#: Path fragments marking the sweep/experiment/store layers the
#: per-module rules cover.  ``<string>`` sources (unit-test fixtures)
#: are always in scope, mirroring SimPure.
_SWEEP_LAYER_PARTS = (
    "repro/experiments", "repro/sim", "repro/cli",
    "repro/workloads", "repro/core",
)

#: Pool constructor terminal names (``ProcessPoolExecutor(...)``,
#: ``multiprocessing.Pool(...)``, ``ctx.Pool(...)``).
_POOL_CTORS = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool"})

#: Constructor terminal names whose instances cannot cross a pickle
#: boundary: live synchronisation primitives, threads, pools, sockets,
#: and the simulator's own live objects (an Engine holds a heap of bound
#:-method events; a GPUSystem holds an Engine).
_NONPICKLABLE_CTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
    "Thread", "ProcessPoolExecutor", "ThreadPoolExecutor", "Pool",
    "socket", "Engine", "GPUSystem",
})

#: Mutable-container constructors that make a module-level assignment a
#: mutable global (SD502).
_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
    "deque", "bytearray",
})

#: RNG call prefixes that are fork-unsafe in worker-reachable code: the
#: module RNG state is copied at fork (every worker replays the same
#: stream) and freshly seeded under spawn (streams diverge from fork).
_RNG_PREFIXES = ("random.", "numpy.random.")


# --------------------------------------------------------------- module facts


def _terminal_name(func: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Last identifier of a call target with import aliases expanded:
    ``SimConfig`` for ``config.SimConfig(...)`` and for a bare
    ``SimConfig(...)`` imported under any alias."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        resolved = aliases.get(func.id, func.id)
        return resolved.rsplit(".", 1)[-1]
    return None


def _is_pool_ctor(call: ast.Call, mctx: ModuleContext) -> bool:
    name = _terminal_name(call.func, mctx.aliases)
    return name in _POOL_CTORS


def _pool_names(func: ast.AST, mctx: ModuleContext) -> Set[str]:
    """Local names bound to a pool object inside ``func``
    (``with ProcessPoolExecutor(...) as pool:`` / ``pool = Pool(...)`` /
    the fleet idiom ``pool = <fleet>.acquire(...)``)."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.With):
            for item in node.items:
                if (
                    isinstance(item.context_expr, ast.Call)
                    and _is_pool_ctor(item.context_expr, mctx)
                    and isinstance(item.optional_vars, ast.Name)
                ):
                    names.add(item.optional_vars.id)
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and (
                _is_pool_ctor(node.value, mctx)
                # WorkerFleet acquisition: the pool is handed out by the
                # persistent fleet instead of a constructor, but what
                # crosses its .map()/.submit() is still a pool boundary.
                or (
                    isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "acquire"
                )
            )
        ):
            names.add(node.targets[0].id)
    return names


def _module_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    """Top-level (importable) function definitions of the module."""
    return {
        stmt.name: stmt
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _mutable_module_globals(tree: ast.Module) -> Dict[str, int]:
    """Module-level names bound to a mutable container -> definition line."""
    out: Dict[str, int] = {}
    for stmt in tree.body:
        target = None
        value = None
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            target, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            target, value = stmt.target.id, stmt.value
        if target is None or value is None:
            continue
        if isinstance(value, (ast.List, ast.Dict, ast.Set,
                              ast.ListComp, ast.DictComp, ast.SetComp)):
            out[target] = stmt.lineno
        elif (
            isinstance(value, ast.Call)
            and _terminal_name(value.func, {}) in _MUTABLE_CTORS
        ):
            out[target] = stmt.lineno
    return out


@dataclass
class _Boundary:
    """One pool-boundary call site."""

    call: ast.Call
    kind: str                     # "run_many" | "map" | "submit"
    worker: Optional[ast.AST]     # the callable arg (map/submit only)
    payloads: List[ast.AST]       # expressions whose values cross the pool


def _boundaries(tree: ast.Module, mctx: ModuleContext) -> List[_Boundary]:
    """Every pool-boundary call in the module: ``run_many(...)`` plus
    ``<pool>.map(...)`` / ``<pool>.submit(...)`` on names bound to a pool
    constructor in the same function."""
    out: List[_Boundary] = []
    funcs: List[ast.AST] = [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    pool_names_by_func = {f: _pool_names(f, mctx) for f in funcs}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name == "run_many":
            payloads = list(node.args[:1]) + [
                kw.value for kw in node.keywords if kw.arg == "points"
            ]
            out.append(_Boundary(node, "run_many", None, payloads))
        elif name in ("map", "submit") and isinstance(func, ast.Attribute):
            if not isinstance(func.value, ast.Name):
                continue
            enclosing = mctx.enclosing_function(node)
            pools = pool_names_by_func.get(enclosing, set()) if enclosing else set()
            if func.value.id not in pools:
                continue
            worker = node.args[0] if node.args else None
            payloads = list(node.args[1:]) + [
                kw.value for kw in node.keywords if kw.arg is not None
            ]
            out.append(_Boundary(node, name, worker, payloads))
    return out


def _worker_names(boundaries: List[_Boundary],
                  module_fns: Dict[str, ast.FunctionDef]) -> Set[str]:
    """Module-level functions handed to a pool as the worker callable."""
    names: Set[str] = set()
    for b in boundaries:
        if isinstance(b.worker, ast.Name) and b.worker.id in module_fns:
            names.add(b.worker.id)
    return names


def _manifest_workers(tree: ast.Module) -> Set[str]:
    """Workers declared in a module-level ``SIMSHARD_WORKERS`` manifest.

    Boundary detection is same-module by design, so a module that only
    *exports* worker callables (e.g. :mod:`repro.sim.fleet`, whose
    ``_fleet_run`` crosses a pool mapped by the experiments layer) would
    otherwise have no worker roots and escape SD502/SD503 analysis.
    Such modules declare their exported workers in a module-level tuple
    of string constants::

        SIMSHARD_WORKERS = ("_fleet_run",)

    and SimShard seeds its reachability roots from it.
    """
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(
            isinstance(t, ast.Name) and t.id == "SIMSHARD_WORKERS"
            for t in targets
        ):
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    names.add(elt.value)
    return names


def _reachable_functions(
    roots: Set[str], module_fns: Dict[str, ast.FunctionDef]
) -> Dict[str, ast.FunctionDef]:
    """Transitive same-module call closure from the worker functions."""
    seen: Dict[str, ast.FunctionDef] = {}
    frontier = [r for r in roots if r in module_fns]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        fn = module_fns[name]
        seen[name] = fn
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in module_fns
                and node.func.id not in seen
            ):
                frontier.append(node.func.id)
    return seen


def _nested_def_names(func: Optional[ast.AST]) -> Set[str]:
    """Names of functions/classes defined *inside* ``func`` — values that
    pickle by qualified name and therefore cannot cross a pool boundary."""
    if func is None:
        return set()
    names: Set[str] = set()
    for node in ast.walk(func):
        if node is func:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


# ------------------------------------------------------------ per-rule checks


def _nonpicklable_nodes(
    expr: ast.AST,
    mctx: ModuleContext,
    nested: Set[str],
    local_defs: Dict[str, ast.AST],
) -> List[Tuple[ast.AST, str]]:
    """(node, reason) for every provably non-picklable value in ``expr``,
    resolving names through the enclosing function's single-assignment
    bindings one hop deep."""
    out: List[Tuple[ast.AST, str]] = []

    def classify(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func, mctx.aliases)
            if name == "open":
                return "an open() file handle"
            if name in _NONPICKLABLE_CTORS:
                return f"a live {name} object"
        return None

    for node in ast.walk(expr):
        reason = classify(node)
        if reason is None and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in nested:
                reason = f"locally defined '{node.id}'"
            else:
                rhs = local_defs.get(node.id)
                if rhs is not None:
                    inner = classify(rhs)
                    if inner is not None:
                        reason = f"'{node.id}' bound to {inner}"
        if reason is not None:
            out.append((node, reason))
    return out


def _check_pool_payloads(
    boundaries: List[_Boundary], mctx: ModuleContext, emit
) -> None:
    """SD501 over boundary payload expressions."""
    for b in boundaries:
        enclosing = mctx.enclosing_function(b.call)
        nested = _nested_def_names(enclosing)
        local_defs = single_assignment_defs(enclosing) if enclosing else {}
        for payload in b.payloads:
            for node, reason in _nonpicklable_nodes(payload, mctx, nested, local_defs):
                emit(
                    node, "SD501",
                    f"{reason} flows into the {b.kind} pool boundary: it "
                    "cannot be pickled to a worker process — pass frozen "
                    "(profile, spec, config) data instead",
                )


def _check_worker_returns(
    workers: Dict[str, ast.FunctionDef], mctx: ModuleContext, emit
) -> None:
    """SD501 over worker return values (the reverse boundary crossing)."""
    for fn in workers.values():
        nested = _nested_def_names(fn)
        local_defs = single_assignment_defs(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                for bad, reason in _nonpicklable_nodes(
                    node.value, mctx, nested, local_defs
                ):
                    emit(
                        bad, "SD501",
                        f"worker '{fn.name}' returns {reason}: the return "
                        "value must pickle back to the parent process",
                    )


def _check_worker_globals(
    reachable: Dict[str, ast.FunctionDef],
    mutable_globals: Dict[str, int],
    emit,
) -> None:
    """SD502: reads/writes of mutable module globals in worker-reachable
    code, diffed against :data:`WORKER_SAFE_GLOBALS`.

    Names in :data:`WORKER_MEMO_GLOBALS` are exempt from the mutation
    checks: they are declared per-process memoization caches whose hits
    are bit-identical to recomputation, so per-worker divergence of the
    *cache contents* cannot diverge results."""
    for name, fn in sorted(reachable.items()):
        consumed: Set[ast.AST] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                for g in node.names:
                    emit(
                        node, "SD502",
                        f"worker-reachable '{name}' declares global '{g}': "
                        "writes happen in the worker's copy and never "
                        "replicate back to the parent or other hosts",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mutable_globals
                and node.func.value.id not in WORKER_MEMO_GLOBALS
                and node.func.attr in MUTATING_METHODS
            ):
                consumed.add(node.func.value)
                emit(
                    node, "SD502",
                    f"worker-reachable '{name}' mutates module global "
                    f"'{node.func.value.id}' via .{node.func.attr}(): each "
                    "pool process mutates its own copy — results diverge "
                    "silently across processes/hosts",
                )
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in mutable_globals
                and node.value.id not in WORKER_MEMO_GLOBALS
                and isinstance(node.ctx, (ast.Store, ast.Del))
            ):
                consumed.add(node.value)
                emit(
                    node, "SD502",
                    f"worker-reachable '{name}' writes module global "
                    f"'{node.value.id}' by subscript: the write stays in "
                    "one worker process and never replicates",
                )
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable_globals
                and node.id not in WORKER_SAFE_GLOBALS
                and node not in consumed
            ):
                emit(
                    node, "SD502",
                    f"worker-reachable '{name}' reads mutable module global "
                    f"'{node.id}': a forked worker sees a snapshot and a "
                    "spawned worker a fresh import — declare it in "
                    "WORKER_SAFE_GLOBALS if it is rebuilt identically by "
                    "import, or pass it through the grid point",
                    severity=Severity.WARNING,
                )


def _check_fork_safety(
    reachable: Dict[str, ast.FunctionDef],
    boundaries: List[_Boundary],
    module_fns: Dict[str, ast.FunctionDef],
    mctx: ModuleContext,
    emit,
) -> None:
    """SD503: fork-unsafe constructs in worker-reachable code and worker
    callables that are not importable top-level functions."""
    for name, fn in sorted(reachable.items()):
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if _is_pool_ctor(node, mctx):
                emit(
                    node, "SD503",
                    f"worker-reachable '{name}' constructs a nested process "
                    "pool: pools inside pool workers deadlock under fork "
                    "and exhaust resources under spawn",
                )
                continue
            resolved = mctx.resolve_call(node.func) or ""
            terminal = _terminal_name(node.func, mctx.aliases)
            if resolved == "os.fork":
                emit(node, "SD503",
                     f"worker-reachable '{name}' calls os.fork()")
            elif resolved.startswith("threading.") and terminal in _NONPICKLABLE_CTORS:
                emit(
                    node, "SD503",
                    f"worker-reachable '{name}' constructs threading."
                    f"{terminal}: locks/threads captured at fork time are "
                    "silently broken in the child",
                )
            elif resolved.startswith(_RNG_PREFIXES):
                emit(
                    node, "SD503",
                    f"worker-reachable '{name}' uses module-level RNG "
                    f"({resolved}): fork clones the stream (all workers "
                    "replay it), spawn reseeds it (results diverge from "
                    "fork) — thread an explicit seeded generator through "
                    "the grid point",
                    severity=Severity.WARNING,
                )
    for b in boundaries:
        if b.worker is None:
            continue
        enclosing = mctx.enclosing_function(b.call)
        nested = _nested_def_names(enclosing)
        local_defs = single_assignment_defs(enclosing) if enclosing else {}
        worker = b.worker
        problem = None
        if isinstance(worker, ast.Lambda):
            problem = "a lambda"
        elif isinstance(worker, ast.Name):
            if worker.id in nested:
                problem = f"nested function '{worker.id}'"
            elif isinstance(local_defs.get(worker.id), ast.Lambda):
                problem = f"'{worker.id}' bound to a lambda"
        elif isinstance(worker, ast.Attribute):
            root = worker.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "self":
                problem = f"bound method 'self.{worker.attr}'"
        if problem is not None:
            emit(
                worker, "SD503",
                f"pool worker is {problem}: the spawn start method can only "
                "import top-level module functions — move it to module scope",
            )


def _check_merge_order(
    tree: ast.Module, boundaries: List[_Boundary], mctx: ModuleContext, emit
) -> None:
    """SD505: completion-order or set-order result merging."""
    boundary_fns = {
        mctx.enclosing_function(b.call) for b in boundaries
    } - {None}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        it = node.iter
        for sub in ast.walk(it):
            if isinstance(sub, ast.Call):
                resolved = mctx.resolve_call(sub.func) or ""
                name = _terminal_name(sub.func, mctx.aliases)
                if resolved.endswith("as_completed") or name == "as_completed":
                    emit(
                        node, "SD505",
                        "worker results iterated in completion order "
                        "(as_completed): completion order is a scheduling "
                        "race — index futures by submission order and "
                        "merge positionally",
                    )
                    break
        enclosing = mctx.enclosing_function(node)
        if enclosing not in boundary_fns:
            continue

        def _is_set_expr(expr: ast.AST) -> bool:
            return isinstance(expr, (ast.Set, ast.SetComp)) or (
                isinstance(expr, ast.Call)
                and _terminal_name(expr.func, mctx.aliases)
                in ("set", "frozenset")
            )

        is_set_iter = _is_set_expr(it)
        if not is_set_iter and isinstance(it, ast.Name) and enclosing is not None:
            rhs = single_assignment_defs(enclosing).get(it.id)
            is_set_iter = rhs is not None and _is_set_expr(rhs)
        if is_set_iter:
            emit(
                node, "SD505",
                "results merged by iterating an unordered set in a "
                "pool-boundary function: set order varies across "
                "processes (hash randomization) — keep submission order",
            )


# ------------------------------------------------------------- orchestration


def _module_findings(
    tree: ast.Module,
    path: str,
    source: str,
    wanted: Optional[Set[str]],
) -> List[Finding]:
    """All SimShard findings for one module."""
    if not in_path_scope(path, _SWEEP_LAYER_PARTS):
        return []
    mctx = ModuleContext(path, source, tree, "simshard")
    findings: List[Finding] = []
    severities = {rid: sev for rid, sev, _ in SHARD_RULES}

    def emit(node, rule_id: str, message: str,
             severity: Optional[Severity] = None) -> None:
        if wanted is not None and rule_id not in wanted:
            return
        line = getattr(node, "lineno", 1)
        if mctx.suppressed(rule_id, line):
            return
        findings.append(
            Finding(
                path, line, getattr(node, "col_offset", 0),
                rule_id, severity or severities[rule_id], message,
            )
        )

    boundaries = _boundaries(tree, mctx)
    module_fns = _module_functions(tree)
    workers = _worker_names(boundaries, module_fns) | (
        _manifest_workers(tree) & set(module_fns)
    )
    reachable = _reachable_functions(workers, module_fns)
    mutable_globals = _mutable_module_globals(tree)

    if wanted is None or "SD501" in wanted:
        _check_pool_payloads(boundaries, mctx, emit)
        _check_worker_returns(
            {n: reachable[n] for n in workers if n in reachable}, mctx, emit
        )
    if wanted is None or "SD502" in wanted:
        _check_worker_globals(reachable, mutable_globals, emit)
    if wanted is None or "SD503" in wanted:
        _check_fork_safety(reachable, boundaries, module_fns, mctx, emit)
    if wanted is None or "SD505" in wanted:
        _check_merge_order(tree, boundaries, mctx, emit)
    return findings


def shard_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the SimShard rules over one source string."""
    tree = parse_module(source, path, "SD001")
    if isinstance(tree, Finding):
        return [tree]
    return sort_findings(
        _module_findings(tree, path, source, normalize_select(select))
    )


def run_shard(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the full SimShard static pass over every Python file under
    ``paths``."""
    return scan_files(paths, shard_source, select)


# -------------------------------------------------------- dynamic confirmer


#: Default (app, design-label) grid for ``repro shard --confirm``: four
#: distinct points so the pool path engages even at the default
#: ``REPRO_PAR_MIN_POINTS`` threshold, spanning camping, replication-
#: heavy, cache-friendly and bandwidth-bound behaviour.
DEFAULT_CONFIRM_GRID: Tuple[Tuple[str, str], ...] = (
    ("P-2MM", "Pr40"),
    ("T-AlexNet", "Sh40+C10"),
    ("C-BLK", "Baseline"),
    ("C-NN", "Sh40"),
)

#: Module-path fragments the confirm replay actually exercises end to
#: end (grid resolution, pickling across the pool, key derivation,
#: result serialization).  Findings outside these stay UNOBSERVED.
_EXERCISED_PARTS = (
    "repro/experiments/base", "repro/sim/store", "repro/sim/results",
    "repro/sim/config", "repro/sim/validation", "repro/sim/fleet",
    "repro/workloads/profile", "repro/core/designs",
)


@dataclass(frozen=True)
class ShardProbe:
    """One dynamic distribution probe and its verdict."""

    kind: str      # pre-flight | pickle-roundtrip | result-roundtrip
                   # | context-identity | fleet-reuse
    target: str    # e.g. "grid point P-2MM/Pr40" or "spawn-pool vs serial"
    ok: bool
    detail: str = ""

    def format(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"  {self.kind:<18} {self.target:<44} {verdict}{tail}"


@dataclass
class ShardReport:
    """Outcome of a full dynamic distribution confirmation."""

    grid: List[Tuple[str, str]]
    scale: float
    contexts: List[str] = field(default_factory=list)
    probes: List[ShardProbe] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.probes)

    def counts(self) -> Dict[str, Tuple[int, int]]:
        """kind -> (passed, total)."""
        out: Dict[str, Tuple[int, int]] = {}
        for p in self.probes:
            passed, total = out.get(p.kind, (0, 0))
            out[p.kind] = (passed + (1 if p.ok else 0), total + 1)
        return out

    def verdict_for(self, finding: Finding) -> str:
        """CONFIRMED / BENIGN / UNOBSERVED for one static finding: the
        replay only speaks for modules it actually drove."""
        norm = finding.path.replace("\\", "/")
        if not any(part in norm for part in _EXERCISED_PARTS):
            return "UNOBSERVED"
        return "BENIGN" if self.ok else "CONFIRMED"

    def render(self, findings: Optional[Sequence[Finding]] = None) -> str:
        lines = [
            f"SimShard confirm: grid="
            f"{', '.join(f'{a}/{d}' for a, d in self.grid)} "
            f"scale={self.scale:g} contexts=serial+"
            f"{'+'.join(self.contexts) if self.contexts else 'none'} "
            f"probes={len(self.probes)}"
        ]
        lines.extend(p.format() for p in self.probes if not p.ok)
        for kind, (passed, total) in sorted(self.counts().items()):
            lines.append(f"  {kind}: {passed}/{total} ok")
        if findings:
            for f in findings:
                lines.append(
                    f"  {f.rule_id} @ {f.path}:{f.line}: {self.verdict_for(f)}"
                )
        lines.append(
            "overall: "
            + (
                "SOUND (grid points pickle faithfully; serial, fork-pool "
                "and spawn-pool sweeps are bit-identical)"
                if self.ok
                else "UNSOUND — the sweep layer is not safe to distribute"
            )
        )
        return "\n".join(lines)


def confirm_shard(
    grid: Optional[Sequence[Tuple[str, str]]] = None,
    scale: float = 0.1,
    jobs: int = 2,
    config=None,
) -> ShardReport:
    """Dynamically confirm the sweep layer is safe to distribute.

    Four probe families:

    * **pre-flight** — the resolved grid passes
      :func:`repro.sim.validation.validate_grid` (types, keyability, no
      duplicate-after-normalization points).
    * **pickle-roundtrip** — every resolved (profile, spec, config) grid
      point survives ``pickle`` bit-faithfully: the restored triple is
      equal and derives the *same* ``sim_cache_key``.
    * **result-roundtrip** — every :class:`SimResult` crossing the pool
      boundary back survives ``pickle`` with a bit-identical
      ``fingerprint()``.
    * **context-identity** — the grid replayed under a fork-pool and a
      spawn-pool (whichever the platform offers) yields fingerprints
      bit-identical to the serial run, in submission order, with the
      same ``sims_run`` accounting — and the pool path must actually
      have been taken.
    * **fleet-reuse** — when SimFleet is enabled, a second sweep through
      a *fresh* Runner must acquire the already-warm pool (no new cold
      start) and still produce fingerprints bit-identical to serial: the
      persistent workers and their stream caches carry no state that
      leaks into results.
    """
    # Lazy imports: repro.sim.system imports repro.analysis at module
    # load, so importing the sim layer here (not at module top) avoids
    # the cycle (same policy as confirm_races/confirm_purity).
    import multiprocessing
    import pickle

    from repro.cli import parse_design
    from repro.experiments.base import Runner
    from repro.sim.config import SimConfig
    from repro.sim.store import sim_cache_key
    from repro.sim.validation import GridValidationError, validate_grid
    from repro.workloads.suite import get_app

    import dataclasses

    points = list(grid) if grid else list(DEFAULT_CONFIRM_GRID)
    cfg = (
        dataclasses.replace(config, scale=scale)
        if config is not None
        else SimConfig(scale=scale)
    )
    sweep = [(get_app(a), parse_design(d)) for a, d in points]
    contexts = [
        c for c in ("fork", "spawn")
        if c in multiprocessing.get_all_start_methods()
    ]
    report = ShardReport(grid=points, scale=scale, contexts=contexts)

    serial = Runner(cfg, jobs=1, cache=False)
    resolved = serial.resolve_points(sweep)

    try:
        validate_grid(resolved)
        report.probes.append(ShardProbe(
            "pre-flight", f"validate_grid[{len(resolved)} points]", True,
        ))
    except GridValidationError as exc:
        report.probes.append(ShardProbe(
            "pre-flight", f"validate_grid[{len(resolved)} points]", False,
            "; ".join(exc.problems[:3]),
        ))

    for (profile, spec, pcfg), (app_name, _) in zip(resolved, points):
        where = f"{app_name}/{spec.label}"
        point = (profile, spec, pcfg)
        back = pickle.loads(
            pickle.dumps(point, protocol=pickle.HIGHEST_PROTOCOL)
        )
        same_obj = back == point
        same_key = sim_cache_key(*back) == sim_cache_key(*point)
        report.probes.append(ShardProbe(
            "pickle-roundtrip", f"grid point {where}",
            same_obj and same_key,
            "" if same_obj and same_key else (
                "restored point not equal" if not same_obj
                else "sim_cache_key changed across pickle"
            ),
        ))

    base_results = serial.run_many(sweep)
    base_fps = [r.fingerprint() for r in base_results]

    for res, (app_name, design) in zip(base_results, points):
        back = pickle.loads(pickle.dumps(res, protocol=pickle.HIGHEST_PROTOCOL))
        diff = diff_fingerprints(res.fingerprint(), back.fingerprint())
        report.probes.append(ShardProbe(
            "result-roundtrip", f"SimResult @ {app_name}/{design}",
            not diff, "; ".join(diff),
        ))

    for ctx_name in contexts:
        par = Runner(cfg, jobs=max(2, jobs), cache=False)
        results = par.run_many(sweep, mp_context=ctx_name, par_min_points=2)
        diffs: List[str] = []
        for fp, res in zip(base_fps, results):
            diffs.extend(diff_fingerprints(fp, res.fingerprint()))
        pool_ran = any(k.startswith("parallel") for k in par.sweep_paths)
        problems = list(dict.fromkeys(diffs))[:4]
        if not pool_ran:
            problems.append("pool path was never taken")
        if par.sims_run != serial.sims_run:
            problems.append(
                f"sims_run {par.sims_run} != serial {serial.sims_run}"
            )
        report.probes.append(ShardProbe(
            "context-identity", f"{ctx_name}-pool vs serial",
            not problems, "; ".join(problems),
        ))

    from repro.sim.fleet import fleet_env_enabled

    if contexts and fleet_env_enabled():
        # The context-identity sweeps above already spun the fleet up;
        # a fresh Runner over the same grid must reuse it warm.
        ctx_name = contexts[0]
        warm = Runner(cfg, jobs=max(2, jobs), cache=False)
        results = warm.run_many(sweep, mp_context=ctx_name, par_min_points=2)
        problems = []
        for fp, res in zip(base_fps, results):
            problems.extend(diff_fingerprints(fp, res.fingerprint()))
        problems = list(dict.fromkeys(problems))[:4]
        if warm.fleet_stats.get("cold_starts", 0.0):
            problems.append("warm re-acquire cold-started a new pool")
        if not warm.fleet_stats.get("warm_acquires", 0.0):
            problems.append("fleet pool was not reused")
        report.probes.append(ShardProbe(
            "fleet-reuse", f"warm {ctx_name}-fleet vs serial",
            not problems, "; ".join(problems),
        ))
    return report
