"""SimHeat — twin-path drift & hot-path performance analyzer.

The SimTurbo hot path (see ``docs/performance.md``) buys its ~2.9x
speedup with hand-maintained *twin implementations*: every instrumented
slow path (``Server.reserve``, ``Crossbar.traverse``, the cold issue
path) has an uninstrumented fast twin whose arithmetic must stay in
bit-exact lockstep.  The contract is guarded dynamically by the golden
fingerprints in ``tests/test_simturbo.py`` — SimHeat adds the static
half, plus review-time hygiene rules for the hot handlers themselves.

Rule family one — twin-path drift.  Sim-core modules declare a
``FAST_PATH_PAIRS`` manifest: ``(fast_qualname, slow_qualname(s), mode,
options)`` tuples naming each fast variant, its canonical slow twin and
the comparison *mode* the analyzer applies:

* ``"lockstep"`` — the two bodies must produce the same effect sequence
  once the declared elidable instrumentation (owner/ledger/watchdog
  hooks) is removed and single-assignment locals are substituted.
* ``"inline"`` — the fast side hand-inlines ``Server.reserve_fast``; the
  analyzer alpha-matches each inlined block against the reserve template
  and requires one block per ``.reserve(`` call in the slow twin.
* ``"closure"`` — the fast side is a factory returning specialized
  closures; each closure, with the factory-local bindings substituted,
  must match the corresponding canonical branch (helpers named in
  ``options["inline_helpers"]`` are inlined into the slow twin first).
* ``"specialized"`` — the fast side handles a subset of the slow twin's
  cases (the LOAD-only issue path); the analyzer checks the fast side's
  scheduled handlers are a subset of the slow side's, that assignments
  both sides make to the same target agree, and that counter updates
  differ only by ``options["slow_only_counters"]``.
* ``"delegated"`` — structural equivalence is delegated to the
  differential confirmer and the fingerprint tests; only SH603/SH604
  are enforced statically.

Rule family two — hot-path perf anti-patterns, applied to *hot
handlers*: every callback the class schedules, the declared fast twins,
their transitive self-call closure (skipping calls made under elided
instrumentation guards), and the functions a module names in
``SIMHEAT_HOT_FUNCTIONS``.

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
import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    Severity,
    normalize_select,
    parse_files,
    parse_module,
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
    Rule("SH600", Severity.ERROR,
         "module failed to parse (twin manifests unverifiable)"),
    Rule("SH601", Severity.ERROR,
         "fast twin diverges from its slow twin (arithmetic/schedule drift)"),
    Rule("SH602", Severity.ERROR,
         "counter updated on only one side of a twin pair"),
    Rule("SH603", Severity.ERROR,
         "unreachable fast path (never wired, or gate can never hold)"),
    Rule("SH604", Severity.ERROR,
         "slow-twin call inside a fast-path branch"),
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
#: model semantics: statements/branches keyed on them are elided before
#: twin comparison, and code under their guards is exempt from the
#: hot-path rules.  Modules may extend this via ``SIMHEAT_ELIDABLE``.
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

#: The canonical reservation arithmetic ("inline" mode matches each
#: hand-inlined block of a fast twin against this, alpha-renaming
#: ``p``/``now``/``size``/locals; ``ret`` stands for assign-or-return).
_RESERVE_TEMPLATE_SRC = """\
start = now if now > p.next_free else p.next_free
occupancy = p.service * size
p.next_free = start + occupancy
p.busy_cycles += occupancy
p.num_served += 1
ret = start + occupancy + p.latency
"""


@dataclass(frozen=True)
class HeatFinding(Finding):
    """One twin-drift or hot-path-hygiene violation."""

    #: Hot handler the finding sits in (family two; confirmer grading).
    handler: str = ""
    #: ``fast->slow`` pair label (family one; confirmer grading).
    pair: str = ""


# ------------------------------------------------------------ manifests


@dataclass
class _Pair:
    fast: str                  # "Class.method"
    slows: Tuple[str, ...]     # one or more "Class.method"
    mode: str
    options: Dict[str, object]

    @property
    def label(self) -> str:
        return f"{self.fast}->{self.slows[0]}"

    @property
    def fast_name(self) -> str:
        return self.fast.rsplit(".", 1)[-1]

    def slow_names(self) -> Set[str]:
        return {s.rsplit(".", 1)[-1] for s in self.slows}


@dataclass
class _Manifest:
    pairs: List[_Pair] = field(default_factory=list)
    hot_functions: Tuple[str, ...] = ()
    safe_sinks: Set[str] = field(default_factory=set)
    elidable: Set[str] = field(default_factory=set)


def _extract_manifest(tree: ast.Module) -> _Manifest:
    man = _Manifest()
    for stmt in tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        name = stmt.targets[0].id
        if name not in ("FAST_PATH_PAIRS", "SIMHEAT_HOT_FUNCTIONS",
                        "SIMHEAT_REQUEST_SAFE_SINKS", "SIMHEAT_ELIDABLE"):
            continue
        try:
            value = ast.literal_eval(stmt.value)
        except (ValueError, SyntaxError):
            continue
        if name == "FAST_PATH_PAIRS":
            for entry in value:
                entry = tuple(entry)
                fast, slow = entry[0], entry[1]
                mode = entry[2] if len(entry) > 2 else "lockstep"
                opts = dict(entry[3]) if len(entry) > 3 else {}
                slows = tuple(slow) if isinstance(slow, (tuple, list)) else (slow,)
                man.pairs.append(_Pair(fast, slows, mode, opts))
        elif name == "SIMHEAT_HOT_FUNCTIONS":
            man.hot_functions = tuple(value)
        elif name == "SIMHEAT_REQUEST_SAFE_SINKS":
            man.safe_sinks = set(value)
        elif name == "SIMHEAT_ELIDABLE":
            man.elidable = set(value)
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


class _Subst(ast.NodeTransformer):
    """Replace Load-context Names by (copies of) bound expressions."""

    def __init__(self, env: Dict[str, ast.AST]):
        self.env = env

    def visit_Name(self, node: ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id in self.env:
            return copy.deepcopy(self.env[node.id])
        return node


def _substitute(node: ast.AST, env: Dict[str, ast.AST],
                rounds: int = 4) -> ast.AST:
    """Substitute ``env`` bindings into a copy of ``node`` to fixpoint
    (bounded — locals may reference other locals)."""
    out = copy.deepcopy(node)
    for _ in range(rounds):
        before = ast.dump(out)
        out = _Subst(env).visit(out)
        if ast.dump(out) == before:
            break
    return out


def _norm(node: ast.AST, env: Optional[Dict[str, ast.AST]] = None) -> str:
    """Canonical text of an expression/statement, locals substituted."""
    if env:
        node = _substitute(node, env)
    return ast.unparse(node)


def _env_of(func: ast.FunctionDef) -> Dict[str, ast.AST]:
    """Single-assignment locals of ``func``, including elementwise tuple
    unpacking (``m, n = self._m, self._n``) which
    :func:`single_assignment_defs` skips."""
    env = dict(single_assignment_defs(func))
    counts: Dict[str, int] = {}
    for node in ast.walk(func):
        for tgt in (node.targets if isinstance(node, ast.Assign) else
                    [node.target] if isinstance(node, (ast.AugAssign,
                                                       ast.AnnAssign)) else []):
            for sub in ast.walk(tgt):
                if isinstance(sub, ast.Name):
                    counts[sub.id] = counts.get(sub.id, 0) + 1
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Tuple)
                and len(node.targets[0].elts) == len(node.value.elts)):
            for t, v in zip(node.targets[0].elts, node.value.elts):
                if isinstance(t, ast.Name) and counts.get(t.id, 0) == 1:
                    env[t.id] = v
    return env


# --------------------------------------------------------- elision logic


def _is_elidable_test(test: ast.AST, elidable: Set[str]) -> bool:
    """True for guards that exist purely for instrumentation: any test
    mentioning an elidable attribute (``owner is not None``,
    ``self._ledger is not None``, ``not self._fast`` …)."""
    return _mentions(test, elidable)


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


def _elide_statements(body: Sequence[ast.stmt],
                      elidable: Set[str]) -> List[ast.stmt]:
    """Drop instrumentation statements from a statement list (shallow:
    nested compound statements are kept whole unless elidable)."""
    out: List[ast.stmt] = []
    for stmt in body:
        if isinstance(stmt, ast.If) and (
                _is_elidable_test(stmt.test, elidable)
                or _is_raise_only(stmt.body)):
            continue
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            roots = [_self_attr(t) for t in targets]
            if roots and all(r in elidable for r in roots if r is not None) \
                    and any(r is not None for r in roots):
                continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            attr = getattr(stmt.value.func, "attr", None)
            if attr in elidable:
                continue
        out.append(stmt)
    return out


# ------------------------------------------------------ effect sequences


def _effect_sequence(func: ast.FunctionDef,
                     elidable: Set[str]) -> List[str]:
    """Normalized statement texts of ``func`` with instrumentation elided
    and single-assignment locals substituted ("lockstep" comparison)."""
    env = _env_of(func)
    out: List[str] = []
    for stmt in _elide_statements(func.body, elidable):
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)):
            continue  # docstring
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and stmt.targets[0].id in env:
            continue  # definition of a substituted local
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            out.append(f"return {_norm(stmt.value, env)}")
        else:
            out.append(_norm(stmt, env))
    return out


def _counter_targets(func: ast.FunctionDef, elidable: Set[str]) -> Set[str]:
    """Self-rooted AugAssign targets — the batched result counters."""
    out: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.AugAssign):
            attr = _self_attr(node.target)
            if attr is not None and attr not in elidable:
                out.add(attr)
    return out


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


def _self_call_names(func: ast.FunctionDef, elidable: Set[str]) -> Set[str]:
    """Names of self-methods called outside elided contexts."""
    out: Set[str] = set()

    def walk(stmts: Sequence[ast.stmt]) -> None:
        for stmt in _elide_statements(stmts, elidable):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute):
                    if isinstance(node.func.value, ast.Name) \
                            and node.func.value.id == "self":
                        out.add(node.func.attr)

    walk(func.body)
    return out


# -------------------------------------------------- alpha-equivalence


def _alpha_eq(a: ast.AST, b: ast.AST, fwd: Dict[str, str],
              rev: Dict[str, str]) -> bool:
    """Structural equality of two expressions modulo a consistent
    renaming of bare Names (attribute names and constants must match)."""
    if isinstance(a, ast.Name) and isinstance(b, ast.Name):
        if a.id in fwd:
            return fwd[a.id] == b.id
        if b.id in rev:
            return False
        fwd[a.id] = b.id
        rev[b.id] = a.id
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, ast.Attribute):
        return a.attr == b.attr and _alpha_eq(a.value, b.value, fwd, rev)
    if isinstance(a, ast.Constant):
        return a.value == b.value and type(a.value) is type(b.value)
    for fname, fa in ast.iter_fields(a):
        if fname in ("ctx", "lineno", "col_offset", "end_lineno",
                     "end_col_offset", "type_comment"):
            continue
        fb = getattr(b, fname)
        if isinstance(fa, ast.AST):
            if not isinstance(fb, ast.AST) or not _alpha_eq(fa, fb, fwd, rev):
                return False
        elif isinstance(fa, list):
            if not isinstance(fb, list) or len(fa) != len(fb):
                return False
            for xa, xb in zip(fa, fb):
                if isinstance(xa, ast.AST):
                    if not _alpha_eq(xa, xb, fwd, rev):
                        return False
                elif xa != xb:
                    return False
        else:
            if fa != fb:
                return False
    return True


def _as_assignment(stmt: ast.stmt) -> Optional[Tuple[ast.AST, ast.AST]]:
    """View a statement as (target, value): Assign-to-one-target,
    AugAssign (kept as-is via a marker), or Return (target ``ret``)."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        return stmt.targets[0], stmt.value
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        return ast.Name(id="ret", ctx=ast.Store()), stmt.value
    return None


def _match_reserve_block(block: List[ast.stmt]) -> bool:
    """Alpha-match one inlined block against the reserve template."""
    template = ast.parse(_RESERVE_TEMPLATE_SRC).body
    if len(block) != len(template):
        return False
    fwd: Dict[str, str] = {}
    rev: Dict[str, str] = {}
    for tstmt, cstmt in zip(template, block):
        if isinstance(tstmt, ast.AugAssign):
            if not isinstance(cstmt, ast.AugAssign):
                return False
            if type(tstmt.op) is not type(cstmt.op):
                return False
            if not _alpha_eq(tstmt.target, cstmt.target, fwd, rev):
                return False
            if not _alpha_eq(tstmt.value, cstmt.value, fwd, rev):
                return False
            continue
        tpair = _as_assignment(tstmt)
        cpair = _as_assignment(cstmt)
        if tpair is None or cpair is None:
            return False
        ttgt, tval = tpair
        ctgt, cval = cpair
        # ``ret = ...`` in the template accepts assignment or return.
        if not _alpha_eq(tval, cval, fwd, rev):
            return False
        if isinstance(ttgt, ast.Name) and ttgt.id == "ret":
            continue
        # Targets: Name<->Name via the map, attributes structurally.
        tk = ast.Name(id=ttgt.id, ctx=ast.Load()) if isinstance(ttgt, ast.Name) else ttgt
        ck = ast.Name(id=ctgt.id, ctx=ast.Load()) if isinstance(ctgt, ast.Name) else ctgt
        if not _alpha_eq(tk, ck, fwd, rev):
            return False
    return True


# ----------------------------------------------------- pair comparison


def _count_reserve_calls(func: ast.FunctionDef, slow_names: Set[str]) -> int:
    n = 0
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in slow_names:
                n += 1
    return n


def _check_lockstep(pair: _Pair, fast: ast.FunctionDef,
                    slow: ast.FunctionDef, elidable: Set[str],
                    ctx: ModuleContext) -> List[HeatFinding]:
    out: List[HeatFinding] = []
    seq_fast = _effect_sequence(fast, elidable)
    seq_slow = _effect_sequence(slow, elidable)
    if seq_fast != seq_slow:
        extra_f = [s for s in seq_fast if s not in seq_slow]
        extra_s = [s for s in seq_slow if s not in seq_fast]
        detail = "; ".join(
            ([f"fast-only: {extra_f[0]!r}"] if extra_f else [])
            + ([f"slow-only: {extra_s[0]!r}"] if extra_s else [])
        ) or "statement order differs"
        out.append(HeatFinding(
            ctx.path, fast.lineno, fast.col_offset, "SH601", Severity.ERROR,
            f"{pair.fast} drifts from {pair.slows[0]} after eliding "
            f"instrumentation ({detail})", pair=pair.label))
    return out


def _check_inline(pair: _Pair, fast: ast.FunctionDef,
                  slow: ast.FunctionDef, elidable: Set[str],
                  ctx: ModuleContext) -> List[HeatFinding]:
    out: List[HeatFinding] = []
    want = _count_reserve_calls(slow, {"reserve", "reserve_fast"})
    # Segment the fast body into inlined blocks at receiver rebinds:
    # an Assign whose RHS is a subscript/attribute lookup starts a block.
    body = _elide_statements(fast.body, elidable)
    blocks: List[List[ast.stmt]] = []
    cur: Optional[List[ast.stmt]] = None
    for stmt in body:
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)):
            continue
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, (ast.Subscript, ast.Attribute))):
            if cur:
                blocks.append(cur)
            cur = []
            continue
        if cur is not None:
            cur.append(stmt)
        elif isinstance(stmt, ast.AugAssign):
            continue  # leading counters (checked by SH602)
    if cur:
        blocks.append(cur)
    if len(blocks) != want:
        out.append(HeatFinding(
            ctx.path, fast.lineno, fast.col_offset, "SH601", Severity.ERROR,
            f"{pair.fast} inlines {len(blocks)} reservation block(s) but "
            f"{pair.slows[0]} makes {want} reservation call(s)",
            pair=pair.label))
        return out
    for i, block in enumerate(blocks):
        if not _match_reserve_block(block):
            out.append(HeatFinding(
                ctx.path, fast.lineno, fast.col_offset, "SH601",
                Severity.ERROR,
                f"{pair.fast} inlined block {i + 1} does not match the "
                "Server.reserve arithmetic template", pair=pair.label))
    return out


def _branch_returns(func: ast.FunctionDef) -> List[Tuple[Optional[ast.AST], ast.AST]]:
    """(condition, return-expression) per early-return branch; the final
    bare Return has condition None."""
    out: List[Tuple[Optional[ast.AST], ast.AST]] = []
    for stmt in func.body:
        if (isinstance(stmt, ast.If) and not stmt.orelse and stmt.body
                and isinstance(stmt.body[-1], ast.Return)):
            out.append((stmt.test, stmt.body[-1].value))
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            out.append((None, stmt.value))
    return out


def _conditional_defs(func: ast.FunctionDef) -> List[Tuple[Optional[ast.AST], Optional[ast.FunctionDef]]]:
    """(condition, closure def) per branch of a factory's if/elif/else."""
    out: List[Tuple[Optional[ast.AST], Optional[ast.FunctionDef]]] = []

    def first_def(stmts: Sequence[ast.stmt]) -> Optional[ast.FunctionDef]:
        for s in stmts:
            if isinstance(s, ast.FunctionDef):
                return s
        return None

    def walk_if(node: ast.If) -> None:
        out.append((node.test, first_def(node.body)))
        if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
            walk_if(node.orelse[0])
        elif node.orelse:
            out.append((None, first_def(node.orelse)))

    for stmt in func.body:
        if isinstance(stmt, ast.If):
            walk_if(stmt)
    if not out:
        inner = first_def(func.body)
        if inner is not None:
            out.append((None, inner))
    return out


class _CallReplacer(ast.NodeTransformer):
    """Replace ``self.<helper>(args)`` calls with an expression."""

    def __init__(self, helper: str, replacement: ast.AST):
        self.helper = helper
        self.replacement = replacement

    def visit_Call(self, node: ast.Call):
        self.generic_visit(node)
        if isinstance(node.func, ast.Attribute) and node.func.attr == self.helper:
            return copy.deepcopy(self.replacement)
        return node


def _check_closure(pair: _Pair, fast: ast.FunctionDef,
                   slow: ast.FunctionDef, defs: Dict[str, ast.FunctionDef],
                   ctx: ModuleContext) -> List[HeatFinding]:
    out: List[HeatFinding] = []
    cls = pair.slows[0].rsplit(".", 1)[0]
    helpers = [str(h) for h in pair.options.get("inline_helpers", [])]
    env_slow = _env_of(slow)

    # Canonical branches: the slow twin's return with each helper branch
    # inlined (helper params substituted by the call arguments).
    slow_ret = None
    for stmt in slow.body:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            slow_ret = _substitute(stmt.value, env_slow)
    if slow_ret is None:
        return out
    canonical: List[Tuple[Optional[ast.AST], ast.AST]] = [(None, slow_ret)]
    for helper_name in helpers:
        helper = defs.get(f"{cls}.{helper_name}")
        if helper is None:
            continue
        call_args: List[ast.AST] = []
        for node in ast.walk(slow):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == helper_name:
                call_args = node.args
        params = [a.arg for a in helper.args.args if a.arg != "self"]
        param_env = {p: _substitute(a, env_slow)
                     for p, a in zip(params, call_args)}
        expanded: List[Tuple[Optional[ast.AST], ast.AST]] = []
        for cond, hret in _branch_returns(helper):
            hret_sub = _substitute(hret, param_env)
            cond_sub = _substitute(cond, param_env) if cond is not None else None
            for base_cond, base in canonical:
                replaced = _CallReplacer(helper_name, hret_sub).visit(
                    copy.deepcopy(base))
                use_cond = cond_sub if cond_sub is not None else base_cond
                expanded.append((use_cond, replaced))
        canonical = expanded

    closures = _conditional_defs(fast)
    if len(closures) != len(canonical):
        out.append(HeatFinding(
            ctx.path, fast.lineno, fast.col_offset, "SH601", Severity.ERROR,
            f"{pair.fast} builds {len(closures)} specialized closure(s) but "
            f"the canonical {pair.slows[0]} has {len(canonical)} branch(es)",
            pair=pair.label))
        return out

    env_fast = _env_of(fast)
    for i, ((fcond, closure), (scond, canon)) in enumerate(
            zip(closures, canonical)):
        where = closure.lineno if closure is not None else fast.lineno
        if (fcond is None) != (scond is None):
            out.append(HeatFinding(
                ctx.path, where, fast.col_offset, "SH601", Severity.ERROR,
                f"{pair.fast} branch {i + 1} guard structure differs from "
                f"the canonical {pair.slows[0]}", pair=pair.label))
            continue
        if fcond is not None and _norm(fcond, env_fast) != ast.unparse(scond):
            out.append(HeatFinding(
                ctx.path, where, fast.col_offset, "SH601", Severity.ERROR,
                f"{pair.fast} branch {i + 1} guard "
                f"{_norm(fcond, env_fast)!r} != canonical "
                f"{ast.unparse(scond)!r}", pair=pair.label))
            continue
        if closure is None:
            out.append(HeatFinding(
                ctx.path, where, fast.col_offset, "SH601", Severity.ERROR,
                f"{pair.fast} branch {i + 1} builds no closure",
                pair=pair.label))
            continue
        cret = None
        for stmt in closure.body:
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                cret = stmt.value
        if cret is None:
            continue
        got = _norm(cret, env_fast)
        accepted = {ast.unparse(canon)}
        # Degenerate-branch simplification: when the canonical branch adds
        # a constant 0 under an ``M == 1`` guard, the specialized closure
        # may drop the ``* M + 0`` terms entirely.
        node = canon
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 0):
            accepted.add(ast.unparse(node.left))
            inner = node.left
            if isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Mult):
                accepted.add(ast.unparse(inner.left))
        if got not in accepted:
            out.append(HeatFinding(
                ctx.path, closure.lineno, closure.col_offset, "SH601",
                Severity.ERROR,
                f"{pair.fast} closure {got!r} does not match canonical "
                f"{ast.unparse(canon)!r}", pair=pair.label))
    return out


def _check_specialized(pair: _Pair, fast: ast.FunctionDef,
                       slow: ast.FunctionDef, elidable: Set[str],
                       ctx: ModuleContext) -> List[HeatFinding]:
    out: List[HeatFinding] = []
    cb_fast = _schedule_callbacks(fast)
    cb_slow = _schedule_callbacks(slow)
    extra = cb_fast - cb_slow
    if extra:
        out.append(HeatFinding(
            ctx.path, fast.lineno, fast.col_offset, "SH601", Severity.ERROR,
            f"{pair.fast} schedules handler(s) {sorted(extra)} that "
            f"{pair.slows[0]} never schedules", pair=pair.label))
    # Assignments both sides make to the same object attribute must agree
    # (after local substitution) — e.g. req.mc_id derivation.
    env_f, env_s = _env_of(fast), _env_of(slow)

    def attr_assigns(func: ast.FunctionDef, env) -> Dict[str, Set[str]]:
        got: Dict[str, Set[str]] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt = node.targets[0]
                if isinstance(tgt, ast.Attribute) and isinstance(
                        tgt.value, ast.Name) and tgt.value.id != "self":
                    key = tgt.attr
                    got.setdefault(key, set()).add(_norm(node.value, env))
        return got

    a_fast = attr_assigns(fast, env_f)
    a_slow = attr_assigns(slow, env_s)
    for attr in sorted(set(a_fast) & set(a_slow)):
        if not (a_fast[attr] & a_slow[attr]):
            out.append(HeatFinding(
                ctx.path, fast.lineno, fast.col_offset, "SH601",
                Severity.ERROR,
                f"{pair.fast} and {pair.slows[0]} assign .{attr} "
                f"differently ({sorted(a_fast[attr])[0]!r} vs "
                f"{sorted(a_slow[attr])[0]!r})", pair=pair.label))
    return out


def _check_counters(pair: _Pair, fast: ast.FunctionDef,
                    slow: ast.FunctionDef, elidable: Set[str],
                    ctx: ModuleContext) -> List[HeatFinding]:
    out: List[HeatFinding] = []
    slow_only = {str(c) for c in pair.options.get("slow_only_counters", [])}
    c_fast = _counter_targets(fast, elidable)
    c_slow = _counter_targets(slow, elidable)
    fast_missing = (c_slow - slow_only) - c_fast
    slow_missing = c_fast - c_slow
    undeclared = c_fast & slow_only
    for name in sorted(fast_missing):
        out.append(HeatFinding(
            ctx.path, fast.lineno, fast.col_offset, "SH602", Severity.ERROR,
            f"counter {name} is updated by {pair.slows[0]} but not by "
            f"{pair.fast}", pair=pair.label))
    for name in sorted(slow_missing):
        out.append(HeatFinding(
            ctx.path, slow.lineno, slow.col_offset, "SH602", Severity.ERROR,
            f"counter {name} is updated by {pair.fast} but not by "
            f"{pair.slows[0]}", pair=pair.label))
    for name in sorted(undeclared):
        out.append(HeatFinding(
            ctx.path, fast.lineno, fast.col_offset, "SH602", Severity.ERROR,
            f"counter {name} is declared slow-only but updated by "
            f"{pair.fast}", pair=pair.label))
    return out


# -------------------------------------------------------- gate checks


def _check_gates(tree: ast.Module, man: _Manifest, elidable: Set[str],
                 refs: Dict[str, int], ctx: ModuleContext
                 ) -> List[HeatFinding]:
    """SH603: a fast path that can never run — either its gating
    predicate is contradictory, or the fast member is never wired in."""
    out: List[HeatFinding] = []
    # (b) contradictory gates: within a class whose wiring assigns
    # ``self._fast = self.<X> is None ...``, a test ANDing a positive
    # ``_fast`` with ``self.<X> is not None`` can never hold.
    for cls in [s for s in tree.body if isinstance(s, ast.ClassDef)]:
        none_keyed: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and _self_attr(node.targets[0]) == "_fast":
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Compare) and len(sub.ops) == 1 \
                            and isinstance(sub.ops[0], ast.Is) \
                            and isinstance(sub.comparators[0], ast.Constant) \
                            and sub.comparators[0].value is None:
                        attr = _self_attr(sub.left)
                        if attr is not None:
                            none_keyed.add(attr)
        if not none_keyed:
            continue
        for node in ast.walk(cls):
            if not isinstance(node, (ast.If, ast.IfExp)):
                continue
            test = node.test
            if not (isinstance(test, ast.BoolOp)
                    and isinstance(test.op, ast.And)):
                continue
            has_fast = any(
                (isinstance(op, ast.Attribute) and op.attr == "_fast")
                or (isinstance(op, ast.Name) and op.id == "_fast")
                for op in test.values)
            contradicted = any(
                isinstance(op, ast.Compare) and len(op.ops) == 1
                and isinstance(op.ops[0], ast.IsNot)
                and isinstance(op.comparators[0], ast.Constant)
                and op.comparators[0].value is None
                and _self_attr(op.left) in none_keyed
                for op in test.values)
            if has_fast and contradicted \
                    and not ctx.suppressed("SH603", test.lineno):
                out.append(HeatFinding(
                    ctx.path, test.lineno, test.col_offset, "SH603",
                    Severity.ERROR,
                    "fast-path gate can never hold: self._fast implies the "
                    "ledger is None but the gate also requires it attached"))
    # (a) unreferenced fast member.
    for pair in man.pairs:
        if refs.get(pair.fast_name, 0) < 1:
            fdef = _collect_defs(tree).get(pair.fast)
            line = fdef.lineno if fdef is not None else 1
            if not ctx.suppressed("SH603", line):
                out.append(HeatFinding(
                    ctx.path, line, 0, "SH603", Severity.ERROR,
                    f"fast path {pair.fast} is declared in FAST_PATH_PAIRS "
                    "but never referenced (never wired in)",
                    pair=pair.label))
    return out


def _check_slow_calls_in_fast(tree: ast.Module, man: _Manifest,
                              defs: Dict[str, ast.FunctionDef],
                              ctx: ModuleContext) -> List[HeatFinding]:
    """SH604: a slow-twin call inside a positive ``self._fast`` branch or
    inside a fast twin's own body."""
    out: List[HeatFinding] = []
    slow_names: Set[str] = set()
    for pair in man.pairs:
        slow_names |= pair.slow_names()
    if not slow_names:
        return out

    def scan(stmts: Sequence[ast.stmt], in_fast: bool, gates: Set[str],
             pair_label: str) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.If,)):
                truth = _fast_truthiness(stmt.test, gates)
                scan(stmt.body, in_fast or truth is True, gates, pair_label)
                scan(stmt.orelse, in_fast if truth is None else
                     (in_fast or truth is False is False and False),
                     gates, pair_label)
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.IfExp):
                    truth = _fast_truthiness(node.test, gates)
                    if truth is True:
                        _flag_calls(node.body, pair_label)
                    elif truth is False:
                        _flag_calls(node.orelse, pair_label)
                if in_fast and isinstance(node, ast.Call):
                    _flag_call(node, pair_label)
            if in_fast:
                continue
            # Non-fast region: IfExp true-arms gated on fast still count,
            # handled in the walk above.

    def _flag_calls(node: ast.AST, pair_label: str) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                _flag_call(sub, pair_label)

    flagged: Set[int] = set()

    def _flag_call(node: ast.Call, pair_label: str) -> None:
        name = getattr(node.func, "attr", None) or (
            node.func.id if isinstance(node.func, ast.Name) else None)
        if name in slow_names and id(node) not in flagged \
                and not ctx.suppressed("SH604", node.lineno):
            flagged.add(id(node))
            out.append(HeatFinding(
                ctx.path, node.lineno, node.col_offset, "SH604",
                Severity.ERROR,
                f"slow twin {name}() called on the fast path "
                "(use the fast twin or hoist the call)", pair=pair_label))

    fast_defs = {p.fast: p.label for p in man.pairs}
    for cls in [s for s in tree.body if isinstance(s, ast.ClassDef)]:
        for func in [s for s in cls.body if isinstance(s, ast.FunctionDef)]:
            qual = f"{cls.name}.{func.name}"
            gates = _fast_gate_names(func)
            if qual in fast_defs:
                # Everything in a fast twin's body is fast context,
                # including closures a factory builds.
                scan(func.body, True, gates, fast_defs[qual])
            else:
                scan(func.body, False, gates, "")
    return out


# ----------------------------------------------------- hot-path hygiene


def _hot_handlers(tree: ast.Module, man: _Manifest,
                  elidable: Set[str]) -> Dict[str, ast.FunctionDef]:
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
        for pair in man.pairs:
            c, _, m = pair.fast.rpartition(".")
            if c == cls.name:
                seeds.add(m)
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
            for callee in _self_call_names(func, elidable):
                if callee not in seen and f"{cls.name}.{callee}" in defs:
                    frontier.append(callee)
    return hot


class _HotScanner:
    """Statement walker applying SH611-SH615 inside one hot function,
    honouring elided (instrumentation-only) regions."""

    def __init__(self, qual: str, func: ast.FunctionDef, man: _Manifest,
                 elidable: Set[str], select: Optional[Set[str]],
                 ctx: ModuleContext):
        self.qual = qual
        self.func = func
        self.man = man
        self.elidable = elidable
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
                if _is_elidable_test(stmt.test, self.elidable) \
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
                continue  # nested factories are their own twins
            self._scan_expr_stmt(stmt, in_loop)

    def _scan_test(self, test: ast.AST, in_loop: bool) -> None:
        self._scan_node(test, in_loop)

    def _scan_expr_stmt(self, stmt: ast.stmt, in_loop: bool) -> None:
        # Skip instrumentation assignments/calls outright.
        for one in _elide_statements([stmt], self.elidable):
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
            if attrs[0] in self.elidable or attrs[-1] in self.elidable:
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
                if attr is None or attr in safe or attr in self.elidable:
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
                if attr is None or attr in safe or attr in self.elidable:
                    continue
                self._emit(node, "SH614", Severity.ERROR,
                           f"pooled request stored into self.{attr}[...] in "
                           f"{self.qual}; a reference outliving completion "
                           "defeats reinit() recycling")


# ------------------------------------------------------------- drivers


def _reference_counts(trees: Sequence[ast.Module],
                      manifests: Sequence[_Manifest]) -> Dict[str, int]:
    """Package-wide attribute/name reference counts for the fast members
    (the SH603 never-wired check).  The defining FunctionDef itself does
    not contribute (its name is not a Name/Attribute node)."""
    wanted: Set[str] = set()
    for man in manifests:
        for pair in man.pairs:
            wanted.add(pair.fast_name)
    counts: Dict[str, int] = {}
    for tree in trees:
        for node in ast.walk(tree):
            name = None
            if isinstance(node, ast.Attribute) and node.attr in wanted:
                name = node.attr
            elif isinstance(node, ast.Name) and node.id in wanted:
                name = node.id
            if name is not None:
                counts[name] = counts.get(name, 0) + 1
    return counts


def _analyze_tree(tree: ast.Module, source: str, path: str,
                  select: Optional[Set[str]],
                  refs: Dict[str, int]) -> List[HeatFinding]:
    ctx = ModuleContext(path, source, tree, "simheat")
    man = _extract_manifest(tree)
    elidable = ELIDABLE_ATTRS | man.elidable
    defs = _collect_defs(tree)
    findings: List[HeatFinding] = []

    def want(rule: str) -> bool:
        return select is None or rule in select

    checkers = {
        "lockstep": _check_lockstep,
        "inline": _check_inline,
        "specialized": _check_specialized,
    }
    for pair in man.pairs:
        fast = defs.get(pair.fast)
        slow = defs.get(pair.slows[0])
        if fast is None or slow is None:
            if fast is None and want("SH601"):
                findings.append(HeatFinding(
                    path, 1, 0, "SH601", Severity.ERROR,
                    f"FAST_PATH_PAIRS names {pair.fast} but no such "
                    "definition exists in this module", pair=pair.label))
            continue
        if pair.mode == "closure":
            if want("SH601"):
                raw = _check_closure(pair, fast, slow, defs, ctx)
                findings.extend(f for f in raw if not ctx.suppressed(
                    f.rule_id, f.line, fast.lineno))
        elif pair.mode in checkers:
            if want("SH601"):
                raw = checkers[pair.mode](pair, fast, slow, elidable, ctx)
                findings.extend(f for f in raw if not ctx.suppressed(
                    f.rule_id, f.line, fast.lineno))
        # "delegated": no structural check.
        if pair.mode in ("lockstep", "inline", "specialized") \
                and want("SH602"):
            raw = _check_counters(pair, fast, slow, elidable, ctx)
            findings.extend(f for f in raw if not ctx.suppressed(
                f.rule_id, f.line))

    if want("SH603"):
        findings.extend(_check_gates(tree, man, elidable, refs, ctx))
    if want("SH604"):
        findings.extend(_check_slow_calls_in_fast(tree, man, defs, ctx))

    for qual, func in sorted(_hot_handlers(tree, man, elidable).items()):
        scanner = _HotScanner(qual, func, man, elidable, select, ctx)
        findings.extend(scanner.scan())
    return findings


def heat_source(source: str, path: str = "<string>",
                select: Optional[Iterable[str]] = None) -> List[HeatFinding]:
    """Analyze one source string (fixtures/tests).  References for the
    SH603 never-wired check are resolved within this source only."""
    tree = parse_module(source, path, "SH600", HeatFinding)
    if isinstance(tree, Finding):
        return [tree]
    refs = _reference_counts([tree], [_extract_manifest(tree)])
    return sort_findings(
        _analyze_tree(tree, source, path, normalize_select(select), refs)
    )


def run_heat(paths: Sequence[str],
             select: Optional[Iterable[str]] = None) -> List[HeatFinding]:
    """Analyze every Python file under ``paths``.  The SH603 never-wired
    check resolves references package-wide (a fast twin defined in one
    module and wired in another is not unreachable)."""
    sel = normalize_select(select)
    parsed, findings = parse_files(paths, "SH600", HeatFinding)
    refs = _reference_counts([t for _, _, t in parsed],
                             [_extract_manifest(t) for _, _, t in parsed])
    for path, src, tree in parsed:
        findings.extend(_analyze_tree(tree, src, path, sel, refs))
    return sort_findings(findings)


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
        self.any_decoupled = any(
            design.lower() not in ("baseline", "cdxbar")
            for _, design in self.grid)

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
        if finding.rule_id in ("SH601", "SH602", "SH603", "SH604", "SH600"):
            twin_failed = any(p.kind == "twin-diff" and not p.ok
                              for p in self.probes)
            if twin_failed:
                return _VERDICT_CONFIRMED
            needs_decoupled = ("home_of" in finding.pair
                               or "core_to_dcl1" in finding.pair)
            if needs_decoupled and not self.any_decoupled:
                return _VERDICT_UNOBSERVED
            return _VERDICT_BENIGN
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
