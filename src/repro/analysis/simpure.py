"""SimPure — cache-key & fingerprint soundness analysis.

The persistent result store (:mod:`repro.sim.store`) serves cached
:class:`~repro.sim.results.SimResult` objects keyed by
:func:`~repro.sim.store.sim_cache_key` — a hash over the declared input
domain: the fields of :class:`~repro.workloads.profile.AppProfile`,
:class:`~repro.core.designs.DesignSpec`,
:class:`~repro.sim.config.SimConfig` and
:class:`~repro.sim.config.GPUConfig`.  That cache is only sound if two
invariants hold:

* **completeness** — everything the simulator core reads that can change
  a result bit is *in* the key.  A sim-core read of an undeclared input
  (an environment variable, a mutable module global, a runtime class
  attribute) silently serves stale results once the input changes.
* **minimality** — everything in the key is actually read.  A keyed
  field the simulator never looks at fragments the shared cache: the
  same simulation is stored and recomputed many times under different
  keys (pure waste at sweep scale).

SimPure machine-checks both directions, completing the analysis tripod
(SimLint / SimRace / SimFlow) into a quadripod.  Like its siblings it is
a purely static AST pass paired with a dynamic confirmer.

Static rules (``# simpure: disable=SPxxx`` suppresses on the line):

=======  =======  ==========================================================
SP401    error    sim-core read of an input that bypasses the cache key
                  (env var outside a declared ``*_from_env`` /
                  ``*_env_enabled`` resolver, ``global`` declaration,
                  runtime class-attribute assignment)
SP402    warning  keyed field never read anywhere in the scanned tree
                  (over-keying: avoidable distributed-cache misses)
SP403    error    non-identity field (``compare=False``) flowing into
                  ``fingerprint``/``to_jsonable``/``__eq__``/``__hash__``
SP404    error    sim-core mutation of a profile/spec/config/gpu input
                  object (cache poisoning, run-order dependence)
SP405    error    keyed/serialized field lacking JSON roundtrip coverage
                  (one-sided ``to_jsonable``/``from_jsonable``, asymmetric
                  per-field transforms, un-canonicalizable annotations)
=======  =======  ==========================================================

The *sim core* is the set of modules that execute between a config triple
and a :class:`SimResult`: ``repro/sim``, ``repro/cache``, ``repro/noc``,
``repro/mem``, ``repro/gpu``, ``repro/core`` and ``repro/workloads``.
The CLI, experiment drivers and the analysis tools themselves construct
configs and *may* read the environment; the sim core may not (SP401) and
may not mutate its inputs (SP404).  SP402 counts reads over the whole
scanned tree (a field read only by the power model is still a read) and
only runs when the scan includes ``sim/system.py`` — on a partial scan
"never read" would be vacuously true.

Like every static pass this one under-approximates: reads through
``getattr`` with a computed name, ``exec`` or C extensions are invisible.
The dynamic confirmer (:func:`confirm_purity`, ``repro purity
--confirm``) covers the gap from the other side, mirroring SimRace's
shadow-shuffle pattern: it *mutates* each declared-neutral / excluded
input and asserts bit-exact fingerprint invariance, and mutates every
keyed field asserting the cache key changes.

See ``docs/analysis.md`` for the full story.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    Severity,
    in_path_scope,
    normalize_select,
    parse_files,
    parse_module,
    sort_findings,
)
from repro.analysis.simrace import (
    MUTATING_METHODS,
    diff_fingerprints,
    method_aliases,
)

__all__ = [
    "PURITY_RULES",
    "PurityProbe",
    "PurityReport",
    "purity_source",
    "run_purity",
    "confirm_purity",
    "mutated_value",
    "DECLARED_ENV_INPUTS",
]

PURITY_RULES: List[Rule] = [
    Rule("SP401", Severity.ERROR,
         "sim-core read of an input that bypasses the cache key"),
    Rule("SP402", Severity.WARNING,
         "keyed field is never read by the simulator (over-keying)"),
    Rule("SP403", Severity.ERROR,
         "non-identity field flows into result identity"),
    Rule("SP404", Severity.ERROR,
         "simulation mutates a keyed input object"),
    Rule("SP405", Severity.ERROR,
         "keyed/serialized field lacks JSON roundtrip coverage"),
]

#: Environment variables the sim layer is *allowed* to read — each must be
#: resolved once, inside a function named ``*_from_env`` or
#: ``*_env_enabled``, into explicit config/constructor state (never on the
#: simulation hot path).  The value documents why the read is sound.
DECLARED_ENV_INPUTS: Dict[str, str] = {
    "REPRO_WATCHDOG": "resolved into SimConfig.watchdog at construction; "
                      "fingerprint-neutral (watchdog runs are bit-identical)",
    "REPRO_SANITIZE": "resolved into SimConfig.sanitize at construction; "
                      "fingerprint-neutral (sanitized runs are bit-identical)",
    "REPRO_CACHE_DIR": "names the cache directory; never influences what a "
                       "simulation computes, only where results are stored",
}

#: Path fragments that mark a module as simulator core (see module
#: docstring).  ``<string>`` sources (unit tests) count as sim-core.
_SIM_CORE_PARTS = (
    "repro/sim", "repro/cache", "repro/noc", "repro/mem",
    "repro/gpu", "repro/core", "repro/workloads",
)

#: ``self`` attributes / parameter names that hold keyed input objects.
#: A write *into* one of these (``self.cfg.scale = ...``, ``cfg.gpu = ...``)
#: or a mutating method call on one is SP404.
_INPUT_ROOTS = frozenset({"cfg", "config", "spec", "profile", "gpu"})

#: The dataclasses whose fields form the cache-key domain (matches
#: ``repro.sim.store.cache_key_manifest``), checked by SP405's
#: annotation rule without importing the sim layer.
_KEYED_CLASS_NAMES = frozenset(
    {"AppProfile", "DesignSpec", "SimConfig", "GPUConfig"}
)

#: Annotation identifiers that cannot canonicalize into a stable JSON
#: cache key (unordered containers, opaque callables/objects, raw bytes).
_UNKEYABLE_ANNOTATIONS = frozenset({
    "Set", "FrozenSet", "set", "frozenset", "MutableSet",
    "Callable", "Any", "bytes", "bytearray", "complex", "ndarray", "object",
})

#: Method names that define a result's identity (SP403 scope).
_IDENTITY_METHODS = frozenset({"fingerprint", "to_jsonable", "__eq__", "__hash__"})


# --------------------------------------------------------------- module facts


def _dotted_path(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted name of an attribute chain with import aliases expanded,
    or None when the base is not an imported name."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    base = aliases.get(cur.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _module_str_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` bindings (env-var name constants
    like ``CACHE_DIR_ENV``)."""
    out: Dict[str, str] = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            out[stmt.targets[0].id] = stmt.value.value
    return out


def _module_str_tuples(tree: ast.Module) -> Dict[str, Tuple[str, ...]]:
    """Module-level ``NAME = ("a", "b")`` bindings (exclusion lists like
    ``_OBSERVABILITY_FIELDS``)."""
    out: Dict[str, Tuple[str, ...]] = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, (ast.Tuple, ast.List))
            and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in stmt.value.elts
            )
        ):
            out[stmt.targets[0].id] = tuple(e.value for e in stmt.value.elts)
    # One aliasing round: ``NON_IDENTITY_FIELDS = _OBSERVABILITY_FIELDS``.
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Name)
            and stmt.value.id in out
        ):
            out[stmt.targets[0].id] = out[stmt.value.id]
    return out


def _env_var_name(call: ast.Call, consts: Dict[str, str]) -> str:
    """The environment-variable name a read targets, resolved through
    module string constants; ``<dynamic>`` when not statically known."""
    if not call.args:
        return "<dynamic>"
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.Name) and arg.id in consts:
        return consts[arg.id]
    return "<dynamic>"


def _is_classvar(annotation: ast.AST) -> bool:
    """True for ``ClassVar[...]`` annotations — not dataclass fields."""
    return any(
        (isinstance(n, ast.Name) and n.id == "ClassVar")
        or (isinstance(n, ast.Attribute) and n.attr == "ClassVar")
        for n in ast.walk(annotation)
    )


def _class_fields(cls: ast.ClassDef) -> Dict[str, int]:
    """Dataclass field name -> definition line (ClassVars excluded)."""
    fields: Dict[str, int] = {}
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not _is_classvar(stmt.annotation)
        ):
            fields[stmt.target.id] = stmt.lineno
    return fields


def _input_root(node: ast.AST, aliases: Dict[str, str]) -> Tuple[Optional[str], int]:
    """Resolve an attribute/subscript chain to a keyed-input root.

    Returns ``(root, depth)`` where ``root`` is the input name (one of
    :data:`_INPUT_ROOTS`) and ``depth`` is the number of attribute hops
    *below* the root — ``self.cfg.scale`` is ``("cfg", 1)``,
    ``cfg.gpu.num_cores`` is ``("cfg", 2)``, ``self.cfg`` is
    ``("cfg", 0)``.  ``(None, 0)`` when the chain is not input-rooted.
    """
    attrs: List[str] = []
    cur = node
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        if isinstance(cur, ast.Attribute):
            attrs.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None, 0
    if cur.id == "self":
        # self.cfg.x -> attrs == ["x", "cfg"]: root is the outermost attr.
        for i in range(len(attrs) - 1, -1, -1):
            if attrs[i] in _INPUT_ROOTS:
                return attrs[i], i
        return None, 0
    if cur.id in _INPUT_ROOTS:
        return cur.id, len(attrs)
    alias = aliases.get(cur.id)
    if alias in _INPUT_ROOTS:
        return alias, len(attrs)
    return None, 0


# ------------------------------------------------------------- static rules


def _check_undeclared_inputs(
    mctx: ModuleContext, class_names: Set[str], emit
) -> None:
    """SP401: env reads outside declared resolvers, ``global``
    declarations, runtime class-attribute assignment."""
    consts = _module_str_constants(mctx.tree)
    for node in ast.walk(mctx.tree):
        if isinstance(node, ast.Call):
            target = mctx.resolve_call(node.func) or _dotted_path(
                node.func, mctx.aliases
            )
            if target in ("os.getenv", "os.environ.get"):
                _emit_env_read(node, _env_var_name(node, consts), mctx, emit)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if _dotted_path(node.value, mctx.aliases) == "os.environ":
                name = "<dynamic>"
                if isinstance(node.slice, ast.Constant) and isinstance(
                    node.slice.value, str
                ):
                    name = node.slice.value
                elif isinstance(node.slice, ast.Name) and node.slice.id in consts:
                    name = consts[node.slice.id]
                _emit_env_read(node, name, mctx, emit)
        elif isinstance(node, ast.Global):
            func = mctx.enclosing_function(node)
            fname = getattr(func, "name", "<module>")
            emit(
                node, "SP401",
                f"function {fname!r} declares module global(s) "
                f"{', '.join(node.names)}: mutable module state bypasses "
                "the cache key — thread it through SimConfig instead",
            )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in class_names
                    and mctx.enclosing_function(target) is not None
                ):
                    emit(
                        target, "SP401",
                        f"runtime class-attribute assignment "
                        f"{target.value.id}.{target.attr} = ...: class-level "
                        "state bypasses the cache key and leaks across runs",
                    )


_RESOLVER_NAME_RE = re.compile(r"(_from_env|_env_enabled)$")


def _emit_env_read(node: ast.AST, var: str, mctx: ModuleContext, emit) -> None:
    func = mctx.enclosing_function(node)
    fname = getattr(func, "name", None)
    if (
        var in DECLARED_ENV_INPUTS
        and fname is not None
        and _RESOLVER_NAME_RE.search(fname)
    ):
        return  # a declared input, read in a dedicated resolver
    if var in DECLARED_ENV_INPUTS:
        where = f"outside a *_from_env/*_env_enabled resolver (in {fname!r})" \
            if fname else "at module scope"
        emit(
            node, "SP401",
            f"declared env input {var!r} read {where}: resolve it once at "
            "SimConfig construction, not on the simulation path",
        )
    else:
        emit(
            node, "SP401",
            f"sim core reads undeclared environment variable {var!r}: the "
            "value can change results but is not part of sim_cache_key "
            "(declare it in DECLARED_ENV_INPUTS and resolve it into config "
            "state, or stop reading it)",
        )


def _check_identity_leaks(mctx: ModuleContext, emit) -> None:
    """SP403: ``compare=False`` fields must not flow into identity
    methods (``fingerprint``/``to_jsonable``/``__eq__``/``__hash__``)."""
    str_tuples = _module_str_tuples(mctx.tree)
    for cls in ast.walk(mctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        non_identity = _non_identity_fields(cls)
        if not non_identity:
            continue
        for meth in cls.body:
            if (
                isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef))
                and meth.name in _IDENTITY_METHODS
            ):
                _check_identity_method(meth, non_identity, str_tuples, mctx, emit)


def _non_identity_fields(cls: ast.ClassDef) -> Set[str]:
    """Fields declared ``field(..., compare=False)`` in a class body."""
    out: Set[str] = set()
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call):
            callee = value.func
            name = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else ""
            )
            if name == "field" and any(
                kw.arg == "compare"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in value.keywords
            ):
                out.add(stmt.target.id)
    return out


def _check_identity_method(
    meth: ast.AST,
    non_identity: Set[str],
    str_tuples: Dict[str, Tuple[str, ...]],
    mctx: ModuleContext,
    emit,
) -> None:
    # Which non-identity fields does the method provably strip?  Either a
    # literal ``data.pop("wall_time_s", ...)`` or a loop over a module
    # constant: ``for name in _OBSERVABILITY_FIELDS: data.pop(name)``.
    excluded: Set[str] = set()
    for node in ast.walk(meth):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("pop", "__delitem__")
            and node.args
        ):
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                excluded.add(arg.value)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Name):
            names = str_tuples.get(node.iter.id)
            if names and any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("pop", "__delitem__")
                for n in ast.walk(node)
            ):
                excluded.update(names)
    for node in ast.walk(meth):
        # Direct read of a non-identity field inside an identity method.
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in non_identity
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "other")
        ):
            emit(
                node, "SP403",
                f"non-identity field {node.attr!r} (compare=False) is read "
                f"inside {meth.name}(): observability must not flow into "
                "a result's identity",
            )
        # Blanket asdict(self) without stripping every non-identity field.
        if (
            isinstance(node, ast.Call)
            and (
                mctx.resolve_call(node.func) in ("dataclasses.asdict",)
                or (isinstance(node.func, ast.Name) and node.func.id == "asdict")
            )
        ):
            leaked = sorted(non_identity - excluded)
            if leaked:
                emit(
                    node, "SP403",
                    f"asdict() in {meth.name}() includes non-identity "
                    f"field(s) {', '.join(leaked)}: pop them (directly or "
                    "via a module-level exclusion tuple) before they enter "
                    "the identity",
                )


def _check_input_mutations(mctx: ModuleContext, emit) -> None:
    """SP404: writes into (or mutating calls on) profile/spec/config/gpu
    objects anywhere in the sim core."""
    for func in ast.walk(mctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = method_aliases(func)
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    root, depth = _input_root(target, aliases)
                    if root is not None and depth >= 1:
                        emit(
                            target, "SP404",
                            f"assignment into keyed input object {root!r} "
                            f"in {func.name}(): inputs are immutable — "
                            "derive a new object with dataclasses.replace()",
                        )
            elif isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in MUTATING_METHODS
                ):
                    root, depth = _input_root(callee.value, aliases)
                    if root is not None and depth >= 1:
                        emit(
                            callee, "SP404",
                            f"mutating call .{callee.attr}() on keyed input "
                            f"object {root!r} in {func.name}(): inputs are "
                            "immutable — copy before mutating",
                        )
                elif (
                    _dotted_path(callee, mctx.aliases) == "object.__setattr__"
                    or (
                        isinstance(callee, ast.Attribute)
                        and callee.attr == "__setattr__"
                        and isinstance(callee.value, ast.Name)
                        and callee.value.id == "object"
                    )
                ):
                    if node.args:
                        root, _depth = _input_root(node.args[0], aliases)
                        if root is None and isinstance(node.args[0], ast.Name):
                            root = (
                                node.args[0].id
                                if node.args[0].id in _INPUT_ROOTS
                                else aliases.get(node.args[0].id)
                            )
                        if root in _INPUT_ROOTS:
                            emit(
                                callee, "SP404",
                                f"object.__setattr__ on keyed input object "
                                f"{root!r} in {func.name}(): defeats frozen-"
                                "dataclass protection on a cache-key input",
                            )


def _subscript_store_keys(meth: ast.AST) -> Set[str]:
    """String keys written via ``x["key"] = ...`` in a method body."""
    keys: Set[str] = set()
    for node in ast.walk(meth):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return keys


def _check_roundtrip(mctx: ModuleContext, emit) -> None:
    """SP405: serialization symmetry and keyability of field types."""
    for cls in ast.walk(mctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {
            m.name: m
            for m in cls.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        to_j, from_j = methods.get("to_jsonable"), methods.get("from_jsonable")
        if (to_j is None) != (from_j is None):
            have, miss = (
                ("to_jsonable", "from_jsonable") if to_j else
                ("from_jsonable", "to_jsonable")
            )
            emit(
                cls, "SP405",
                f"class {cls.name} defines {have}() but not {miss}(): "
                "one-way serialization cannot prove cache entries replay "
                "bit-exact (schema drift vs CACHE_SCHEMA_VERSION)",
            )
        elif to_j is not None and from_j is not None:
            out_keys = _subscript_store_keys(to_j)
            in_keys = _subscript_store_keys(from_j)
            for key in sorted(out_keys ^ in_keys):
                side = "to_jsonable" if key in out_keys else "from_jsonable"
                other = "from_jsonable" if key in out_keys else "to_jsonable"
                emit(
                    methods[side], "SP405",
                    f"field {key!r} is transformed in {side}() but not in "
                    f"{other}(): asymmetric serialization breaks the "
                    "roundtrip fingerprint guarantee",
                )
        if cls.name in _KEYED_CLASS_NAMES:
            for stmt in cls.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not _is_classvar(stmt.annotation)
                ):
                    bad = sorted({
                        n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(stmt.annotation)
                        if isinstance(n, (ast.Name, ast.Attribute))
                        and (
                            n.id if isinstance(n, ast.Name) else n.attr
                        ) in _UNKEYABLE_ANNOTATIONS
                    })
                    if bad:
                        emit(
                            stmt, "SP405",
                            f"keyed field {cls.name}.{stmt.target.id} is "
                            f"annotated with un-keyable type(s) "
                            f"{', '.join(bad)}: the canonical JSON cache "
                            "key cannot represent it stably",
                        )


# ----------------------------------------------------------- whole-tree pass


def _module_findings(
    tree: ast.Module,
    path: str,
    source: str,
    wanted: Optional[Set[str]],
) -> List[Finding]:
    """All per-module findings (SP401/SP403/SP404/SP405) for one file."""
    if not in_path_scope(path, _SIM_CORE_PARTS):
        return []
    mctx = ModuleContext(path, source, tree, "simpure")
    class_names = {
        n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
    }
    findings: List[Finding] = []
    severities = {rid: sev for rid, sev, _ in PURITY_RULES}

    def emit(node: ast.AST, rule_id: str, message: str) -> None:
        if wanted is not None and rule_id not in wanted:
            return
        line = getattr(node, "lineno", 1)
        if mctx.suppressed(rule_id, line):
            return
        findings.append(
            Finding(
                path, line, getattr(node, "col_offset", 0),
                rule_id, severities[rule_id], message,
            )
        )

    _check_undeclared_inputs(mctx, class_names, emit)
    _check_identity_leaks(mctx, emit)
    _check_input_mutations(mctx, emit)
    _check_roundtrip(mctx, emit)
    return findings


def purity_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the per-module SimPure rules over one source string.

    SP402 (over-keying) is a whole-tree property and only runs from
    :func:`run_purity` when the scan covers the sim core.
    """
    tree = parse_module(source, path, "SP001")
    if isinstance(tree, Finding):
        return [tree]
    return sort_findings(
        _module_findings(tree, path, source, normalize_select(select))
    )


def _collect_reads(tree: ast.Module) -> Set[str]:
    """Attribute names loaded anywhere in a module, plus literal
    ``getattr(x, "name")`` targets — the read-set SP402 diffs the keyed
    manifest against."""
    reads: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            reads.add(node.args[1].value)
    return reads


def run_purity(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the full SimPure static pass over every Python file under
    ``paths``: the per-module rules plus the cross-file SP402 over-keying
    diff against :func:`repro.sim.store.cache_key_manifest`."""
    wanted = normalize_select(select)
    parsed, findings = parse_files(paths, "SP001")
    reads: Set[str] = set()
    saw_system = False
    # Class name -> (path, module context, {field: line}) for the keyed
    # dataclass definitions encountered during the scan.
    defs: Dict[str, Tuple[str, ModuleContext, Dict[str, int]]] = {}

    for path, source, tree in parsed:
        findings.extend(_module_findings(tree, path, source, wanted))
        reads |= _collect_reads(tree)
        norm = path.replace("\\", "/")
        if norm.endswith("sim/system.py"):
            saw_system = True
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in _KEYED_CLASS_NAMES:
                defs[node.name] = (
                    path, ModuleContext(path, source, tree, "simpure"),
                    _class_fields(node),
                )

    if saw_system and (wanted is None or "SP402" in wanted):
        findings.extend(_overkeying_findings(reads, defs))
    return sort_findings(findings)


def _overkeying_findings(
    reads: Set[str],
    defs: Dict[str, Tuple[str, ModuleContext, Dict[str, int]]],
) -> List[Finding]:
    """SP402: keyed manifest fields with no read anywhere in the scan."""
    # Lazy import: the analysis package never imports the sim layer at
    # module scope (same policy as confirm_races).
    from repro.sim.store import cache_key_manifest

    findings: List[Finding] = []
    for role, entry in sorted(cache_key_manifest().items()):
        cls_name = str(entry["class"])
        if cls_name not in defs:
            continue  # defining file not in this scan: cannot anchor
        path, ctx, field_lines = defs[cls_name]
        for field_name in entry["keyed"]:  # type: ignore[union-attr]
            if field_name in reads:
                continue
            line = field_lines.get(field_name, 1)
            if ctx.suppressed("SP402", line):
                continue
            findings.append(
                Finding(
                    path, line, 0, "SP402", Severity.WARNING,
                    f"keyed field {cls_name}.{field_name} ({role}) is never "
                    "read by the scanned tree: it fragments the shared "
                    "result cache — read it, remove it, or declare it in "
                    f"{cls_name}.FINGERPRINT_NEUTRAL_FIELDS",
                )
            )
    return findings


# -------------------------------------------------------- dynamic confirmer


#: Default (app, design-label) grid for ``repro purity --confirm``: a
#: camping+replication workload on private nodes, a replication-heavy
#: Tango network on the paper's best clustered design, and a cache-
#: friendly workload on the conventional baseline.
DEFAULT_CONFIRM_GRID: Tuple[Tuple[str, str], ...] = (
    ("P-2MM", "Pr40"),
    ("T-AlexNet", "Sh40+C10"),
    ("C-BLK", "Baseline"),
)


def mutated_value(value: object) -> List[object]:
    """Candidate replacement values for one field, in preference order.

    Candidates may violate a dataclass's ``__post_init__`` constraints;
    callers try them in order and keep the first that constructs.
    """
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value * 2 if value else 7, value + 1, max(value // 2, 1), value - 1]
    if isinstance(value, float):
        return [
            value + 1.0, value * 0.5, value * 2.0, 0.5, 0.25, 0.1,
            1.0 if value == 0.0 else 0.0,
        ]
    if isinstance(value, str):
        return [value + "x", "probe"]
    if value is None:
        return [7, 11.0, 1]
    if isinstance(value, enum_module().Enum):
        others = [m for m in type(value) if m is not value]
        return others or []
    if dataclasses_module().is_dataclass(value):
        # Mutate the first float field of a nested dataclass (GPUConfig).
        for f in dataclasses_module().fields(value):
            cur = getattr(value, f.name)
            if isinstance(cur, float) and not isinstance(cur, bool):
                return [dataclasses_module().replace(value, **{f.name: cur + 1.0})]
        return []
    return []


def enum_module():
    import enum

    return enum


def dataclasses_module():
    import dataclasses

    return dataclasses


@dataclass(frozen=True)
class PurityProbe:
    """One dynamic mutation probe and its verdict."""

    kind: str      # key-sensitivity | key-neutrality | fingerprint-invariance
                   # | env-invariance | roundtrip
    target: str    # e.g. "SimConfig.scale" or "REPRO_WATCHDOG @ P-2MM/Pr40"
    ok: bool
    detail: str = ""

    def format(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"  {self.kind:<24} {self.target:<44} {verdict}{tail}"


@dataclass
class PurityReport:
    """Outcome of a full dynamic purity confirmation."""

    grid: List[Tuple[str, str]]
    scale: float
    probes: List[PurityProbe] = field(default_factory=list)

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

    def render(self, findings: Optional[Sequence[Finding]] = None) -> str:
        """The report; ``findings`` is accepted for the shared confirm
        interface and ignored (probes speak for the declared domain, not
        for individual source lines)."""
        lines = [
            f"SimPure confirm: grid={', '.join(f'{a}/{d}' for a, d in self.grid)} "
            f"scale={self.scale:g} probes={len(self.probes)}"
        ]
        lines.extend(p.format() for p in self.probes if not p.ok)
        for kind, (passed, total) in sorted(self.counts().items()):
            lines.append(f"  {kind}: {passed}/{total} ok")
        lines.append(
            "overall: "
            + (
                "SOUND (keyed fields change the key; excluded inputs are "
                "bit-invariant)"
                if self.ok
                else "UNSOUND — the declared key/fingerprint domain does "
                "not match simulator behaviour"
            )
        )
        return "\n".join(lines)


def _mutate_dataclass(obj: object, field_name: str) -> Optional[object]:
    """A copy of ``obj`` with ``field_name`` changed to a valid different
    value, or None when no candidate satisfies ``__post_init__``."""
    import dataclasses

    current = getattr(obj, field_name)
    for candidate in mutated_value(current):
        if candidate == current:
            continue
        try:
            return dataclasses.replace(obj, **{field_name: candidate})
        except (ValueError, TypeError, ZeroDivisionError):
            continue
    return None


def _key_probes(profile, spec, cfg) -> List[PurityProbe]:
    """Key-sensitivity (every keyed field changes the key) and
    key-neutrality (every neutral field keeps it) — no simulations."""
    from repro.sim.store import cache_key_manifest, sim_cache_key

    base = sim_cache_key(profile, spec, cfg)
    import dataclasses

    def rebuild(role: str, mutated):
        if role == "profile":
            return mutated, spec, cfg
        if role == "design":
            return profile, mutated, cfg
        if role == "config":
            return profile, spec, mutated
        return profile, spec, dataclasses.replace(cfg, gpu=mutated)

    probes: List[PurityProbe] = []
    objs = {"profile": profile, "design": spec, "config": cfg, "gpu": cfg.gpu}
    for role, entry in sorted(cache_key_manifest().items()):
        obj = objs[role]
        cls = str(entry["class"])
        for field_name in entry["keyed"]:  # type: ignore[union-attr]
            if role == "config" and field_name == "gpu":
                continue  # covered field-by-field by the "gpu" role
            mutated = _mutate_dataclass(obj, field_name)
            if mutated is None:
                probes.append(PurityProbe(
                    "key-sensitivity", f"{cls}.{field_name}", False,
                    "no valid mutated value found",
                ))
                continue
            key = sim_cache_key(*rebuild(role, mutated))
            probes.append(PurityProbe(
                "key-sensitivity", f"{cls}.{field_name}", key != base,
                "" if key != base else "mutation did not change sim_cache_key",
            ))
        for field_name in entry["neutral"]:  # type: ignore[union-attr]
            mutated = _mutate_dataclass(obj, field_name)
            if mutated is None:
                probes.append(PurityProbe(
                    "key-neutrality", f"{cls}.{field_name}", False,
                    "no valid mutated value found",
                ))
                continue
            key = sim_cache_key(*rebuild(role, mutated))
            probes.append(PurityProbe(
                "key-neutrality", f"{cls}.{field_name}", key == base,
                "" if key == base else "declared-neutral field changed the key",
            ))
    return probes


def confirm_purity(
    grid: Optional[Sequence[Tuple[str, str]]] = None,
    scale: float = 0.1,
    config=None,
) -> PurityReport:
    """Dynamically confirm the declared key/fingerprint domain.

    Four probe families, mirroring SimRace's confirm mode:

    * **key-sensitivity** — every keyed field of every keyed dataclass,
      mutated, must change :func:`sim_cache_key` (no simulations).
    * **key-neutrality** — every declared-neutral field, mutated, must
      keep the key.
    * **fingerprint-invariance** — per grid point: each neutral field
      mutated, the simulation re-run, and the result fingerprint must be
      bit-identical to the unmutated baseline.
    * **env-invariance** — per grid point: each declared env input set
      in ``os.environ`` around a re-run with the *same* config object;
      bit-identical results prove the sim core never reads the
      environment at run time.
    * **roundtrip** — per grid point: ``to_jsonable -> json ->
      from_jsonable`` must reproduce the fingerprint bit-exactly.
    """
    # Lazy imports: repro.sim.system imports repro.analysis at module
    # load, so importing it here (not at module top) avoids the cycle.
    import dataclasses

    from repro.cli import parse_design
    from repro.sim.config import SimConfig
    from repro.sim.results import SimResult
    from repro.sim.system import simulate
    from repro.workloads.suite import get_app

    points = list(grid) if grid else list(DEFAULT_CONFIRM_GRID)
    cfg = (
        dataclasses.replace(config, scale=scale)
        if config is not None
        else SimConfig(scale=scale)
    )
    first_app = get_app(points[0][0])
    first_spec = parse_design(points[0][1])
    report = PurityReport(grid=points, scale=scale)
    report.probes.extend(_key_probes(first_app, first_spec, cfg))

    neutral_cfg_fields = sorted(SimConfig.FINGERPRINT_NEUTRAL_FIELDS)
    for app_name, design_label in points:
        app = get_app(app_name)
        spec = parse_design(design_label)
        where = f"{app_name}/{spec.label}"
        base_fp = simulate(app, spec, cfg).fingerprint()

        for field_name in neutral_cfg_fields:
            mutated_cfg = _mutate_dataclass(cfg, field_name)
            if mutated_cfg is None:
                report.probes.append(PurityProbe(
                    "fingerprint-invariance",
                    f"SimConfig.{field_name} @ {where}", False,
                    "no valid mutated value found",
                ))
                continue
            diff = diff_fingerprints(
                base_fp, simulate(app, spec, mutated_cfg).fingerprint()
            )
            report.probes.append(PurityProbe(
                "fingerprint-invariance",
                f"SimConfig.{field_name} @ {where}",
                not diff, "; ".join(diff),
            ))

        mutated_app = dataclasses.replace(app, suite=app.suite + "x")
        diff = diff_fingerprints(
            base_fp, simulate(mutated_app, spec, cfg).fingerprint()
        )
        report.probes.append(PurityProbe(
            "fingerprint-invariance", f"AppProfile.suite @ {where}",
            not diff, "; ".join(diff),
        ))

        for var in sorted(DECLARED_ENV_INPUTS):
            if var == "REPRO_CACHE_DIR":
                continue  # names a directory; pointing it anywhere real
                          # would write caches as a side effect
            saved = os.environ.get(var)
            os.environ[var] = "1"
            try:
                diff = diff_fingerprints(
                    base_fp, simulate(app, spec, cfg).fingerprint()
                )
            finally:
                if saved is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = saved
            report.probes.append(PurityProbe(
                "env-invariance", f"{var} @ {where}", not diff, "; ".join(diff),
            ))

        result = simulate(app, spec, cfg)
        back = SimResult.from_jsonable(json.loads(json.dumps(result.to_jsonable())))
        diff = diff_fingerprints(result.fingerprint(), back.fingerprint())
        report.probes.append(PurityProbe(
            "roundtrip", f"SimResult @ {where}", not diff, "; ".join(diff),
        ))
    return report
