"""SimLint — an AST lint pass enforcing simulator-specific correctness rules.

The engine promises bit-reproducible simulations; the queueing results of
the paper depend on it.  Generic linters cannot enforce the rules that
make it true, so SimLint walks the package's sources (``repro lint``, or
:func:`run_lint` programmatically) and checks:

========  ========  =====================================================
Rule ID   Severity  What it forbids
========  ========  =====================================================
SL101     error     Nondeterminism sources in sim code: ``time.time``,
                    ``datetime.now``, module-level ``random`` calls,
                    ``os.urandom``, ``uuid.uuid4``, ...
SL102     warning   Iterating an unordered ``set``/``frozenset`` (set
                    iteration order feeding event scheduling makes runs
                    machine-dependent)
SL103     error     Float ``==``/``!=`` comparisons on simulated
                    timestamps (``now``, ``t``, ``*_time``, ...)
SL104     error     ``object.__setattr__`` outside ``__init__`` /
                    ``__post_init__`` (mutating frozen-dataclass configs)
SL105     error     ``.schedule(...)`` call sites that can pass a past /
                    NaN / infinite time
SL106     error     Public-API drift: names listed in ``__all__`` that the
                    module never defines
========  ========  =====================================================

Suppress a finding by appending ``# simlint: disable=SL101`` (comma list,
or ``disable=all``) to the flagged line.  Rules are small pluggable
classes registered in :data:`RULES`; adding one means subclassing
:class:`LintRule` and decorating it with :func:`register`.

The runtime counterpart (leak/double-free checking while the simulator
runs) is :mod:`repro.analysis.sanitizer`; both are documented in
``docs/analysis.md``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Severity,
    normalize_select,
    parse_module,
    scan_files,
    sort_findings,
)


class LintRule:
    """Base class for one pluggable checker.

    Subclasses set the class attributes and implement :meth:`check`, which
    yields ``(node, message)`` pairs for each violation in the module.
    """

    rule_id: str = "SL000"
    severity: Severity = Severity.ERROR
    title: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        raise NotImplementedError


RULES: List[Type[LintRule]] = []


def register(cls: Type[LintRule]) -> Type[LintRule]:
    RULES.append(cls)
    return cls


# --------------------------------------------------------------------- rules


@register
class NondeterministicCallRule(LintRule):
    """SL101: calls whose result differs between runs of the same seed."""

    rule_id = "SL101"
    severity = Severity.ERROR
    title = "nondeterministic call in simulator code"

    BANNED = {
        "time.time": "wall-clock time",
        "time.time_ns": "wall-clock time",
        "time.monotonic": "wall-clock time",
        "time.monotonic_ns": "wall-clock time",
        "time.perf_counter": "wall-clock time",
        "time.perf_counter_ns": "wall-clock time",
        "datetime.datetime.now": "wall-clock time",
        "datetime.datetime.utcnow": "wall-clock time",
        "datetime.datetime.today": "wall-clock time",
        "datetime.date.today": "wall-clock time",
        "os.urandom": "OS entropy",
        "uuid.uuid1": "host/time-derived UUID",
        "uuid.uuid4": "OS entropy",
        "secrets.token_bytes": "OS entropy",
        "secrets.token_hex": "OS entropy",
        "random.random": "module-level RNG (unseeded global state)",
        "random.randint": "module-level RNG (unseeded global state)",
        "random.randrange": "module-level RNG (unseeded global state)",
        "random.uniform": "module-level RNG (unseeded global state)",
        "random.choice": "module-level RNG (unseeded global state)",
        "random.choices": "module-level RNG (unseeded global state)",
        "random.sample": "module-level RNG (unseeded global state)",
        "random.shuffle": "module-level RNG (unseeded global state)",
        "random.seed": "module-level RNG (global state shared across runs)",
        "random.getrandbits": "module-level RNG (unseeded global state)",
        "numpy.random.rand": "module-level RNG (unseeded global state)",
        "numpy.random.randn": "module-level RNG (unseeded global state)",
        "numpy.random.randint": "module-level RNG (unseeded global state)",
        "numpy.random.shuffle": "module-level RNG (unseeded global state)",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target is None:
                continue
            why = self.BANNED.get(target)
            if why is not None:
                yield node, (
                    f"nondeterministic call {target}() ({why}) breaks "
                    "bit-reproducibility; use engine time or a seeded RNG "
                    "(np.random.default_rng(seed))"
                )


@register
class SetIterationRule(LintRule):
    """SL102: iteration over an unordered set.

    Set iteration order depends on insertion history and hash seeds; if it
    feeds event scheduling the simulation stops being reproducible.  Only
    *obvious* sets are flagged (literals, comprehensions, ``set(...)`` /
    ``frozenset(...)`` calls) — membership tests are fine.
    """

    rule_id = "SL102"
    severity = Severity.WARNING
    title = "iteration over an unordered set"

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def check(self, ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    yield it, (
                        "iterating an unordered set: order is hash/history "
                        "dependent; wrap in sorted(...) before it can feed "
                        "event scheduling"
                    )


@register
class FloatTimeComparisonRule(LintRule):
    """SL103: exact float equality on simulated timestamps.

    Timestamps are accumulated floats; ``==``/``!=`` on them encodes an
    exact-arithmetic assumption that breaks the moment a latency becomes
    non-integral.  Compare with ``<``/``<=`` or an explicit tolerance.
    """

    rule_id = "SL103"
    severity = Severity.ERROR
    title = "float equality comparison on a simulated timestamp"

    TIME_NAME_RE = re.compile(
        r"^(now|t|t\d+|time|deadline|free_at|next_free|arrival|departure)$|_time$|_at$"
    )

    @classmethod
    def _is_time_name(cls, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return bool(cls.TIME_NAME_RE.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(cls.TIME_NAME_RE.search(node.attr))
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_time_name(left) or self._is_time_name(right):
                    yield node, (
                        "==/!= on a simulated timestamp assumes exact float "
                        "arithmetic; use ordering comparisons or an explicit "
                        "tolerance"
                    )


@register
class FrozenMutationRule(LintRule):
    """SL104: ``object.__setattr__`` outside dataclass construction.

    Frozen configs (GPUConfig, SimConfig, DesignSpec) are hashable and
    shared across experiments; the only sanctioned escape hatch is inside
    ``__init__``/``__post_init__`` of the dataclass itself.
    """

    rule_id = "SL104"
    severity = Severity.ERROR
    title = "frozen-dataclass mutation via object.__setattr__"

    ALLOWED_SCOPES = ("__init__", "__post_init__", "__setattr__", "__new__")

    def check(self, ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
            ):
                continue
            fn = ctx.enclosing_function(node)
            name = getattr(fn, "name", None)
            if name not in self.ALLOWED_SCOPES:
                yield node, (
                    "object.__setattr__ outside __init__/__post_init__ mutates "
                    "a frozen config after construction; use dataclasses."
                    "replace() to derive a new one"
                )


@register
class UnsafeScheduleTimeRule(LintRule):
    """SL105: ``.schedule(time, ...)`` arguments that are provably past,
    NaN or infinite — each would corrupt the event heap's ordering
    invariant (and NaN silently passes a bare ``time < now`` guard)."""

    rule_id = "SL105"
    severity = Severity.ERROR
    title = "schedule() call with a past/NaN/inf time"

    @staticmethod
    def _is_negative_constant(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return isinstance(node.operand, ast.Constant) and isinstance(
                node.operand.value, (int, float)
            )
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
            and node.value < 0
        )

    @staticmethod
    def _is_nonfinite_float_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.strip().lower().lstrip("+-") in ("nan", "inf", "infinity")
        )

    @staticmethod
    def _is_now_minus_expr(node: ast.AST) -> bool:
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            return False
        left = node.left
        name = left.attr if isinstance(left, ast.Attribute) else (
            left.id if isinstance(left, ast.Name) else None
        )
        return name == "now"

    def check(self, ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("schedule", "schedule_in")
            ):
                continue
            time_arg: Optional[ast.AST] = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg in ("time", "delay"):
                    time_arg = kw.value
            if time_arg is None:
                continue
            if self._is_nonfinite_float_call(time_arg):
                yield node, "scheduling at a NaN/inf time corrupts heap ordering"
            elif self._is_negative_constant(time_arg):
                if node.func.attr == "schedule_in":
                    yield node, "negative delay schedules into the past"
                else:
                    yield node, "negative time schedules into the past"
            elif node.func.attr == "schedule" and self._is_now_minus_expr(time_arg):
                yield node, (
                    "`now - x` as a schedule time is in the past for any "
                    "positive x; clamp with max(now, ...) first"
                )


@register
class PublicApiDriftRule(LintRule):
    """SL106: ``__all__`` names the module never binds (stale exports)."""

    rule_id = "SL106"
    severity = Severity.ERROR
    title = "__all__ lists an undefined name"

    @staticmethod
    def _module_bindings(tree: ast.Module) -> Optional[Set[str]]:
        """Names bound at module top level; None when a star-import makes
        the binding set unknowable."""
        bound: Set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        return None
                    bound.add(alias.asname or alias.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            bound.add(leaf.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
            elif isinstance(node, (ast.If, ast.Try)):
                # Conditional definitions (TYPE_CHECKING blocks, fallbacks).
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        bound.add(sub.name)
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            for leaf in ast.walk(target):
                                if isinstance(leaf, ast.Name):
                                    bound.add(leaf.id)
                    elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                        for alias in sub.names:
                            if alias.name != "*":
                                bound.add(alias.asname or alias.name.split(".")[0])
        return bound

    def check(self, ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ctx.tree.body:
            if not (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                )
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                continue
            bound = self._module_bindings(ctx.tree)
            if bound is None:
                continue
            for elt in node.value.elts:
                if (
                    isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                    and elt.value not in bound
                ):
                    yield elt, (
                        f"__all__ exports {elt.value!r} but the module never "
                        "defines it (public-API drift)"
                    )


# ------------------------------------------------------------------ running


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one source string; returns findings sorted by location."""
    wanted = normalize_select(select)
    tree = parse_module(source, path, "SL001")
    if isinstance(tree, Finding):
        return [tree]
    ctx = ModuleContext(path, source, tree, "simlint")
    findings: List[Finding] = []
    for rule_cls in RULES:
        if wanted is not None and rule_cls.rule_id not in wanted:
            continue
        rule = rule_cls()
        for node, message in rule.check(ctx):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            if ctx.suppressed(rule.rule_id, line):
                continue
            findings.append(
                Finding(path, line, col, rule.rule_id, rule.severity, message)
            )
    return sort_findings(findings)


def run_lint(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths``; returns all findings."""
    return scan_files(paths, lint_source, select)
