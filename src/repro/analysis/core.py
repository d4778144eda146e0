"""The plumbing shared by the two static analyzers.

SimRace and SimPure differ in their rules and their dynamic confirmers.
Everything else lives here:
:class:`Severity`, the :class:`Rule` and :class:`Finding` records, the
per-module :class:`ModuleContext` (import aliases, parent links and the
``# sim<tool>: disable=RULE`` suppression comments), rule selection, the
path-scope test, the ``--list-rules`` table, parsing with a syntax-error
finding, the file walk and the one order findings are reported in.

``repro race|purity`` and ``repro analyze`` drive the
analyzers from one registry in :mod:`repro.cli`; ``docs/analysis.md``
("Shared core") shows how a rule set plugs in.  Nothing on the simulator
import path imports this module.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
    Set, Tuple, Type, TypeVar, Union,
)


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


class Rule(NamedTuple):
    """One rule as ``--list-rules`` shows it."""

    rule_id: str
    severity: Severity
    title: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.  Analyzers whose
    confirmer grades findings subclass it with the fields it reads."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity.value} {self.rule_id}: {self.message}"
        )


F = TypeVar("F", bound=Finding)


def rule_table(rules: Iterable[Rule]) -> List[Tuple[str, str, str]]:
    """(rule_id, severity, title) for every rule."""
    return [(r.rule_id, r.severity.value, r.title) for r in rules]


def normalize_select(select: Optional[Iterable[str]]) -> Optional[Set[str]]:
    """The selected rule IDs, uppercased; None selects every rule."""
    return {r.upper() for r in select} if select is not None else None


def in_path_scope(path: str, parts: Sequence[str]) -> bool:
    """True when ``path`` contains one of the path fragments ``parts``
    (or is an inline ``<string>`` source, so unit-test snippets are
    checked by default)."""
    if path == "<string>":
        return True
    norm = path.replace("\\", "/")
    return any(part in norm for part in parts)


def sort_findings(findings: Iterable[F]) -> List[F]:
    """Findings in report order: by ``(path, line, col, rule_id)``, with
    paths compared as strings."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))


class ModuleContext:
    """Per-module facts shared by every rule: source lines for suppression
    comments, import aliases for call resolution, parent links for scope
    checks.  ``marker`` is the tool's suppression prefix (``simrace`` or
    ``simpure``)."""

    def __init__(self, path: str, source: str, tree: ast.Module, marker: str):
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        self._suppress_re = re.compile(
            rf"#\s*{marker}:\s*disable=([A-Za-z0-9_,\s]+)"
        )

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Local name -> dotted module/object path it is bound to."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name != "*":
                        aliases[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )
        return aliases

    @cached_property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child node -> parent node, for enclosing-scope queries."""
        return {
            child: node
            for node in ast.walk(self.tree)
            for child in ast.iter_child_nodes(node)
        }

    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Dotted path of a call target, with import aliases expanded
        (``dt.now`` after ``from datetime import datetime as dt`` resolves
        to ``datetime.datetime.now``).  None when the base is not an
        imported name (e.g. a local variable or attribute chain on self).
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = self.parents.get(cur)
        return None

    def suppressed(self, rule_id: str, *lines: int) -> bool:
        """True when any of the physical source ``lines`` carries a
        ``# <marker>: disable=...`` comment naming ``rule_id`` (or
        ``all``)."""
        for line in lines:
            if not (1 <= line <= len(self.lines)):
                continue
            m = self._suppress_re.search(self.lines[line - 1])
            if m is None:
                continue
            rules = {r.strip().upper() for r in m.group(1).split(",")}
            if "ALL" in rules or rule_id.upper() in rules:
                return True
        return False


def parse_module(
    source: str, path: str, syntax_rule: str, finding: Type[F] = Finding,
) -> Union[ast.Module, F]:
    """``source`` parsed, or the tool's ``syntax_rule`` finding when it
    does not parse."""
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        return finding(
            path, exc.lineno or 1, exc.offset or 0, syntax_rule,
            Severity.ERROR, f"syntax error: {exc.msg}",
        )


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield .py files under each path, depth-first and sorted (so output
    and exit codes are deterministic across filesystems)."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def parse_files(
    paths: Sequence[str], syntax_rule: str, finding: Type[F] = Finding,
) -> Tuple[List[Tuple[str, str, ast.Module]], List[F]]:
    """Every Python file under ``paths`` as ``(path, source, tree)``,
    plus a syntax-error finding per file that does not parse.  For
    analyzers with a cross-file pass."""
    parsed: List[Tuple[str, str, ast.Module]] = []
    errors: List[F] = []
    for file in iter_python_files(paths):
        path, source = str(file), file.read_text(encoding="utf-8")
        tree = parse_module(source, path, syntax_rule, finding)
        if isinstance(tree, Finding):
            errors.append(tree)
        else:
            parsed.append((path, source, tree))
    return parsed, errors


def scan_files(
    paths: Sequence[str],
    analyze_source: Callable[[str, str, Optional[Iterable[str]]], List[F]],
    select: Optional[Iterable[str]] = None,
) -> List[F]:
    """``analyze_source(source, path, select)`` over every Python file
    under ``paths``, for analyzers that judge each module on its own."""
    return sort_findings(
        f
        for file in iter_python_files(paths)
        for f in analyze_source(file.read_text(encoding="utf-8"), str(file), select)
    )
