"""Core machinery of the ``repro-lint`` static-analysis suite.

The repo's reproducibility story — byte-identical records across worker
counts, checkpoints and restarts — rests on a handful of conventions
(named RNG streams, sorted iteration, cache epoch discipline).  This
framework turns those conventions into machine-checked
rules: each rule walks a module's AST (or the whole project) and emits
:class:`Finding` objects, which per-line suppression comments can silence::

    risky_line()  # repro-lint: ignore[R5] justification text

A suppression comment on the offending line, or alone on the line directly
above it, silences the named rule(s); rules may be named by id (``R5``) or
by slug (``float-equality``).  Suppressions are parsed once per module and
matched case-insensitively.
"""

from __future__ import annotations

import abc
import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.contracts import LintConfig

#: Matches ``repro-lint: ignore[R1]`` / ``ignore[R1, ordering]`` inside a comment.
_SUPPRESSION = re.compile(r"repro-lint:\s*ignore\[([^\]]+)\]", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    name: str
    path: str
    line: int
    column: int
    message: str
    suppressed: bool = False

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "suppressed": self.suppressed,
        }


class ModuleContext:
    """A parsed source module plus its suppression table."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        #: Posix-style path relative to the lint root; contracts match on it.
        self.rel = rel
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.lines = source.splitlines()
        self._suppressions = _parse_suppressions(source)

    def matches(self, suffix: str) -> bool:
        """Whether this module is the one a contract names (suffix match)."""
        return self.rel == suffix or self.rel.endswith("/" + suffix)

    def suppressed(self, line: int, rule_id: str, rule_name: str) -> bool:
        """Whether a finding on ``line`` is silenced by a suppression comment.

        A suppression applies when it sits on the flagged line itself, or in
        the contiguous block of comment-only lines directly above it.
        """
        wanted = (rule_id.lower(), rule_name.lower())
        tokens = self._suppressions.get(line)
        if tokens is not None and any(name in tokens for name in wanted):
            return True
        # Walk the comment block immediately above the statement: every line
        # must be comment-only, so an inline comment further up cannot leak
        # its suppression onto an unrelated statement.
        candidate = line - 1
        while self._line_is_comment_only(candidate):
            tokens = self._suppressions.get(candidate)
            if tokens is not None and any(name in tokens for name in wanted):
                return True
            candidate -= 1
        return False

    def _line_is_comment_only(self, line: int) -> bool:
        if not 1 <= line <= len(self.lines):
            return False
        return self.lines[line - 1].lstrip().startswith("#")


def _parse_suppressions(source: str) -> dict[int, tuple[str, ...]]:
    """Map line number -> lowercase rule tokens named by suppression comments."""
    table: dict[int, tuple[str, ...]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:  # pragma: no cover - ast.parse catches this first
        comments = []
    for line, text in comments:
        match = _SUPPRESSION.search(text)
        if match is None:
            continue
        names = tuple(part.strip().lower() for part in match.group(1).split(",") if part.strip())
        if names:
            table[line] = table.get(line, ()) + names
    return table


@dataclass
class ProjectContext:
    """Everything a whole-project rule may need."""

    modules: list[ModuleContext]
    #: Root directory the linted paths live under (for reporting).
    root: Path

    def find_module(self, suffix: str) -> ModuleContext | None:
        for module in self.modules:
            if module.matches(suffix):
                return module
        return None


class Rule(abc.ABC):
    """One enforced invariant.

    Subclasses override :meth:`check_module` (called once per file) and/or
    :meth:`check_project` (called once with the whole project), yielding
    findings; the framework applies suppressions afterwards.
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def check_module(
        self, module: ModuleContext, config: LintConfig
    ) -> Iterable[Finding]:
        return ()

    def check_project(
        self, project: ProjectContext, config: LintConfig
    ) -> Iterable[Finding]:
        return ()

    def finding(
        self, module_rel: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            name=self.name,
            path=module_rel,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


#: Registry of rule classes keyed by rule id, populated via :func:`register`.
_REGISTRY: dict[str, type] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    rule_id = getattr(rule_cls, "rule_id", "")
    if not rule_id:
        raise ValueError(f"rule {rule_cls.__name__} has no rule_id")
    if rule_id in _REGISTRY and _REGISTRY[rule_id] is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def registered_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by rule id."""
    # Rule modules register on import; pulling them in here keeps the
    # registry populated regardless of which entry point ran first.
    import repro.analysis.rules  # noqa: F401

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


@dataclass
class LintResult:
    """The outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    checked_files: int = 0

    @property
    def active(self) -> list[Finding]:
        return [finding for finding in self.findings if not finding.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.active:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def collect_modules(paths: Sequence[Path], root: Path) -> list[ModuleContext]:
    """Parse every ``*.py`` file under ``paths`` into module contexts."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    modules = []
    for file_path in files:
        try:
            rel = file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        modules.append(ModuleContext(file_path, rel, file_path.read_text()))
    return modules


def run_lint(
    paths: Sequence[Path],
    config: LintConfig,
    rules: Sequence[Rule] | None = None,
    root: Path | None = None,
) -> LintResult:
    """Lint ``paths`` with ``rules`` (default: every registered rule)."""
    if rules is None:
        rules = registered_rules()
    lint_root = root if root is not None else Path.cwd()
    modules = collect_modules(paths, lint_root)
    project = ProjectContext(modules=modules, root=lint_root)
    result = LintResult(checked_files=len(modules))
    for rule in rules:
        for module in modules:
            for finding in rule.check_module(module, config):
                result.findings.append(
                    _apply_suppression(finding, module, rule)
                )
        for finding in rule.check_project(project, config):
            module = project.find_module(finding.path)
            if module is not None:
                finding = _apply_suppression(finding, module, rule)
            result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return result


def _apply_suppression(finding: Finding, module: ModuleContext, rule: Rule) -> Finding:
    if module.suppressed(finding.line, rule.rule_id, rule.name):
        return Finding(
            rule=finding.rule,
            name=finding.name,
            path=finding.path,
            line=finding.line,
            column=finding.column,
            message=finding.message,
            suppressed=True,
        )
    return finding
