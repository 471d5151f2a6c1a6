"""R9 — api boundary: client trees import only the public facade.

``repro.api`` exists so that examples, benchmarks and downstream users
program against one blessed, documented surface (docs/API.md).  The facade
only stays honest if the in-repo client trees actually live behind it — an
example that quietly reaches into ``repro.reputation.eigentrust`` both
advertises an internal module as public idiom and stops exercising the
facade it is supposed to demonstrate.  This rule walks every module under
the configured client directories (``examples/``, ``benchmarks/``) and
flags any ``repro…`` import whose module is not exactly one of the allowed
facade names (``repro``, ``repro.api``).

The test tree is deliberately *not* a client: unit tests are white-box by
design (docs/INVARIANTS.md records the rationale), and the facade contract
itself is pinned by ``tests/test_api_facade.py`` instead.

Client modules are parsed by this rule (they are outside the linted
``src/repro`` tree), so the standard suppression syntax works in them::

    from repro.core import backend  # repro-lint: ignore[R9] migration pending
"""

from __future__ import annotations

import ast
from pathlib import Path
from collections.abc import Iterable

from repro.analysis.contracts import LintConfig
from repro.analysis.framework import Finding, ModuleContext, ProjectContext, Rule, register


def _repro_imports(tree: ast.AST) -> Iterable[tuple[ast.stmt, str]]:
    """Yield ``(node, module_name)`` for every ``repro…`` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            # Relative imports (level > 0) stay inside the client tree and
            # cannot name repro internals.
            if node.level == 0 and node.module is not None:
                if node.module == "repro" or node.module.startswith("repro."):
                    yield node, node.module


@register
class ApiBoundaryRule(Rule):
    rule_id = "R9"
    name = "api-boundary"
    description = (
        "Modules in the client trees (examples/, benchmarks/) import only "
        "the public facade (repro / repro.api)."
    )

    def check_project(
        self, project: ProjectContext, config: LintConfig
    ) -> Iterable[Finding]:
        if not config.api_client_dirs or not config.api_allowed_imports:
            return []
        allowed = set(config.api_allowed_imports)
        findings: list[Finding] = []
        for client_dir in config.api_client_dirs:
            directory = project.root / client_dir
            if not directory.is_dir():
                continue
            for path in sorted(directory.rglob("*.py")):
                findings.extend(self._check_client_module(path, project.root, allowed))
        return findings

    def _check_client_module(
        self, path: Path, root: Path, allowed: set[str]
    ) -> Iterable[Finding]:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        try:
            module = ModuleContext(path, rel, path.read_text(encoding="utf-8"))
        except SyntaxError as error:
            yield Finding(
                rule=self.rule_id,
                name=self.name,
                path=rel,
                line=error.lineno or 1,
                column=1,
                message=f"client module does not parse: {error.msg}",
            )
            return
        for node, module_name in _repro_imports(module.tree):
            if module_name in allowed:
                continue
            line = getattr(node, "lineno", 1)
            yield Finding(
                rule=self.rule_id,
                name=self.name,
                path=rel,
                line=line,
                column=getattr(node, "col_offset", 0) + 1,
                message=(
                    f"client tree imports internal module {module_name!r}; "
                    f"import the public facade instead "
                    f"({', '.join(sorted(allowed))})"
                ),
                suppressed=module.suppressed(line, self.rule_id, self.name),
            )
