"""R5 — float equality: ``==``/``!=`` on floats hides summation-order noise.

The array kernels, the incremental folds and the loop references agree only
after quantization (BLAS re-associates sums), so exact equality on computed
floats is a latent summation-order bug.  The rule flags ``==``/``!=``
comparisons where either side is statically float-valued:

* a float literal (``x == 0.5``);
* a ``float(...)`` conversion or true division;
* a name annotated ``float`` in the enclosing function's parameters or a
  visible variable annotation.

Quantization helpers registered in the config are exempt (their whole job
is snapping to a grid and comparing), as are comparisons both of whose
sides are literals.  Exact sentinel checks — comparing against a value a
float represents exactly and that arrives by assignment, not arithmetic
(``forgetting == 1.0``, integer-valued totals hitting ``0.0``) — are
legitimate; suppress those with a justification comment.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.contracts import LintConfig
from repro.analysis.framework import Finding, ModuleContext, Rule, register


def _float_annotated_names(func: ast.AST) -> set[str]:
    names: set[str] = set()
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = func.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None and ast.unparse(arg.annotation) == "float":
                names.add(arg.arg)
    for node in ast.walk(func):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and ast.unparse(node.annotation) == "float"
        ):
            names.add(node.target.id)
    return names


def _is_floatish(node: ast.expr, float_names: set[str]) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Name):
        return node.id in float_names
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand, float_names)
    return False


@register
class FloatEqualityRule(Rule):
    rule_id = "R5"
    name = "float-equality"
    description = (
        "Exact ==/!= on float expressions breaks under summation-order "
        "noise; compare quantized values or suppress with a justification."
    )

    def check_module(
        self, module: ModuleContext, config: LintConfig
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        helpers = set(config.float_eq_helpers)
        for scope in self._scopes(module.tree):
            if (
                isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                and scope.name in helpers
            ):
                continue
            float_names = _float_annotated_names(scope)
            for node in self._walk_scope(scope):
                if not isinstance(node, ast.Compare):
                    continue
                left = node.left
                for op, right in zip(node.ops, node.comparators, strict=True):
                    if isinstance(op, (ast.Eq, ast.NotEq)):
                        literal_only = isinstance(left, ast.Constant) and isinstance(
                            right, ast.Constant
                        )
                        if not literal_only and (
                            _is_floatish(left, float_names)
                            or _is_floatish(right, float_names)
                        ):
                            findings.append(
                                self.finding(
                                    module.rel,
                                    node,
                                    f"float {'==' if isinstance(op, ast.Eq) else '!='} "
                                    f"comparison ({ast.unparse(node)[:60]}); exact "
                                    "equality is unstable across summation orders",
                                )
                            )
                            break
                    left = right
        return findings

    @staticmethod
    def _scopes(tree: ast.Module) -> list[ast.AST]:
        scopes: list[ast.AST] = [tree]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        return scopes

    @staticmethod
    def _walk_scope(scope: ast.AST) -> Iterable[ast.AST]:
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))
