"""R1 — determinism: all randomness flows through named RandomStreams.

Byte-identical records across worker counts, checkpoints and restarts
hold only if no code path reads ambient entropy.  This rule bans, everywhere
outside the RNG module itself:

* module-level ``random`` functions (``random.random()``, ``choice`` …) and
  names imported from :mod:`random` — they share the process-global
  generator;
* **unseeded** ``random.Random()`` — it seeds from OS entropy
  (explicitly-seeded ``random.Random(seed)`` is allowed: deterministic);
* anything under ``numpy.random`` — NumPy draws bypass the named streams,
  so they are not stream-exact;
* wall clocks (``time.time``/``monotonic``/``perf_counter``,
  ``datetime.now``/``utcnow``/``today``) outside the profiling module;
* ``os.urandom`` and ``uuid.uuid1``/``uuid.uuid4``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.contracts import LintConfig
from repro.analysis.framework import Finding, ModuleContext, Rule, register

#: random-module functions that draw from (or reseed) the global generator.
_RANDOM_FUNCS = {
    "random",
    "uniform",
    "randint",
    "randrange",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "expovariate",
    "betavariate",
    "gammavariate",
    "triangular",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "binomialvariate",
    "getrandbits",
    "randbytes",
    "seed",
}

_CLOCK_FUNCS = {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
_DATETIME_FUNCS = {"now", "utcnow", "today"}
_UUID_FUNCS = {"uuid1", "uuid4"}


def _import_aliases(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """(module alias -> module name, bare name -> (module, original name))."""
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return modules, names


@register
class DeterminismRule(Rule):
    rule_id = "R1"
    name = "determinism"
    description = (
        "Ambient entropy (global random functions, unseeded Random, "
        "numpy.random, wall clocks, os.urandom, uuid4) is banned outside "
        "the RNG module; draw from named RandomStreams instead."
    )

    def check_module(
        self, module: ModuleContext, config: LintConfig
    ) -> Iterable[Finding]:
        if any(module.matches(path) for path in config.determinism_exempt):
            return []
        clocks_allowed = any(module.matches(path) for path in config.clock_exempt)
        modules, names = _import_aliases(module.tree)
        findings: list[Finding] = []

        def module_of(name: str) -> str:
            return modules.get(name, "")

        banned_bare: dict[str, str] = {}
        for bare, (source, original) in names.items():
            if source == "random" and original in _RANDOM_FUNCS:
                banned_bare[bare] = f"random.{original}"
            elif source == "random" and original == "Random":
                # Tracked separately: only unseeded construction is banned.
                continue
            elif source == "time" and original in _CLOCK_FUNCS and not clocks_allowed:
                banned_bare[bare] = f"time.{original}"
            elif source == "os" and original == "urandom":
                banned_bare[bare] = f"os.{original}"
            elif source == "uuid" and original in _UUID_FUNCS:
                banned_bare[bare] = f"uuid.{original}"

        random_class_aliases: set[str] = {
            bare
            for bare, (source, original) in names.items()
            if source == "random" and original == "Random"
        }
        datetime_class_aliases: set[str] = {
            bare
            for bare, (source, original) in names.items()
            if source == "datetime" and original in ("datetime", "date", "time")
        }

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                root = node.value
                if isinstance(root, ast.Name):
                    source = module_of(root.id)
                    if source == "random" and node.attr in _RANDOM_FUNCS:
                        findings.append(
                            self.finding(
                                module.rel,
                                node,
                                f"call to global random.{node.attr}; draw from a "
                                "named RandomStreams stream instead",
                            )
                        )
                    elif source == "numpy" and node.attr == "random":
                        findings.append(
                            self.finding(
                                module.rel,
                                node,
                                "numpy.random bypasses the named streams; derive "
                                "draws from RandomStreams",
                            )
                        )
                    elif source == "time" and node.attr in _CLOCK_FUNCS and not clocks_allowed:
                        findings.append(
                            self.finding(
                                module.rel,
                                node,
                                f"wall clock time.{node.attr} breaks record "
                                "reproducibility; pass times through the simulation",
                            )
                        )
                    elif source == "os" and node.attr == "urandom":
                        findings.append(
                            self.finding(module.rel, node, "os.urandom is ambient entropy")
                        )
                    elif source == "uuid" and node.attr in _UUID_FUNCS:
                        findings.append(
                            self.finding(
                                module.rel,
                                node,
                                f"uuid.{node.attr} is nondeterministic; derive ids "
                                "from the master seed",
                            )
                        )
                    elif node.attr in _DATETIME_FUNCS and (
                        source == "datetime" or root.id in datetime_class_aliases
                    ):
                        findings.append(
                            self.finding(
                                module.rel,
                                node,
                                f"{root.id}.{node.attr}() reads the wall clock; "
                                "records must not depend on run time",
                            )
                        )
                elif (
                    isinstance(root, ast.Attribute)
                    and isinstance(root.value, ast.Name)
                    and module_of(root.value.id) == "datetime"
                    and node.attr in _DATETIME_FUNCS
                ):
                    findings.append(
                        self.finding(
                            module.rel,
                            node,
                            f"datetime.{root.attr}.{node.attr}() reads the wall clock",
                        )
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                unseeded = not node.args and not node.keywords
                if isinstance(func, ast.Name):
                    if func.id in banned_bare:
                        findings.append(
                            self.finding(
                                module.rel,
                                node,
                                f"call to {banned_bare[func.id]} (imported as "
                                f"{func.id}); use a named RandomStreams stream",
                            )
                        )
                    elif func.id in random_class_aliases and unseeded:
                        findings.append(
                            self.finding(
                                module.rel,
                                node,
                                "unseeded random.Random() seeds from OS entropy; "
                                "pass an explicit seed or a RandomStreams stream",
                            )
                        )
                elif (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and module_of(func.value.id) == "random"
                    and func.attr == "Random"
                    and unseeded
                ):
                    findings.append(
                        self.finding(
                            module.rel,
                            node,
                            "unseeded random.Random() seeds from OS entropy; "
                            "pass an explicit seed or a RandomStreams stream",
                        )
                    )
        return findings
