"""One import surface: package ``__init__``s export nothing.

``repro.api`` is the public surface; every other name is imported from the
module that defines it.  So a subpackage ``__init__`` holds only its
docstring, and importing one module loads that module's own imports, not
its package's whole subtree.  The fresh-interpreter checks pin what the
light entry points load.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``repro/__init__`` forwards the facade names lazily; importing
#: ``analysis.rules`` registers the lint rules.
CODE_BEARING_INITS = {"repro/__init__.py", "repro/analysis/rules/__init__.py"}

PACKAGE_INITS = sorted(
    path.relative_to(SRC).as_posix()
    for path in (SRC / "repro").rglob("__init__.py")
    if path.relative_to(SRC).as_posix() not in CODE_BEARING_INITS
)


@pytest.mark.parametrize("init", PACKAGE_INITS)
def test_package_init_is_docstring_only(init):
    tree = ast.parse((SRC / init).read_text(encoding="utf-8"))
    assert ast.get_docstring(tree), f"{init} has no docstring"
    assert len(tree.body) == 1, f"{init} holds code besides its docstring"


def _loaded_after(statement):
    """Module names a fresh interpreter holds after running ``statement``."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return set(result.stdout.split())


def _under(modules, *packages):
    return sorted(
        name for name in modules if any(name == p or name.startswith(p + ".") for p in packages)
    )


def test_import_repro_loads_only_the_package_and_its_version():
    assert _under(_loaded_after("import repro"), "repro") == ["repro", "repro.version"]


def test_a_leaf_record_type_loads_no_substrate():
    loaded = _loaded_after("import repro.simulation.transaction")
    heavy = ("numpy", "networkx", "repro.core", "repro.reputation", "repro.socialnet")
    assert _under(loaded, *heavy) == []


def test_the_serve_path_loads_no_batch_stack():
    loaded = _loaded_after("import repro.cli, repro.serving.cli")
    batch = (
        "repro.experiments",
        "repro.scenarios",
        "repro.privacy",
        "repro.allocation",
        "repro.satisfaction",
    )
    assert _under(loaded, *batch) == []
