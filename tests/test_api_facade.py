"""Import contract of the blessed public facade (``repro.api``).

These tests pin the facade's shape so accidental breakage — a renamed
symbol, a dropped export, an unannotated public function, an internal name
leaking out — fails CI instead of surfacing in downstream client code.
"""

import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
import repro.api as api

SRC = Path(__file__).resolve().parent.parent / "src"


class TestApiAllResolves:
    def test_every_name_in_all_resolves(self):
        for name in api.__all__:
            assert hasattr(api, name), f"repro.api.__all__ lists missing name {name!r}"

    def test_all_is_sorted_unique(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_no_private_names_exported(self):
        # Dunders (``__version__``) are public by convention; single-leading-
        # underscore names would be genuine leaks.
        leaked = [
            name
            for name in api.__all__
            if name.startswith("_") and not name.startswith("__")
        ]
        assert leaked == []

    def test_fresh_interpreter_import(self):
        # A clean import must succeed with no circular-import landmines.
        code = "import repro.api; print(len(repro.api.__all__))"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert int(result.stdout.strip()) == len(api.__all__)


class TestApiAnnotations:
    def test_exported_functions_fully_annotated(self):
        unannotated = []
        for name in api.__all__:
            obj = getattr(api, name)
            if not inspect.isfunction(obj):
                continue
            signature = inspect.signature(obj)
            for parameter in signature.parameters.values():
                if parameter.annotation is inspect.Parameter.empty:
                    unannotated.append(f"{name}({parameter.name})")
            if signature.return_annotation is inspect.Signature.empty:
                unannotated.append(f"{name} -> ?")
        assert unannotated == []

    def test_exported_modules_are_the_blessed_set(self):
        # The namespaced fault-injection module plus the experiment-definition
        # modules (provisional tier; benchmarks use module-level attrs).
        modules = sorted(
            name
            for name in api.__all__
            if isinstance(getattr(api, name), types.ModuleType)
        )
        assert modules == [
            "ablations",
            "claims",
            "faults",
            "figure1",
            "figure2_left",
            "figure2_right",
            "privacy_eval",
            "reputation_eval",
            "robustness",
            "satisfaction_eval",
        ]


class TestLazyPackageForwarding:
    def test_headline_names_forward_to_facade(self):
        for name in repro._FACADE_EXPORTS:
            assert getattr(repro, name) is getattr(api, name)

    def test_facade_exports_subset_of_api_all(self):
        assert set(repro._FACADE_EXPORTS) <= set(api.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
            repro.nonsense

    def test_dir_includes_facade_names(self):
        listing = dir(repro)
        assert "ReputationService" in listing
        assert "run_scenario" in listing

    def test_plain_import_stays_lazy(self):
        # `import repro` must NOT drag in the serving layer or the facade;
        # a fresh interpreter proves it (this process already imported both).
        code = (
            "import sys, repro; "
            "print('repro.api' in sys.modules, 'repro.serving' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.stdout.split() == ["False", "False"]

    def test_submodule_passthrough_does_not_import_facade(self):
        # `repro.faults` is a real submodule; resolving it through the
        # package must not pull the whole facade in.
        code = "import sys, repro; repro.faults; print('repro.api' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.stdout.strip() == "False"


class TestDocsStayInSync:
    def test_api_doc_mentions_every_export_group(self):
        doc = (Path(__file__).resolve().parent.parent / "docs" / "API.md").read_text()
        for name in repro._FACADE_EXPORTS:
            if isinstance(getattr(api, name), types.ModuleType):
                continue
            assert f"`{name}`" in doc, f"docs/API.md does not document {name!r}"

    def test_readme_links_api_doc(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert "docs/API.md" in readme


def test_module_reimport_is_stable():
    before = set(api.__all__)
    importlib.reload(api)
    assert set(api.__all__) == before
