"""R9 — the api-boundary rule: client trees import only the facade."""

from repro.analysis.contracts import LintConfig, default_config
from repro.analysis.framework import run_lint

from lint_helpers import rules_by_id


def _config(**overrides):
    defaults = {
        "api_client_dirs": ("examples",),
        "api_allowed_imports": ("repro", "repro.api"),
    }
    defaults.update(overrides)
    return LintConfig(**defaults)


def _lint_project(tmp_path, config=None):
    """Lint a miniature project rooted at ``tmp_path`` with R9 only."""
    src = tmp_path / "src"
    src.mkdir(exist_ok=True)
    return run_lint(
        [src],
        config if config is not None else _config(),
        rules=rules_by_id("R9"),
        root=tmp_path,
    )


def _client(tmp_path, source, name="client.py", directory="examples"):
    path = tmp_path / directory / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)


class TestCleanClients:
    def test_facade_imports_pass(self, tmp_path):
        _client(
            tmp_path,
            "from repro.api import ReputationService, run_scenario\n"
            "import repro\n"
            "from repro import quick_scenario\n",
        )
        assert _lint_project(tmp_path).findings == []

    def test_non_repro_imports_ignored(self, tmp_path):
        _client(tmp_path, "import json\nfrom pathlib import Path\n")
        assert _lint_project(tmp_path).findings == []

    def test_relative_imports_ignored(self, tmp_path):
        _client(tmp_path, "from . import helpers\n")
        assert _lint_project(tmp_path).findings == []

    def test_reproducibility_module_is_not_repro(self, tmp_path):
        # Prefix matching must be on dotted segments, not raw strings.
        _client(tmp_path, "import reproducibility\nfrom reprox.api import x\n")
        assert _lint_project(tmp_path).findings == []


class TestFlaggedClients:
    def test_internal_from_import_flagged(self, tmp_path):
        _client(tmp_path, "from repro.reputation.eigentrust import EigenTrust\n")
        findings = _lint_project(tmp_path).active
        assert len(findings) == 1
        assert findings[0].rule == "R9"
        assert "repro.reputation.eigentrust" in findings[0].message
        assert findings[0].path == "examples/client.py"

    def test_internal_plain_import_flagged(self, tmp_path):
        _client(tmp_path, "import repro.simulation.engine\n")
        findings = _lint_project(tmp_path).active
        assert len(findings) == 1
        assert "repro.simulation.engine" in findings[0].message

    def test_nested_function_import_flagged(self, tmp_path):
        _client(
            tmp_path,
            "def helper():\n    from repro.core.backend import PeerIndex\n",
        )
        findings = _lint_project(tmp_path).active
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_subdirectories_are_walked(self, tmp_path):
        _client(
            tmp_path,
            "from repro.faults.plans import FaultPlan\n",
            name="nested/deep.py",
        )
        findings = _lint_project(tmp_path).active
        assert len(findings) == 1
        assert findings[0].path == "examples/nested/deep.py"

    def test_unparsable_client_is_a_finding(self, tmp_path):
        _client(tmp_path, "def broken(:\n")
        findings = _lint_project(tmp_path).active
        assert len(findings) == 1
        assert "does not parse" in findings[0].message


class TestSuppression:
    def test_inline_suppression_honoured(self, tmp_path):
        _client(
            tmp_path,
            "from repro.core import accel  # repro-lint: ignore[R9] migration pending\n",
        )
        result = _lint_project(tmp_path)
        assert result.active == []
        assert len(result.suppressed) == 1


class TestConfiguration:
    def test_empty_client_dirs_disables_rule(self, tmp_path):
        _client(tmp_path, "from repro.simulation.engine import Simulation\n")
        config = _config(api_client_dirs=())
        assert _lint_project(tmp_path, config).findings == []

    def test_missing_client_dir_is_fine(self, tmp_path):
        config = _config(api_client_dirs=("examples", "does-not-exist"))
        assert _lint_project(tmp_path, config).findings == []

    def test_multiple_client_dirs_all_checked(self, tmp_path):
        _client(tmp_path, "from repro.simulation.engine import x\n", directory="examples")
        _client(tmp_path, "from repro.reputation.beta import y\n", directory="benchmarks")
        config = _config(api_client_dirs=("examples", "benchmarks"))
        findings = _lint_project(tmp_path, config).active
        assert sorted(finding.path for finding in findings) == [
            "benchmarks/client.py",
            "examples/client.py",
        ]


class TestLiveTree:
    def test_default_config_binds_examples_and_benchmarks(self):
        config = default_config()
        assert config.api_client_dirs == ("examples", "benchmarks")
        assert config.api_allowed_imports == ("repro", "repro.api")
