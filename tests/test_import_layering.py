"""One import surface: package ``__init__``s export nothing.

``repro.api`` is the public surface; every other name is imported from the
module that defines it.  So a subpackage ``__init__`` holds only its
docstring, and importing one module loads that module's own imports, not
its package's whole subtree.  The fresh-interpreter checks pin what the
light entry points load, and that a serving process never loads the
simulator stack, not even for a moment during a whole session.  A static
walk of the import statements holds every module to being reached from an
entry point, so no module lives on only through its own tests.
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


#: Where the reachability walk starts, beside the console-script modules:
#: the package, its facade and the ``python -m`` entry modules.
ENTRY_MODULES = ("repro", "repro.api", "repro.__main__", "repro.analysis.__main__")


def _script_modules():
    """The modules pyproject's ``[project.scripts]`` entries point at, read
    line by line (Python 3.10 has no ``tomllib``)."""
    modules = set()
    section = None
    for line in (SRC.parent / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line and not line.startswith("#"):
            target = line.split("=", 1)[1].strip().strip('"')
            modules.add(target.split(":", 1)[0])
    return modules


def _module_path(name):
    """The source file of a module under ``src``, or ``None``."""
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _imports_of(name):
    """The ``repro`` modules that the import statements of module ``name``
    load: function-local and relative imports included, the parent
    packages of each, and ``from pkg import name`` as the submodule
    ``pkg.name`` when one exists."""
    path = _module_path(name)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            named.add(base)
            named.update(f"{base}.{alias.name}" for alias in node.names)
    loaded = set()
    for module in named:
        parts = module.split(".")
        loaded.update(".".join(parts[:end]) for end in range(1, len(parts) + 1))
    return {module for module in loaded if _module_path(module) is not None}


def test_every_module_is_reached_from_an_entry_point():
    scripts = _script_modules()
    assert {"repro.cli", "repro.analysis.cli"} <= scripts
    reached = set()
    pending = [*ENTRY_MODULES, *scripts]
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending.extend(_imports_of(name) - reached)
    every = {
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py")
    }
    assert sorted(every - reached) == []


#: What only the offline simulation needs: a serving process never loads it.
SIMULATOR_STACK = ("networkx", "repro.simulation.engine", "repro.socialnet")


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


def test_the_checkpoint_format_loads_no_simulator():
    loaded = _loaded_after("import repro.simulation.checkpoint")
    assert _under(loaded, "numpy", "repro.reputation", *SIMULATOR_STACK) == []


def test_the_serve_path_loads_no_simulator():
    loaded = _loaded_after("import repro.cli, repro.serving.cli")
    assert _under(loaded, *SIMULATOR_STACK) == []


#: The mechanisms that score a subject from its own reports (``SubjectFold``)
#: and those that run the NumPy and SciPy kernels.
FOLD_ONLY = ("average", "beta", "trustme")
ARRAY_MECHANISMS = ("eigentrust", "powertrust")

#: What a fold-only serving process never loads.
ARRAY_STACK = ("numpy", "scipy", "repro.core.backend")

#: The head of a recorded run: the finder at the head of ``sys.meta_path``
#: sees every module the first time it loads, so nothing escapes by being
#: unloaded again.
_FINDER = """
import json
import os
import sys

seen = set()


class Recorder:
    def find_spec(self, name, path=None, target=None):
        seen.add(name)
        return None


sys.meta_path.insert(0, Recorder())


def loaded():
    return " ".join(sorted(seen | set(sys.modules)))
"""

#: The head of a recorded service session.
_RECORDER = _FINDER + """
import repro.cli, repro.serving.cli
from repro.serving.service import ReputationService, ServiceConfig


def read_everything(service):
    assert service.scores()
    assert json.loads(service.scores_json())["scores"]
    service.peer("s1")
    service.health()
    assert service.evidence()
"""

#: One durable session of one mechanism, as `repro serve --wal` runs it:
#: recover, ingest, snapshot, ingest, then recover from the snapshot plus
#: the WAL and read every route.  Prints the modules loaded once the service
#: is built (before its first ingest), then those loaded by the end.
_SESSION = _RECORDER + """
mechanism, directory = sys.argv[1:]
events = [
    {"subject": f"s{i % 5}", "rating": (i % 4) / 3, "rater": f"r{i % 6}"} for i in range(96)
]
wal = os.path.join(directory, mechanism + ".wal")
snapshot = os.path.join(directory, mechanism + ".ckpt")
config = ServiceConfig(mechanism=mechanism, refresh_every=8)
service = ReputationService.recover(wal_path=wal, config=config, wal_fsync=False)
print(loaded())
service.ingest_many(events[:48])
service.snapshot(snapshot)
service.ingest_many(events[48:])
service.close()
restored = ReputationService.recover(wal_path=wal, snapshot_path=snapshot, wal_fsync=False)
assert restored.health()["ingested"] == len(events), mechanism
assert restored.watermark == len(events), mechanism  # the replay refreshed
read_everything(restored)
restored.close()
print(loaded())
"""


def _run(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout.splitlines()


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    """Per mechanism, the modules loaded once its service is built and over
    its whole session, each in a fresh interpreter."""
    from repro.reputation.registry import REPUTATION_FACTORIES

    recorded = {}
    for mechanism in sorted(REPUTATION_FACTORIES):
        built, whole = _run(_SESSION, mechanism, tmp_path_factory.mktemp(mechanism))
        recorded[mechanism] = (set(built.split()), set(whole.split()))
    return recorded


def test_a_whole_service_session_never_loads_the_simulator(sessions):
    assert sorted(sessions) == sorted(FOLD_ONLY + ARRAY_MECHANISMS)
    for mechanism, (_, loaded) in sessions.items():
        assert "repro.serving.service" in loaded, mechanism
        assert _under(loaded, *SIMULATOR_STACK) == [], mechanism


@pytest.mark.parametrize("mechanism", FOLD_ONLY)
def test_a_fold_only_session_never_loads_numpy_or_scipy(sessions, mechanism):
    _, loaded = sessions[mechanism]
    assert _under(loaded, *ARRAY_STACK) == []


@pytest.mark.parametrize("mechanism", ARRAY_MECHANISMS)
def test_an_array_mechanism_loads_its_kernels_before_its_first_ingest(sessions, mechanism):
    built, _ = sessions[mechanism]
    assert {"numpy", "scipy.sparse", "repro.core.backend"} <= built


#: Restore each committed fold-only service fixture, read every route,
#: ingest, refresh, read again and snapshot.
_FIXTURES = _RECORDER + """
directory, *paths = sys.argv[1:]
for path in paths:
    service = ReputationService.restore(path)
    assert os.path.basename(path).startswith(service.config.mechanism + "-"), path
    read_everything(service)
    service.ingest_many([{"subject": "s1", "rating": 0.75, "rater": "r2"}] * 3)
    assert service.refresh()
    read_everything(service)
    service.snapshot(os.path.join(directory, os.path.basename(path)))
    service.close()
print(loaded())
"""

SERVICE_FIXTURES = Path(__file__).resolve().parent / "serving" / "data"


def test_restoring_the_fold_only_fixtures_loads_no_numpy_or_scipy(tmp_path):
    fixtures = sorted(
        path for path in SERVICE_FIXTURES.glob("*.ckpt") if path.name.startswith(FOLD_ONLY)
    )
    assert len(fixtures) >= 4
    (loaded,) = _run(_FIXTURES, tmp_path, *fixtures)
    assert "repro.serving.service" in loaded.split()
    assert _under(loaded.split(), *ARRAY_STACK) == []


#: The simulator without networkx: one network per preset, then a small
#: robustness campaign run inline, as a sweep's worker runs its tasks.
_SIMULATION = _FINDER + """
import repro.api as api
from repro.socialnet.presets import NETWORK_PRESETS

for name in sorted(NETWORK_PRESETS):
    graph = api.generate_social_network(api.preset_spec(name, seed=1))
    assert graph.is_connected() and graph.number_of_edges(), name
spec = api.SweepSpec(
    experiment="robustness",
    grids={"scenario": ["baseline", "whitewash-wave"], "n_users": [20], "rounds": [6]},
    quick_base=False,
)
result = api.run_sweep(spec, jobs=1)
assert len(result.records) == 2 and result.n_errors == 0
print(loaded())
"""


def test_the_simulator_never_loads_networkx():
    (loaded,) = _run(_SIMULATION)
    assert "repro.experiments.robustness" in loaded.split()
    assert _under(loaded.split(), "networkx") == []
