"""Smoke tests of the top-level package surface."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_ROOT = Path(__file__).resolve().parents[1]


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_import(self):
        for module in (
            "repro.genetics",
            "repro.stats",
            "repro.parallel",
            "repro.core",
            "repro.search",
            "repro.experiments",
            "repro.cli",
        ):
            importlib.import_module(module)

    def test_lazy_island_export(self):
        from repro.parallel import IslandModelGA, IslandResult  # noqa: F401

        with pytest.raises(AttributeError):
            getattr(importlib.import_module("repro.parallel"), "NotAThing")

    def test_quickstart_docstring_flow(self, small_dataset):
        """The README/quickstart flow works end to end on a small dataset."""
        from repro import AdaptiveMultiPopulationGA, GAConfig, HaplotypeEvaluator

        evaluator = HaplotypeEvaluator(small_dataset)
        ga = AdaptiveMultiPopulationGA(
            evaluator,
            n_snps=small_dataset.n_snps,
            config=GAConfig(
                population_size=20, max_haplotype_size=3,
                termination_stagnation=3, max_generations=5,
            ),
        )
        result = ga.run()
        assert sorted(result.best_per_size) == [2, 3]


class TestDependencies:
    def test_third_party_imports_are_declared(self):
        """Every non-stdlib package ``src/repro`` imports is a declared dependency."""
        tomllib = pytest.importorskip("tomllib")
        with open(_ROOT / "pyproject.toml", "rb") as handle:
            requirements = tomllib.load(handle)["project"]["dependencies"]
        declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
        imported = set()
        for path in (_ROOT / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                imported.update(name.split(".")[0] for name in names)
        third_party = imported - set(sys.stdlib_module_names) - {"repro"}
        assert third_party <= declared, sorted(third_party - declared)

    def test_no_unused_imports(self):
        """Every name a ``src/repro`` module imports is used in that module.

        ``__init__.py`` imports are re-exports, and an import line marked
        ``# noqa`` is kept on purpose (an availability probe).  A name counts
        as used when it appears as a ``Name`` node or as a token of a string
        constant (string annotations, ``__all__``).
        """
        unused = []
        for path in sorted((_ROOT / "src" / "repro").rglob("*.py")):
            if path.name == "__init__.py":
                continue
            source = path.read_text()
            lines = source.splitlines()
            tree = ast.parse(source, filename=str(path))
            used = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.update(re.findall(r"[A-Za-z_]\w*", node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if "# noqa" in lines[node.lineno - 1]:
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(_ROOT)}:{node.lineno} {name}")
        assert not unused, unused

    def test_serving_stack_does_not_import_scipy_stats(self):
        """The CLI, daemon, farm and scan need only ``scipy.special``: loading
        ``scipy.stats`` adds about 45 MB to every process's resident memory."""
        code = (
            "import sys\n"
            "import repro, repro.cli, repro.runtime.server, repro.parallel.farm, repro.scan\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
