"""Consistency checks between documentation and code.

Documentation drift is a bug: these tests pin the claims README/DESIGN
make about the codebase to the actual package contents.
"""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


class TestReadme:
    def test_quickstart_snippet_runs(self):
        """The README quickstart imports must all resolve."""
        from repro.experiments import eval_config
        from repro.graph import load_dataset
        from repro.mining import count_matches
        from repro.patterns import benchmark_schedule
        from repro.sim import simulate

        assert callable(eval_config) and callable(simulate)
        assert callable(load_dataset) and callable(count_matches)
        assert callable(benchmark_schedule)

    def test_examples_listed_exist(self):
        text = read("README.md")
        for match in re.finditer(r"python (examples/\w+\.py)", text):
            assert (REPO / match.group(1)).exists(), match.group(1)

    def test_docs_listed_exist(self):
        text = read("README.md")
        for match in re.finditer(r"`(docs/\w+\.md)`", text):
            assert (REPO / match.group(1)).exists(), match.group(1)

    def test_architecture_modules_exist(self):
        for module in ("graph", "patterns", "mining", "sim", "core", "experiments"):
            assert (REPO / "src" / "repro" / module / "__init__.py").exists()


class TestDesign:
    def test_paper_confirmation_present(self):
        text = read("DESIGN.md")
        assert "matches the target paper" in text

    def test_benchmark_files_referenced_exist(self):
        text = read("DESIGN.md")
        for match in re.finditer(r"`(benchmarks/\w+\.py)`", text):
            assert (REPO / match.group(1)).exists(), match.group(1)


class TestExperimentsDoc:
    def test_results_files_referenced_are_produced(self):
        """Every results/*.txt EXPERIMENTS.md cites has a producing bench."""
        text = read("EXPERIMENTS.md")
        cited = set(re.findall(r"results/(\w+)\.txt", text))
        bench_sources = "".join(
            p.read_text(encoding="utf-8") for p in (REPO / "benchmarks").glob("test_*.py")
        )
        for name in cited:
            assert f'"{name}"' in bench_sources, f"no bench writes results/{name}.txt"

    def test_every_paper_artifact_covered(self):
        text = read("EXPERIMENTS.md")
        for artifact in (
            "Table 1", "Table 2", "Table 3", "Table 4",
            "Figure 3(a)", "Figure 3(b)", "Figure 9", "Figure 10",
            "Figure 11", "Figure 12", "Figure 13(a)", "Figure 13(b)",
            "Figure 14",
        ):
            assert artifact in text, artifact


class TestBackendDocs:
    DOCS = sorted((REPO / "docs").glob("*.md"))

    def test_cited_backend_modules_exist(self):
        cited = {
            (doc.name, match.group(1))
            for doc in self.DOCS
            for match in re.finditer(
                r"sim/backend/(\w+\.py)", doc.read_text(encoding="utf-8")
            )
        }
        assert cited
        backend_dir = REPO / "src" / "repro" / "sim" / "backend"
        missing = [(d, f) for d, f in cited if not (backend_dir / f).exists()]
        assert not missing, missing

    def test_backend_tables_name_known_backends(self):
        from repro.sim.backend import BACKEND_NAMES

        named = []
        for doc in self.DOCS:
            in_table = False
            for line in doc.read_text(encoding="utf-8").splitlines():
                if re.match(r"\|\s*backend\s*\|", line):
                    in_table = True
                elif not line.startswith("|"):
                    in_table = False
                elif in_table:
                    match = re.match(r"\|\s*`(\w+)`", line)
                    if match:
                        named.append((doc.name, match.group(1)))
        assert named
        unknown = [(d, n) for d, n in named if n not in BACKEND_NAMES]
        assert not unknown, unknown


class TestVersion:
    def test_package_version_matches_pyproject(self):
        import repro

        pyproject = read("pyproject.toml")
        assert f'version = "{repro.__version__}"' in pyproject
