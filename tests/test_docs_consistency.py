"""Consistency checks between documentation and code.

Documentation drift is a bug: these tests pin the claims README/DESIGN
make about the codebase to the actual package contents.
"""

import ast
import importlib
import inspect
import pathlib
import re
import textwrap

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


def _resolves(name: str) -> bool:
    """Whether a dotted name imports: the longest module prefix, then attributes."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestDottedNames:
    def test_cited_repro_names_resolve(self):
        """Every backticked ``repro.…`` name in docs/ and README imports."""
        docs = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]
        cited = {
            # A name may wrap after a dot inside its backticks.
            (doc.name, re.sub(r"\s+", "", match.group(1)))
            for doc in docs
            for match in re.finditer(
                r"`(repro(?:\.\s*\w+)+)`", doc.read_text(encoding="utf-8")
            )
        }
        assert cited
        missing = [(d, n) for d, n in sorted(cited) if not _resolves(n)]
        assert not missing, missing

    def test_cited_class_attributes_exist(self):
        """Every backticked ``Class.attr`` (or ``Class.attr(...)``) in
        docs/ and README whose class is defined under ``repro`` names a
        real attribute: a method, a class attribute, a dataclass field
        or an attribute some method assigns on ``self``."""
        classes = _repro_classes()
        docs = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]
        cited = {
            (doc.name, match.group(1), match.group(2))
            for doc in docs
            for match in re.finditer(
                r"`(\w+)\.(\w+)(?:\([^`]*\))?`", doc.read_text(encoding="utf-8")
            )
            if match.group(1) in classes
        }
        assert cited
        missing = [
            (d, f"{c}.{a}")
            for d, c, a in sorted(cited)
            if not any(_has_attribute(cls, a) for cls in classes[c])
        ]
        assert not missing, missing


def _repro_classes() -> dict:
    """Class name -> the class objects of that name defined in ``repro``."""
    classes: dict = {}
    src = REPO / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
        if names:
            loaded = importlib.import_module(module)
            for name in names:
                classes.setdefault(name, []).append(getattr(loaded, name))
    return classes


def _has_attribute(cls, attr: str) -> bool:
    if hasattr(cls, attr) or attr in getattr(cls, "__dataclass_fields__", ()):
        return True
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro"):
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr == attr
            ):
                return True
    return False


class TestVersion:
    def test_package_version_matches_pyproject(self):
        import repro

        pyproject = read("pyproject.toml")
        assert f'version = "{repro.__version__}"' in pyproject
