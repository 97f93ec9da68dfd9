"""Documentation hygiene: the docs must reference real artifacts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _exists(relpath: str) -> bool:
    return (ROOT / relpath).exists()


class TestDesignDoc:
    def test_every_module_in_inventory_exists(self):
        text = (ROOT / "DESIGN.md").read_text()
        for match in re.finditer(r"`(repro/[\w/]+\.py)`", text):
            assert _exists("src/" + match.group(1)), match.group(1)

    def test_every_bench_target_exists(self):
        text = (ROOT / "DESIGN.md").read_text()
        for match in re.finditer(r"`(benchmarks/[\w]+\.py)`", text):
            assert _exists(match.group(1)), match.group(1)

    def test_paper_identity_check_present(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Paper-identity check" in text


class TestReadme:
    def test_examples_listed_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.finditer(r"python (examples/[\w]+\.py)", text):
            assert _exists(match.group(1)), match.group(1)

    def test_bench_files_listed_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.finditer(r"`(bench_[\w]+\.py)`", text):
            assert _exists("benchmarks/" + match.group(1)), match.group(1)

    def test_docs_referenced_exist(self):
        for doc in ("DESIGN.md", "EXPERIMENTS.md", "docs/algorithms.md"):
            assert _exists(doc), doc


class TestExperimentsDoc:
    def test_result_files_referenced_are_generated_names(self):
        """Every results path mentioned must be produced by some bench."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        bench_sources = " ".join(
            p.read_text() for p in (ROOT / "benchmarks").glob("bench_*.py"))
        for match in re.finditer(r"benchmarks/results/([\w]+\.txt)", text):
            assert match.group(1) in bench_sources, match.group(1)

    def test_every_figure_has_a_section(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("Figure 4", "Figure 5", "Figure 6", "Figure 7",
                       "Overhead"):
            assert figure in text, figure


class TestExamplesRunnable:
    def test_examples_have_main_guard_and_docstring(self):
        for path in (ROOT / "examples").glob("*.py"):
            text = path.read_text()
            assert '__name__ == "__main__"' in text, path.name
            assert text.lstrip().startswith(("#!", '"""')), path.name

    @pytest.mark.parametrize(
        "example", sorted(p.name for p in (ROOT / "examples").glob("*.py")))
    def test_example_runs(self, example):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, str(ROOT / "examples" / example)], env=env,
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
