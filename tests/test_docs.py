"""Tier-1 enforcement of the docs subsystem.

Runs the same checks as the CI ``docs`` job (``docs/check_docs.py``): every
relative markdown link in ``docs/`` and the README resolves, and every public
definition under ``repro.core`` carries a docstring — plus negative cases
proving the checker actually detects rot, so a silently-degraded checker
cannot green-light broken docs.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

_spec = importlib.util.spec_from_file_location("check_docs",
                                               DOCS_DIR / "check_docs.py")
check_docs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_docs", check_docs)
_spec.loader.exec_module(check_docs)


def _markdown_files():
    files = sorted(DOCS_DIR.glob("*.md"))
    files.append(REPO_ROOT / "README.md")
    return files


class TestDocsExist:
    def test_architecture_and_benchmarks_docs_present(self):
        assert (DOCS_DIR / "ARCHITECTURE.md").exists()
        assert (DOCS_DIR / "BENCHMARKS.md").exists()

    def test_readme_links_into_docs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/BENCHMARKS.md" in readme

    def test_architecture_covers_the_promised_sections(self):
        text = (DOCS_DIR / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for phrase in ("Layer map", "solver registry contract",
                       "Dense view lifecycle", "Engine selection guide",
                       "Padded-slot staging"):
            assert phrase in text, phrase

    def test_benchmarks_doc_covers_schema_and_gate(self):
        text = (DOCS_DIR / "BENCHMARKS.md").read_text(encoding="utf-8")
        for phrase in ("repro-bench/1", "check_regression.py",
                       "bench_baseline.json", "BENCH_"):
            assert phrase in text, phrase


class TestLinkCheck:
    def test_repository_docs_have_no_broken_links(self):
        findings = check_docs.check_links(_markdown_files(), REPO_ROOT)
        assert findings == []

    def test_detects_missing_file_target(self, tmp_path):
        md = tmp_path / "page.md"
        md.write_text("see [gone](no/such/file.md)", encoding="utf-8")
        findings = check_docs.check_links([md], tmp_path)
        assert len(findings) == 1 and "no such file" in findings[0]

    def test_detects_unknown_anchor(self, tmp_path):
        other = tmp_path / "other.md"
        other.write_text("# Real Heading\n", encoding="utf-8")
        md = tmp_path / "page.md"
        md.write_text("see [x](other.md#fake-heading)", encoding="utf-8")
        findings = check_docs.check_links([md], tmp_path)
        assert len(findings) == 1 and "anchor" in findings[0]

    def test_accepts_valid_anchor_and_external_links(self, tmp_path):
        other = tmp_path / "other.md"
        other.write_text("## Engine selection guide\n", encoding="utf-8")
        md = tmp_path / "page.md"
        md.write_text("[a](other.md#engine-selection-guide) "
                      "[b](https://example.org/404)", encoding="utf-8")
        assert check_docs.check_links([md], tmp_path) == []


class TestDocstringCheck:
    def test_repro_core_is_fully_documented(self):
        assert check_docs.check_docstrings("repro.core") == []

    def test_detects_missing_docstrings(self, tmp_path, monkeypatch):
        package = tmp_path / "fakepkg"
        package.mkdir()
        (package / "__init__.py").write_text('"""Package."""\n',
                                             encoding="utf-8")
        (package / "bare.py").write_text(
            "def documented():\n"
            '    """Has one."""\n'
            "def undocumented():\n"
            "    pass\n", encoding="utf-8")
        monkeypatch.syspath_prepend(str(tmp_path))
        findings = check_docs.check_docstrings("fakepkg")
        assert any("fakepkg.bare: missing module docstring" in f
                   for f in findings)
        assert "fakepkg.bare.undocumented: missing docstring" in findings
        assert "fakepkg.bare.documented: missing docstring" not in findings
