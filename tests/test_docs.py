"""Docs link-and-reference check.

Documentation rots when code moves: paths get renamed, symbols deleted,
CLI flags dropped.  This test walks ``README.md`` and every page under
``docs/`` and verifies that

* repository paths named in backticks or markdown links resolve to real
  files/directories in the tree;
* dotted ``repro.*`` module references import, and a trailing attribute
  (``repro.experiments.scenarios.SCENARIO_FUNCTIONS``) resolves on the
  module;
* ``--flags`` attributed to the ``repro.bench`` CLI exist in its parsers;
* the wire-layout table in ``docs/ARCHITECTURE.md`` is the one the codec's
  compiled schema prints.

Run as part of tier-1 (and as a dedicated CI step), so a PR that renames
something the docs point at fails until the docs follow.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

#: Backticked or link-target tokens that look like repository paths.
_PATH_RE = re.compile(
    r"(?:src|tests|docs|examples)/[A-Za-z0-9_./-]*[A-Za-z0-9_/]|[A-Za-z0-9_.-]+\.(?:md|py|json|yml|toml)"
)

#: Dotted repro-module references (``repro.bench.specs``,
#: ``repro.core.settings.RapidSettings.gossip_threshold``, ...).
_MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

_CODE_SPAN_RE = re.compile(r"`([^`]+)`")

#: Flags documented as belonging to the repro.bench CLI.
_FLAG_RE = re.compile(r"(--[a-z][a-z-]+)")

#: Tokens that look like paths but intentionally are not repo files.
_PATH_ALLOWLIST = {
    "BENCH_quick.json",  # committed baseline — checked for existence below
    "out.csv",
    "settings.json",
}
_PATH_PREFIX_ALLOWLIST = ("BENCH_", "/tmp/", "NEW.json", "OLD.json")


def _tokens(pattern):
    """All (file, token) matches of ``pattern`` inside code spans."""
    out = []
    for doc in DOC_FILES:
        text = doc.read_text()
        for span in _CODE_SPAN_RE.findall(text):
            for match in pattern.findall(span):
                out.append((doc.name, match))
        # Markdown link targets: [label](target)
        if pattern is _PATH_RE:
            for target in re.findall(r"\]\(([^)#]+)\)", text):
                if not target.startswith(("http://", "https://")):
                    out.append((doc.name, target))
    return out


def test_doc_files_exist():
    for doc in DOC_FILES:
        assert doc.exists(), doc
    assert any(d.name == "ARCHITECTURE.md" for d in DOC_FILES)
    assert any(d.name == "REPRODUCING.md" for d in DOC_FILES)


@pytest.mark.parametrize(
    "doc,token",
    sorted(set(_tokens(_PATH_RE))),
    ids=lambda v: str(v).replace("/", "_"),
)
def test_paths_in_docs_resolve(doc, token):
    if token in _PATH_ALLOWLIST and token != "BENCH_quick.json":
        pytest.skip("illustrative output path")
    if any(token.startswith(p) for p in _PATH_PREFIX_ALLOWLIST) and token != "BENCH_quick.json":
        pytest.skip("illustrative output path")
    if (REPO / token).exists():
        return
    # Bare filenames ("ping_timeout.py" inside a table row scoped to its
    # directory) resolve if the file exists anywhere under the tree.
    if "/" not in token:
        if list(REPO.glob(f"src/**/{token}")) or list(REPO.glob(f"tests/**/{token}")):
            return
    raise AssertionError(
        f"{doc} references {token!r}, which does not exist in the tree"
    )


@pytest.mark.parametrize(
    "doc,token", sorted(set(_tokens(_MODULE_RE))), ids=lambda v: str(v)
)
def test_module_references_in_docs_resolve(doc, token):
    parts = token.split(".")
    module = None
    attrs = []
    # Longest importable prefix; the rest must resolve as attributes.
    for split in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        attrs = parts[split:]
        break
    assert module is not None, f"{doc}: cannot import any prefix of {token!r}"
    obj = module
    for attr in attrs:
        assert hasattr(obj, attr), (
            f"{doc}: {token!r} — {type(obj).__name__} has no attribute {attr!r}"
        )
        obj = getattr(obj, attr)


def test_bench_cli_flags_in_docs_exist():
    """Every --flag shown in a `python -m repro.bench ...` example parses."""
    documented = set()
    for doc in DOC_FILES:
        for block in re.findall(r"```sh(.*?)```", doc.read_text(), re.S):
            for line_group in re.split(r"\n(?!\s)", block):
                if "repro.bench" in line_group:
                    documented.update(_FLAG_RE.findall(line_group))
    assert documented, "no repro.bench CLI examples found in docs"
    from repro.bench.__main__ import main  # noqa: F401  (import check)

    # Collect the real option strings from both parsers.
    import argparse
    import unittest.mock as mock

    real = set()
    captured = []
    orig = argparse.ArgumentParser.add_argument

    def record(self, *args, **kwargs):
        captured.extend(a for a in args if isinstance(a, str) and a.startswith("--"))
        return orig(self, *args, **kwargs)

    with mock.patch.object(argparse.ArgumentParser, "add_argument", record):
        try:
            from repro.bench.__main__ import main as run_main

            run_main(["--help"])
        except SystemExit:
            pass
        try:
            from repro.bench.compare import main as cmp_main

            cmp_main(["--help"])
        except SystemExit:
            pass
    real.update(captured)
    missing = documented - real
    assert not missing, f"docs show repro.bench flags that do not exist: {missing}"


def test_committed_baseline_exists():
    """README/docs tell users to compare against the committed baseline."""
    assert (REPO / "BENCH_quick.json").exists()


def test_wire_layout_table_in_docs_is_the_compiled_schema():
    """Tag, field order and encoding per class: docs == register()."""
    from repro.runtime.conformance import render_layout_table

    documented = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    assert render_layout_table() in documented, (
        "docs/ARCHITECTURE.md's wire-layout table is stale; paste the output "
        "of `python -m repro.runtime.conformance --layout`"
    )
