"""Docs/implementation lockstep: the wire spec cannot drift silently.

``docs/PROTOCOL.md`` claims to cover every op the server accepts; these
tests diff that document against the protocol's op tuple and the
server's handler table, and the error-code table against the codes the
implementation can actually emit.  ``docs/BACKENDS.md`` claims to
mirror the in-code backend registry; its ladder table is diffed against
``repro.service.dispatch.BACKENDS`` the same way.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.server import protocol
from repro.server.server import HANDLED_OPS

DOCS = Path(__file__).resolve().parents[1] / "docs"


def protocol_md() -> str:
    return (DOCS / "PROTOCOL.md").read_text()


def heading_ops(text: str) -> set[str]:
    """Op names documented as ``### `op``` headings."""
    return set(re.findall(r"^### `([a-z-]+)`", text, flags=re.MULTILINE))


class TestProtocolDocCoverage:
    def test_docs_tree_exists(self):
        for name in ("ARCHITECTURE.md", "PROTOCOL.md", "OPERATIONS.md"):
            assert (DOCS / name).is_file(), f"docs/{name} is missing"

    def test_handler_table_matches_the_protocol_ops(self):
        assert set(HANDLED_OPS) == set(protocol.OPS)

    def test_every_accepted_op_has_a_spec_section(self):
        documented = heading_ops(protocol_md())
        missing = set(protocol.OPS) - documented
        assert not missing, f"docs/PROTOCOL.md lacks op section(s): {missing}"

    def test_no_phantom_ops_are_documented(self):
        phantom = heading_ops(protocol_md()) - set(protocol.OPS)
        assert not phantom, (
            f"docs/PROTOCOL.md documents op(s) the server does not "
            f"accept: {phantom}"
        )

    def test_every_error_code_is_documented(self):
        text = protocol_md()
        missing = [
            code for code in protocol.ERROR_CODES if f"`{code}`" not in text
        ]
        assert not missing, (
            f"docs/PROTOCOL.md lacks error code(s): {missing}"
        )

    def test_error_codes_cover_what_the_implementation_raises(self):
        """Every ProtocolError(code) literal in the server package is in
        ERROR_CODES (and therefore, by the test above, documented)."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro" / "server"
        raised: set[str] = set()
        for path in src.glob("*.py"):
            raised.update(
                re.findall(r"ProtocolError\(\s*[\"']([a-z-]+)[\"']",
                           path.read_text())
            )
        undeclared = raised - set(protocol.ERROR_CODES)
        assert not undeclared, (
            f"codes raised but not declared/documented: {undeclared}"
        )


class TestBackendsDocCoverage:
    """docs/BACKENDS.md renders dispatch.BACKENDS; they may not drift."""

    TABLE_ROW = re.compile(
        r"^\| `([a-z0-9]+)` \| `([a-z-]+)` \| (yes|no) \| (.+?) \|$",
        flags=re.MULTILINE,
    )

    def backends_md(self) -> str:
        return (DOCS / "BACKENDS.md").read_text()

    def documented_rows(self) -> list[tuple[str, str, bool, str]]:
        return [
            (name, exactness, auto == "yes", summary)
            for name, exactness, auto, summary in self.TABLE_ROW.findall(
                self.backends_md()
            )
        ]

    def test_doc_exists(self):
        assert (DOCS / "BACKENDS.md").is_file()

    def test_ladder_table_matches_the_registry(self):
        from repro.service.dispatch import BACKENDS

        documented = [
            (name, exactness, auto)
            for name, exactness, auto, _summary in self.documented_rows()
        ]
        registered = [
            (info.name, info.exactness, info.auto) for info in BACKENDS
        ]
        # Same rows, same order (the registry is "fastest exact first",
        # and the doc claims to render it).
        assert documented == registered, (
            "docs/BACKENDS.md ladder table drifted from "
            f"dispatch.BACKENDS:\ndoc:      {documented}\nregistry: {registered}"
        )

    def test_summaries_match_the_registry(self):
        from repro.service.dispatch import BACKENDS

        documented = {
            name: summary for name, _e, _a, summary in self.documented_rows()
        }
        for info in BACKENDS:
            assert documented.get(info.name) == info.summary, (
                f"docs/BACKENDS.md summary for {info.name!r} drifted from "
                f"the registry: {documented.get(info.name)!r} != "
                f"{info.summary!r}"
            )

    def test_default_exact_backend_is_documented(self):
        from repro.service.pipeline import AUTO_BACKEND

        assert f"`auto` serves every document on `{AUTO_BACKEND}`" in (
            self.backends_md()
        )

    def test_store_format_versions_are_documented(self):
        from repro.service.store import (
            STORE_FORMAT_VERSION,
            SUPPORTED_FORMAT_VERSIONS,
        )

        text = self.backends_md()
        assert f"**version {STORE_FORMAT_VERSION}** (current)" in text
        for version in SUPPORTED_FORMAT_VERSIONS:
            assert f"version {version}" in text


class TestObservabilityDocCoverage:
    """docs/OBSERVABILITY.md's catalog table renders
    ``repro.obs.metrics.CATALOG``; they may not drift."""

    TABLE_ROW = re.compile(
        r"^\| `(repro_[a-z_]+)` \| (counter|gauge|histogram) "
        r"\| (.+?) \| (.+?) \|$",
        flags=re.MULTILINE,
    )

    def observability_md(self) -> str:
        return (DOCS / "OBSERVABILITY.md").read_text()

    def test_doc_exists(self):
        assert (DOCS / "OBSERVABILITY.md").is_file()

    def test_catalog_table_matches_the_registry(self):
        from repro.obs.metrics import CATALOG

        documented = [
            (name, kind)
            for name, kind, _labels, _help in self.TABLE_ROW.findall(
                self.observability_md()
            )
        ]
        declared = [(spec.name, spec.kind) for spec in CATALOG]
        # Same rows, same order (the doc claims to render the catalog).
        assert documented == declared, (
            "docs/OBSERVABILITY.md catalog table drifted from "
            f"obs.metrics.CATALOG:\ndoc:     {documented}\n"
            f"catalog: {declared}"
        )

    def test_catalog_labels_are_documented(self):
        from repro.obs.metrics import CATALOG

        documented = {
            name: labels
            for name, _kind, labels, _help in self.TABLE_ROW.findall(
                self.observability_md()
            )
        }
        for spec in CATALOG:
            cell = documented[spec.name]
            for label in spec.labels:
                assert f"`{label}`" in cell, (
                    f"docs/OBSERVABILITY.md row for {spec.name!r} does not "
                    f"name its {label!r} label"
                )

    def test_event_vocabulary_is_documented(self):
        """Every event name the stack emits appears in the doc."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        emitted: set[str] = set()
        for path in src.rglob("*.py"):
            emitted.update(
                re.findall(r"\.emit\(\s*[\"']([a-z-]+)[\"']", path.read_text())
            )
        text = self.observability_md()
        missing = {event for event in emitted if f"`{event}`" not in text}
        assert not missing, (
            f"docs/OBSERVABILITY.md lacks emitted event(s): {missing}"
        )


class TestOperationsDocAccuracy:
    def test_cli_commands_named_in_docs_exist(self):
        """Every ``python -m repro <command>`` in the docs parses."""
        from repro.cli import _build_parser

        parser = _build_parser()
        subactions = next(
            action
            for action in parser._actions
            if hasattr(action, "_name_parser_map")
        )
        known = set(subactions._name_parser_map)
        text = "".join(
            (DOCS / name).read_text()
            for name in ("OPERATIONS.md", "ARCHITECTURE.md")
        ) + (DOCS.parent / "README.md").read_text()
        used = set(re.findall(r"python -m repro ([a-z-]+)", text))
        unknown = used - known - {"--version"}
        assert not unknown, f"docs reference unknown CLI command(s): {unknown}"

    def test_serve_flags_named_in_docs_exist(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        text = (DOCS / "OPERATIONS.md").read_text()
        serve_flags = {
            flag
            for line in text.splitlines()
            if "repro serve" in line
            for flag in re.findall(r"(--[a-z-]+)", line)
        }
        serve_parser = next(
            action
            for action in parser._actions
            if hasattr(action, "_name_parser_map")
        )._name_parser_map["serve"]
        known = {
            option
            for action in serve_parser._actions
            for option in action.option_strings
        }
        unknown = serve_flags - known
        assert not unknown, f"docs use unknown serve flag(s): {unknown}"


class TestCitedDocsExist:
    """Every ``*.md`` file the code, tests or benchmarks cite must exist.

    A bare name resolves at the repository root or under ``docs/``; a
    name with a directory resolves from the root.
    """

    def test_every_cited_markdown_file_exists(self):
        root = DOCS.parent
        cited: dict[str, set[str]] = {}
        for tree in ("src", "tests", "benchmarks"):
            for path in (root / tree).rglob("*.py"):
                for name in re.findall(r"[A-Za-z0-9_./-]+\.md\b", path.read_text()):
                    cited.setdefault(name, set()).add(str(path.relative_to(root)))
        assert "EXPERIMENTS.md" in cited
        missing = {
            name: sorted(sources)
            for name, sources in cited.items()
            if not (root / name).is_file() and not (DOCS / name).is_file()
        }
        assert not missing, f"cited markdown file(s) do not exist: {missing}"

