"""Cross-surface identity: every surface serves the in-process kernel verdict.

One verdict pipeline (:func:`repro.service.pipeline.run_pipeline`) sits
behind every checking surface.  This suite pushes seeded ``corpusgen``
mixed corpora — valid documents plus single-mutation corruptions —
through each surface under each admission mode and asserts, item by
item, that the served verdict *and its failure list* (path, element,
reason) equal ``PVChecker(algorithm="kernel").check_text`` in process:

* the pipeline function and ``BackendDispatcher.check_text``;
* ``BatchChecker`` inline and on a two-process pool;
* a ``ServerThread`` in thread mode and in pool mode (``workers=1``),
  over ``check`` and ``check-batch``;
* the CLI ``check`` command.

Admission-served rejects are the one exception: the coarse pass reports
a single blocked node, and the stream and tree coarse passes may name
different nodes (see ``CoarseChecker.check_text``), so for those only the
outcome and the single failure are asserted.  ``REPRO_FUZZ_SEED`` and
``REPRO_FUZZ_DOCS`` (documents per schema) scale the corpus.
"""

from __future__ import annotations

import os
from functools import lru_cache

import pytest

import corpusgen
from repro.cli import main
from repro.dtd import catalog
from repro.dtd.serialize import dtd_to_text
from repro.server.client import ValidationClient
from repro.server.server import ServerThread
from repro.service.batch import BatchChecker
from repro.service.dispatch import BackendDispatcher, DispatchPolicy
from repro.service.pipeline import run_pipeline
from repro.service.registry import DEFAULT_REGISTRY
from repro.xmlmodel.serialize import to_xml

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "2006"))
DOCS_PER_SCHEMA = int(os.environ.get("REPRO_FUZZ_DOCS", "16"))

#: A PV-weak recursive editorial DTD, the dense-GSS inline case, and a
#: PV-strong recursive DTD (only an unbounded backend is exact on it).
SCHEMAS = ("manuscript", "xhtml-basic", "example6-T2")
MODES = ("off", "on", "audit")


@lru_cache(maxsize=None)
def corpus(name: str):
    """(compiled schema, texts, expected kernel verdicts), built once."""
    dtd = catalog.load(name)
    schema = DEFAULT_REGISTRY.get(dtd)
    texts = [
        to_xml(document)
        for document, _provenance in corpusgen.mixed_corpus(
            dtd, DOCS_PER_SCHEMA, seed=SEED, corrupt_fraction=0.5
        )
    ]
    kernel = schema.checker("kernel")
    return schema, texts, [kernel.check_text(text) for text in texts]


def failure_rows(failures) -> list[tuple[str, str, str]]:
    return [
        (f["path"], f["element"], f["reason"]) if isinstance(f, dict)
        else (f.path, f.element, f.reason)
        for f in failures
    ]


def assert_served(expected, mode, algorithm, potentially_valid, failures, label):
    """One served result against the in-process kernel verdict."""
    assert potentially_valid == expected.potentially_valid, label
    if algorithm == "coarse":
        assert mode == "on", label
        assert len(failures) == (0 if potentially_valid else 1), label
        return
    assert algorithm == "kernel", label
    assert failure_rows(failures) == failure_rows(expected.failures), label


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SCHEMAS)
class TestInProcess:
    def test_pipeline_function(self, name, mode):
        schema, texts, expected = corpus(name)
        policy = DispatchPolicy(admission=mode)
        routes = set()
        for index, (text, verdict) in enumerate(zip(texts, expected)):
            served = run_pipeline(schema, text, policy)
            decision = served.decision
            routes.add(decision.algorithm)
            assert not decision.admission_mismatch
            assert_served(
                verdict, mode, decision.algorithm,
                served.verdict.potentially_valid, served.verdict.failures,
                (name, mode, index),
            )
        # Not vacuous: the corpus has blocked nodes to compare, and
        # admission "on" serves some of it.
        assert any(not verdict.potentially_valid for verdict in expected)
        assert ("coarse" in routes) == (mode == "on")

    def test_dispatcher(self, name, mode):
        schema, texts, expected = corpus(name)
        dispatcher = BackendDispatcher(
            schema, policy=DispatchPolicy(admission=mode), verdict_cache=4
        )
        # Twice: the second pass replays some items from the cache.
        for _round in range(2):
            for index, (text, verdict) in enumerate(zip(texts, expected)):
                served, _cached = dispatcher.check_text(text)
                assert_served(
                    verdict, mode, served.decision.algorithm,
                    served.verdict.potentially_valid, served.verdict.failures,
                    (name, mode, index),
                )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_checker(self, name, mode, workers):
        schema, texts, expected = corpus(name)
        result = BatchChecker(
            schema, algorithm="kernel", workers=workers, admission=mode
        ).check_texts(texts)
        assert result.mismatch_count == 0
        for item, verdict in zip(result.items, expected):
            assert item.error is None
            assert_served(
                verdict, mode, "coarse" if item.coarse else "kernel",
                item.verdict.potentially_valid, item.verdict.failures,
                (name, mode, item.index),
            )

    def test_cli_check(self, name, mode, tmp_path, capsys):
        schema, texts, expected = corpus(name)
        dtd_path = tmp_path / "schema.dtd"
        dtd_path.write_text(dtd_to_text(schema.dtd))
        for index, (text, verdict) in enumerate(zip(texts, expected)):
            doc_path = tmp_path / f"doc{index}.xml"
            doc_path.write_text(text)
            code = main([
                "check", str(dtd_path), str(doc_path), "--root", schema.dtd.root,
                "--algorithm", "kernel", "--admission", mode,
            ])
            out = capsys.readouterr()
            assert "warning" not in out.err
            assert code == (0 if verdict.potentially_valid else 1)
            lines = out.out.splitlines()
            coarse = "coarse admission" in lines[0]
            if verdict.potentially_valid:
                continue
            printed = lines[1:]
            if coarse:
                assert mode == "on" and len(printed) == 1, (name, mode, index)
            else:
                assert printed == [f"  {f}" for f in verdict.failures], (
                    name, mode, index,
                )


@pytest.mark.parametrize("workers", [0, 1], ids=["thread", "pool"])
@pytest.mark.parametrize("mode", MODES)
def test_server(mode, workers, tmp_path):
    with ServerThread(
        unix_path=str(tmp_path / "pv.sock"), admission=mode, workers=workers
    ) as handle:
        with ValidationClient.connect_unix(handle.unix_path) as client:
            for name in SCHEMAS:
                schema, texts, expected = corpus(name)
                dtd_text = dtd_to_text(schema.dtd)
                root = schema.dtd.root
                replies, trailer = client.check_batch(dtd_text, texts, root=root)
                assert trailer["items"] == len(texts)
                assert trailer["errors"] == 0
                singles = [client.check(dtd_text, text, root=root) for text in texts]
                for op, served in (("check-batch", replies), ("check", singles)):
                    for index, (reply, verdict) in enumerate(zip(served, expected)):
                        assert reply["ok"] is True
                        if mode == "off":
                            assert "admission" not in reply
                        else:
                            assert reply["admission"] in ("accept", "reject", "uncertain")
                        assert_served(
                            verdict, mode, reply["algorithm"],
                            reply["potentially_valid"], reply["failures"],
                            (name, mode, workers, op, index),
                        )
            dispatch = client.stats()["dispatch"]
            assert set(dispatch) <= {"kernel", "coarse"}, dispatch
