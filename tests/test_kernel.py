"""The table-driven kernel: tables, machine semantics, artifact transport.

The kernel's correctness story is differential — it reruns the exact
:class:`PVMachine`'s merged-GSS semantics over dense tables, so every
test here pins it against the machine (and the Earley reference) rather
than against hand-derived expectations.  The structural tests cover what
the differential corpus cannot see directly: the compiled table shapes,
the >63-position bitmask regime (where masks stop fitting a machine
word), and the pickle/wire path the artifact store ships tables through.
"""

from __future__ import annotations

import pickle
import random
from itertools import product

import pytest

import corpusgen
from repro.core.dag import build_dag
from repro.core.kernel import (
    IMPLEMENTATION,
    NATIVE,
    KernelChecker,
    KernelMachine,
    kernel_machine_for_dtd,
)
from repro.core.machine import PVMachine
from repro.core.pv import PVChecker
from repro.core.tables import CompiledTables, compile_tables
from repro.dtd import catalog
from repro.dtd.model import PCDATA
from repro.dtd.parser import parse_dtd
from repro.service.compiled import compile_schema
from repro.service.store import decode_artifact, encode_artifact
from repro.workloads.degrade import degrade
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.delta import SIGMA
from repro.xmlmodel.serialize import to_xml

DIFFERENTIAL_DTDS = (
    "paper-figure1",
    "example6-T2",
    "play",
    "dictionary",
    "manuscript",
    "tei-lite",
    "docbook-article",
    "with-any",
    "strong-chain",
)

#: A content model with 70 Glushkov positions: bitmasks must run past the
#: 63-bit machine-word boundary (Python ints are arbitrary-width, but the
#: shift/or arithmetic crossing that line is exactly what this pins).
WIDE = "<!ELEMENT r (%s)><!ELEMENT a EMPTY>" % ", ".join(["a?"] * 70)


def _tables(dtd) -> CompiledTables:
    return compile_tables(build_dag(dtd))


class TestCompiledTables:
    def test_symbols_and_ids_are_a_bijection(self):
        tables = _tables(catalog.paper_figure1())
        assert tables.symbols[-1] == PCDATA
        assert tables.sigma_id == len(tables.symbols) - 1
        for index, name in enumerate(tables.symbols):
            assert tables.sid[name] == index
        assert tables.symbols[tables.root_id] == "r"

    def test_element_table_shapes(self):
        tables = _tables(catalog.paper_figure1())
        for element in tables.elements:
            # Slot 0 is the virtual ENTRY closure; one slot per position.
            assert len(element.closures) == element.size + 1
            assert len(element.pos_label) == element.size
            assert len(element.pos_elem) == element.size
            width_mask = (1 << element.size) - 1
            assert element.fin_mask & ~width_mask == 0
            for mask in element.closures:
                assert mask & ~width_mask == 0
            for mask in element.match_masks.values():
                assert mask & ~width_mask == 0
            for index in range(element.size):
                if element.pos_label[index] == tables.sigma_id:
                    assert element.pos_elem[index] == -1

    def test_empty_content_element_has_no_positions(self):
        tables = _tables(catalog.paper_figure1())
        e = tables.element("e")
        assert e.size == 0
        assert e.entry_fin  # EMPTY accepts the empty content immediately

    def test_element_accessor_rejects_undeclared_names(self):
        tables = _tables(catalog.paper_figure1())
        with pytest.raises(KeyError):
            tables.element("nope")

    def test_emissions_memo_never_pickles(self):
        tables = _tables(catalog.paper_figure1())
        machine = KernelMachine(tables, "r")
        machine.recognize(["a"])
        assert tables.emissions  # the run populated the shared memo
        revived = pickle.loads(pickle.dumps(tables))
        assert revived.emissions == {}
        # ...and the revived tables still drive verdicts.
        assert KernelMachine(revived, "r").recognize(["a"])


class TestWideBitmasks:
    def test_positions_exceed_a_machine_word(self):
        tables = _tables(parse_dtd(WIDE))
        assert tables.element("r").size == 70
        assert tables.element("r").fin_mask > (1 << 63)

    def test_kernel_matches_machine_past_63_positions(self):
        dtd = parse_dtd(WIDE)
        tables = _tables(dtd)
        rng = random.Random(13)
        contents = [["a"] * count for count in (0, 1, 63, 64, 69, 70, 71)]
        contents += [
            ["a" if rng.random() < 0.8 else SIGMA for _ in range(length)]
            for length in (5, 40, 66)
        ]
        for content in contents:
            exact = PVMachine.for_dtd(dtd, "r").recognize(content)
            kernel = KernelMachine(tables, "r").recognize(content)
            assert exact == kernel, content


class TestKernelMachineSemantics:
    @pytest.mark.parametrize("name", ("paper-figure1", "example6-T2", "with-any"))
    def test_exhaustive_short_contents_match_the_machine(self, name):
        dtd = catalog.load(name)
        tables = _tables(dtd)
        names = list(dtd.element_names())
        alphabet = names[:4] + [SIGMA]
        for element in names:
            for length in range(4):
                for tokens in product(alphabet, repeat=length):
                    # Delta_T never emits two adjacent sigma tokens.
                    if any(
                        tokens[i] == SIGMA and tokens[i + 1] == SIGMA
                        for i in range(len(tokens) - 1)
                    ):
                        continue
                    exact = PVMachine.for_dtd(dtd, element).recognize(tokens)
                    kernel = KernelMachine(tables, element).recognize(tokens)
                    assert exact == kernel, (name, element, tokens)

    def test_unknown_symbols_reject(self):
        machine = kernel_machine_for_dtd(catalog.paper_figure1())
        assert not machine.recognize(["undeclared-element"])

    def test_machine_for_non_root_element(self):
        machine = kernel_machine_for_dtd(catalog.paper_figure1(), "f")
        assert machine.recognize(["c", "e"])
        assert not machine.recognize(["e", "c"])


@pytest.mark.parametrize("name", DIFFERENTIAL_DTDS)
def test_kernel_machine_earley_agree_on_documents(name):
    """The ladder's exact tiers are verdict-identical document by document."""
    dtd = catalog.load(name)
    checkers = [
        PVChecker(dtd, algorithm=algorithm)
        for algorithm in ("kernel", "machine", "earley")
    ]
    rng = random.Random(2006)
    generator = DocumentGenerator(dtd, seed=2006)
    for index, document in enumerate(
        generator.documents(3, target_nodes=18, max_depth=8)
    ):
        degraded, _count = degrade(document, rng, fraction=0.6)
        for variant in (document, degraded):
            verdicts = [
                checker.is_potentially_valid(variant) for checker in checkers
            ]
            assert verdicts[0] == verdicts[1] == verdicts[2], (name, index)


class TestDenseParentMasks:
    """GSS parent sets are bitmasks over node ids (bit 0 = the bottom).

    ``xhtml-basic`` is the dense case: every inline element embeds every
    other, so a general round merges hundreds of parent contexts.  Long
    contents push node ids — and so parent masks — across many machine
    words.
    """

    def test_xhtml_basic_documents_match_the_machine(self):
        dtd = catalog.xhtml_basic()
        schema = compile_schema(dtd)
        kernel = schema.checker("kernel")
        machine = schema.checker("machine")
        rng = random.Random(2006)
        checked = blocked = 0
        for shape in sorted(corpusgen.SHAPES):
            corpus = corpusgen.mixed_corpus(
                dtd, 8, seed=2006, corrupt_fraction=0.5, shape=shape
            )
            for document, _provenance in corpus:
                degraded, _count = degrade(document, rng, fraction=0.5)
                for variant in (document, degraded):
                    fused = kernel.check_text(to_xml(variant))
                    exact = machine.check_document(variant)
                    assert fused == exact, (shape, to_xml(variant))
                    checked += 1
                    blocked += not exact.potentially_valid
        assert checked == 48 and blocked > 0

    def test_long_content_spans_many_mask_words(self):
        dtd = catalog.xhtml_basic()
        tables = _tables(dtd)
        sid = tables.sid.get
        for seed in range(3):
            rng = random.Random(seed)
            content: list[str] = []
            while len(content) < 100:
                token = rng.choice(["li", "td", "tr", "b", "p", SIGMA])
                if token == SIGMA and content and content[-1] == SIGMA:
                    continue
                content.append(token)
            kernel = KernelMachine(tables, "body")
            for length, token in enumerate(content, start=1):
                assert kernel.step(sid(token))
                if length in (10, 50, 100):
                    exact = PVMachine.for_dtd(dtd, "body").recognize(content[:length])
                    assert kernel.accepts_now() == exact, (seed, length)
            # Past 1,000 nodes a parent mask is dozens of machine words.
            assert kernel.allocated_nodes > 1000
            # <title> only ever occurs under <head>: no insertion places it.
            rejected = content + ["title"]
            assert not KernelMachine(tables, "body").recognize(rejected)
            assert not PVMachine.for_dtd(dtd, "body").recognize(rejected)


class TestArtifactTransport:
    def test_tables_survive_the_wire_format(self):
        schema = compile_schema(catalog.manuscript())
        assert schema.has_tables
        blob = encode_artifact(schema)
        revived = decode_artifact(blob, schema.fingerprint)
        assert revived is not None
        # The shipped pickle carries the tables — no rebuild on arrival.
        assert revived.has_tables
        assert revived.tables.symbols == schema.tables.symbols

    def test_revived_artifact_drives_the_kernel(self):
        dtd = catalog.manuscript()
        schema = compile_schema(dtd)
        revived = decode_artifact(encode_artifact(schema), schema.fingerprint)
        direct = PVChecker(dtd, algorithm="kernel", compiled=schema)
        shipped = PVChecker(dtd, algorithm="kernel", compiled=revived)
        generator = DocumentGenerator(dtd, seed=42)
        for document in generator.documents(3, target_nodes=20):
            assert direct.is_potentially_valid(document) == (
                shipped.is_potentially_valid(document)
            )


class TestKernelChecker:
    def test_is_a_pinned_pv_checker(self, doc_w, doc_s):
        checker = KernelChecker(catalog.paper_figure1())
        assert checker.algorithm == "kernel"
        # Example 1: s is valid (hence potentially valid); w is not even
        # potentially valid — every backend agrees on both.
        assert checker.is_potentially_valid(doc_s)
        assert not checker.is_potentially_valid(doc_w)

    def test_from_compiled(self):
        schema = compile_schema(catalog.paper_figure1())
        checker = KernelChecker.from_compiled(schema)
        assert checker.check_content("f", ["c", "e"])

    def test_from_compiled_rejects_other_algorithms(self):
        schema = compile_schema(catalog.paper_figure1())
        with pytest.raises(ValueError):
            KernelChecker.from_compiled(schema, algorithm="machine")


def test_implementation_flags_are_consistent():
    assert IMPLEMENTATION in ("pure", "native")
    assert NATIVE == (IMPLEMENTATION == "native")
