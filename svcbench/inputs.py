"""Seeded inputs and the in-process oracle for the service benchmark.

Everything here is deterministic in the seed.  Documents come from the
test suite's corpus generator (``tests/corpusgen.py``: valid documents
in the mixed/deep/wide shape presets, a share of them carrying one
structural mutation) and from ``repro.workloads.degrade`` (valid
documents with a fraction of their tags deleted: the paper's
incomplete, mid-edit documents).

A run must never send the same document twice where the workload says
its documents are distinct, yet generating a document costs about as
much as the server takes to check it.  So a pool of distinct documents
is made from a smaller set of generated bases: variant ``k`` of a base
carries the token ``u<k>`` at the start of its first non-blank text
run.  That changes the bytes (and so the verdict-cache key) but not the
element structure.  The oracle is still computed on every variant.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable

from repro.dtd import catalog
from repro.dtd.model import DTD
from repro.dtd.serialize import dtd_to_text
from repro.service.compiled import compile_schema
from repro.workloads.degrade import degrade
from repro.xmlmodel.serialize import to_xml

import corpusgen

#: The six catalog schemas of the multi-schema workload, in a fixed order.
RING_SCHEMAS: tuple[str, ...] = (
    "manuscript", "tei-lite", "xhtml-basic", "docbook-article", "play",
    "dictionary",
)

_FACTORIES: dict[str, Callable[[], DTD]] = {
    "manuscript": catalog.manuscript,
    "tei-lite": catalog.tei_lite,
    "xhtml-basic": catalog.xhtml_basic,
    "docbook-article": catalog.docbook_article,
    "play": catalog.play,
    "dictionary": catalog.dictionary,
}

#: Share of generated documents that carry one structural mutation.
CORRUPT_FRACTION = 0.25

#: The first text run holding a non-blank character: ``>`` then text.
_TEXT_RUN = re.compile(r">(\s*)(?=[^<\s])")


@dataclass(frozen=True)
class Schema:
    """One schema as a client sends it: DTD text plus its root."""

    name: str
    dtd: DTD
    text: str
    root: str


def schema(name: str) -> Schema:
    dtd = _FACTORIES[name]()
    return Schema(name=name, dtd=dtd, text=dtd_to_text(dtd), root=dtd.root)


def generated_documents(target: Schema, per_shape: int, seed: int) -> list[str]:
    """Distinct corpusgen documents: *per_shape* of each shape preset,
    ``CORRUPT_FRACTION`` of them mutated once."""
    seen: set[str] = set()
    documents: list[str] = []
    for offset, shape in enumerate(sorted(corpusgen.SHAPES)):
        corpus = corpusgen.mixed_corpus(
            target.dtd, per_shape, seed=seed * 7 + offset,
            corrupt_fraction=CORRUPT_FRACTION, shape=shape,
        )
        for document, _provenance in corpus:
            text = to_xml(document)
            if text not in seen:
                seen.add(text)
                documents.append(text)
    return documents


def variant(text: str, token: str) -> str | None:
    """*text* with *token* prefixed to its first non-blank text run
    (``None`` when the document has no text to mark)."""
    match = _TEXT_RUN.search(text)
    if match is None:
        return None
    at = match.end()
    return f"{text[:at]}{token} {text[at:]}"


def unique_pool(bases: list[str], count: int, seed: int) -> list[str]:
    """*count* distinct documents: the bases, then variants of them,
    in a seeded order that interleaves bases of every shape."""
    markable = [text for text in bases if variant(text, "u") is not None]
    pool = list(bases)
    index = 0
    while len(pool) < count:
        pool.extend(variant(text, f"u{index}") for text in markable)
        index += 1
    pool = pool[:count]
    random.Random(seed).shuffle(pool)
    return pool


#: Tag-deletion fractions of the mid-edit documents.
DEGRADE_FRACTIONS = (0.1, 0.3, 0.5, 0.7)


def mid_edit_documents(target: Schema, bases: int, seed: int) -> list[str]:
    """Valid documents degraded at each of ``DEGRADE_FRACTIONS``:
    distinct, potentially valid, incomplete versions of *bases*
    generated documents."""
    rng = random.Random(seed)
    seen: set[str] = set()
    documents: list[str] = []
    per_shape = -(-bases // len(corpusgen.SHAPES))
    for offset, shape in enumerate(sorted(corpusgen.SHAPES)):
        for document in corpusgen.valid_documents(
            target.dtd, per_shape, seed=seed * 11 + offset, shape=shape
        ):
            for fraction in DEGRADE_FRACTIONS:
                degraded, _removed = degrade(document, rng, fraction)
                text = to_xml(degraded)
                if text not in seen:
                    seen.add(text)
                    documents.append(text)
    rng.shuffle(documents)
    return documents


Expected = tuple[bool, int]


def oracle(target: Schema, documents: list[str]) -> list[Expected]:
    """``(potentially_valid, failure count)`` per document from the
    in-process kernel's ``check_text``."""
    checker = compile_schema(target.dtd).checker("kernel")
    expected: list[Expected] = []
    for text in documents:
        verdict = checker.check_text(text)
        expected.append((verdict.potentially_valid, len(verdict.failures)))
    return expected
