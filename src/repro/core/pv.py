"""Problem PV and Problem ECPV drivers.

Section 4's observation: solving Problem PV (is the whole document
potentially valid?) reduces to solving Problem ECPV (is this node's child
sequence a potentially valid content?) at **every** element node, because
extensions never move existing nodes across element boundaries — each
node's children are wrapped independently.  The differential test suite
verifies this decomposition against the whole-document Earley baseline on
``G'_{T,r}``.

:class:`PVChecker` is the public entry point; it supports four backends:

* ``"machine"`` — the exact :class:`~repro.core.machine.PVMachine` (default),
* ``"kernel"`` — the same merged-GSS semantics over the dense integer
  tables of :mod:`repro.core.tables` (exact, unbounded, fastest),
* ``"figure5"`` — the paper's greedy :class:`~repro.core.recognizer.ECRecognizer`,
* ``"earley"`` — the per-node content-grammar Earley reference (exact but
  slow; the paper's Section 3.3 baseline).

Checkers do not compile schemas themselves: construction resolves the DTD
through the process-wide :class:`~repro.service.registry.SchemaRegistry`
(or uses an explicitly supplied
:class:`~repro.service.compiled.CompiledSchema`), so building many
checkers over one schema pays the analysis/DAG/grammar cost once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Sequence

from repro.config import CheckerConfig, DEFAULT_CONFIG
from repro.core.dag import DtdDag
from repro.core.machine import PVMachine
from repro.core.recognizer import ECRecognizer
from repro.dtd.analysis import DTDClass
from repro.dtd.model import DTD
from repro.errors import DepthBoundExceeded, UnusableElementError
from repro.grammar.build import content_nonterminal
from repro.xmlmodel.delta import content_symbols
from repro.xmlmodel.fastlex import parser_backend
from repro.xmlmodel.tree import XmlDocument, XmlElement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> core)
    from repro.service.compiled import CompiledSchema

__all__ = ["Algorithm", "NodeFailure", "PVVerdict", "PVChecker"]

Algorithm = Literal["machine", "kernel", "figure5", "earley"]

# Resolved on first kernel-backend use: repro.core.kernel subclasses
# PVChecker, so a top-level import would be circular.
_kernel_machine_cls = None


def _kernel_machine():
    global _kernel_machine_cls
    if _kernel_machine_cls is None:
        from repro.core.kernel import KernelMachine

        _kernel_machine_cls = KernelMachine
    return _kernel_machine_cls


@dataclass(frozen=True)
class NodeFailure:
    """One node at which Problem ECPV answered "no"."""

    path: str
    element: str
    symbols: tuple[str, ...]
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.path} <{self.element}>: {self.reason}"


@dataclass(frozen=True)
class PVVerdict:
    """The answer to Problem PV for one document.

    Attributes
    ----------
    potentially_valid:
        The verdict.
    failures:
        Every node whose content check failed (empty when valid).
    depth_limited:
        True when the verdict is "no", the DTD is PV-strong recursive and
        the configured depth bound may therefore have cut a witness — i.e.
        the precise reading is "not potentially valid within the bound".
    """

    potentially_valid: bool
    failures: tuple[NodeFailure, ...] = field(default=())
    depth_limited: bool = False

    def __bool__(self) -> bool:
        return self.potentially_valid


class PVChecker:
    """Checks documents and contents for potential validity w.r.t. one DTD."""

    def __init__(
        self,
        dtd: DTD,
        config: CheckerConfig = DEFAULT_CONFIG,
        algorithm: Algorithm = "machine",
        *,
        compiled: "CompiledSchema | None" = None,
    ) -> None:
        if compiled is None:
            # Lazy import: repro.service sits above repro.core in the layer
            # map and imports this module.
            from repro.service.registry import DEFAULT_REGISTRY

            compiled = DEFAULT_REGISTRY.get(dtd)
        elif dtd is not None and dtd is not compiled.dtd and dtd != compiled.dtd:
            raise ValueError(
                "compiled artifact does not match the given DTD "
                f"(artifact is for {compiled.dtd!r})"
            )
        self.compiled = compiled
        self.dtd = dtd if dtd is not None else compiled.dtd
        self.config = config
        self.algorithm: Algorithm = algorithm
        self.analysis = compiled.analysis
        if config.require_usable and not self.analysis.all_usable:
            raise UnusableElementError(tuple(self.analysis.unusable))
        self.dag: DtdDag = compiled.dag
        self._is_strong = self.analysis.dtd_class is DTDClass.PV_STRONG_RECURSIVE
        #: Depth used by the Figure-5 recognizer (which always needs one).
        self.depth = config.resolved_depth(self.dtd.element_count, self._is_strong)
        #: Depth for the exact machine: ``None`` (unbounded, exact for all
        #: DTD classes thanks to GSS merging) unless the caller explicitly
        #: requested the paper's bounded semantics.
        self.machine_depth: int | None = config.depth_bound

    @classmethod
    def from_compiled(
        cls,
        compiled: "CompiledSchema",
        config: CheckerConfig = DEFAULT_CONFIG,
        algorithm: Algorithm = "machine",
    ) -> "PVChecker":
        """A checker over an artifact obtained from a registry or pickle."""
        return cls(compiled.dtd, config=config, algorithm=algorithm, compiled=compiled)

    # -- Problem ECPV --------------------------------------------------------

    def check_content(self, element: str, symbols: Sequence[str]) -> bool:
        """Problem ECPV: is *symbols* a potentially valid content of *element*?

        *symbols* is a ``Delta_T`` output: element names and
        :data:`~repro.xmlmodel.delta.SIGMA` markers.
        """
        if self.algorithm == "machine":
            return PVMachine(self.dag, element, self.machine_depth).recognize(symbols)
        if self.algorithm == "kernel":
            machine = _kernel_machine()(self.compiled.tables, element)
            return machine.recognize(symbols)
        if self.algorithm == "figure5":
            recognizer = ECRecognizer(self.dag, element, self.depth)
            return recognizer.accepts(symbols)
        # The content grammar and its recognizer live on the compiled
        # artifact, shared by every checker over this schema.
        earley = self.compiled.earley()
        return earley.recognizes(symbols, start=content_nonterminal(element))

    def check_node(self, node: XmlElement) -> bool:
        """Problem ECPV for a DOM node (children converted via ``Delta_T``)."""
        return self.check_content(node.name, content_symbols(node))

    # -- Problem PV ------------------------------------------------------------

    def check_document(self, document: XmlDocument | XmlElement) -> PVVerdict:
        """Problem PV: check every node of *document* (Section 4's reduction)."""
        root = document.root if isinstance(document, XmlDocument) else document
        failures: list[NodeFailure] = []
        if root.name != self.dtd.root:
            failures.append(
                NodeFailure(
                    path="/",
                    element=root.name,
                    symbols=(),
                    reason=(
                        f"document root is <{root.name}> but the DTD root is "
                        f"<{self.dtd.root}>"
                    ),
                )
            )
            return PVVerdict(False, tuple(failures), depth_limited=False)
        self._check_subtree(root, f"/{root.name}", failures)
        verdict_ok = not failures
        # A "no" can only be an artifact of the depth bound when a bound is
        # actually in force: the default machine is exact and unbounded;
        # the figure5 backend always carries one; the kernel and Earley
        # never do.
        bounded = (
            self.algorithm == "figure5"
            or (self.algorithm == "machine" and self.machine_depth is not None)
        )
        depth_limited = bool(failures) and self._is_strong and bounded
        if depth_limited and self.config.strict_depth:
            raise DepthBoundExceeded(self.depth)
        return PVVerdict(verdict_ok, tuple(failures), depth_limited=depth_limited)

    @property
    def fused(self) -> bool:
        """Whether :meth:`check_text` runs without building a tree: the
        kernel backend with the fast parser active."""
        return self.algorithm == "kernel" and parser_backend() == "fast"

    def check_text(self, text: str) -> PVVerdict:
        """Problem PV straight from document text.

        On the kernel backend with the fast parser active (:attr:`fused`)
        this is the single-pass hot path (:mod:`repro.core.stream`): no
        tree is materialized, tag names are interned to table ids as they
        are scanned, and the verdict — failures included — is identical
        to ``check_document(parse_xml(text))``, as is every
        well-formedness error.  Every other backend (and
        ``REPRO_PARSER=reference``) parses and delegates, byte-for-byte
        the classic pipeline.
        """
        if self.fused:
            # Lazy import: stream sits above pv (it needs the kernel).
            from repro.core.stream import stream_check_document

            return stream_check_document(self.compiled, text)
        from repro.xmlmodel.parser import parse_xml

        return self.check_document(parse_xml(text))

    def is_potentially_valid(self, document: XmlDocument | XmlElement) -> bool:
        """Boolean convenience wrapper over :meth:`check_document`."""
        return self.check_document(document).potentially_valid

    def _check_subtree(
        self, node: XmlElement, path: str, failures: list[NodeFailure]
    ) -> None:
        if node.name not in self.dtd:
            failures.append(
                NodeFailure(
                    path=path,
                    element=node.name,
                    symbols=(),
                    reason=f"element type <{node.name}> is not declared in the DTD",
                )
            )
            return
        symbols = tuple(content_symbols(node))
        if not self.check_content(node.name, symbols):
            failures.append(
                NodeFailure(
                    path=path,
                    element=node.name,
                    symbols=symbols,
                    reason="content cannot be completed by tag insertions alone",
                )
            )
        for index, child in enumerate(node.element_children()):
            self._check_subtree(child, f"{path}/{child.name}[{index}]", failures)
