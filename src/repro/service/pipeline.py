"""The verdict pipeline: document text in, one served verdict out.

Every checking surface — the server's thread and process-pool paths,
:class:`~repro.service.dispatch.BackendDispatcher`,
:class:`~repro.service.batch.BatchChecker` and the CLI ``check`` — calls
:func:`run_pipeline`, so admission, routing and the verdict behave the
same wherever a document enters.  Its steps:

1. **Route.**  A named backend runs as named.  ``auto`` runs the
   ``kernel`` — exact for every DTD class, and the only backend with a
   treeless path — except for the deterministic 1-in-N audit slice
   (``DispatchPolicy.audit_every``), which goes to the ``earley``
   reference so the fast path is cross-checked in production.
2. **Admit** (``DispatchPolicy.admission``).  The schema's coarse summary
   answers reject / accept / uncertain in one linear pass.  ``on`` serves
   a definite outcome as ``algorithm == "coarse"``; ``audit`` runs the
   full verdict anyway and flags any disagreement.
3. **Verdict.**

On the **fused route** — the kernel with the fast parser — no tree is
built: admission is :func:`~repro.core.stream.stream_coarse_check` and the
verdict is :func:`~repro.core.stream.stream_check_document` (through
:meth:`PVChecker.check_text <repro.core.pv.PVChecker.check_text>`), each
one pass over the text.  Every other route — a named tree backend, the
audit slice, or ``REPRO_PARSER=reference`` — parses the text once and
admission and verdict share that tree.  Only that parse is reported as a
``parse`` timing.

The verdict cache stays with the callers: the server must consult it on
its event loop, before any off-loop hop, so the pipeline only supplies
the key's mode (:func:`cache_mode`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.config import CheckerConfig, DEFAULT_CONFIG
from repro.core.coarse import CoarseChecker, CoarseVerdict
from repro.core.pv import NodeFailure, PVVerdict
from repro.service.compiled import CompiledSchema
from repro.xmlmodel.parser import parse_xml

__all__ = [
    "DispatchPolicy",
    "DEFAULT_POLICY",
    "DispatchDecision",
    "DispatchedVerdict",
    "AUTO_BACKEND",
    "AUTO_REASON",
    "cache_mode",
    "coarse_verdict",
    "run_pipeline",
]

#: The backend ``auto`` serves every document on (outside the audit slice).
AUTO_BACKEND = "kernel"

#: Why ``auto`` serves a document on the kernel.
AUTO_REASON = "exact kernel: decides every DTD class, no depth bound"


@dataclass(frozen=True)
class DispatchPolicy:
    """How :func:`run_pipeline` treats ``auto`` traffic.

    Parameters
    ----------
    audit_every:
        When positive, every N-th ``auto`` document (by the caller's
        sequence number) runs on the Earley reference instead of the
        kernel, a deterministic in-production cross-check.  ``0``
        disables auditing.
    admission:
        The coarse-to-fine admission stage: ``"off"`` (default — every
        document runs a full backend), ``"on"`` (definite coarse outcomes
        are served; only ``uncertain`` escalates), or ``"audit"`` (the
        coarse pass runs on every document and is compared against the
        full verdict, which is always the one served — mismatches are
        flagged on the decision).
    """

    audit_every: int = 0
    admission: str = "off"

    def __post_init__(self) -> None:
        if self.audit_every < 0:
            raise ValueError("audit_every must be >= 0 (0 disables audits)")
        if self.admission not in ("off", "on", "audit"):
            raise ValueError('admission must be "off", "on", or "audit"')


DEFAULT_POLICY = DispatchPolicy()


@dataclass(frozen=True)
class DispatchDecision:
    """What the pipeline did with one document (the audit-log entry).

    ``algorithm`` is what actually ran — a backend name, or ``"coarse"``
    when admission served the document.  When the 1-in-N audit slice
    displaces the kernel, ``shadowed`` names it, so the log keeps both
    the audited route and the displaced one.  ``reason`` is empty when
    the caller named the backend.  ``admission`` is the coarse outcome
    when the admission stage ran (``None`` when off), and
    ``admission_mismatch`` flags an audit-mode disagreement between the
    coarse pass and the full verdict that was served.
    """

    sequence: int
    algorithm: str
    reason: str
    shadowed: str | None = None
    admission: str | None = None
    admission_mismatch: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"#{self.sequence} -> {self.algorithm}: {self.reason}"


@dataclass(frozen=True)
class DispatchedVerdict:
    """A verdict bundled with the decision that produced it."""

    verdict: PVVerdict
    decision: DispatchDecision

    def __bool__(self) -> bool:
        return bool(self.verdict)


def cache_mode(algorithm: str, policy: DispatchPolicy = DEFAULT_POLICY) -> str:
    """The verdict-cache key mode for *algorithm* under *policy*.

    Served outcomes differ by admission mode (an admission-served reject
    names one node), so surfaces with different modes never alias.
    """
    if algorithm == "auto":
        return f"auto:{policy.admission}"
    if policy.admission == "off":
        return algorithm
    return f"{algorithm}:{policy.admission}"


def coarse_verdict(admission: CoarseVerdict) -> PVVerdict:
    """A definite admission outcome as a served :class:`PVVerdict`."""
    if admission.outcome == "accept":
        return PVVerdict(True)
    if admission.outcome != "reject":
        raise ValueError("only definite admission outcomes become verdicts")
    failure = NodeFailure(
        path=admission.path,
        element=admission.element,
        symbols=(),
        reason=admission.reason,
    )
    return PVVerdict(False, failures=(failure,), depth_limited=False)


def run_pipeline(
    schema: CompiledSchema,
    text: str,
    policy: DispatchPolicy = DEFAULT_POLICY,
    algorithm: str = "auto",
    sequence: int = 0,
    config: CheckerConfig = DEFAULT_CONFIG,
    timings: dict[str, float] | None = None,
) -> DispatchedVerdict:
    """Admit, route and check document *text* against *schema*.

    *sequence* numbers ``auto`` documents for the audit slice.  When
    *timings* is given it receives the durations in seconds of the steps
    that ran: ``parse`` (tree routes only), ``admission`` and
    ``verdict``.  Well-formedness errors raise
    :class:`~repro.errors.XmlSyntaxError` exactly as ``parse_xml`` would.
    """
    shadowed = None
    if algorithm != "auto":
        backend, reason = algorithm, ""
    elif policy.audit_every and sequence % policy.audit_every == 0:
        backend, shadowed = "earley", AUTO_BACKEND
        reason = (
            f"scheduled audit (1 in {policy.audit_every}) against the Earley "
            "reference; displaced the kernel"
        )
    else:
        backend, reason = AUTO_BACKEND, AUTO_REASON
    checker = schema.checker(backend, config)
    document = None
    if not checker.fused:
        started = perf_counter()
        document = parse_xml(text)
        if timings is not None:
            timings["parse"] = perf_counter() - started

    admission: CoarseVerdict | None = None
    if policy.admission != "off":
        started = perf_counter()
        coarse = CoarseChecker(schema.coarse)
        admission = (
            coarse.check_text(text)
            if document is None
            else coarse.check_document(document)
        )
        if timings is not None:
            timings["admission"] = perf_counter() - started
        if policy.admission == "on" and admission.definite:
            return DispatchedVerdict(
                verdict=coarse_verdict(admission),
                decision=DispatchDecision(
                    sequence=sequence,
                    algorithm="coarse",
                    reason=(
                        f"admission {admission.outcome}: "
                        f"{admission.reason or 'coarse pass was definite'}"
                    ),
                    admission=admission.outcome,
                ),
            )

    started = perf_counter()
    verdict = (
        checker.check_text(text)
        if document is None
        else checker.check_document(document)
    )
    if timings is not None:
        timings["verdict"] = perf_counter() - started
    mismatch = (
        admission is not None
        and admission.definite
        and (admission.outcome == "accept") != verdict.potentially_valid
    )
    return DispatchedVerdict(
        verdict=verdict,
        decision=DispatchDecision(
            sequence=sequence,
            algorithm=backend,
            reason=reason,
            shadowed=shadowed,
            admission=None if admission is None else admission.outcome,
            admission_mismatch=mismatch,
        ),
    )
