"""Tests for the dispatcher: ``auto`` on the kernel, audit slice, admission."""

from __future__ import annotations

import pytest

from repro.core.pv import PVChecker
from repro.dtd.parser import parse_dtd
from repro.service import dispatch
from repro.service.dispatch import BackendDispatcher, DispatchPolicy
from repro.service.pipeline import AUTO_REASON, run_pipeline
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import to_xml

FIGURE1 = """
<!ELEMENT r (a+)>
<!ELEMENT a (b?, (c | f), d)>
<!ELEMENT b (d | f)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA | e)*>
<!ELEMENT e EMPTY>
<!ELEMENT f (c, e)>
"""

#: Example 5's T1: PV-strong recursive (a may require unboundedly deep wraps).
STRONG = "<!ELEMENT a (a | b*)><!ELEMENT b EMPTY>"


def decide(dispatcher: BackendDispatcher, text: str):
    """The decision the dispatcher records for *text*."""
    dispatched, cached = dispatcher.check_text(text)
    assert not cached
    return dispatched.decision


class TestPolicyRouting:
    def test_small_shallow_goes_kernel(self):
        decision = decide(BackendDispatcher(parse_dtd(FIGURE1)), "<r><a><e></e></a></r>")
        assert decision.algorithm == "kernel"
        assert decision.reason == AUTO_REASON

    def test_gap_heavy_goes_exact(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1))
        decision = decide(dispatcher, "<r><a>plenty of text</a></r>")
        assert decision.algorithm == "kernel"

    def test_large_document_goes_exact(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1))
        decision = decide(dispatcher, "<r>" + "<a><e></e></a>" * 100 + "</r>")
        assert decision.algorithm == "kernel"

    def test_deep_document_goes_exact(self):
        dispatcher = BackendDispatcher(parse_dtd(STRONG))
        decision = decide(dispatcher, "<a>" * 40 + "</a>" * 40)
        assert decision.algorithm == "kernel"

    def test_pv_strong_always_exact(self):
        dispatcher = BackendDispatcher(parse_dtd(STRONG))
        decision = decide(dispatcher, "<a></a>")
        assert decision.algorithm == "kernel"
        assert "no depth bound" in decision.reason

    def test_named_backends_stay_selectable(self):
        schema = BackendDispatcher(parse_dtd(FIGURE1)).schema
        for algorithm in ("kernel", "machine", "figure5", "earley"):
            dispatched = run_pipeline(schema, "<r><a>text</a></r>", algorithm=algorithm)
            assert dispatched.decision.algorithm == algorithm
            assert dispatched.decision.reason == ""
            assert dispatched.verdict.potentially_valid

    def test_audit_slice_goes_earley(self):
        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), policy=DispatchPolicy(audit_every=3)
        )
        algorithms = [
            decide(dispatcher, "<r><a><e></e></a></r>").algorithm for _ in range(6)
        ]
        assert algorithms == [
            "kernel", "kernel", "earley", "kernel", "kernel", "earley",
        ]
        assert dispatcher.counts == {"kernel": 4, "earley": 2}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DispatchPolicy(audit_every=-1)
        with pytest.raises(ValueError):
            DispatchPolicy(admission="sometimes")

    def test_shape_router_is_gone(self):
        for knob in ("small_elements", "shallow_depth", "gap_heavy", "exact_backend"):
            with pytest.raises(TypeError):
                DispatchPolicy(**{knob: 1})
        assert not hasattr(dispatch, "measure_shape")
        assert not hasattr(dispatch, "DocumentShape")
        assert [info.name for info in dispatch.BACKENDS if info.auto] == [
            "kernel", "earley",
        ]


class TestDispatchedChecking:
    def test_verdicts_match_direct_checker(self):
        dtd = parse_dtd(FIGURE1)
        dispatcher = BackendDispatcher(dtd)
        direct = PVChecker(dtd)
        generator = DocumentGenerator(dtd, seed=13)
        for document in generator.documents(6, target_nodes=20):
            outcome, _cached = dispatcher.check_text(to_xml(document))
            assert bool(outcome) == direct.is_potentially_valid(document)
            assert outcome.decision.algorithm == "kernel"

    def test_decision_log_is_bounded(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1), log_size=2)
        for _ in range(5):
            dispatcher.check_text("<r></r>")
        decisions = dispatcher.decisions
        assert len(decisions) == 2
        assert decisions[-1].sequence == 5  # the log keeps the newest

    def test_checkers_share_compiled_artifact(self):
        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), policy=DispatchPolicy(audit_every=2)
        )
        dispatcher.check_text("<r></r>")
        dispatcher.check_text("<r><a>text</a></r>")
        schema = dispatcher.schema
        checkers = [schema.checker("kernel"), schema.checker("earley")]
        assert all(c.compiled is schema for c in checkers)
        # One memoized checker per backend: dispatching builds no more.
        assert schema.checker("kernel") is checkers[0]

    def test_log_size_validated(self):
        with pytest.raises(ValueError):
            BackendDispatcher(parse_dtd(FIGURE1), log_size=-1)


class TestAuditSliceShadow:
    """Regression: the audit slice must record the displaced backend.

    The audit-log entry used to keep only ``earley`` when the 1-in-N
    slice fired, losing which backend would have served — exactly the
    question the log exists to answer.
    """

    def test_audit_entries_record_the_shadowed_backend(self):
        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), policy=DispatchPolicy(audit_every=3)
        )
        for _ in range(6):
            dispatcher.check_text("<r><a><e></e></a></r>")
        audited = [d for d in dispatcher.decisions if d.algorithm == "earley"]
        assert len(audited) == 2
        for decision in audited:
            assert decision.shadowed == "kernel"
            assert "displaced the kernel" in decision.reason

    def test_non_audit_entries_have_no_shadow(self):
        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), policy=DispatchPolicy(audit_every=3)
        )
        for _ in range(6):
            dispatcher.check_text("<r><a><e></e></a></r>")
        for decision in dispatcher.decisions:
            if decision.algorithm != "earley":
                assert decision.shadowed is None

    def test_shadow_reflects_the_policy_not_a_constant(self):
        dispatcher = BackendDispatcher(
            parse_dtd(STRONG), policy=DispatchPolicy(audit_every=1)
        )
        decision = decide(dispatcher, "<a><b></b></a>")
        assert decision.algorithm == "earley"
        assert decision.shadowed == "kernel"  # what auto serves outside the slice


class TestAdmissionStage:
    def test_admission_off_never_runs_coarse(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1))
        decision = decide(dispatcher, "<r><zz/></r>")
        assert decision.admission is None
        assert decision.algorithm != "coarse"

    def test_admission_on_short_circuits_definite_rejects(self):
        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), policy=DispatchPolicy(admission="on")
        )
        outcome, _cached = dispatcher.check_text("<r><zz/></r>")
        assert outcome.decision.algorithm == "coarse"
        assert outcome.decision.admission == "reject"
        assert not outcome.verdict.potentially_valid
        failure = outcome.verdict.failures[0]
        assert (failure.path, failure.element) == ("/r", "r")

    def test_admission_on_escalates_uncertain(self):
        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), policy=DispatchPolicy(admission="on")
        )
        outcome, _cached = dispatcher.check_text("<r><a>text</a></r>")
        assert outcome.decision.algorithm == "kernel"
        assert outcome.decision.admission == "uncertain"
        assert outcome.verdict.potentially_valid

    def test_admission_audit_always_runs_a_backend(self):
        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), policy=DispatchPolicy(admission="audit")
        )
        outcome, _cached = dispatcher.check_text("<r><zz/></r>")
        assert outcome.decision.algorithm == "kernel"
        assert outcome.decision.admission == "reject"
        assert not outcome.decision.admission_mismatch
        assert not outcome.verdict.potentially_valid

    def test_admission_matches_direct_checker_on_generated_corpus(self):
        dtd = parse_dtd(FIGURE1)
        dispatcher = BackendDispatcher(dtd, policy=DispatchPolicy(admission="on"))
        direct = PVChecker(dtd)
        generator = DocumentGenerator(dtd, seed=29)
        for document in generator.documents(8, target_nodes=20):
            outcome, _cached = dispatcher.check_text(to_xml(document))
            assert bool(outcome) == direct.is_potentially_valid(document)

    def test_admission_timings_are_reported(self):
        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), policy=DispatchPolicy(admission="audit")
        )
        timings: dict[str, float] = {}
        dispatcher.check_text("<r><a>text</a></r>", timings=timings)
        # The fused route builds no tree, so there is no parse step.
        assert set(timings) == {"admission", "verdict"}
        assert all(value >= 0.0 for value in timings.values())

    def test_tree_routes_time_their_parse(self):
        schema = BackendDispatcher(parse_dtd(FIGURE1)).schema
        timings: dict[str, float] = {}
        run_pipeline(schema, "<r><a>text</a></r>", algorithm="machine", timings=timings)
        assert set(timings) == {"parse", "verdict"}

    def test_reference_parser_keeps_parse_then_check(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARSER", "reference")
        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), policy=DispatchPolicy(admission="audit")
        )
        timings: dict[str, float] = {}
        outcome, _cached = dispatcher.check_text("<r><zz/></r>", timings=timings)
        assert set(timings) == {"parse", "admission", "verdict"}
        assert outcome.decision.algorithm == "kernel"
        assert outcome.decision.admission == "reject"
        assert not outcome.verdict.potentially_valid

    def test_admission_policy_validation(self):
        with pytest.raises(ValueError):
            DispatchPolicy(admission="sometimes")

    def test_malformed_text_raises_like_the_parser(self):
        from repro.errors import XmlSyntaxError

        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), policy=DispatchPolicy(admission="on")
        )
        with pytest.raises(XmlSyntaxError) as fused:
            dispatcher.check_text("<r><a></r>")
        with pytest.raises(XmlSyntaxError) as parsed:
            parse_xml("<r><a></r>")
        assert str(fused.value) == str(parsed.value)
