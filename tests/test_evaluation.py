"""Form, completeness, groundedness, stability, and report serialization,
replayed over the reference outputs."""

from __future__ import annotations

import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexplain import fixtures
from lexplain.evaluation import (
    COMPARISON_SECTIONS,
    TRANSLATION_SECTIONS,
    CompletenessResult,
    EvaluationReport,
    FormResult,
    GroundednessResult,
    _scan_spans,
    check_completeness,
    check_form,
    check_groundedness,
    evaluate,
    report_from_json,
    report_to_json,
    stability,
)
from lexplain.trace import parse_trace

from conftest import (
    REFERENCE_FLAT_RE,
    near_flat_terms,
    nested_text,
    reference_parse_term_cached,
)

MISSED_INFERENCE = "essential_document(art3_2, mario, documents)"


# --- form -----------------------------------------------------------------


def test_form_passes_on_eu_output(eu_output):
    result = check_form(eu_output, TRANSLATION_SECTIONS)
    assert result.passed
    assert result.sections_found == TRANSLATION_SECTIONS


def test_form_passes_on_pl_output(pl_output):
    assert check_form(pl_output, TRANSLATION_SECTIONS).passed


def test_form_passes_on_comparison_output(comparison_text):
    result = check_form(comparison_text, COMPARISON_SECTIONS)
    assert result.passed


def test_form_missing_section_named(eu_output):
    mutated = "\n".join(
        line for line in eu_output.splitlines() if not line.startswith("Summary")
    )
    result = check_form(mutated, TRANSLATION_SECTIONS)
    assert not result.passed
    assert "missing section: Summary" in result.violations


def test_form_duplicate_section_flagged(pl_output):
    result = check_form(
        pl_output + "\nSummary: again\n", TRANSLATION_SECTIONS
    )
    assert not result.passed
    assert any("duplicate" in v for v in result.violations)


def test_form_order_enforced():
    text = "What Rights do You Have:\nSummary: x\nWhy do You Have Them:\n"
    result = check_form(text, TRANSLATION_SECTIONS)
    assert not result.passed
    assert any("out of order" in v for v in result.violations)


def test_form_tolerates_enumeration_and_case():
    text = "1) SUMMARY:\n2) what rights do you have\n- Why do You Have Them:\n"
    assert check_form(text, TRANSLATION_SECTIONS).passed


def test_form_requires_word_boundary():
    text = "Summaryish:\nWhat Rights do You Have:\nWhy do You Have Them:\n"
    result = check_form(text, TRANSLATION_SECTIONS)
    assert "missing section: Summary" in result.violations


def test_form_rejects_empty_expectations(eu_output):
    with pytest.raises(ValueError):
        check_form(eu_output, ())


@pytest.mark.parametrize(
    "sections, message",
    [(("Summary", "1. summary:"), "'1. summary:' repeats an earlier one"),
     (("",), "'' has no header text"),
     (("Summary", "- :"), "'- :' has no header text")],
)
def test_form_rejects_a_duplicate_or_empty_section(sections, message):
    # one "Summary" line satisfied both sections; "" matched any line
    with pytest.raises(ValueError, match=re.escape(message)):
        check_form("Summary: x\n(see below)\n", sections)


def test_form_breaks_lines_at_line_feeds_only():
    breaks = "Summary: x\x0cWhat Rights do You Have: y\x85Why do You Have Them: z"
    spaces = "Summary: x What Rights do You Have: y Why do You Have Them: z"
    result = check_form(breaks, TRANSLATION_SECTIONS)
    assert result == check_form(spaces, TRANSLATION_SECTIONS)
    assert result.sections_found == ("Summary",)


_REFERENCE_ENUM_RE = re.compile(r"^(?:[-*]+|\(?\d+[.)]|\(?[a-z][.)])\s+")


def _reference_heading(text):
    t = text.strip().lower()
    match = _REFERENCE_ENUM_RE.match(t)
    return t[match.end():] if match else t


def _reference_form(output, expected_sections):
    """The earlier check_form: every line against every expected header,
    both normalized again for each pair."""

    def matches(line, expected):
        norm_line = _reference_heading(line)
        norm_expected = _reference_heading(expected).rstrip(":").rstrip()
        if not norm_line.startswith(norm_expected):
            return False
        rest = norm_line[len(norm_expected):]
        return not rest or not (rest[0].isalnum() or rest[0] == "_")

    hits = {name: [] for name in expected_sections}
    for idx, line in enumerate(output.split("\n")):
        if not line.strip():
            continue
        for name in expected_sections:
            if matches(line, name):
                hits[name].append(idx)
    violations = []
    for name in expected_sections:
        if not hits[name]:
            violations.append(f"missing section: {name}")
        elif len(hits[name]) > 1:
            violations.append(f"duplicate section: {name}")
    present = [name for name in expected_sections if hits[name]]
    order = [hits[name][0] for name in present]
    if order != sorted(order):
        violations.append("sections out of order: " + ", ".join(present))
    found = tuple(sorted(present, key=lambda n: hits[n][0]))
    return FormResult(found, not violations, tuple(violations))


_HEADING_LINES = st.sampled_from([
    "Summary", "summary:", "1. Summary", "(2) SUMMARY :", "Summaryish",
    "Summary_x", "- What Rights do You Have:", "* what rights do you have",
    "b) Why do You Have Them", "Why do You Have Them:x",
    "1. Comparison of differences", "2. potential consequences:",
    "", "   ", "-", "- ", "1.",
])
_SECTIONS = st.one_of(
    st.just(TRANSLATION_SECTIONS),
    st.just(COMPARISON_SECTIONS),
    st.lists(st.one_of(_HEADING_LINES, st.text(max_size=8)), min_size=1,
             max_size=4).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(_HEADING_LINES, st.text(max_size=12)), max_size=12),
    st.sampled_from(["\n", "\r\n", "\x1c", "\u2028", " "]),
    _SECTIONS,
)
def test_form_equals_pairwise_reference(lines, separator, sections):
    output = separator.join(lines)
    heads = [_reference_heading(name).rstrip(":").rstrip() for name in sections]
    if "" in heads or len(set(heads)) < len(heads):
        with pytest.raises(ValueError):
            check_form(output, sections)
    else:
        assert check_form(output, sections) == _reference_form(output, sections)


# --- completeness -----------------------------------------------------------


def test_pl_output_is_complete(pl_output, listing2_doc):
    result = check_completeness(pl_output, listing2_doc)
    assert result.missing_terms == ()
    assert result.coverage == 1.0


def test_eu_output_misses_the_sub_rule(eu_output, listing1_doc):
    result = check_completeness(eu_output, listing1_doc)
    assert MISSED_INFERENCE in result.missing_terms
    assert result.coverage < 1.0
    assert result.coverage == pytest.approx(10 / 11)


def test_trace_text_covers_itself(listing1_doc):
    result = check_completeness(listing1_doc.raw_text, listing1_doc)
    assert result.coverage == 1.0
    assert result.missing_terms == ()


def test_restatements_satisfied_by_wrapper(listing1_doc):
    # citing only the /5 conclusions still covers the /4 restatements
    output = (
        "has_right(right_to_translation, dir, art3_1, mario, essentialDocument) "
        "proceeding_language(mario, polish) "
        "essential_document(art3_2, mario, documents) "
        "person_document(mario, charge) "
        "not(person_understands(mario, polish)) "
        "auxiliary_right(art4, art3_1, mario, cost, state) "
        "right_property(art3_7, art3_1, mario, form, oral) "
        "not(proceeding_event(mario, prejudice_fairness))"
    )
    result = check_completeness(output, listing1_doc)
    assert result.coverage == 1.0


def test_whitespace_canonicalization_in_matching(listing2_doc):
    sloppy = listing2_doc.raw_text.replace(
        "person_document(mario, charge)", "person_document( mario,charge )"
    )
    result = check_completeness(sloppy, listing2_doc)
    assert result.coverage == 1.0


def test_paraphrase_does_not_count(listing2_doc):
    output = "You have a document containing a charge."
    result = check_completeness(output, listing2_doc)
    assert "person_document(mario, charge)" in result.missing_terms


def test_term_glued_to_a_longer_word_is_not_cited(listing2_doc):
    # the scan reads one term, fake_person_document(...), and so do both checks
    output = "You hold fake_person_document(mario, charge)."
    completeness = check_completeness(output, listing2_doc)
    assert "person_document(mario, charge)" in completeness.missing_terms
    assert check_groundedness(output, listing2_doc).hallucinated_terms == (
        "fake_person_document(mario, charge)",
    )


def test_functor_apart_from_its_parenthesis_is_not_cited(listing2_doc):
    output = "person_document (mario, charge) and fake (a)"
    completeness = check_completeness(output, listing2_doc)
    assert "person_document(mario, charge)" in completeness.missing_terms
    assert _scanned(output) == []


def test_coverage_bounds(listing1_doc):
    empty = check_completeness("", listing1_doc)
    assert empty.coverage == 0.0
    assert set(empty.missing_terms) == set(empty.required_terms)


# --- groundedness ------------------------------------------------------------


def test_pl_output_grounded(pl_output, listing2_doc):
    assert check_groundedness(pl_output, listing2_doc).hallucinated_terms == ()


def test_eu_output_grounded(eu_output, listing1_doc):
    assert check_groundedness(eu_output, listing1_doc).hallucinated_terms == ()


def test_fabricated_term_flagged(listing2_doc):
    output = "You must show person_document(mario, passport) at the hearing."
    result = check_groundedness(output, listing2_doc)
    assert result.hallucinated_terms == ("person_document(mario, passport)",)


def test_negated_fabrication_flagged(listing2_doc):
    output = "Clearly not(person_document(mario, charge)) holds."
    result = check_groundedness(output, listing2_doc)
    assert "not(person_document(mario, charge))" in result.hallucinated_terms


def test_prose_without_terms_is_clean(listing1_doc):
    text = "This proceeding (held in Poland) concerns Mario's rights."
    assert check_groundedness(text, listing1_doc).hallucinated_terms == ()


def test_groundedness_reports_the_outermost_unknown_term(listing2_doc):
    output = "see f(g(a), h(b)) and then h(b) again"
    result = check_groundedness(output, listing2_doc)
    assert result.hallucinated_terms == ("f(g(a), h(b))", "h(b)")


def test_deep_nesting_is_one_hallucinated_term(listing1_doc):
    deep = "f(" * 3000 + "a" + ")" * 3000
    report = evaluate(deep, listing1_doc)
    assert report.groundedness.hallucinated_terms == (deep,)
    assert len(json.dumps(report_to_json(report), indent=2)) < 20_000


def _scanned(text):
    return [term for _, _, term in _scan_spans(text)]


def test_scan_reports_wrappers_and_their_bodies():
    text = "see not(person_understands(mario, polish)) and q(a, b)."
    assert _scanned(text) == [
        "not(person_understands(mario, polish))",
        "person_understands(mario, polish)",
        "q(a, b)",
    ]


def test_scan_reports_terms_inside_a_malformed_wrapper():
    assert _scanned("f(g(a), h(b") == ["g(a)"]
    assert _scanned("f(g(a) x) and f(g(a))") == [
        "g(a)",
        "f(g(a))",
        "g(a)",
    ]


def test_scan_skips_nested_terms_inside_a_nested_term():
    text = "f(g(h(a)), not(b(c)), k(l(m))) and g(h(a))"
    assert _scanned(text) == [
        "f(g(h(a)), not(b(c)), k(l(m)))",
        "h(a)",
        "not(b(c))",
        "b(c)",
        "l(m)",
        "g(h(a))",
        "h(a)",
    ]


def test_scan_handles_deep_nesting():
    depth = 3000
    deep = "f(" * depth + "a" + ")" * depth
    # one span for the whole nest, and the flat term at its core
    assert list(_scan_spans(deep)) == [
        (0, len(deep), deep),
        (2 * depth - 2, 2 * depth + 2, "f(a)"),
    ]
    assert _scanned(deep[:-1]) == [deep[2:-1], "f(a)"]
    assert _scanned("f( " * depth + "a" + " )" * depth) == [deep, "f(a)"]
    assert _scanned("f(" * depth + "a") == []


def _reference_scan(text):
    """The earlier candidate search: every regex match not preceded by a
    word character."""
    found, memo = [], {}
    for match in re.finditer(r"[a-z][A-Za-z0-9_]*\(", text):
        start = match.start()
        if start > 0 and (text[start - 1].isalnum() or text[start - 1] == "_"):
            continue
        parsed = reference_parse_term_cached(text, start, memo)
        if parsed is not None:
            found.append((start, parsed[1], parsed[0]))
    return found


def _function_free(spans):
    """The spans kept from the stack parser's: every flat term, bare or
    negated, and every other term that no term encloses."""
    return [
        (start, end, term)
        for start, end, term in spans
        if REFERENCE_FLAT_RE.fullmatch(term)
        or not any(outer < start < outer_end for outer, outer_end, _ in spans)
    ]


_TERM_TEXT = st.lists(
    st.sampled_from(
        ["(", ")", ",", " ", "\n", "a", "bc", "Q", "7", "_", "\xe9", "\xb2",
         "p(", "not(", "f(a)", "g(a, b)", "X(", "_q(", "1r(", "aB(", "r1("]
    ),
    max_size=40,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), _TERM_TEXT))
def test_scan_equals_regex_reference(text):
    assert list(_scan_spans(text)) == _function_free(_reference_scan(text))


def test_scan_ignores_english_parentheticals():
    text = "the terminology (essential vs. necessary) might differ(!)"
    assert _scanned(text) == []


# --- evaluate / stability ------------------------------------------------------


def test_evaluate_composes(pl_output, listing2_doc):
    report = evaluate(pl_output, listing2_doc)
    assert report.form.passed
    assert report.completeness.coverage == 1.0
    assert report.groundedness.hallucinated_terms == ()
    assert report.manual.juridical_pass is None


def test_evaluate_empty_output(listing1_doc):
    report = evaluate("", listing1_doc)
    assert not report.form.passed
    assert report.completeness.coverage == 0.0


def test_evaluate_is_deterministic(eu_output, listing1_doc):
    assert evaluate(eu_output, listing1_doc) == evaluate(
        eu_output, listing1_doc
    )


def test_stability_identical_runs(pl_output, listing2_doc):
    reports = [
        evaluate(pl_output, listing2_doc, run_index=i) for i in range(10)
    ]
    result = stability(reports)
    assert result.runs == 10
    assert result.form_pass_rate == 1.0
    assert result.coverage_max - result.coverage_min == 0.0
    assert result.hallucinated_runs == 0


def test_stability_mixed_form_rate(pl_output, listing2_doc):
    broken = "\n".join(
        line
        for line in pl_output.splitlines()
        if not line.startswith("Summary")
    )
    outputs = [pl_output] * 3 + [broken] * 2
    reports = [
        evaluate(text, listing2_doc, run_index=i)
        for i, text in enumerate(outputs)
    ]
    assert stability(reports).form_pass_rate == pytest.approx(0.6)


def test_stability_needs_two_reports(pl_output, listing2_doc):
    with pytest.raises(ValueError):
        stability([evaluate(pl_output, listing2_doc)])


def test_stability_rejects_mixed_inputs(
    pl_output, eu_output, listing1_doc, listing2_doc
):
    reports = [
        evaluate(pl_output, listing2_doc),
        evaluate(eu_output, listing1_doc),
    ]
    with pytest.raises(ValueError):
        stability(reports)


def test_report_json_round_trip(eu_output, listing1_doc):
    report = evaluate(eu_output, listing1_doc, run_index=3)
    payload = report_to_json(report)
    assert payload["run_index"] == 3
    assert payload["form"]["pass"] is True
    assert MISSED_INFERENCE in payload["completeness"]["missing"]
    assert payload["manual"] == {"juridical_pass": None, "notes": ""}
    assert report_from_json(payload) == report


# The part of a report record to change (None for the record itself), the
# field, its new value (None deletes the field), and the text the
# ValueError must contain.
MALFORMED_REPORTS = {
    "no manual": (None, "manual", None, "'manual'"),
    "sections is a number": ("form", "sections", 5, "'sections'"),
    "pass is a number": ("form", "pass", 1, "'pass'"),
    "coverage is a word": ("completeness", "coverage", "all", "'coverage'"),
    "cited is a string": ("completeness", "cited", "abc", "'cited'"),
    "a missing term is a number": ("completeness", "missing", [1], "'missing'"),
    "a hallucinated term is null": ("groundedness", "hallucinated", [None], "'hallucinated'"),
    "juridical_pass is a word": ("manual", "juridical_pass", "yes", "'juridical_pass'"),
    "run_index is a bool": (None, "run_index", True, "'run_index'"),
    "unknown form field": ("form", "colour", "red", "'colour'"),
    "pass next to no violation": ("form", "pass", False, "'pass'"),
    "violation next to a pass": ("form", "violations", ["missing section: Summary"], "'pass'"),
    "cited term not required": ("completeness", "cited", ["q(z)"], "'cited'"),
    "missing drops a term": ("completeness", "missing", [], "'missing'"),
    "coverage out of range": ("completeness", "coverage", 7, "'coverage'"),
}


@pytest.mark.parametrize(
    "part, key, value, field",
    MALFORMED_REPORTS.values(),
    ids=list(MALFORMED_REPORTS),
)
def test_malformed_report_record_names_the_field(
    eu_output, listing1_doc, part, key, value, field
):
    record = report_to_json(evaluate(eu_output, listing1_doc))
    target = record if part is None else record[part]
    if value is None:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ValueError, match=field):
        report_from_json(record)


def test_cited_and_missing_must_be_disjoint():
    report = EvaluationReport(
        form=FormResult(("Summary",), True, ()),
        completeness=CompletenessResult(("p(a)", "p(a)"), ("p(a)",), ("p(a)",), 0.5),
        groundedness=GroundednessResult(()),
    )
    with pytest.raises(ValueError, match="'cited' and 'missing'"):
        report_from_json(report_to_json(report))


@pytest.mark.parametrize("name", ["pl", "eu", "comparison", "nested"])
def test_reference_reports_round_trip(
    name, pl_output, eu_output, comparison_text, listing1_doc, listing2_doc
):
    output, trace, sections = {
        "pl": (pl_output, listing2_doc, TRANSLATION_SECTIONS),
        "eu": (eu_output, listing1_doc, TRANSLATION_SECTIONS),
        "comparison": (comparison_text, listing1_doc, COMPARISON_SECTIONS),
        "nested": ("f(" * 30 + "a" + ")" * 30, listing1_doc, TRANSLATION_SECTIONS),
    }[name]
    for run_index in range(3):
        report = evaluate(output, trace, sections, run_index)
        assert report_from_json(report_to_json(report)) == report


@pytest.mark.parametrize("record", [[1], "report", None, 3])
def test_report_record_must_be_an_object(record):
    with pytest.raises(ValueError, match="report must be an object"):
        report_from_json(record)


@pytest.mark.parametrize("verdict", [True, False, None])
def test_report_record_keeps_the_manual_verdict(eu_output, listing1_doc, verdict):
    record = report_to_json(evaluate(eu_output, listing1_doc))
    record["manual"] = {"juridical_pass": verdict, "notes": "checked"}
    manual = report_from_json(record).manual
    assert (manual.juridical_pass, manual.notes) == (verdict, "checked")


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=200))
def test_appending_text_is_monotone(listing2_doc, suffix):
    base = "proceeding_language(mario, polish)"
    before_cov = check_completeness(base, listing2_doc).coverage
    after_cov = check_completeness(base + suffix, listing2_doc).coverage
    assert after_cov >= before_cov
    before_hall = set(
        check_groundedness(base, listing2_doc).hallucinated_terms
    )
    after_hall = set(
        check_groundedness(base + suffix, listing2_doc).hallucinated_terms
    )
    assert before_hall <= after_hall


# --- the function-free scan against the stack parser ------------------------------


_REFERENCE_WORD_RE = re.compile(r"\w*")


def _reference_spans(text):
    """_scan_spans as it read every candidate before the flat fast path."""
    memo, spans = {}, []
    backwards = text[::-1]
    pos = text.find("(")
    while pos != -1:
        word = _REFERENCE_WORD_RE.match(backwards, len(text) - pos).group()
        start = pos - len(word)
        parsed = reference_parse_term_cached(text, start, memo)
        if parsed is not None:
            spans.append((start, parsed[1], parsed[0]))
        pos = text.find("(", pos + 1)
    return spans


def _reference_groundedness(text, trace):
    hallucinated, flagged_end = {}, 0
    for start, end, candidate in _reference_spans(text):
        if start >= flagged_end and candidate not in trace.known_terms:
            hallucinated[candidate] = None
            flagged_end = end
    return GroundednessResult(hallucinated_terms=tuple(hallucinated))


def _reference_restatements(trace):
    """TraceDocument.restatements as it counted arity past nested terms."""

    def parts(text):
        functor, _, args = text.partition("(")
        depth, arity = 0, int(bool(args))
        for ch in args[:-1]:
            if ch in "()":
                depth += 1 if ch == "(" else -1
            elif ch == "," and depth == 0:
                arity += 1
        return functor, arity

    bundle, mapping = trace.bundle, {}
    trees = [bundle.explanation]
    trees += [s.tree for s in bundle.auxiliaries + bundle.properties]
    for root, *nodes in trees:
        functor, arity = parts(root.term)
        for child in nodes:
            if child.depth == 1 and parts(child.term) == (functor, arity - 1):
                mapping[child.term] = root.term
    return mapping


def _reference_report(text, trace):
    """report_to_json of evaluate as it read every term with the stack
    parser."""
    scanned = {term for _, _, term in _reference_spans(text)}
    restated = _reference_restatements(trace)
    required = trace.terms
    cited = tuple(
        t for t in required if t in scanned or restated.get(t) in scanned
    )
    completeness = CompletenessResult(
        required_terms=required,
        cited_terms=cited,
        missing_terms=tuple(t for t in required if t not in cited),
        coverage=len(cited) / len(required) if required else 1.0,
    )
    return report_to_json(
        EvaluationReport(
            form=check_form(text, TRANSLATION_SECTIONS),
            completeness=completeness,
            groundedness=_reference_groundedness(text, trace),
        )
    )


_LISTING1 = parse_trace(fixtures.listing1_trace())
_LISTING2 = parse_trace(fixtures.listing2_trace())
_CITED_TEXT = st.lists(
    st.one_of(
        near_flat_terms(),
        st.sampled_from(_LISTING1.terms),
        st.sampled_from(
            [" ", "\n", "\f", "\v", "\xa0", "(", ")", ",", " (", "holds (",
             "% ", "b(", "not(", "X(", "\xe9("]
        ),
    ),
    max_size=12,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_CITED_TEXT, st.text()))
def test_completeness_cites_exactly_the_scanned_terms(text):
    scanned = set(_scanned(text))
    restated = _LISTING1.restatements
    expected = tuple(
        term
        for term in _LISTING1.terms
        if term in scanned or restated.get(term) in scanned
    )
    result = check_completeness(text, _LISTING1)
    assert result.cited_terms == expected
    assert set(result.missing_terms) == set(_LISTING1.terms) - set(expected)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_CITED_TEXT, st.text()))
def test_scan_and_groundedness_match_the_stack_parser(text):
    assert list(_scan_spans(text)) == _function_free(_reference_spans(text))
    assert check_groundedness(text, _LISTING1) == _reference_groundedness(
        text, _LISTING1
    )


# Golden terms inside wrappers: a term, a term among others, a negation,
# blanks between tokens, and broken ones (a stray word, no ")", one ")"
# too many). The scan first differs from the stack parser's at depth 3.
_WRAPPERS = ("f({})", "g(a, {}, b)", "not({})", "w( {} ,z )", "h({} x)", "f({}", "{})")


@st.composite
def _wrapped_golden_terms(draw):
    term = draw(st.sampled_from(_LISTING1.terms + _LISTING2.terms))
    for _ in range(draw(st.integers(3, 6))):
        term = draw(st.sampled_from(_WRAPPERS)).format(term)
    return term


_WRAPPED_TEXT = st.lists(
    st.one_of(_wrapped_golden_terms(), st.sampled_from([" ", ", ", "(", ")", "x("])),
    min_size=1,
    max_size=4,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_CITED_TEXT, st.text(), _WRAPPED_TEXT, nested_text(3000)),
    st.sampled_from([_LISTING1, _LISTING2]),
)
def test_evaluate_matches_the_stack_parser_reference(text, trace):
    assert report_to_json(evaluate(text, trace)) == _reference_report(text, trace)


def test_shipped_outputs_match_the_stack_parser_reference():
    outputs = [
        fixtures.translation_output_eu(),
        fixtures.translation_output_pl(),
        fixtures.comparison_output(),
    ]
    mock_files = sorted(fixtures.mock_chain_dir().iterdir())
    outputs += [path.read_text(encoding="utf-8") for path in mock_files]
    assert len(outputs) == 6
    for trace in (_LISTING1, _LISTING2):
        assert trace.restatements == _reference_restatements(trace)
        for output in outputs:
            assert report_to_json(evaluate(output, trace)) == _reference_report(
                output, trace
            )


@pytest.mark.parametrize("closer", [")", ""], ids=["nest", "unclosed"])
def test_evaluate_memory_is_linear_in_nesting_depth(closer):
    depth = 32_000
    output = "f(" * depth + "a" + closer * depth
    tracemalloc.start()
    try:
        report = evaluate(output, _LISTING1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
    assert report.groundedness.hallucinated_terms == ((output,) if closer else ())
