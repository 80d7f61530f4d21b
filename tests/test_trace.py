"""Golden rendering, strict parsing, round trips, term extraction."""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexplain import fixtures
from lexplain import trace as trace_module
from lexplain.engine import FACT, NAF, RULE, derive_rights
from lexplain.trace import (
    CONCLUSION,
    FACT_LEAF,
    INDENT,
    INTERMEDIATE,
    NAF_LEAF,
    MissingTitleError,
    TraceBundle,
    TraceError,
    TraceNode,
    TraceParseError,
    TraceSection,
    canonical_term_text,
    extract_terms,
    parse_trace,
    render_document,
    render_trace,
)

from conftest import (
    REFERENCE_FLAT_RE,
    near_flat_terms,
    nested_text,
    random_bundle,
    random_fact_set,
    reference_parse_term_cached,
)


def test_render_matches_golden_eu(eu_kb, mario_facts, listing1_text):
    (bundle,) = derive_rights("mario", "directive_2010_64", eu_kb, mario_facts)
    assert render_trace(bundle, eu_kb).raw_text == listing1_text


def test_render_matches_golden_pl(pl_kb, mario_facts, listing2_text):
    (bundle,) = derive_rights(
        "mario", "directive_2010_64_pl", pl_kb, mario_facts
    )
    doc = render_trace(bundle, pl_kb)
    assert doc.raw_text == listing2_text
    assert "Properties:" not in doc.raw_text


def test_parse_golden_eu_structure(listing1_doc):
    bundle = listing1_doc.bundle
    assert bundle.source_id == "directive_2010_64"
    assert bundle.article == "art3_1"
    assert bundle.option == "essentialDocument"
    assert len(bundle.auxiliaries) == 1
    assert len(bundle.properties) == 1
    aux = bundle.auxiliaries[0]
    assert (aux.article, aux.right_type, aux.value) == ("art4", "cost", "state")
    assert aux.title == "Article 4"
    # depth 3: root -> /4 -> essential_document -> person_document
    depths = [t.depth for t in extract_terms(listing1_doc)]
    assert max(depths) == 3


def test_parse_golden_pl_structure(listing2_doc):
    bundle = listing2_doc.bundle
    assert len(bundle.auxiliaries) == 1
    assert bundle.properties == ()
    assert bundle.title == "Article 204.2 code of criminal procedure"


def test_round_trip_is_byte_identity(listing1_text, listing2_text):
    for text in (listing1_text, listing2_text):
        assert render_document(parse_trace(text).bundle) == text


def test_missing_title_is_an_error(eu_kb, pl_kb, mario_facts):
    (bundle,) = derive_rights("mario", "directive_2010_64", eu_kb, mario_facts)
    with pytest.raises(MissingTitleError):
        render_trace(bundle, pl_kb)  # wrong KB: no title for art3_1


def test_three_space_indent_rejected(listing1_text):
    broken = listing1_text.replace(
        "    has_right(art3_1", "   has_right(art3_1", 1
    )
    with pytest.raises(TraceParseError) as err:
        parse_trace(broken)
    assert err.value.line == 9
    assert "multiple of 4" in str(err.value)


def test_depth_jump_rejected(listing2_text):
    broken = listing2_text.replace(
        "    has_right(article204_2",
        "        has_right(article204_2",
        1,
    )
    with pytest.raises(TraceParseError) as err:
        parse_trace(broken)
    assert "jump" in str(err.value)


def test_tab_rejected(listing1_text):
    with pytest.raises(TraceParseError) as err:
        parse_trace(listing1_text.replace("    has_right", "\thas_right", 1))
    assert "tab" in str(err.value)


def test_indented_title_names_its_line(listing1_text):
    for title, line in (("Article 3", 3), ("Article 4", 19)):
        broken = listing1_text.replace(f"\n{title}\n", f"\n  {title}\n", 1)
        with pytest.raises(TraceParseError, match="display title") as err:
            parse_trace(broken)
        assert err.value.line == line


def test_unknown_section_header_rejected(listing2_text):
    broken = listing2_text.replace("Auxiliaries:", "Extras:", 1)
    with pytest.raises(TraceParseError) as err:
        parse_trace(broken)
    assert "unknown section header" in str(err.value)


def test_repeated_properties_keyword_names_its_line(listing1_text):
    start = listing1_text.index("\nProperties:")
    broken = listing1_text + listing1_text[start:]
    with pytest.raises(TraceParseError, match="appears twice") as err:
        parse_trace(broken)
    assert err.value.line == 36


def test_malformed_term_rejected(listing1_text):
    broken = listing1_text.replace(
        "proceeding_language(mario, polish)",
        "proceeding_language(mario polish)",
        1,
    )
    with pytest.raises(TraceParseError):
        parse_trace(broken)


def test_non_canonical_spacing_rejected(listing1_text):
    broken = listing1_text.replace(
        "proceeding_language(mario, polish)",
        "proceeding_language(mario,polish)",
        1,
    )
    with pytest.raises(TraceParseError) as err:
        parse_trace(broken)
    assert "non-canonical" in str(err.value)


def test_fact_leaves_cannot_be_negated(listing1_text):
    broken = listing1_text.replace(
        "not(person_understands(mario, polish))",
        "not(person_understands(mario, polish)) [FACT]",
        1,
    )
    with pytest.raises(TraceParseError):
        parse_trace(broken)


def test_extract_terms_eu(listing1_doc):
    terms = extract_terms(listing1_doc)
    assert len(terms) == 11
    by_role = {}
    for t in terms:
        by_role.setdefault(t.role, []).append(t.term)
    assert set(by_role[FACT_LEAF]) == {
        "proceeding_language(mario, polish)",
        "person_document(mario, charge)",
    }
    assert set(by_role[NAF_LEAF]) == {
        "not(person_understands(mario, polish))",
        "not(proceeding_event(mario, prejudice_fairness))",
    }
    assert len(by_role[CONCLUSION]) == 3  # one per section
    assert "essential_document(art3_2, mario, documents)" in by_role[INTERMEDIATE]


def test_extract_terms_pl(listing2_doc):
    terms = extract_terms(listing2_doc)
    assert len(terms) == 8
    roles = [t.role for t in terms]
    assert roles.count(FACT_LEAF) == 2
    assert roles.count(NAF_LEAF) == 1
    assert roles.count(CONCLUSION) == 2


def test_canonical_term_text():
    assert canonical_term_text("p(a,b)") == "p(a, b)"
    assert canonical_term_text("p") == "p"
    assert canonical_term_text("not(q(x))") == "not(q(x))"
    with pytest.raises(Exception):
        canonical_term_text("p(")


def test_render_guards_against_bad_titles(listing1_doc):
    from lexplain.trace import TraceError

    bundle = listing1_doc.bundle
    for title in ("", "two\nlines", " padded "):
        with pytest.raises(TraceError):
            TraceBundle(
                source_id=bundle.source_id,
                article=bundle.article,
                title=title,
                option=bundle.option,
                explanation=bundle.explanation,
            )


def test_render_guards_against_non_canonical_nodes():
    from lexplain.trace import TraceError, TraceNode
    from lexplain.engine import RULE

    with pytest.raises(TraceError):
        TraceNode("p(a,b)", RULE, 0)  # missing canonical space


@pytest.mark.parametrize(
    "tree, message",
    [
        ((), "expected a proof tree"),
        ((TraceNode("p", RULE, 1),), "root must not be indented"),
        ((TraceNode("p", RULE, 0), TraceNode("q", RULE, 2)), "jumps"),
        ((TraceNode("p", RULE, 0), TraceNode("q", RULE, 0)), "multiple roots"),
        ((TraceNode("p", FACT, 0), TraceNode("q", RULE, 1)), "cannot have"),
    ],
)
def test_constructors_check_tree_shape(tree, message):
    with pytest.raises(TraceError, match=message) as err:
        TraceBundle("s", "a1", "Article 1", "opt", tree)
    assert not isinstance(err.value, TraceParseError)
    with pytest.raises(TraceError, match=message):
        TraceSection("a1", "cost", "state", "Article 1", tree)


def test_node_rejects_an_unknown_kind():
    with pytest.raises(TraceError, match="unknown trace node kind: 'LEMMA'"):
        TraceNode("p", "LEMMA", 0)


@pytest.mark.parametrize(
    "term, kind", [("not(p)", RULE), ("p", NAF), ("not(p)", FACT)]
)
def test_node_kind_must_agree_with_its_text(term, kind):
    # each of these would render a line that parses back differently
    with pytest.raises(TraceError, match="disagrees with its term text"):
        TraceBundle("s", "a1", "Article 1", "opt", (TraceNode(term, kind, 0),))


def test_render_trace_does_not_reparse_engine_text(
    eu_kb, pl_kb, mario_facts, listing1_text, listing2_text, monkeypatch
):
    # engine text is canonical by construction; parsed text is checked
    calls = []
    real = trace_module.canonical_term_text
    monkeypatch.setattr(
        trace_module,
        "canonical_term_text",
        lambda text: calls.append(text) or real(text),
    )
    for kb, source, golden in (
        (eu_kb, "directive_2010_64", listing1_text),
        (pl_kb, "directive_2010_64_pl", listing2_text),
    ):
        (bundle,) = derive_rights("mario", source, kb, mario_facts)
        assert render_trace(bundle, kb).raw_text == golden
        assert calls == []
        lines = [node.term for node in extract_terms(parse_trace(golden))]
        assert calls == lines
        calls.clear()


def test_minimal_document_round_trip():
    rng = random.Random(7)
    bundle = random_bundle(rng)
    bare = TraceBundle(
        source_id=bundle.source_id,
        article=bundle.article,
        title=bundle.title,
        option=bundle.option,
        explanation=bundle.explanation,
        auxiliaries=(),
        properties=(),
    )
    text = render_document(bare)
    assert "Auxiliaries:" not in text
    assert "Properties:" not in text
    parsed = parse_trace(text)
    assert parsed.bundle == bare


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_bundles_round_trip(seed):
    bundle = random_bundle(random.Random(seed))
    text = render_document(bundle)
    doc = parse_trace(text)
    assert doc.bundle == bundle
    assert render_document(doc.bundle) == text


@pytest.mark.parametrize("kb_fixture", ["eu_kb", "pl_kb"])
def test_derived_traces_round_trip(kb_fixture, request, mario_facts):
    kb = request.getfixturevalue(kb_fixture)
    rng = random.Random(f"round-trip-{kb_fixture}")
    # Sparser random cases derive no right at all.
    cases = [mario_facts] + [random_fact_set(rng, 150) for _ in range(40)]
    rendered = {"mario": 0, "anna": 0}
    for facts in cases:
        for person in rendered:
            for source in kb.sources:
                for bundle in derive_rights(person, source.id, kb, facts):
                    doc = render_trace(bundle, kb)
                    parsed = parse_trace(doc.raw_text)
                    assert parsed.bundle == doc.bundle
                    assert render_document(parsed.bundle) == doc.raw_text
                    rendered[person] += 1
    assert min(rendered.values()) > 1


def test_conclusions_per_section(listing1_doc):
    terms = extract_terms(listing1_doc)
    conclusions = [t for t in terms if t.role == CONCLUSION]
    sections = 1 + len(listing1_doc.bundle.auxiliaries) + len(
        listing1_doc.bundle.properties
    )
    assert len(conclusions) == sections
    assert all(t.depth == 0 for t in conclusions)


# --- deep nesting and arbitrary input ----------------------------------------

DEPTH = 3000
DEEP = "f(" * DEPTH + "a" + ")" * DEPTH
TRACE_HEAD = "s - a1\n\nArticle 1\nOption: opt\n\nExplanation:\n\n"


def test_canonical_term_text_handles_deep_nesting():
    # trace terms are function-free: a nested term is malformed at any depth
    for text in (DEEP, "f( " * DEPTH + "a" + " )" * DEPTH, DEEP[:-1], "f(g(a))"):
        with pytest.raises(TraceError, match="malformed term"):
            canonical_term_text(text)


def test_parse_trace_handles_deep_nesting():
    for term in (DEEP, DEEP[:-1], "not(f(g(a)))"):
        with pytest.raises(TraceParseError, match="malformed term") as err:
            parse_trace(TRACE_HEAD + term + "\n")
        assert err.value.line == 8


def test_deep_proof_tree_round_trips():
    depth = 1500
    text = TRACE_HEAD + "".join(f"{INDENT * d}p{d}(a)\n" for d in range(depth))
    doc = parse_trace(text)
    assert render_document(doc.bundle) == text
    assert [t.depth for t in extract_terms(doc)] == list(range(depth))
    again = parse_trace(text)
    assert again.bundle == doc.bundle
    assert hash(again.bundle) == hash(doc.bundle)


ANY_TEXT = st.one_of(st.text(), nested_text(DEPTH))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        ANY_TEXT,
        ANY_TEXT.map(lambda tree: TRACE_HEAD + tree + "\n"),
        st.integers(0, DEPTH).map(
            lambda depth: TRACE_HEAD
            + "".join(f"{INDENT * d}p(a)\n" for d in range(depth))
        ),
    )
)
def test_parse_trace_raises_only_trace_error(text):
    try:
        doc = parse_trace(text)
    except TraceError:
        return
    assert render_document(doc.bundle) == text


FIELD_TEXT = st.one_of(
    st.text(),
    st.text(alphabet="aZ9_ -\t\n", max_size=6),
    st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(["source_id", "article", "title", "option"]),
    FIELD_TEXT,
    st.sampled_from(["article", "right_type", "value", "title"]),
    FIELD_TEXT,
)
def test_every_constructed_bundle_round_trips(
    seed, bundle_field, bundle_text, section_field, section_text
):
    """Whatever text the header fields hold, a bundle is either rejected
    when it is built or renders to a document that parses back equal."""
    generated = random_bundle(random.Random(seed))
    edit = {section_field: section_text}
    try:
        bundle = dataclasses.replace(
            generated,
            auxiliaries=tuple(
                dataclasses.replace(s, **edit) for s in generated.auxiliaries
            ),
            properties=tuple(
                dataclasses.replace(s, **edit) for s in generated.properties
            ),
            **{bundle_field: bundle_text},
        )
    except TraceError:
        return
    assert parse_trace(render_document(bundle)).bundle == bundle


# --- diagnostics -------------------------------------------------------------


# A fault in listing1, the line it is reported on, and the message.
LISTING1_FAULTS = {
    "no blank after line 1": (
        lambda text: text.replace("\n\n", "\n", 1),
        2,
        "expected a blank line",
    ),
    "'Explain:' marker": (
        lambda text: text.replace("4\nExplanation:", "4\nExplain:"),
        20,
        "expected 'Explanation:'",
    ),
    "section keywords swapped": (
        lambda text: text.replace("Properties:", "Auxiliaries:").replace(
            "Auxiliaries:", "Properties:", 1
        ),
        25,
        "'Auxiliaries:' must precede 'Properties:'",
    ),
    "trailing space": (
        lambda text: text.replace("essentialDocument\n", "essentialDocument \n"),
        4,
        "trailing whitespace",
    ),
    "option without prefix": (
        lambda text: text.replace("Option: essentialDocument", "essentialDocument"),
        4,
        "expected 'Option: <atom>'",
    ),
    "option not an atom": (
        lambda text: text.replace("Option: essentialDocument", "Option: Essential"),
        4,
        "option is not an atom",
    ),
    "cut after the explanation tree": (
        lambda text: text[: text.index("Auxiliaries:")],
        15,
        "unexpected end of document",
    ),
    "cut after 'Auxiliaries:'": (
        lambda text: text[: text.index("Auxiliaries:\n") + len("Auxiliaries:\n")],
        16,
        "unexpected end of document",
    ),
    "tab in a title": (
        lambda text: text.replace("Article 4", "Article\t4"),
        19,
        "tab character",
    ),
}


@pytest.mark.parametrize(
    "edit, line, message", LISTING1_FAULTS.values(), ids=list(LISTING1_FAULTS)
)
def test_parse_diagnostics_are_pinned(listing1_text, edit, line, message):
    with pytest.raises(TraceParseError) as err:
        parse_trace(edit(listing1_text))
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: {message}")


MUTATION_TOKENS = (
    " ", "\t", "(", ",", " [FACT]", "not(",
    "Explanation:", "Auxiliaries:", "Properties:",
)


@st.composite
def near_valid_documents(draw):
    """A golden or a rendered random bundle, with one line deleted,
    duplicated or swapped, or one token inserted into a line."""
    base = draw(
        st.one_of(
            st.sampled_from([fixtures.listing1_trace(), fixtures.listing2_trace()]),
            st.integers(0, 2**32 - 1).map(
                lambda seed: render_document(random_bundle(random.Random(seed)))
            ),
        )
    )
    lines = base.split("\n")[:-1]
    index = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(["delete", "duplicate", "swap", "insert"]))
    if mutation == "delete":
        del lines[index]
    elif mutation == "duplicate":
        lines.insert(index, lines[index])
    elif mutation == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[index], lines[other] = lines[other], lines[index]
    else:
        at = draw(st.integers(0, len(lines[index])))
        token = draw(st.sampled_from(MUTATION_TOKENS))
        lines[index] = lines[index][:at] + token + lines[index][at:]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(near_valid_documents())
def test_near_valid_documents_parse_exactly_or_name_a_line(text):
    try:
        doc = parse_trace(text)
    except TraceParseError as err:
        assert 1 <= err.line <= text.count("\n") + 1
    else:
        assert render_document(doc.bundle) == text


def test_restatements_parse_only_roots_and_their_children(
    listing1_text, listing2_text, monkeypatch
):
    calls = []
    real = trace_module._term_parts
    monkeypatch.setattr(
        trace_module, "_term_parts", lambda text: calls.append(text) or real(text)
    )
    for text in (listing1_text, listing2_text):
        bundle = parse_trace(text).bundle
        trees = [bundle.explanation]
        trees += [s.tree for s in bundle.auxiliaries + bundle.properties]
        expected = [n.term for tree in trees for n in tree if n.depth <= 1]
        calls.clear()
        restated = trace_module.TraceDocument(text, bundle).restatements
        assert calls == expected
        assert restated


def test_restatements_count_every_argument():
    explanation = (
        TraceNode("r(a)", RULE, 0),
        TraceNode("r", FACT, 1),
        TraceNode("r(b)", FACT, 1),
    )
    section = TraceSection("a2", "cost", "state", "Article 2", (
        TraceNode("q(a, b, c)", RULE, 0),
        TraceNode("q(a, b)", FACT, 1),
        TraceNode("q(a)", FACT, 1),
        TraceNode("not(q(a, b))", NAF, 1),
    ))
    bundle = TraceBundle("s", "a1", "Article 1", "opt", explanation, (section,))
    doc = trace_module.TraceDocument(render_document(bundle), bundle)
    assert doc.restatements == {"r": "r(a)", "q(a, b)": "q(a, b, c)"}


def _reference_canonical_term_text(text: str) -> str:
    """canonical_term_text as it read every term before the flat fast path."""
    if re.fullmatch(r"[a-z][A-Za-z0-9_]*", text):
        return text
    parsed = reference_parse_term_cached(text, 0, {})
    if parsed is None or parsed[1] != len(text):
        raise TraceError(f"malformed term: {trace_module._excerpt(text)}")
    return parsed[0]


def _canonical_outcome(canonicalize, text: str):
    try:
        return canonicalize(text)
    except TraceError as exc:
        return (type(exc), str(exc))


_TERM_PIECES = st.sampled_from(
    ["f", "g1", "not", "a", "bC_2", "X", "(", ")", ",", ", ", " ", "\t",
     "\n", "\r", "\f", "\v", "\xa0", "not(", "f(a)", "g(a, b)", "\xe9", "_",
     "7"]
)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        near_flat_terms(),
        st.lists(_TERM_PIECES).map("".join),
        st.text(),
    )
)
def test_canonical_term_text_matches_the_stack_parser(text):
    # the grammar is the stack parser's, less every nested term
    expected = _canonical_outcome(_reference_canonical_term_text, text)
    if isinstance(expected, str) and not REFERENCE_FLAT_RE.fullmatch(expected):
        expected = (TraceError, f"malformed term: {trace_module._excerpt(text)}")
    assert _canonical_outcome(canonical_term_text, text) == expected
