"""Rule-DSL parsing, serialization, and error reporting."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexplain import fixtures
from lexplain.dsl import (
    DslError,
    _tokenize_line,
    parse_facts,
    parse_rules,
    serialize_facts,
    serialize_rules,
)
from lexplain.kb import KbError, SafetyError, StratificationError, Term

HEADER = "%% source: s\n%% jurisdiction: X\n%% article: a1\n%% title: Article 1\n"


def test_parse_single_rule_shape():
    text = HEADER + (
        "has_right(art3_1, P, right_to_translation, essentialDocument) :- "
        "proceeding_language(P, L), essential_document(Art2, P, D), "
        "not(person_understands(P, L)).\n"
    )
    kb = parse_rules(text)
    assert len(kb.clauses) == 1
    clause = kb.clauses[0]
    assert clause.head.arity == 4
    assert len(clause.body) == 3
    assert not clause.body[0].negated
    assert not clause.body[1].negated
    assert clause.body[2].negated


def test_empty_input_gives_empty_kb():
    assert parse_rules("").clauses == ()
    assert parse_rules("% only a comment\n").clauses == ()


def test_clause_may_span_lines():
    text = HEADER + "p(X) :-\n    q(X),\n    r(X).\n"
    kb = parse_rules(text)
    assert len(kb.clauses[0].body) == 2


def test_head_bound_negation_is_accepted():
    # Safety counts head occurrences; the engine enforces groundness at
    # call time instead.
    kb = parse_rules(HEADER + "p(X) :- not(q(X)).\n")
    assert kb.clauses[0].body[0].negated


def test_unbound_negation_variable_is_rejected():
    with pytest.raises(SafetyError) as err:
        parse_rules(HEADER + "p(X) :- not(q(Y)).\n")
    assert err.value.variable == "Y"


def test_self_negation_is_rejected():
    with pytest.raises(StratificationError):
        parse_rules(HEADER + "p :- not(p).\n")


def test_syntax_error_carries_line_and_column():
    with pytest.raises(DslError) as err:
        parse_rules(HEADER + "p(X) :- q(X)\nr(X).\n")
    # first clause never terminated before 'r('; the parser points at it
    assert "line" in str(err.value)


def test_unexpected_character_is_located():
    with pytest.raises(DslError) as err:
        parse_rules(HEADER + "p(X) :- q(X) & r(X).\n")
    assert err.value.line == 5
    assert err.value.col == 14


def test_metadata_must_precede_clauses():
    with pytest.raises(DslError) as err:
        parse_rules("p(a).\n")
    assert "source" in str(err.value)


def test_metadata_cannot_interrupt_a_clause():
    text = HEADER + "p(X) :-\n%% article: a2\n    q(X).\n"
    with pytest.raises(DslError):
        parse_rules(text)


def test_unknown_metadata_key():
    with pytest.raises(DslError):
        parse_rules("%% flavor: vanilla\n")


def test_nested_terms_rejected():
    with pytest.raises(DslError):
        parse_rules(HEADER + "p(q(a)).\n")


def test_reserved_not_functor_rejected():
    with pytest.raises(DslError):
        parse_rules(HEADER + "not(p).\n")
    with pytest.raises(DslError):
        parse_rules(HEADER + "p :- not(not(q)).\n")


def test_serialize_round_trip_fixtures():
    for text in (fixtures.eu_rules_text(), fixtures.pl_rules_text()):
        kb = parse_rules(text)
        again = parse_rules(serialize_rules(kb))
        assert again == kb


def test_serialize_empty_kb():
    assert serialize_rules(parse_rules("")) == ""


def test_serialize_single_fact_clause():
    kb = parse_rules(HEADER + "p(a).\n")
    out = serialize_rules(kb)
    assert out.endswith("p(a).\n")
    assert parse_rules(out) == kb


def test_parse_facts_basic():
    facts = parse_facts(
        "proceeding_language(mario, polish).\nperson_document(mario, charge).\n"
    )
    assert len(facts) == 2
    assert Term("person_document", ("mario", "charge")) in facts


def test_parse_facts_blank_and_comments():
    assert len(parse_facts("\n% nothing here\n\n")) == 0


def test_parse_facts_rejects_non_ground():
    with pytest.raises(DslError) as err:
        parse_facts("person_document(mario, X).\n")
    assert "non-ground" in str(err.value)
    assert "X" in str(err.value)


def test_parse_facts_rejects_rules():
    with pytest.raises(DslError):
        parse_facts("p(a) :- q(a).\n")


@pytest.mark.parametrize("text", ["foo(a)", "foo(a", "foo(a,", "foo("])
def test_parse_facts_truncated_fact_is_located(text):
    with pytest.raises(DslError) as err:
        parse_facts(text)
    assert "unexpected end of line" in str(err.value)
    # the error points at the last token, which is one character wide here
    assert (err.value.line, err.value.col) == (1, len(text))


def test_parse_facts_duplicates_collapse():
    facts = parse_facts("p(a).\np(a).\n")
    assert len(facts) == 1


def test_serialize_facts_round_trip(mario_facts):
    assert parse_facts(serialize_facts(mario_facts)) == mario_facts


def test_jurisdiction_labels_attach_to_sources():
    kb = parse_rules(fixtures.eu_rules_text())
    (source,) = kb.sources
    assert source.id == "directive_2010_64"
    assert source.jurisdiction_label == "European Union"


DSL_TOKENS = st.sampled_from(
    [
        "%% source: s",
        "%% article: a1",
        "%% title: Article 1",
        "%% jurisdiction: X",
        "%% ",
        "% ",
        ":-",
        "not(",
        "p",
        "q",
        "has_right",
        "a",
        "X",
        "_Y",
        "(",
        ")",
        ",",
        ".",
        " ",
        "\n",
    ]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(DSL_TOKENS).map("".join)))
def test_parsers_raise_only_typed_errors(text):
    for parse in (parse_rules, parse_facts):
        try:
            parse(text)
        except (DslError, KbError):
            pass


_REFERENCE_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_REFERENCE_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT"}


def _reference_tokens(text: str, line_no: int) -> list[tuple]:
    """The character loop the DSL tokenized lines with before its master
    regex, kept as the reference for it."""
    out = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "%":
            return out
        if text.startswith(":-", pos):
            out.append(("IMPLIES", ":-", line_no, pos + 1))
            pos += 2
            continue
        if ch in "(),.":
            out.append((_REFERENCE_PUNCT[ch], ch, line_no, pos + 1))
            pos += 1
            continue
        match = _REFERENCE_WORD_RE.match(text, pos)
        if match:
            word = match.group(0)
            kind = "VAR" if word[0].isupper() else "IDENT"
            out.append((kind, word, line_no, pos + 1))
            pos = match.end()
            continue
        raise DslError(f"unexpected character {ch!r}", line_no, pos + 1)
    return out


def _outcome(tokenize, text: str, line_no: int):
    try:
        return list(tokenize(text, line_no))
    except DslError as exc:
        return (str(exc), exc.line, exc.col)


def _tokens(text: str, line_no: int) -> list:
    out: list = []
    _tokenize_line(text, line_no, out)
    return out


TOKENIZER_PIECES = st.sampled_from(
    [" ", "\t", "\r", "\f", "\v", "\xa0", "\n", "%", ":", ":-", "-",
     "(", ")", ",", ".", "_", "7", "é", "p", "X", "a1", "Ab_2", "not"]
)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.lists(TOKENIZER_PIECES).map("".join), st.text()),
    st.integers(1, 9),
)
def test_tokenizer_matches_reference_loop(text, line_no):
    assert _outcome(_tokens, text, line_no) == _outcome(
        _reference_tokens, text, line_no
    )


@pytest.mark.parametrize(
    "text", ["\t\t", "   ", "\r", " % note \t", "%\n", "% a\n)é"]
)
def test_tokenizer_skips_blanks_and_comments(text):
    assert _tokens(text, 1) == []


@pytest.mark.parametrize("text", ["p(a). \t", "p(a).\t\t", "p(a).\r"])
def test_tokenizer_skips_trailing_blanks(text):
    assert _tokens(text, 1) == [
        ("IDENT", "p", 1, 1),
        ("LPAREN", "(", 1, 2),
        ("IDENT", "a", 1, 3),
        ("RPAREN", ")", 1, 4),
        ("DOT", ".", 1, 5),
    ]


@pytest.mark.parametrize(
    "text, col", [("p(a). \f", 7), ("p :\t- q.", 3), ("\xa0p.", 1), ("é", 1)]
)
def test_tokenizer_reports_other_characters(text, col):
    with pytest.raises(DslError) as err:
        _tokens(text, 2)
    assert (err.value.line, err.value.col) == (2, col)
    assert str(err.value) == (
        f"line 2, column {col}: unexpected character {text[col - 1]!r}"
    )
