"""Rule-DSL parsing, serialization, and error reporting."""

from __future__ import annotations

import pytest

from lexplain import fixtures
from lexplain.dsl import (
    DslError,
    parse_facts,
    parse_rules,
    serialize_facts,
    serialize_rules,
)
from lexplain.kb import SafetyError, StratificationError, Term

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
