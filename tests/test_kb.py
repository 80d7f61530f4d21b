"""Domain-type validation: terms, clauses, safety, stratification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexplain.kb import (
    CaseFacts,
    Clause,
    KbError,
    KnowledgeBase,
    LegalSource,
    Literal,
    SafetyError,
    StratificationError,
    Term,
    Variable,
    compute_strata,
    format_clause,
    format_literal,
    format_term,
)

SRC = LegalSource("some_source", "Somewhere")


def clause(head, *body, article="a1", title="Article 1"):
    return Clause(head, tuple(body), SRC, article, title)


def test_term_groundness():
    ground = Term("p", ("a", "b"))
    assert ground.is_ground
    assert not Term("p", (Variable("X"), "b")).is_ground
    assert Term("p", (Variable("X"),)).variables() == {"X"}


def test_term_rejects_bad_functor():
    with pytest.raises(KbError):
        Term("Upper", ())
    with pytest.raises(KbError):
        Term("", ())
    with pytest.raises(KbError):
        Term("p", ("Bad-Atom!",))


def test_variable_must_be_uppercase_initial():
    assert Variable("X").name == "X"
    assert Variable("Long_name2").name == "Long_name2"
    with pytest.raises(KbError):
        Variable("lower")


def test_format_term_spacing():
    term = Term("has_right", ("right_to_translation", "dir", "art3_1", "mario", "essentialDocument"))
    assert format_term(term) == (
        "has_right(right_to_translation, dir, art3_1, mario, essentialDocument)"
    )
    assert format_term(Term("p")) == "p"
    assert format_literal(Literal(Term("q", ("a",)), negated=True)) == "not(q(a))"


def test_clause_formatting_round_trips_structure():
    c = clause(
        Term("p", (Variable("X"),)),
        Literal(Term("q", (Variable("X"),))),
        Literal(Term("r", (Variable("X"),)), negated=True),
    )
    assert format_clause(c) == "p(X) :- q(X), not(r(X))."


def test_clause_head_cannot_be_negation():
    with pytest.raises(KbError):
        clause(Term("not", ("p",)))


def test_safety_accepts_head_bound_naf_variable():
    # Bound by the head; groundness is enforced at solve time instead.
    c = clause(
        Term("p", (Variable("X"),)),
        Literal(Term("q", (Variable("X"),)), negated=True),
    )
    assert c.body[0].negated


def test_safety_accepts_earlier_positive_binding():
    clause(
        Term("p", (Variable("X"),)),
        Literal(Term("q", (Variable("X"), Variable("Y")))),
        Literal(Term("r", (Variable("Y"),)), negated=True),
    )


def test_safety_rejects_unbound_naf_variable():
    with pytest.raises(SafetyError) as err:
        clause(
            Term("p", (Variable("X"),)),
            Literal(Term("q", (Variable("Y"),)), negated=True),
        )
    assert err.value.variable == "Y"


def test_safety_rejects_variable_bound_only_later():
    with pytest.raises(SafetyError):
        clause(
            Term("p", (Variable("X"),)),
            Literal(Term("q", (Variable("Y"),)), negated=True),
            Literal(Term("r", (Variable("Y"),))),
        )


def test_stratification_rejects_self_negation():
    c = clause(Term("p"), Literal(Term("p"), negated=True))
    with pytest.raises(StratificationError) as err:
        KnowledgeBase((c,))
    assert "p/0" in str(err.value)


def test_stratification_rejects_negation_cycle():
    c1 = clause(Term("p"), Literal(Term("q"), negated=True))
    c2 = clause(Term("q"), Literal(Term("p")))
    with pytest.raises(StratificationError):
        KnowledgeBase((c1, c2))


def test_stratification_allows_positive_recursion():
    c1 = clause(Term("p", ("a",)))
    c2 = clause(Term("p", (Variable("X"),)), Literal(Term("p", (Variable("X"),))))
    strata = KnowledgeBase((c1, c2)).strata
    assert strata[("p", 1)] == 0


def test_fixture_kbs_are_stratified(eu_kb, pl_kb):
    assert eu_kb.strata[("has_right", 4)] > eu_kb.strata[("person_understands", 2)]
    assert pl_kb.strata[("person_document", 2)] == 0


def test_predicates_distinguished_by_arity(eu_kb):
    strata = eu_kb.strata
    assert ("has_right", 4) in strata and ("has_right", 5) in strata


def test_title_conflicts_rejected():
    c1 = clause(Term("p"), article="a1", title="Article 1")
    c2 = clause(Term("q"), article="a1", title="Article One")
    with pytest.raises(KbError):
        KnowledgeBase((c1, c2))


def test_article_titles_collected(eu_kb):
    titles = eu_kb.article_titles
    assert titles["art3_1"] == "Article 3"
    assert titles["art3_7"] == "Article 3.7"


def test_case_facts_require_ground_terms():
    with pytest.raises(KbError):
        CaseFacts(frozenset({Term("p", (Variable("X"),))}))


def test_case_facts_collapse_duplicates_and_order():
    facts = CaseFacts(
        frozenset({Term("b", ("x",)), Term("a", ("y",)), Term("b", ("x",))})
    )
    assert len(facts) == 2
    assert [format_term(t) for t in facts.ordered] == ["a(y)", "b(x)"]


def test_compute_strata_empty():
    assert compute_strata(()) == {}


def _reference_compute_strata(clauses):
    """compute_strata as it was before the raised_by chain, with its second
    graph search for the cycle; kept as the reference for verdicts and
    levels."""
    edges, preds = [], set()
    for c in clauses:
        preds.add(c.head.predicate)
        for lit in c.body:
            preds.add(lit.term.predicate)
            edges.append((c.head.predicate, lit.term.predicate, lit.negated))
    levels = {p: 0 for p in preds}
    max_level = sum(1 for _, _, neg in edges if neg) + 1
    changed = True
    while changed:
        changed = False
        for head, dep, negated in edges:
            need = levels[dep] + (1 if negated else 0)
            if levels[head] < need:
                levels[head] = need
                if levels[head] > max_level:
                    raise StratificationError(_reference_negation_cycle(edges))
                changed = True
    return levels


def _reference_negation_cycle(edges):
    adjacency = {}
    for head, dep, _ in edges:
        adjacency.setdefault(head, []).append(dep)

    def path(start, goal):
        stack, seen = [(start, [start])], set()
        while stack:
            node, trail = stack.pop()
            if node == goal:
                return trail
            if node in seen:
                continue
            seen.add(node)
            for nxt in adjacency.get(node, ()):
                stack.append((nxt, trail + [nxt]))
        return None

    for head, dep, negated in edges:
        if negated:
            back = path(dep, head)
            if back is not None:
                return [f"{f}/{n}" for f, n in [head] + back]
    return ["<unknown>"]


_ATOMS = st.sampled_from(
    [Term("p"), Term("q"), Term("r"), Term("s"), Term("p", ("a",))]
)
_PROGRAMS = st.lists(
    st.builds(
        lambda head, body: clause(
            head, *(Literal(term, negated=neg) for term, neg in body)
        ),
        _ATOMS,
        st.lists(st.tuples(_ATOMS, st.booleans()), max_size=3),
    ),
    max_size=7,
)


@settings(max_examples=500, deadline=None)
@given(_PROGRAMS)
def test_compute_strata_equals_the_two_pass_reference(clauses):
    try:
        expected = _reference_compute_strata(clauses)
    except StratificationError:
        expected = None
    try:
        levels = compute_strata(clauses)
    except StratificationError as err:
        cycle = err.cycle
    else:
        assert levels == expected
        return
    assert expected is None
    name = "{}/{}".format
    edges = {
        (name(*c.head.predicate), name(*lit.term.predicate), lit.negated)
        for c in clauses
        for lit in c.body
    }
    steps = list(zip(cycle, cycle[1:]))
    assert steps and cycle[0] == cycle[-1]
    assert all((a, b, False) in edges or (a, b, True) in edges for a, b in steps)
    assert any((a, b, True) in edges for a, b in steps)


def test_sources_unique_labels_enforced():
    c1 = Clause(Term("p"), (), LegalSource("s", "A"), "a1", "T")
    c2 = Clause(Term("q"), (), LegalSource("s", "B"), "a2", "U")
    with pytest.raises(KbError):
        KnowledgeBase((c1, c2))


def test_fixture_kbs_stay_inside_the_schema(eu_kb, pl_kb):
    from lexplain.kb import PREDICATE_SCHEMA

    used = set()
    for kb in (eu_kb, pl_kb):
        for clause in kb.clauses:
            used.add(clause.head.predicate)
            used.update(lit.term.predicate for lit in clause.body)
    assert used <= set(PREDICATE_SCHEMA)
