"""Solver behavior: answers, proof trees, NAF, bundles, determinism."""

from __future__ import annotations

import sys
import threading

import pytest

from lexplain import fixtures
from lexplain import kb as kb_module
from lexplain.cli import main
from lexplain.dsl import parse_facts, parse_rules
from lexplain.engine import (
    FACT,
    NAF,
    RULE,
    DepthLimitError,
    EngineError,
    NafNonGroundError,
    ProofTree,
    UnknownSourceError,
    derive_rights,
    ground_oracle,
    solve,
)
from lexplain.kb import (
    CaseFacts,
    KbError,
    KnowledgeBase,
    Literal,
    Term,
    Variable,
    format_term,
    merge,
)
from lexplain.trace import parse_trace, render_trace

V = Variable


def goal_has_right(person: str) -> Term:
    return Term("has_right", (V("A"), person, "right_to_translation", V("O")))


def test_solve_eu_main_right(eu_kb, mario_facts):
    results = solve(goal_has_right("mario"), eu_kb, mario_facts)
    assert len(results) == 1
    subst, tree = results[0]
    assert subst["A"] == "art3_1"
    assert subst["O"] == "essentialDocument"
    assert tree.kind == RULE
    kinds = [(c.kind, format_term(c.literal.term)) for c in tree.children]
    assert kinds[0] == (FACT, "proceeding_language(mario, polish)")
    assert kinds[1] == (RULE, "essential_document(art3_2, mario, documents)")
    assert tree.children[1].children[0].kind == FACT
    assert format_term(tree.children[1].children[0].literal.term) == (
        "person_document(mario, charge)"
    )
    assert tree.children[2].kind == NAF
    assert tree.children[2].literal.negated


def test_solve_blocked_by_naf(eu_kb, mario_facts):
    blocked = mario_facts.with_fact(
        Term("person_understands", ("mario", "polish"))
    )
    assert solve(goal_has_right("mario"), eu_kb, blocked) == []


def test_solve_polish_main_right(pl_kb, mario_facts):
    results = solve(goal_has_right("mario"), pl_kb, mario_facts)
    assert len(results) == 1
    subst, tree = results[0]
    assert subst["A"] == "article204_2"
    assert subst["O"] == "documents"
    derived_doc = tree.children[2]
    assert derived_doc.kind == RULE
    assert format_term(derived_doc.literal.term) == (
        "person_document(mario, translation_needed)"
    )
    assert derived_doc.children[0].kind == FACT


def test_solve_is_deterministic(eu_kb, mario_facts):
    goal = goal_has_right("mario")
    assert solve(goal, eu_kb, mario_facts) == solve(goal, eu_kb, mario_facts)


def test_naf_on_nonground_goal_raises(eu_kb):
    # person unbound when the body reaches not(person_understands(P, L))
    kb = parse_rules(
        "%% source: s\n%% article: a\n%% title: T\n"
        "weird(X) :- not(q(X)).\n"
    )
    with pytest.raises(NafNonGroundError) as err:
        solve(Term("weird", (V("X"),)), kb, CaseFacts())
    assert "q(" in str(err.value)


def test_proof_trees_validate(eu_kb, mario_facts):
    for _, tree in solve(goal_has_right("mario"), eu_kb, mario_facts):
        for _, node in tree.nodes():
            assert node.kind != FACT or node.literal.term in mario_facts
        assert tree.is_ground


POSITIVE = Literal(Term("p", ("a",)))
NEGATED = Literal(Term("p", ("a",)), negated=True)
LEAF = ProofTree(POSITIVE, FACT, None)


@pytest.mark.parametrize(
    "literal, kind, article, children, message",
    [
        (POSITIVE, "LEMMA", None, (), "unknown node kind: 'LEMMA'"),
        (POSITIVE, FACT, None, (LEAF,), "FACT node with children"),
        (NEGATED, FACT, None, (), "FACT node with a negated literal"),
        (NEGATED, NAF, None, (LEAF,), "NAF node with children"),
        (POSITIVE, NAF, None, (), "NAF node with a positive literal"),
        (POSITIVE, RULE, None, (LEAF,), "RULE node without an article id"),
        (NEGATED, RULE, "a", (LEAF,), "RULE node with a negated literal"),
    ],
    ids=["unknown-kind", "fact-children", "fact-negated", "naf-children",
         "naf-positive", "rule-no-article", "rule-negated"],
)
def test_proof_tree_checks_its_node_when_built(
    literal, kind, article, children, message
):
    with pytest.raises(EngineError) as err:
        ProofTree(literal, kind, article, children)
    assert str(err.value) == message


def test_depth_limit_fails_loudly():
    kb = parse_rules(
        "%% source: s\n%% article: a\n%% title: T\n"
        "p(X) :- p(X).\n"
    )
    with pytest.raises(DepthLimitError) as err:
        solve(Term("p", ("a",)), kb, CaseFacts())
    assert err.value.limit == 64


def test_goal_variables_cannot_alias_renamed_clause_variables():
    # Renaming the clause makes _1_A and _1_X. A goal variable named _1_X
    # would alias the clause's X and lose the answer, so Variable rejects
    # every name the engine's renaming can make.
    kb = parse_rules(
        "%% source: s\n%% article: a\n%% title: T\nr(A, X) :- s(A, X).\n"
    )
    facts = parse_facts("s(a, b).\n")
    ((answer, tree),) = solve(Term("r", (V("P"), V("B"))), kb, facts)
    assert answer.bindings == {"P": "a", "B": "b"}
    assert format_term(tree.literal.term) == "r(a, b)"
    for name in ("_1_X", "_ x)(", "_", "_X"):
        with pytest.raises(KbError, match="invalid variable name"):
            Variable(name)


def test_fact_solutions_come_before_rule_solutions():
    kb = parse_rules(
        "%% source: s\n%% article: a\n%% title: T\np(b).\n"
    )
    facts = parse_facts("p(a).\n")
    results = solve(Term("p", (V("X"),)), kb, facts)
    assert [r[0]["X"] for r in results] == ["a", "b"]
    assert [r[1].kind for r in results] == [FACT, RULE]


def test_substitution_restricted_to_query_variables(eu_kb, mario_facts):
    subst, _ = solve(goal_has_right("mario"), eu_kb, mario_facts)[0]
    assert set(subst.bindings) == {"A", "O"}


def test_derive_rights_eu_bundle(eu_kb, mario_facts):
    bundles = derive_rights("mario", "directive_2010_64", eu_kb, mario_facts)
    assert len(bundles) == 1
    bundle = bundles[0]
    assert bundle.article == "art3_1"
    assert bundle.option == "essentialDocument"
    assert [format_term(t.literal.term) for t in bundle.auxiliaries] == [
        "auxiliary_right(art4, art3_1, mario, cost, state)"
    ]
    assert [format_term(t.literal.term) for t in bundle.properties] == [
        "right_property(art3_7, art3_1, mario, form, oral)"
    ]
    naf_leaf = bundle.properties[0].children[0].children[0]
    assert naf_leaf.kind == NAF


def test_derive_rights_polish_bundle(pl_kb, mario_facts):
    (bundle,) = derive_rights(
        "mario", "directive_2010_64_pl", pl_kb, mario_facts
    )
    assert bundle.article == "article204_2"
    assert bundle.option == "documents"
    assert len(bundle.auxiliaries) == 1
    assert bundle.properties == ()


def test_derive_rights_prejudice_defeats_property(eu_kb, mario_facts):
    prejudiced = mario_facts.with_fact(
        Term("proceeding_event", ("mario", "prejudice_fairness"))
    )
    (bundle,) = derive_rights(
        "mario", "directive_2010_64", eu_kb, prejudiced
    )
    assert bundle.properties == ()
    assert len(bundle.auxiliaries) == 1


def test_derive_rights_unknown_source(eu_kb, mario_facts):
    with pytest.raises(UnknownSourceError):
        derive_rights("mario", "no_such_source", eu_kb, mario_facts)


def test_derive_rights_attachments_require_matching_article(
    eu_kb, mario_facts
):
    (bundle,) = derive_rights(
        "mario", "directive_2010_64", eu_kb, mario_facts
    )
    for tree in bundle.auxiliaries + bundle.properties:
        assert tree.literal.term.args[1] == bundle.article


def test_adding_fact_never_removes_naf_free_conclusion(pl_kb, mario_facts):
    goal = Term("person_document", ("mario", "translation_needed"))
    (before,) = [t for _, t in solve(goal, pl_kb, mario_facts)]
    assert not before.has_naf
    extra = mario_facts.with_fact(Term("proceeding_event", ("mario", "hearing")))
    assert solve(goal, pl_kb, extra)


def test_ground_oracle_trivial_cases():
    from lexplain.kb import KnowledgeBase

    assert ground_oracle(KnowledgeBase(), CaseFacts()) == frozenset()
    facts = parse_facts("p(a).\nq(b).\n")
    assert ground_oracle(KnowledgeBase(), facts) == facts.facts


def test_ground_oracle_contains_case_conclusion(eu_kb, mario_facts):
    atoms = ground_oracle(eu_kb, mario_facts)
    assert Term(
        "has_right",
        ("right_to_translation", "dir", "art3_1", "mario", "essentialDocument"),
    ) in atoms
    assert Term("essential_document", ("art3_2", "mario", "documents")) in atoms


def test_ground_oracle_respects_naf(eu_kb, mario_facts):
    blocked = mario_facts.with_fact(
        Term("person_understands", ("mario", "polish"))
    )
    atoms = ground_oracle(eu_kb, blocked)
    assert not any(t.functor == "has_right" for t in atoms)


# --- search order under the fact and clause indexes --------------------------

# Listed out of canonical order; canonically p(a, x) < p(a, x, y) <
# p(a, z) < p(b, y) < q(a), so p/3 sits between two p/2 facts that share
# a first argument.
INDEX_FACTS = "p(b, y).\np(a, x).\nq(a).\np(a, z).\np(a, x, y).\n"


def _answers(goal, kb, facts):
    return [
        (format_term(tree.literal.term), tree.kind, tree.article)
        for _, tree in solve(goal, kb, facts)
    ]


def test_bound_first_argument_keeps_canonical_fact_order():
    facts = parse_facts(INDEX_FACTS)
    assert _answers(Term("p", ("a", V("X"))), KnowledgeBase(), facts) == [
        ("p(a, x)", FACT, None),
        ("p(a, z)", FACT, None),
    ]
    assert _answers(Term("p", ("c", V("X"))), KnowledgeBase(), facts) == []


def test_free_first_argument_keeps_canonical_fact_order():
    facts = parse_facts(INDEX_FACTS)
    assert _answers(Term("p", (V("Y"), V("X"))), KnowledgeBase(), facts) == [
        ("p(a, x)", FACT, None),
        ("p(a, z)", FACT, None),
        ("p(b, y)", FACT, None),
    ]
    assert _answers(Term("p", (V("Y"), "z")), KnowledgeBase(), facts) == [
        ("p(a, z)", FACT, None),
    ]


def test_clauses_are_tried_in_textual_order_across_predicates():
    kb = parse_rules(
        "%% source: s\n"
        "%% article: a2\n%% title: Two\np(X) :- r(X).\n"
        "%% article: a1\n%% title: One\nq(X) :- r(X).\n"
        "%% article: a3\n%% title: Three\np(X) :- s(X).\n"
    )
    facts = parse_facts("s(a).\nr(a).\np(c).\n")
    assert _answers(Term("p", (V("X"),)), kb, facts) == [
        ("p(c)", FACT, None),
        ("p(a)", RULE, "a2"),
        ("p(a)", RULE, "a3"),
    ]
    assert _answers(Term("p", ("a",)), kb, facts) == [
        ("p(a)", RULE, "a2"),
        ("p(a)", RULE, "a3"),
    ]


# --- work done per derive_rights call ----------------------------------------


def test_repeated_derive_rights_reuses_the_scoped_kb(monkeypatch, mario_facts):
    kb = merge([fixtures.eu_kb(), fixtures.pl_kb()])
    calls = []
    real = kb_module.compute_strata

    def counting(clauses):
        calls.append(1)
        return real(clauses)

    monkeypatch.setattr(kb_module, "compute_strata", counting)
    first = derive_rights("mario", "directive_2010_64", kb, mario_facts)
    assert len(calls) == 1
    again = derive_rights("mario", "directive_2010_64", kb, mario_facts)
    assert len(calls) == 1
    assert again == first


def test_restricted_to_is_memoized_and_equals_a_fresh_build():
    kb = merge([fixtures.eu_kb(), fixtures.pl_kb()])
    for source in kb.sources:
        scoped = kb.restricted_to(source.id)
        assert kb.restricted_to(source.id) is scoped
        assert scoped == KnowledgeBase(
            tuple(c for c in kb.clauses if c.source == source)
        )
        assert scoped.sources == (source,)


def test_restricted_to_returns_one_object_across_threads():
    workers = 8
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            kb = merge([fixtures.eu_kb(), fixtures.pl_kb()])
            ids = [s.id for s in kb.sources]
            seen: dict[str, list] = {i: [] for i in ids}
            start = threading.Barrier(workers)

            def work():
                start.wait(timeout=10)
                for source_id in ids:
                    seen[source_id].append(kb.restricted_to(source_id))

            threads = [threading.Thread(target=work) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for source_id in ids:
                assert len(seen[source_id]) == workers
                assert all(s is seen[source_id][0] for s in seen[source_id])
    finally:
        sys.setswitchinterval(switch)


def test_long_rule_body_is_derived(tmp_path):
    # One matching fact per literal, so there is exactly one proof.
    body = ", ".join(f"f(X{i})" for i in range(1500))
    rules = (
        "%% source: s\n%% article: a\n%% title: T\n"
        f"has_right(r, t, a, P, o) :- person(P), {body}.\n"
    )
    facts_text = "person(mario).\nf(c).\n"
    kb, facts = parse_rules(rules), parse_facts(facts_text)
    bundles = derive_rights("mario", "s", kb, facts)
    expected = [
        atom for atom in ground_oracle(kb, facts)
        if atom.predicate == ("has_right", 5)
    ]
    assert [b.primary.literal.term for b in bundles] == expected
    assert len(bundles[0].primary.children) == 1501
    doc = render_trace(bundles[0], kb)
    assert parse_trace(doc.raw_text) == doc
    (tmp_path / "long.rules").write_text(rules, encoding="utf-8")
    (tmp_path / "case.facts").write_text(facts_text, encoding="utf-8")
    argv = ["solve", "--kb", str(tmp_path / "long.rules"),
            "--facts", str(tmp_path / "case.facts"), "--person", "mario",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0


def test_non_ground_option_is_an_engine_error():
    kb = parse_rules(
        "%% source: s\n%% article: a\n%% title: T\n"
        "has_right(r, t, a, P, O) :- person(P).\n"
    )
    with pytest.raises(EngineError, match="not ground"):
        derive_rights("mario", "s", kb, parse_facts("person(mario).\n"))
