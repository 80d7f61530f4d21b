"""Solver behavior: answers, proof trees, NAF, bundles, determinism."""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexplain import engine, fixtures
from lexplain import kb as kb_module
from lexplain.cli import main
from lexplain.dsl import parse_facts, parse_rules
from lexplain.engine import (
    DEPTH_LIMIT,
    FACT,
    NAF,
    RULE,
    DepthLimitError,
    EngineError,
    GoalLimitError,
    NafNonGroundError,
    ProofTree,
    UnknownSourceError,
    derive_rights,
    ground_oracle,
    solve,
)
from lexplain.kb import (
    CaseFacts,
    Clause,
    KbError,
    KnowledgeBase,
    LegalSource,
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


def _no_walk(tree):
    raise AssertionError("a proof tree was walked")


def test_proof_tree_records_groundness_when_built(monkeypatch):
    open_literal = Literal(Term("p", (V("X"),)))
    open_leaf = ProofTree(open_literal, FACT, None)
    monkeypatch.setattr(ProofTree, "nodes", _no_walk)
    assert LEAF.is_ground and not open_leaf.is_ground
    assert ProofTree(POSITIVE, RULE, "a", (LEAF, LEAF)).is_ground
    assert not ProofTree(POSITIVE, RULE, "a", (LEAF, open_leaf)).is_ground
    assert not dataclasses.replace(LEAF, literal=open_literal).is_ground


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
    assert answer == {"P": "a", "B": "b"}
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
    answer, _ = solve(goal_has_right("mario"), eu_kb, mario_facts)[0]
    assert type(answer) is dict and set(answer) == {"A", "O"}


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
    assert not any(n.kind == NAF for _, n in before.nodes())
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


@pytest.mark.parametrize(
    "source_id, nodes", [("directive_2010_64", 11), ("directive_2010_64_pl", 8)]
)
def test_derive_rights_builds_each_kept_node_once_and_walks_none(
    monkeypatch, mario_facts, source_id, nodes
):
    kb = merge([fixtures.eu_kb(), fixtures.pl_kb()])
    built = []
    real = ProofTree.__init__

    @functools.wraps(real)
    def counting(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(ProofTree, "__init__", counting)
    monkeypatch.setattr(ProofTree, "nodes", _no_walk)
    bundles = derive_rights("mario", source_id, kb, mario_facts)
    monkeypatch.undo()
    kept = [
        node
        for b in bundles
        for tree in (b.primary, *b.auxiliaries, *b.properties)
        for _, node in tree.nodes()
    ]
    assert len(built) == len(kept) == nodes
    assert {id(n) for n in built} == {id(n) for n in kept}


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


def test_a_chain_of_600_rule_applications_is_proved(monkeypatch):
    # One Python frame per proof level in the search and in the builder, so
    # a chain deeper than half the recursion limit fits once the depth
    # limit is lifted.
    monkeypatch.setattr(engine, "DEPTH_LIMIT", 10**6)
    kb = parse_rules(
        RULES_HEADER + "reach(X, Y) :- edge(X, Y).\n"
        "reach(X, Z) :- edge(X, Y), reach(Y, Z).\n"
    )
    facts = parse_facts("".join(f"edge(n{i}, n{i + 1}).\n" for i in range(600)))
    results = solve(Term("reach", ("n0", "n600")), kb, facts)
    assert len(results) == 1
    assert max(depth for depth, _ in results[0][1].nodes()) == 600


def _fact_tree(functor: str, *args) -> ProofTree:
    return ProofTree(Literal(Term(functor, args)), FACT, None)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda b: {"primary": b.auxiliaries[0]},
         "primary proof must conclude has_right/5"),
        (lambda b: {"auxiliaries": b.properties},
         "attachment must conclude auxiliary_right/5"),
        (lambda b: {"auxiliaries": (_fact_tree(
            "auxiliary_right", "art4", "art9", "mario", "cost", "state"),)},
         "is not attached to primary article art3_1"),
        (lambda b: {"properties": (_fact_tree(
            "right_property", "art3_7", "art3_1", "mario", "form", V("F")),)},
         "attachment proof not ground"),
    ],
    ids=["primary", "attachment-predicate", "attachment-article",
         "attachment-non-ground"],
)
def test_rights_bundle_rejects_a_malformed_bundle(
    eu_kb, mario_facts, change, message
):
    (bundle,) = derive_rights("mario", "directive_2010_64", eu_kb, mario_facts)
    with pytest.raises(EngineError, match=message):
        dataclasses.replace(bundle, **change(bundle))


def test_non_ground_option_is_an_engine_error():
    kb = parse_rules(
        "%% source: s\n%% article: a\n%% title: T\n"
        "has_right(r, t, a, P, O) :- person(P).\n"
    )
    with pytest.raises(EngineError, match="not ground"):
        derive_rights("mario", "s", kb, parse_facts("person(mario).\n"))


# --- head-first resolution ----------------------------------------------------

RULES_HEADER = "%% source: s\n%% article: a\n%% title: T\n"


def test_unmatched_clause_builds_no_variables(monkeypatch):
    # The first clause's head constant differs from the goal's, so nothing
    # of it is built; it still takes tag 1, so the second clause's X is _2_X.
    kb = parse_rules(RULES_HEADER + "p(a) :- q(X).\np(b) :- q(X).\n")
    built = []

    def spy(name):
        built.append(name)
        return kb_module._trusted_variable(name)

    monkeypatch.setattr(engine, "_trusted_variable", spy)
    ((_, tree),) = solve(Term("p", ("b",)), kb, parse_facts("q(c).\n"))
    assert format_term(tree.children[0].literal.term) == "q(c)"
    assert built == ["_2_X"]


def test_naf_error_names_the_renamed_variable():
    kb = parse_rules(
        RULES_HEADER + "q(X, Y) :- s(X).\np(X) :- q(X, Y), not(r(Y)).\n"
    )
    with pytest.raises(NafNonGroundError) as err:
        solve(Term("p", ("a",)), kb, parse_facts("s(a).\n"))
    assert str(err.value) == (
        "negation-as-failure subgoal is not ground: not(r(_2_Y))"
    )


def test_naf_error_names_a_variable_first_met_in_a_later_literal():
    # Z first occurs in the second body literal, so it is made only when
    # the search enters that literal; its name is the same _<tag>_Z.
    kb = parse_rules(
        RULES_HEADER + "p(X) :- s(X), t(Z), not(u(Z)).\nt(Z).\nu(b).\n"
    )
    with pytest.raises(NafNonGroundError) as err:
        solve(Term("p", (V("G"),)), kb, parse_facts("s(a).\n"))
    assert str(err.value) == (
        "negation-as-failure subgoal is not ground: not(u(_2_Z))"
    )


def test_tree_names_a_variable_first_met_in_a_later_literal():
    kb = parse_rules(RULES_HEADER + "p(X) :- s(X), t(X, Z).\nt(X, Z).\n")
    ((answer, tree),) = solve(
        Term("p", (V("G"),)), kb, parse_facts("s(a).\n")
    )
    assert answer == {"G": "a"}
    assert [format_term(n.literal.term) for _, n in tree.nodes()] == [
        "p(a)", "s(a)", "t(a, _2_Z)",
    ]


def test_depth_limit_goal_names_the_renamed_variable():
    kb = parse_rules(RULES_HEADER + "p(X, Y) :- p(Y, X).\n")
    with pytest.raises(DepthLimitError) as err:
        solve(Term("p", ("a", V("B"))), kb, CaseFacts())
    assert err.value.goal == "p(a, _65_Y)"


# The resolver before head-first matching, kept as the reference: each
# candidate clause is renamed whole, then unified with the resolved goal.


class _RefContext:
    def __init__(self, kb, facts):
        self.kb = kb
        self.facts = facts
        self._fresh = 0

    def rename(self, clause):
        self._fresh += 1
        tag = self._fresh

        def rn(term):
            return Term(
                term.functor,
                tuple(
                    kb_module._trusted_variable(f"_{tag}_{a.name}")
                    if isinstance(a, Variable)
                    else a
                    for a in term.args
                ),
            )

        head = rn(clause.head)
        body = tuple(Literal(rn(l.term), l.negated) for l in clause.body)
        return head, body


def _ref_walk(value, bindings):
    while isinstance(value, Variable):
        bound = bindings.get(value.name)
        if bound is None:
            return value
        value = bound
    return value


def _ref_unify_args(a, b, bindings):
    a = _ref_walk(a, bindings)
    b = _ref_walk(b, bindings)
    if isinstance(a, Variable):
        if isinstance(b, Variable) and a.name == b.name:
            return bindings
        new = dict(bindings)
        new[a.name] = b
        return new
    if isinstance(b, Variable):
        new = dict(bindings)
        new[b.name] = a
        return new
    return bindings if a == b else None


def _ref_unify_terms(goal, head, bindings):
    if goal.functor != head.functor or goal.arity != head.arity:
        return None
    current = bindings
    for a, b in zip(goal.args, head.args):
        current = _ref_unify_args(a, b, current)
        if current is None:
            return None
    return current


def _ref_resolve_term(term, bindings):
    return Term(term.functor, tuple(_ref_walk(a, bindings) for a in term.args))


def _ref_resolve_tree(tree, bindings):
    literal = Literal(
        _ref_resolve_term(tree.literal.term, bindings), tree.literal.negated
    )
    children = tuple(_ref_resolve_tree(c, bindings) for c in tree.children)
    return ProofTree(literal, tree.kind, tree.article, children)


def _ref_solve_term(goal, bindings, ctx, depth):
    target = _ref_resolve_term(goal, bindings)
    for fact in ctx.facts.candidates(target):
        unified = _ref_unify_terms(target, fact, bindings)
        if unified is not None:
            yield unified, ProofTree(Literal(fact), FACT, None)
    for clause in ctx.kb.clauses_for(target.predicate):
        head, body = ctx.rename(clause)
        unified = _ref_unify_terms(target, head, bindings)
        if unified is None:
            continue
        if depth + 1 > DEPTH_LIMIT:
            raise DepthLimitError(
                format_term(_ref_resolve_term(target, unified)), DEPTH_LIMIT
            )
        for final, children in _ref_solve_body(body, unified, ctx, depth + 1):
            yield final, ProofTree(
                Literal(target), RULE, clause.article, children
            )


def _ref_solve_literal(literal, bindings, ctx, depth):
    if not literal.negated:
        yield from _ref_solve_term(literal.term, bindings, ctx, depth)
        return
    subgoal = _ref_resolve_term(literal.term, bindings)
    if not subgoal.is_ground:
        raise NafNonGroundError(Literal(subgoal, negated=True))
    for _ in _ref_solve_term(subgoal, {}, ctx, depth):
        return
    yield bindings, ProofTree(Literal(subgoal, negated=True), NAF, None)


def _ref_solve_body(body, bindings, ctx, depth):
    if not body:
        yield bindings, ()
        return
    iterators = [_ref_solve_literal(body[0], bindings, ctx, depth)]
    proofs = []
    while iterators:
        step = next(iterators[-1], None)
        del proofs[len(iterators) - 1 :]
        if step is None:
            iterators.pop()
        elif len(iterators) == len(body):
            yield step[0], (*proofs, step[1])
        else:
            proofs.append(step[1])
            literal = body[len(iterators)]
            iterators.append(_ref_solve_literal(literal, step[0], ctx, depth))


def _ref_solve(goal, kb, facts):
    ctx = _RefContext(kb, facts)
    results = []
    for bindings, tree in _ref_solve_term(goal, {}, ctx, 0):
        answer = {}
        for name in sorted(goal.variables()):
            value = _ref_walk(Variable(name), bindings)
            if isinstance(value, str):
                answer[name] = value
        results.append((answer, _ref_resolve_tree(tree, bindings)))
    return results


def _outcome(solver, goal, kb, facts):
    """The repr of every answer and tree, or the error's class and text."""
    try:
        return repr(solver(goal, kb, facts))
    except EngineError as err:
        return type(err), str(err)


# A body literal calls an earlier predicate, and a positive last literal may
# call its own, so programs recurse and stay stratified. Recursion is on the
# last literal only: a left-recursive call that has answers makes the search
# enumerate about 2**64 of them before the depth limit stops it.
_PREDICATES = (("e", 2), ("q", 1), ("p", 2), ("r", 1))
_CONSTANTS = ("a", "b")
_CLAUSE_VARIABLES = tuple(V(n) for n in ("X", "Y", "Z"))


@st.composite
def _programs(draw):
    clauses = []
    for _ in range(draw(st.integers(1, 5))):
        index = draw(st.integers(1, len(_PREDICATES) - 1))
        any_arg = st.sampled_from(_CONSTANTS + _CLAUSE_VARIABLES)
        head = Term(_PREDICATES[index][0], tuple(
            draw(any_arg) for _ in range(_PREDICATES[index][1])
        ))
        bound = set(head.variables())
        body = []
        length = draw(st.integers(0, 3))
        for position in range(length):
            negated = draw(st.booleans())
            own = not negated and position == length - 1
            functor, arity = _PREDICATES[
                draw(st.integers(0, index if own else index - 1))
            ]
            args = st.sampled_from(
                _CONSTANTS + tuple(V(n) for n in sorted(bound))
            ) if negated else any_arg
            term = Term(functor, tuple(draw(args) for _ in range(arity)))
            body.append(Literal(term, negated))
            if not negated:
                bound |= term.variables()
        clauses.append(Clause(head, tuple(body), LegalSource("s"), "a1", "T"))
    atoms = st.sampled_from(_PREDICATES).flatmap(
        lambda p: st.tuples(*[st.sampled_from(_CONSTANTS + ("c",))] * p[1]).map(
            lambda args: Term(p[0], args)
        )
    )
    facts = draw(st.frozensets(atoms, max_size=6))
    # Each predicate with distinct free arguments, then drawn goals that mix
    # bound, free and repeated arguments.
    goals = [
        Term(functor, tuple(V(f"G{i}") for i in range(arity)))
        for functor, arity in _PREDICATES
    ]
    goal_arg = st.sampled_from(("a", "c", V("X"), V("Y"), V("W")))
    goals += draw(st.lists(
        st.sampled_from(_PREDICATES).flatmap(
            lambda p: st.tuples(*[goal_arg] * p[1]).map(
                lambda args: Term(p[0], args)
            )
        ),
        max_size=4,
    ))
    return KnowledgeBase(tuple(clauses)), CaseFacts(facts), goals


# A head variable that occurs twice, under goals that give it a variable, the
# same variable twice, and a constant first or second.
REPEATED_HEAD = (
    parse_rules("%% source: s\n%% article: a1\n%% title: T\np(X, X) :- q(X).\n"),
    parse_facts("q(c).\nq(d).\n"),
    [Term("p", (V("Y"), "c")), Term("p", (V("Y"), V("Y"))), Term("p", ("c", V("Y")))],
)


def _oracle_values(goal: Term, model) -> list[str]:
    """The value of Y in each atom of model that goal matches."""
    values = []
    for atom in sorted(model, key=format_term):
        binding: dict[str, str] = {}
        if atom.predicate == goal.predicate and all(
            binding.setdefault(g.name, a) == a if isinstance(g, Variable) else g == a
            for g, a in zip(goal.args, atom.args)
        ):
            values.append(binding["Y"])
    return values


def test_repeated_head_variable_agrees_with_the_oracle():
    kb, facts, goals = REPEATED_HEAD
    model = ground_oracle(kb, facts)
    answers = [[s["Y"] for s, _ in solve(goal, kb, facts)] for goal in goals]
    assert answers == [_oracle_values(goal, model) for goal in goals]
    assert answers == [["c"], ["c", "d"], ["c"]]


@settings(max_examples=200, deadline=None)
@given(_programs())
@example(REPEATED_HEAD)
def test_solve_equals_the_renaming_reference(program):
    kb, facts, goals = program
    for goal in goals:
        assert _outcome(solve, goal, kb, facts) == _outcome(
            _ref_solve, goal, kb, facts
        )


def test_solve_equals_the_renaming_reference_on_the_shipped_kbs(mario_facts):
    # Free and repeated-variable goals for every rule predicate, and every
    # derivable atom with one argument left free.
    kb = merge([fixtures.eu_kb(), fixtures.pl_kb()])
    heads = sorted({c.head.predicate for c in kb.clauses})
    goals = []
    for functor, arity in heads:
        goals.append(Term(functor, tuple(V(f"A{i}") for i in range(arity))))
        goals.append(Term(functor, (V("A"),) * arity))
    for atom in sorted(ground_oracle(kb, mario_facts), key=format_term):
        if atom.predicate in heads:
            for i in range(atom.arity):
                args = atom.args[:i] + (V("A"),) + atom.args[i + 1 :]
                goals.append(Term(atom.functor, args))
    assert len(goals) > 500
    for goal in goals:
        assert _outcome(solve, goal, kb, mario_facts) == _outcome(
            _ref_solve, goal, kb, mario_facts
        )


# Left recursion whose recursive call has answers first: each level doubles
# the answers, so the depth limit is reached only after about 2**64 of them.
LEFT_RECURSIVE = {
    "doubling": ("r(X) :- r(Y), q(X).\n", "r(c).\nq(a).\nq(b).\n", "r"),
    "reachability": (
        "reach(X) :- reach(Y), link(Y, X).\n",
        "reach(a).\nlink(a, a).\nlink(a, b).\nlink(b, a).\nlink(b, b).\n",
        "reach",
    ),
}


@pytest.mark.parametrize("name", sorted(LEFT_RECURSIVE))
def test_left_recursion_stops_at_the_goal_limit(name):
    rules, facts, functor = LEFT_RECURSIVE[name]
    kb, case = parse_rules(RULES_HEADER + rules), parse_facts(facts)
    with pytest.raises(GoalLimitError) as err:
        solve(Term(functor, (V("G"),)), kb, case)
    assert err.value.limit == engine.GOAL_LIMIT == 10_000
    assert str(err.value) == f"goal limit 10000 exceeded at {err.value.goal}"


@pytest.mark.parametrize("name", sorted(LEFT_RECURSIVE))
def test_solve_command_exits_2_at_the_goal_limit(name, tmp_path, capsys):
    # solve derives has_right/5, so a right of the person calls the program
    rules, facts, functor = LEFT_RECURSIVE[name]
    right = f"has_right(r, t, a, P, o) :- {functor}(P).\n"
    (tmp_path / "p.rules").write_text(
        RULES_HEADER + rules + right, encoding="utf-8"
    )
    (tmp_path / "p.facts").write_text(facts, encoding="utf-8")
    status = main(["solve", "--kb", str(tmp_path / "p.rules"),
                   "--facts", str(tmp_path / "p.facts"), "--person", "mario",
                   "--source", "s", "--out", str(tmp_path / "out")])
    assert status == 2
    assert capsys.readouterr().err.startswith("error: goal limit 10000 exceeded")


# Searches that end in an error after finding answers (the first two) or
# before (the last): solve returns no proof of them, so it builds none.
FAILED_SEARCHES = {
    "goal-limit": (*LEFT_RECURSIVE["doubling"], GoalLimitError),
    "depth-limit": ("p(X) :- q(X).\np(X) :- p(X).\n", "q(a).\n", "p",
                    DepthLimitError),
    "naf-not-ground": ("p(X) :- q(X).\np(X) :- not(r(X)).\n", "q(a).\n", "p",
                       NafNonGroundError),
}


@pytest.mark.parametrize("name", sorted(FAILED_SEARCHES))
def test_a_failed_search_builds_no_proof_tree(monkeypatch, name):
    rules, facts, functor, error = FAILED_SEARCHES[name]
    kb, case = parse_rules(RULES_HEADER + rules), parse_facts(facts)
    built = []
    build = engine._build_tree
    monkeypatch.setattr(
        engine, "_build_tree", lambda *args: built.append(1) or build(*args)
    )
    with pytest.raises(error):
        solve(Term(functor, (V("G"),)), kb, case)
    assert len(built) == 0


def test_goal_limit_message_cuts_a_long_goal():
    err = GoalLimitError("p(" + "a" * 80 + ")", 10)
    assert str(err) == f"goal limit 10 exceeded at p({'a' * 58}... (83 chars)"


def test_person_must_be_an_atom(eu_kb, mario_facts, tmp_path, capsys):
    with pytest.raises(EngineError) as err:
        derive_rights("Mario", "directive_2010_64", eu_kb, mario_facts)
    assert str(err.value) == "person must be an atom, got 'Mario'"
    rules = fixtures.resource_path("directive_2010_64.rules")
    facts = fixtures.resource_path("mario.facts")
    status = main(["solve", "--kb", str(rules), "--facts", str(facts),
                   "--person", "Mario", "--out", str(tmp_path / "out")])
    assert status == 2
    assert capsys.readouterr().err == (
        "error: person must be an atom, got 'Mario'\n"
    )
    assert not list((tmp_path / "out").iterdir())


def test_rights_bundle_rejects_a_non_ground_primary(eu_kb, mario_facts):
    (bundle,) = derive_rights("mario", "directive_2010_64", eu_kb, mario_facts)
    primary = _fact_tree("has_right", "r", "t", "a", "mario", V("O"))
    with pytest.raises(EngineError) as err:
        engine.RightsBundle(bundle.source, primary)
    assert str(err.value) == "primary proof tree is not ground"
