"""Cross-checks between the resolution engine and the bottom-up oracle."""

from __future__ import annotations

import random
import re

import pytest

from lexplain.engine import NAF, NafNonGroundError, derive_rights, ground_oracle, solve
from lexplain.kb import Term, Variable
from lexplain.trace import TraceNode, extract_terms, render_trace

from conftest import GOAL_PREDICATES, SCHEMA_CONSTANTS, random_fact_set


def _random_goal(rng: random.Random) -> Term:
    functor, arity = rng.choice(GOAL_PREDICATES)
    return Term(
        functor, tuple(rng.choice(SCHEMA_CONSTANTS) for _ in range(arity))
    )


@pytest.mark.parametrize("kb_fixture", ["eu_kb", "pl_kb"])
def test_solve_agrees_with_oracle_on_random_cases(kb_fixture, request):
    kb = request.getfixturevalue(kb_fixture)
    rng = random.Random(f"oracle-{kb_fixture}")
    for _ in range(60):
        facts = random_fact_set(rng)
        atoms = ground_oracle(kb, facts)
        # everything the oracle derives must be provable
        for atom in atoms:
            assert solve(atom, kb, facts), f"oracle-only atom {atom}"
        # random ground goals must agree in both directions
        for _ in range(25):
            goal = _random_goal(rng)
            assert bool(solve(goal, kb, facts)) == (goal in atoms), (
                f"disagreement on {goal} with facts {sorted(map(str, facts.facts))}"
            )


@pytest.mark.parametrize("kb_fixture", ["eu_kb", "pl_kb"])
def test_proofs_replay_against_oracle(
    kb_fixture, request, mario_facts, proof_replayer
):
    kb = request.getfixturevalue(kb_fixture)
    rng = random.Random(f"replay-{kb_fixture}")
    cases = [mario_facts] + [random_fact_set(rng) for _ in range(20)]
    for facts in cases:
        atoms = ground_oracle(kb, facts)
        for atom in atoms:
            for _, tree in solve(atom, kb, facts):
                assert proof_replayer(tree, kb, facts, atoms), (
                    f"proof of {atom} failed replay"
                )


def _atoms_with(atoms, functor: str, position: int, *args: str) -> list[Term]:
    """The functor/5 atoms whose arguments from position on begin with
    args, sorted."""
    return sorted(
        (
            a for a in atoms
            if a.predicate == (functor, 5)
            and a.args[position : position + len(args)] == args
        ),
        key=str,
    )


@pytest.mark.parametrize("kb_fixture", ["eu_kb", "pl_kb"])
def test_derived_rights_and_attachments_agree_with_oracle(kb_fixture, request):
    kb = request.getfixturevalue(kb_fixture)
    (source,) = kb.sources
    rng = random.Random(f"rights-{kb_fixture}")
    cases_with_a_right = 0
    for _ in range(40):
        # Sparser random cases hardly ever derive a right.
        facts = random_fact_set(rng, 150)
        atoms = ground_oracle(kb, facts)
        derived = False
        for person in ("mario", "anna"):
            bundles = derive_rights(person, source.id, kb, facts)
            derived = derived or bool(bundles)
            conclusions = [b.primary.literal.term for b in bundles]
            assert sorted(conclusions, key=str) == _atoms_with(
                atoms, "has_right", 3, person
            )
            for b in bundles:
                for functor, trees in (
                    ("auxiliary_right", b.auxiliaries),
                    ("right_property", b.properties),
                ):
                    attached = [t.literal.term for t in trees]
                    assert sorted(attached, key=str) == _atoms_with(
                        atoms, functor, 1, b.article, person
                    )
        cases_with_a_right += derived
    assert cases_with_a_right >= 8


def test_oracle_monotone_over_naf_free_additions(pl_kb, mario_facts):
    # adding a fact that no negation inspects only grows the fixpoint
    before = ground_oracle(pl_kb, mario_facts)
    bigger = mario_facts.with_fact(Term("person_document", ("anna", "charge")))
    after = ground_oracle(pl_kb, bigger)
    assert before <= after


@pytest.mark.parametrize("kb_fixture", ["eu_kb", "pl_kb"])
def test_naf_free_conclusions_survive_fact_additions(kb_fixture, request):
    # monotonicity breaks only through negation: a conclusion whose proof
    # uses no NAF node can never be lost by learning one more fact
    kb = request.getfixturevalue(kb_fixture)
    rng = random.Random(f"monotone-{kb_fixture}")
    for _ in range(25):
        facts = random_fact_set(rng, max_atoms=8)
        atoms = ground_oracle(kb, facts)
        naf_free = [
            atom
            for atom in atoms
            if any(
                not any(n.kind == NAF for _, n in t.nodes())
                for _, t in solve(atom, kb, facts)
            )
        ]
        extra = random_fact_set(rng, max_atoms=3)
        grown = facts
        for atom in extra.facts:
            grown = grown.with_fact(atom)
        for atom in naf_free:
            assert solve(atom, kb, grown), (
                f"NAF-free conclusion {atom} lost after adding "
                f"{sorted(map(str, extra.facts))}"
            )


def _assert_checked_equal(term: Term) -> None:
    """The engine builds terms without the constructor's checks; the
    checked constructor must accept the same parts and give an equal,
    equally hashed term."""
    rebuilt = Term(term.functor, term.args)
    assert rebuilt == term and hash(rebuilt) == hash(term)
    for arg in term.args:
        if isinstance(arg, Variable) and arg.name.startswith("_"):
            # a renamed clause variable: _{tag}_{clause variable name}
            assert re.fullmatch(r"_[1-9][0-9]*_[A-Z][A-Za-z0-9_]*", arg.name)
        elif isinstance(arg, Variable):
            assert Variable(arg.name) == arg


@pytest.mark.parametrize("kb_fixture", ["eu_kb", "pl_kb"])
def test_trusted_terms_and_nodes_equal_checked_ones(
    kb_fixture, request, mario_facts
):
    kb = request.getfixturevalue(kb_fixture)
    (source,) = kb.sources
    rng = random.Random(f"rights-{kb_fixture}")
    cases = [mario_facts] + [random_fact_set(rng, 150) for _ in range(40)]
    free_goals = [
        Term(f, tuple(Variable(f"V{i}") for i in range(n)))
        for f, n in GOAL_PREDICATES
    ]
    for facts in cases:
        for person in ("mario", "anna"):
            for bundle in derive_rights(person, source.id, kb, facts):
                for tree in (
                    bundle.primary, *bundle.auxiliaries, *bundle.properties
                ):
                    for _, node in tree.nodes():
                        _assert_checked_equal(node.literal.term)
                for node in extract_terms(render_trace(bundle, kb)):
                    assert TraceNode(node.term, node.kind, node.depth) == node
        # free goals leave renamed variables in some answers
        for goal in free_goals:
            try:
                results = solve(goal, kb, facts)
            except NafNonGroundError:
                continue
            for _, tree in results:
                for _, node in tree.nodes():
                    _assert_checked_equal(node.literal.term)
