"""Shared fixtures: the packaged legal sources, the mario case, golden
traces, reference outputs, an independent proof-tree replay checker, and a
random trace-bundle generator."""

from __future__ import annotations

import random
import string

import pytest

from lexplain import fixtures
from lexplain.engine import FACT, NAF, RULE, ProofTree
from lexplain.kb import (
    PREDICATE_SCHEMA,
    CaseFacts,
    KnowledgeBase,
    Term,
    Variable,
)
from lexplain.trace import TraceBundle, TraceNode, TraceSection, parse_trace


@pytest.fixture(scope="session")
def eu_kb() -> KnowledgeBase:
    return fixtures.eu_kb()


@pytest.fixture(scope="session")
def pl_kb() -> KnowledgeBase:
    return fixtures.pl_kb()


@pytest.fixture(scope="session")
def mario_facts() -> CaseFacts:
    return fixtures.mario_facts()


@pytest.fixture(scope="session")
def listing1_text() -> str:
    return fixtures.listing1_trace()


@pytest.fixture(scope="session")
def listing2_text() -> str:
    return fixtures.listing2_trace()


@pytest.fixture(scope="session")
def listing1_doc(listing1_text):
    return parse_trace(listing1_text)


@pytest.fixture(scope="session")
def listing2_doc(listing2_text):
    return parse_trace(listing2_text)


@pytest.fixture(scope="session")
def eu_output() -> str:
    return fixtures.translation_output_eu()


@pytest.fixture(scope="session")
def pl_output() -> str:
    return fixtures.translation_output_pl()


@pytest.fixture(scope="session")
def comparison_text() -> str:
    return fixtures.comparison_output()


# --- independent proof replay -------------------------------------------------
#
# Deliberately re-implements matching instead of importing the engine's
# unifier, so proof soundness is checked by a second route.


def _match(pattern: Term, ground: Term, bindings: dict) -> dict | None:
    if pattern.functor != ground.functor or pattern.arity != ground.arity:
        return None
    out = dict(bindings)
    for p, g in zip(pattern.args, ground.args):
        if isinstance(p, Variable):
            if p.name in out:
                if out[p.name] != g:
                    return None
            else:
                out[p.name] = g
        elif p != g:
            return None
    return out


def replay_proof(
    tree: ProofTree,
    kb: KnowledgeBase,
    facts: CaseFacts,
    oracle_atoms: frozenset[Term],
) -> bool:
    """Bottom-up validation: FACT nodes are case facts, NAF nodes are absent
    from the oracle fixpoint, RULE nodes instantiate a clause of the named
    article whose body lines up with the children."""
    term = tree.literal.term
    if tree.kind == FACT:
        return (
            not tree.literal.negated
            and not tree.children
            and term in facts.facts
        )
    if tree.kind == NAF:
        return (
            tree.literal.negated
            and not tree.children
            and term not in oracle_atoms
        )
    if tree.kind != RULE or tree.literal.negated:
        return False
    for clause in kb.clauses:
        if clause.article != tree.article:
            continue
        bindings = _match(clause.head, term, {})
        if bindings is None or len(clause.body) != len(tree.children):
            continue
        consistent = True
        for literal, child in zip(clause.body, tree.children):
            if literal.negated != child.literal.negated:
                consistent = False
                break
            bindings = _match(literal.term, child.literal.term, bindings)
            if bindings is None:
                consistent = False
                break
        if consistent and all(
            replay_proof(child, kb, facts, oracle_atoms)
            for child in tree.children
        ):
            return True
    return False


@pytest.fixture(scope="session")
def proof_replayer():
    return replay_proof


# --- randomized fact sets over the schema --------------------------------------

FACT_PREDICATES = (
    ("proceeding_language", 2),
    ("person_understands", 2),
    ("person_document", 2),
    ("proceeding_event", 2),
    ("essential_document", 3),
)

# ground-goal shapes for engine/oracle agreement checks
GOAL_PREDICATES = tuple(PREDICATE_SCHEMA)

SCHEMA_CONSTANTS = (
    "mario",
    "anna",
    "polish",
    "english",
    "charge",
    "passport",
    "translation_needed",
    "prejudice_fairness",
    "documents",
    "hearing",
)


def random_fact_set(rng: random.Random, max_atoms: int = 12) -> CaseFacts:
    atoms = set()
    for _ in range(rng.randint(0, max_atoms)):
        functor, arity = rng.choice(FACT_PREDICATES)
        args = tuple(rng.choice(SCHEMA_CONSTANTS) for _ in range(arity))
        atoms.add(Term(functor, args))
    return CaseFacts(frozenset(atoms))


# --- random trace bundles -------------------------------------------------------


def _ident(rng: random.Random) -> str:
    while True:
        head = rng.choice(string.ascii_lowercase)
        tail = "".join(
            rng.choice(string.ascii_lowercase + string.digits + "_")
            for _ in range(rng.randint(0, 7))
        )
        name = head + tail
        if name != "not":
            return name


def _term_text(rng: random.Random) -> str:
    functor = _ident(rng)
    nargs = rng.randint(0, 4)
    if nargs == 0:
        return functor
    return f"{functor}({', '.join(_ident(rng) for _ in range(nargs))})"


def _node(
    rng: random.Random, depth: int, max_depth: int
) -> tuple[TraceNode, ...]:
    """A random subtree's lines in document order. A RULE node's term is
    drawn after its subtree's: keep this draw order, or each seed gives
    another document."""
    if depth >= max_depth:
        kind = rng.choice((FACT, NAF, RULE))
    else:
        kind = rng.choice((RULE, RULE, FACT, NAF))
    if kind == NAF:
        return (TraceNode(f"not({_term_text(rng)})", NAF, depth),)
    if kind == FACT:
        return (TraceNode(_term_text(rng), FACT, depth),)
    children = tuple(
        node
        for _ in range(rng.randint(0, 3) if depth < max_depth else 0)
        for node in _node(rng, depth + 1, max_depth)
    )
    return (TraceNode(_term_text(rng), RULE, depth), *children)


def _tree(
    rng: random.Random, max_depth: int, max_children: int
) -> tuple[TraceNode, ...]:
    root = TraceNode(_term_text(rng), RULE, 0)
    children = [
        node
        for _ in range(rng.randint(0, max_children))
        for node in _node(rng, 1, max_depth)
    ]
    return (root, *children)


def _title(rng: random.Random) -> str:
    words = [
        "".join(
            rng.choice(string.ascii_letters + string.digits + ".")
            for _ in range(rng.randint(1, 9))
        )
        for _ in range(rng.randint(1, 4))
    ]
    return " ".join(words)


def _section(rng: random.Random) -> TraceSection:
    tree = _tree(rng, 3, 2)
    return TraceSection(
        article=_ident(rng),
        right_type=_ident(rng),
        value=_ident(rng),
        title=_title(rng),
        tree=tree,
    )


def random_bundle(rng: random.Random) -> TraceBundle:
    explanation = _tree(rng, 4, 3)
    return TraceBundle(
        source_id=_ident(rng),
        article=_ident(rng),
        title=_title(rng),
        option=_ident(rng),
        explanation=explanation,
        auxiliaries=tuple(_section(rng) for _ in range(rng.randint(0, 2))),
        properties=tuple(_section(rng) for _ in range(rng.randint(0, 2))),
    )
