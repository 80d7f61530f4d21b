"""Shared fixtures: the packaged legal sources, the mario case, golden
traces, reference outputs, an independent proof-tree replay checker, and a
random trace-bundle generator."""

from __future__ import annotations

import random
import re
import string

import pytest
from hypothesis import strategies as st

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


# --- reference term parser ------------------------------------------------------

_REFERENCE_ATOM = r"[a-z][A-Za-z0-9_]*"
_REFERENCE_ATOM_RE = re.compile(_REFERENCE_ATOM)
_REFERENCE_SPACE = " \t\n\r"
_REFERENCE_FLAT = (
    rf"{_REFERENCE_ATOM}(?:\({_REFERENCE_ATOM}(?:, {_REFERENCE_ATOM})*\))?"
)
# Canonical text of a flat term, bare or negated: the function-free fragment
# of what the reference parser reads.
REFERENCE_FLAT_RE = re.compile(rf"{_REFERENCE_FLAT}|not\({_REFERENCE_FLAT}\)")


def reference_parse_term_cached(text, pos, memo):
    """The explicit-stack term parser that read every term before the flat
    fast path, kept as the reference for it."""
    if pos in memo:
        return memo[pos]
    match = _REFERENCE_ATOM_RE.match(text, pos)
    if not match:
        return None
    cursor = match.end()
    if cursor >= len(text) or text[cursor] != "(":
        return None
    cursor += 1
    stack = [(pos, match.group(0), [])]
    while True:
        while cursor < len(text) and text[cursor] in _REFERENCE_SPACE:
            cursor += 1
        match = _REFERENCE_ATOM_RE.match(text, cursor)
        if not match:
            break
        cursor = match.end()
        if cursor < len(text) and text[cursor] == "(":
            stack.append((match.start(), match.group(0), []))
            cursor += 1
            continue
        arg = match.group(0)
        while True:
            stack[-1][2].append(arg)
            while cursor < len(text) and text[cursor] in _REFERENCE_SPACE:
                cursor += 1
            delimiter = text[cursor : cursor + 1]
            cursor += 1
            if delimiter != ")":
                break
            start, functor, args = stack.pop()
            arg = f"{functor}({', '.join(args)})"
            memo[start] = (arg, cursor)
            if not stack:
                return memo[start]
        if delimiter != ",":
            break
    for start, _, _ in stack:
        memo[start] = None
    return None


# Parts of near-flat terms: atoms, and words and blanks that are not.
_LONG = "x" * 300_000
# Rules files with one 300 KB value that a diagnostic quotes.
LONG_DSL_VALUES = {
    "source-id": "%% source: 1" + _LONG,
    "article-id": "%% source: s\n%% article: 1" + _LONG,
    "unknown-key": f"%% k{_LONG}: v",
    "word-for-comma": f"%% source: s\n%% article: a1\n%% title: T\np(a {_LONG}).\n",
    "jurisdiction": f"%% source: s{_LONG}\n%% jurisdiction: a\n%% jurisdiction: b\n",
}
# Rules files and a facts file, one of them with a 300 KB value that a
# diagnostic of the facts reader or of the knowledge base quotes.
_HEAD = "%% source: s\n%% article: a\n%% title: T\n"
LONG_KB_VALUES = {
    "non-ground-fact": ([""], f"p(a{_LONG}, X).\n"),
    "unsafe-negation": ([_HEAD + f"p(X) :- q(X, a{_LONG}), not(r(Y)).\n"], ""),
    "conflicting-titles": (
        [f"%% source: s\n%% article: a\n%% title: T{_LONG}\np.\n%% title: U\nq.\n"],
        "",
    ),
    "conflicting-labels": (
        [f"%% source: s{_LONG}\n%% jurisdiction: {label}\n%% article: a\n"
         "%% title: T\np.\n" for label in "ab"],
        "",
    ),
}

NEAR_ATOMS = ("a", "b1", "cD_2", "not", "X", "Y1", "\xe9", "7", "")
NEAR_BLANKS = ("", "", "", " ", " ", "\t", "\r", "\n", "\f", "\v", "\xa0")


@st.composite
def near_flat_terms(draw):
    """Term-like text near the flat fragment: a functor over atoms, with
    blanks between tokens, now and then a nested or negated term, an
    uppercase argument, a bad character or no arguments at all."""

    def atom():
        return draw(st.sampled_from(NEAR_ATOMS))

    def blank():
        return draw(st.sampled_from(NEAR_BLANKS))

    text = atom()
    if draw(st.booleans()):
        args = []
        for _ in range(draw(st.integers(0, 4))):
            arg = atom()
            if draw(st.integers(0, 5)) == 0:
                arg += f"({atom()})"
            args.append(blank() + arg + blank())
        text += blank() + "(" + ",".join(args) + ")"
    if draw(st.integers(0, 3)) == 0:
        text = f"not({text})"
    return text


@st.composite
def nested_text(draw, max_depth):
    """Text around a term nested up to max_depth deep, often unbalanced."""
    depth = draw(st.integers(0, max_depth))
    opener = draw(st.sampled_from(["f(", "not(", "g_1( ", "f(a, ", "F("]))
    core = draw(st.sampled_from(["a", "", "X", "b , c", "h(a)"]))
    closer = draw(st.sampled_from([")", " )", ", b)", ",", "]"]))
    closes = max(0, depth + draw(st.integers(-2, 2)))
    return (
        draw(st.text(max_size=4))
        + opener * depth
        + core
        + closer * closes
        + draw(st.text(max_size=4))
    )
