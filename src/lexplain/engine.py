"""SLD resolution with negation as failure, producing proof trees.

The solver is deterministic: facts are tried in canonical order, clauses in
textual order, body literals left to right. ``ground_oracle`` computes the
same semantics bottom-up (stratified least fixpoint) and exists purely as an
independent cross-check on the resolution engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

from .kb import (
    CaseFacts,
    Clause,
    KnowledgeBase,
    LegalSource,
    Literal,
    Term,
    Variable,
    format_literal,
    format_term,
    is_identifier,
)

RULE = "RULE"
FACT = "FACT"
NAF = "NAF"

DEPTH_LIMIT = 64

_Value = Union[str, Variable]
_Bindings = Mapping[str, _Value]


class EngineError(Exception):
    """Base class for solver failures that are errors, not mere non-proof."""


class NafNonGroundError(EngineError):
    """Negation reached with unbound variables in the subgoal."""

    def __init__(self, literal: Literal):
        self.literal = literal
        super().__init__(
            f"negation-as-failure subgoal is not ground: {format_literal(literal)}"
        )


class DepthLimitError(EngineError):
    """A derivation exceeded the rule-application depth limit."""

    def __init__(self, goal: str, limit: int):
        self.goal = goal
        self.limit = limit
        super().__init__(f"depth limit {limit} exceeded while proving {goal}")


class UnknownSourceError(EngineError):
    def __init__(self, source_id: str):
        self.source_id = source_id
        super().__init__(f"unknown legal source: {source_id}")


@dataclass(frozen=True)
class Substitution:
    """Answer bindings, restricted to the query's own variables."""

    bindings: dict[str, str] = field(default_factory=dict)

    def __getitem__(self, name: str) -> str:
        return self.bindings[name]

    def get(self, name: str, default: str | None = None) -> str | None:
        return self.bindings.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def __len__(self) -> int:
        return len(self.bindings)


@dataclass(frozen=True)
class ProofTree:
    """One derivation step: the proved literal and how it was justified.

    kind is RULE (children mirror the applied clause's body, in order),
    FACT (leaf, positive literal present in the case facts), or NAF
    (leaf, negated literal whose subgoal has no proof).
    """

    literal: Literal
    kind: str
    article: str | None
    children: tuple["ProofTree", ...] = ()

    def validate(self, facts: CaseFacts | None = None) -> None:
        if self.kind == FACT:
            if self.children:
                raise EngineError("FACT node with children")
            if self.literal.negated:
                raise EngineError("FACT node with a negated literal")
            if facts is not None and self.literal.term not in facts:
                raise EngineError(
                    f"FACT node not among case facts: {self.literal}"
                )
        elif self.kind == NAF:
            if self.children:
                raise EngineError("NAF node with children")
            if not self.literal.negated:
                raise EngineError("NAF node with a positive literal")
        elif self.kind == RULE:
            if self.article is None:
                raise EngineError("RULE node without an article id")
            if self.literal.negated:
                raise EngineError("RULE node with a negated literal")
        else:
            raise EngineError(f"unknown node kind: {self.kind!r}")
        for child in self.children:
            child.validate(facts)

    @property
    def is_ground(self) -> bool:
        return self.literal.term.is_ground and all(
            c.is_ground for c in self.children
        )

    @property
    def has_naf(self) -> bool:
        return self.kind == NAF or any(c.has_naf for c in self.children)

    def nodes(self) -> Iterator["ProofTree"]:
        yield self
        for child in self.children:
            yield from child.nodes()


@dataclass(frozen=True)
class RightsBundle:
    """A primary right proof plus the auxiliary/property proofs attached
    to the same person, source, and primary article."""

    source: LegalSource
    primary: ProofTree
    option: str
    auxiliaries: tuple[ProofTree, ...] = ()
    properties: tuple[ProofTree, ...] = ()

    def __post_init__(self):
        root = self.primary.literal.term
        if root.predicate != ("has_right", 5):
            raise EngineError(
                f"primary proof must conclude has_right/5, got {root}"
            )
        if not self.primary.is_ground:
            raise EngineError("primary proof tree is not ground")
        if root.args[4] != self.option:
            raise EngineError("option does not match the primary conclusion")
        for tree, functor in itertools.chain(
            ((t, "auxiliary_right") for t in self.auxiliaries),
            ((t, "right_property") for t in self.properties),
        ):
            attached = tree.literal.term
            if attached.predicate != (functor, 5):
                raise EngineError(
                    f"attachment must conclude {functor}/5, got {attached}"
                )
            if attached.args[1] != self.article:
                raise EngineError(
                    f"{attached} is not attached to primary article "
                    f"{self.article}"
                )
            if not tree.is_ground:
                raise EngineError(f"attachment proof not ground: {attached}")

    @property
    def article(self) -> str:
        return self.primary.literal.term.args[2]  # type: ignore[return-value]

    @property
    def person(self) -> str:
        return self.primary.literal.term.args[3]  # type: ignore[return-value]


# --- unification over the function-free fragment ---------------------------


def _walk(value: _Value, bindings: _Bindings) -> _Value:
    while isinstance(value, Variable):
        bound = bindings.get(value.name)
        if bound is None:
            return value
        value = bound
    return value


def _unify_args(a: _Value, b: _Value, bindings: dict) -> dict | None:
    a = _walk(a, bindings)
    b = _walk(b, bindings)
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


def _unify_terms(goal: Term, head: Term, bindings: dict) -> dict | None:
    if goal.functor != head.functor or goal.arity != head.arity:
        return None
    current: dict | None = bindings
    for a, b in zip(goal.args, head.args):
        current = _unify_args(a, b, current)
        if current is None:
            return None
    return current


def _resolve_term(term: Term, bindings: _Bindings) -> Term:
    return Term(term.functor, tuple(_walk(a, bindings) for a in term.args))


def _resolve_tree(tree: ProofTree, bindings: _Bindings) -> ProofTree:
    literal = Literal(
        _resolve_term(tree.literal.term, bindings), tree.literal.negated
    )
    children = tuple(_resolve_tree(c, bindings) for c in tree.children)
    return ProofTree(literal, tree.kind, tree.article, children)


class _Context:
    def __init__(self, kb: KnowledgeBase, facts: CaseFacts):
        self.kb = kb
        self.facts = facts
        self._fresh = 0

    def rename(self, clause: Clause) -> tuple[Term, tuple[Literal, ...]]:
        self._fresh += 1
        tag = self._fresh

        def rn(term: Term) -> Term:
            return Term(
                term.functor,
                tuple(
                    Variable(f"_{tag}_{a.name}")
                    if isinstance(a, Variable)
                    else a
                    for a in term.args
                ),
            )

        head = rn(clause.head)
        body = tuple(Literal(rn(l.term), l.negated) for l in clause.body)
        return head, body


def _solve_term(
    goal: Term, bindings: dict, ctx: _Context, depth: int
) -> Iterator[tuple[dict, ProofTree]]:
    target = _resolve_term(goal, bindings)
    for fact in ctx.facts.ordered:
        unified = _unify_terms(target, fact, bindings)
        if unified is not None:
            yield unified, ProofTree(Literal(fact), FACT, None)
    for clause in ctx.kb.clauses:
        head, body = ctx.rename(clause)
        unified = _unify_terms(target, head, bindings)
        if unified is None:
            continue
        if depth + 1 > DEPTH_LIMIT:
            raise DepthLimitError(
                format_term(_resolve_term(target, unified)), DEPTH_LIMIT
            )
        for final, children in _solve_body(body, unified, ctx, depth + 1):
            yield final, ProofTree(
                Literal(target), RULE, clause.article, tuple(children)
            )


def _solve_literal(
    literal: Literal, bindings: dict, ctx: _Context, depth: int
) -> Iterator[tuple[dict, ProofTree]]:
    if not literal.negated:
        yield from _solve_term(literal.term, bindings, ctx, depth)
        return
    subgoal = _resolve_term(literal.term, bindings)
    if not subgoal.is_ground:
        raise NafNonGroundError(Literal(subgoal, negated=True))
    for _ in _solve_term(subgoal, {}, ctx, depth):
        return  # subgoal provable: negation fails
    yield bindings, ProofTree(Literal(subgoal, negated=True), NAF, None)


def _solve_body(
    body: tuple[Literal, ...], bindings: dict, ctx: _Context, depth: int
) -> Iterator[tuple[dict, list[ProofTree]]]:
    if not body:
        yield bindings, []
        return
    first, rest = body[0], body[1:]
    for mid, tree in _solve_literal(first, bindings, ctx, depth):
        for final, trees in _solve_body(rest, mid, ctx, depth):
            yield final, [tree] + trees


def solve(
    goal: Term, kb: KnowledgeBase, facts: CaseFacts
) -> list[tuple[Substitution, ProofTree]]:
    """Prove a goal, returning one (answer, proof tree) per derivation.

    Results are in deterministic order: facts in canonical order first,
    then clauses in textual order, body literals left to right. Raises
    NafNonGroundError if negation is reached with unbound variables and
    DepthLimitError past ``DEPTH_LIMIT`` rule applications.
    """
    ctx = _Context(kb, facts)
    results: list[tuple[Substitution, ProofTree]] = []
    for bindings, tree in _solve_term(goal, {}, ctx, 0):
        answer: dict[str, str] = {}
        for name in sorted(goal.variables()):
            value = _walk(Variable(name), bindings)
            if isinstance(value, str):
                answer[name] = value
        results.append((Substitution(answer), _resolve_tree(tree, bindings)))
    return results


def _first_proofs(
    goal: Term, kb: KnowledgeBase, facts: CaseFacts
) -> tuple[ProofTree, ...]:
    """The first proof of each distinct conclusion of goal, in solve order."""
    first: dict[Term, ProofTree] = {}
    for _, tree in solve(goal, kb, facts):
        first.setdefault(tree.literal.term, tree)
    return tuple(first.values())


def _attachments(
    functor: str,
    article: str,
    person: str,
    kb: KnowledgeBase,
    facts: CaseFacts,
) -> tuple[ProofTree, ...]:
    goal = Term(
        functor,
        (Variable("A"), article, person, Variable("K"), Variable("V")),
    )
    return _first_proofs(goal, kb, facts)


def derive_rights(
    person: str, source_id: str, kb: KnowledgeBase, facts: CaseFacts
) -> list[RightsBundle]:
    """Derive every primary right of a person under one legal source,
    bundling the auxiliary rights and right properties attached to it."""
    if not is_identifier(person):
        raise EngineError(f"person must be an atom, got {person!r}")
    source = next((s for s in kb.sources if s.id == source_id), None)
    if source is None:
        raise UnknownSourceError(source_id)
    scoped = kb.restricted_to(source_id)
    goal = Term(
        "has_right",
        (
            Variable("Right"),
            Variable("Tag"),
            Variable("Article"),
            person,
            Variable("Option"),
        ),
    )
    bundles: list[RightsBundle] = []
    for tree in _first_proofs(goal, scoped, facts):
        conclusion = tree.literal.term
        article = conclusion.args[2]
        option = conclusion.args[4]
        if not isinstance(article, str) or not isinstance(option, str):
            raise EngineError(f"non-ground primary conclusion: {conclusion}")
        bundles.append(
            RightsBundle(
                source=source,
                primary=tree,
                option=option,
                auxiliaries=_attachments(
                    "auxiliary_right", article, person, scoped, facts
                ),
                properties=_attachments(
                    "right_property", article, person, scoped, facts
                ),
            )
        )
    return bundles


# --- bottom-up oracle -------------------------------------------------------


def _match_ground(pattern: Term, atom: Term, bindings: dict) -> dict | None:
    if pattern.functor != atom.functor or pattern.arity != atom.arity:
        return None
    current = bindings
    for p, a in zip(pattern.args, atom.args):
        if isinstance(p, Variable):
            bound = current.get(p.name)
            if bound is None:
                current = dict(current)
                current[p.name] = a
            elif bound != a:
                return None
        elif p != a:
            return None
    return current


def _apply_ground(term: Term, bindings: dict) -> Term:
    return Term(
        term.functor,
        tuple(
            bindings[a.name] if isinstance(a, Variable) else a
            for a in term.args
        ),
    )


def _clause_firings(
    clause: Clause,
    by_predicate: dict[tuple[str, int], list[Term]],
    derived: set[Term],
    universe: list[str],
) -> list[dict]:
    partial: list[dict] = [{}]
    for literal in clause.body:
        if literal.negated:
            continue
        candidates = by_predicate.get(literal.term.predicate, [])
        joined: list[dict] = []
        for bindings in partial:
            for atom in candidates:
                matched = _match_ground(literal.term, atom, bindings)
                if matched is not None:
                    joined.append(matched)
        partial = joined
        if not partial:
            return []
    negated = [l.term for l in clause.body if l.negated]
    all_vars = sorted(clause.variables())
    firings: list[dict] = []
    for bindings in partial:
        free = [v for v in all_vars if v not in bindings]
        for combo in itertools.product(universe, repeat=len(free)):
            full = dict(bindings)
            full.update(zip(free, combo))
            if all(_apply_ground(t, full) not in derived for t in negated):
                firings.append(full)
    return firings


def ground_oracle(kb: KnowledgeBase, facts: CaseFacts) -> frozenset[Term]:
    """Stratified least fixpoint by naive bottom-up iteration.

    Independent of ``solve`` by construction; used to cross-check it. The
    Herbrand base is finite because the fragment is function-free.
    """
    strata = kb.strata
    universe = sorted(kb.constants() | facts.constants())
    derived: set[Term] = set(facts.facts)
    by_predicate: dict[tuple[str, int], list[Term]] = {}
    for atom in sorted(derived, key=format_term):
        by_predicate.setdefault(atom.predicate, []).append(atom)

    levels = sorted({strata[c.head.predicate] for c in kb.clauses})
    for level in levels:
        clauses = [c for c in kb.clauses if strata[c.head.predicate] == level]
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                for bindings in _clause_firings(
                    clause, by_predicate, derived, universe
                ):
                    head = _apply_ground(clause.head, bindings)
                    if head not in derived:
                        derived.add(head)
                        by_predicate.setdefault(head.predicate, []).append(
                            head
                        )
                        changed = True
    return frozenset(derived)
