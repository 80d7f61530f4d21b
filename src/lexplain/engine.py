"""SLD resolution with negation as failure, producing proof trees.

The solver is deterministic: facts are tried in canonical order, clauses in
textual order, body literals left to right. Each goal looks up only the
facts and clauses that can match it (by predicate, and facts also by a
constant first argument), which leaves that order unchanged. Nothing of a
clause is built until its head matches the goal; then each body literal is
built when the search enters it, renamed apart as ``_<n>_<Name>``, where
``n`` counts the candidate clauses tried.
``ground_oracle`` computes the same semantics bottom-up (stratified least
fixpoint) and exists purely as an independent cross-check on the
resolution engine.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Union

from .kb import (
    CaseFacts,
    Clause,
    KnowledgeBase,
    LegalSource,
    Literal,
    Term,
    Variable,
    _Record,
    _excerpt,
    _trusted_term,
    _trusted_variable,
    format_literal,
    format_term,
    is_identifier,
)

RULE = "RULE"
FACT = "FACT"
NAF = "NAF"

DEPTH_LIMIT = 64
GOAL_LIMIT = 10_000

_Value = Union[str, Variable]
_Bindings = Mapping[str, _Value]
_Node = tuple  # (term, kind, article, children): a proof node not yet built


class EngineError(Exception):
    """Base class for solver failures that are errors, not mere non-proof."""


class NafNonGroundError(EngineError):
    """Negation reached with unbound variables in the subgoal."""

    def __init__(self, literal: Literal):
        self.literal = literal
        super().__init__(
            "negation-as-failure subgoal is not ground: "
            f"{_excerpt(format_literal(literal), str)}"
        )


class DepthLimitError(EngineError):
    """A derivation exceeded the rule-application depth limit."""

    def __init__(self, goal: str, limit: int):
        self.goal, self.limit = goal, limit
        super().__init__(
            f"depth limit {limit} exceeded while proving {_excerpt(goal, str)}"
        )


class GoalLimitError(EngineError):
    """A solve call entered more goals than its goal limit."""

    def __init__(self, goal: str, limit: int):
        self.goal, self.limit = goal, limit
        super().__init__(f"goal limit {limit} exceeded at {_excerpt(goal, str)}")


class UnknownSourceError(EngineError):
    def __init__(self, source_id: str):
        self.source_id = source_id
        super().__init__(f"unknown legal source: {_excerpt(source_id, str)}")


class ProofTree(_Record):
    """One derivation step: the proved literal and how it was justified.

    kind is RULE (children mirror the applied clause's body, in order),
    FACT (leaf, positive literal present in the case facts), or NAF
    (leaf, negated literal whose subgoal has no proof). Each node checks
    this when it is built, so a tree that exists has this shape throughout.
    """

    def __init__(self, literal: Literal, kind: str, article: str | None,
                 children: tuple["ProofTree", ...] = ()):
        object.__setattr__(self, "literal", literal)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "article", article)
        object.__setattr__(self, "children", children)
        if kind == RULE:
            if article is None:
                raise EngineError("RULE node without an article id")
            if literal.negated:
                raise EngineError("RULE node with a negated literal")
        elif kind == FACT or kind == NAF:
            if children:
                raise EngineError(f"{kind} node with children")
            if literal.negated != (kind == NAF):
                wrong = "positive" if kind == NAF else "negated"
                raise EngineError(f"{kind} node with a {wrong} literal")
        else:
            raise EngineError(f"unknown node kind: {kind!r}")
        ground = literal.term.is_ground and all(c._ground for c in children)
        object.__setattr__(self, "_ground", ground)

    @property
    def is_ground(self) -> bool:
        return self._ground  # type: ignore[attr-defined]

    def nodes(self) -> Iterator[tuple[int, "ProofTree"]]:
        """Every node with its depth below this one, in pre-order."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            stack.extend((depth + 1, c) for c in reversed(node.children))


class RightsBundle(_Record):
    """A primary right proof plus the auxiliary/property proofs attached
    to the same person, source, and primary article."""

    def __init__(self, source: LegalSource, primary: ProofTree,
                 auxiliaries: tuple[ProofTree, ...] = (),
                 properties: tuple[ProofTree, ...] = ()):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "primary", primary)
        object.__setattr__(self, "auxiliaries", auxiliaries)
        object.__setattr__(self, "properties", properties)
        root = primary.literal.term
        if root.predicate != ("has_right", 5):
            raise EngineError(
                f"primary proof must conclude has_right/5, got {root}"
            )
        if not primary.is_ground:
            raise EngineError("primary proof tree is not ground")
        for tree, functor in itertools.chain(
            ((t, "auxiliary_right") for t in auxiliaries),
            ((t, "right_property") for t in properties),
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
    def option(self) -> str:
        return self.primary.literal.term.args[4]  # type: ignore[return-value]


# --- unification over the function-free fragment ---------------------------


def _walk(value: _Value, bindings: _Bindings) -> _Value:
    while isinstance(value, Variable):
        bound = bindings.get(value.name)
        if bound is None:
            return value
        value = bound
    return value


def _resolve_term(term: Term, bindings: _Bindings) -> Term:
    # bindings map names to arguments of checked terms
    args = tuple([_walk(a, bindings) for a in term.args])
    return _trusted_term(term.functor, args)


def _build_tree(node: _Node, bindings: _Bindings) -> ProofTree:
    """The one builder of proof trees: a kept node with its RULE terms
    resolved through the answer's bindings (FACT and NAF terms are ground)."""
    term, kind, article, children = node
    if kind == RULE:
        term = _resolve_term(term, bindings)
    built = tuple(map(_build_tree, children, itertools.repeat(bindings)))
    return ProofTree(Literal(term, kind == NAF), kind, article, built)


def _match_head(
    target: Term, head: Term, bindings: dict, tag: int
) -> tuple[dict, dict] | None:
    """Unify the resolved target with head renamed apart by tag, without
    renaming it: (clause variable values, extended bindings), or None.

    A clause variable missing from values is still the fresh _<tag>_<Name>.
    A goal variable met against one is bound to it, as unifying with the
    renamed head would. Only goal and fresh variables get bound, and
    neither is bound in bindings, so local holds every new binding. A
    ground head, such as a fact, makes no fresh variable and ignores tag.
    """
    values: dict[str, _Value] = {}
    local: dict[str, _Value] = {}
    for a, h in zip(target.args, head.args):
        a = _walk(a, local)
        if isinstance(h, Variable):
            value = values.get(h.name)
            if value is None:
                if isinstance(a, Variable):
                    local[a.name] = _trusted_variable(f"_{tag}_{h.name}")
                    a = local[a.name]
                values[h.name] = a
                continue
            h = _walk(value, local)
        if isinstance(a, Variable):
            if not (isinstance(h, Variable) and a.name == h.name):
                local[a.name] = h
        elif isinstance(h, Variable):
            local[h.name] = a
        elif a != h:
            return None
    return values, {**bindings, **local} if local else bindings


class _Context:
    def __init__(self, kb: KnowledgeBase, facts: CaseFacts):
        self.kb = kb
        self.facts = facts
        self.tried = 0  # candidate clauses, matched or not; tags renames
        self.goals = 0  # goals entered, NAF subgoals included


def _solve_term(
    target: Term, bindings: dict, ctx: _Context, depth: int
) -> Iterator[tuple[dict, _Node]]:
    """Prove target, a goal already resolved through bindings."""
    ctx.goals += 1
    if ctx.goals > GOAL_LIMIT:
        raise GoalLimitError(format_term(target), GOAL_LIMIT)
    for fact in ctx.facts.candidates(target):
        matched = _match_head(target, fact, bindings, 0)
        if matched is not None:
            yield matched[1], (fact, FACT, None, ())
    for clause in ctx.kb.clauses_for(target.predicate):
        ctx.tried += 1
        tag = ctx.tried
        matched = _match_head(target, clause.head, bindings, tag)
        if matched is None:
            continue
        values, unified = matched
        if depth + 1 > DEPTH_LIMIT:
            raise DepthLimitError(
                format_term(_resolve_term(target, unified)), DEPTH_LIMIT
            )
        body = clause.body
        if not body:
            yield unified, (target, RULE, clause.article, ())
            continue
        # one open iterator per body literal entered, each read by a for
        # loop, so a body of any length fits in a bounded Python stack and a
        # proof level costs one frame (next() would cost two on Python 3.10)
        iterators = [_enter(body[0], values, tag, unified, ctx, depth + 1)]
        proofs: list[_Node] = []  # one per literal before the last iterator's
        while iterators:
            for final, node in iterators[-1]:
                del proofs[len(iterators) - 1 :]
                if len(iterators) == len(body):
                    children = (*proofs, node)
                    yield final, (target, RULE, clause.article, children)
                else:
                    proofs.append(node)
                    iterators.append(_enter(body[len(iterators)], values, tag,
                                            final, ctx, depth + 1))
                    break
            else:
                iterators.pop()


def _enter(literal: Literal, values: dict, tag: int, bindings: dict,
           ctx: _Context, depth: int) -> Iterator[tuple[dict, _Node]]:
    """The answers to a body literal of the clause tagged tag, built as the
    search enters it. A clause variable the head left unbound is the fresh
    ``_<tag>_<Name>``, made and stored in values when first met, and the
    goal is resolved through bindings. A negated literal is answered here:
    negation as failure on its ground subgoal."""
    args = []
    for a in literal.term.args:
        if isinstance(a, Variable):
            value = values.get(a.name)
            if value is None:
                value = values[a.name] = _trusted_variable(f"_{tag}_{a.name}")
            a = _walk(value, bindings)
        args.append(a)
    goal = _trusted_term(literal.term.functor, tuple(args))
    if not literal.negated:
        return _solve_term(goal, bindings, ctx, depth)
    if not goal.is_ground:
        raise NafNonGroundError(Literal(goal, negated=True))
    if next(_solve_term(goal, {}, ctx, depth), None) is not None:
        return iter(())  # subgoal provable: negation fails
    return iter([(bindings, (goal, NAF, None, ()))])


def solve(
    goal: Term, kb: KnowledgeBase, facts: CaseFacts
) -> list[tuple[dict[str, str], ProofTree]]:
    """Prove a goal, returning one (answer, proof tree) per derivation.

    An answer maps each goal variable the derivation binds to an atom to
    that atom; a variable left unbound is not in it. Results are in
    deterministic order: facts in canonical order first, then clauses in
    textual order, body literals left to right. Raises NafNonGroundError
    if negation is reached with unbound variables, DepthLimitError past
    ``DEPTH_LIMIT`` rule applications, and GoalLimitError past ``GOAL_LIMIT``
    goals entered.
    """
    found = list(_solve_term(goal, {}, _Context(kb, facts), 0))
    names = sorted(goal.variables())
    results: list[tuple[dict[str, str], ProofTree]] = []
    for bindings, node in found:  # no tree is built before the search ends
        answer: dict[str, str] = {}
        for name in names:
            value = _walk(bindings.get(name), bindings)  # None when unbound
            if isinstance(value, str):
                answer[name] = value
        results.append((answer, _build_tree(node, bindings)))
    return results


def _first_proofs(
    goal: Term, kb: KnowledgeBase, facts: CaseFacts
) -> tuple[ProofTree, ...]:
    """The first proof of each distinct conclusion of goal, in solve order."""
    first: dict[Term, ProofTree] = {}
    for _, tree in solve(goal, kb, facts):
        first.setdefault(tree.literal.term, tree)
    return tuple(first.values())


# derive_rights builds its goals from these variables and from atoms already
# checked: the person by is_identifier, the article in a checked proof tree.
_RIGHT, _TAG, _ARTICLE, _OPTION, _A, _K, _V = map(
    _trusted_variable, ("Right", "Tag", "Article", "Option", "A", "K", "V")
)


def derive_rights(
    person: str, source_id: str, kb: KnowledgeBase, facts: CaseFacts
) -> list[RightsBundle]:
    """Derive every primary right of a person under one legal source,
    bundling the auxiliary rights and right properties attached to it."""
    if not is_identifier(person):
        raise EngineError(f"person must be an atom, got {_excerpt(person)}")
    source = next((s for s in kb.sources if s.id == source_id), None)
    if source is None:
        raise UnknownSourceError(source_id)
    scoped = kb.restricted_to(source_id)
    goal = _trusted_term(
        "has_right", (_RIGHT, _TAG, _ARTICLE, person, _OPTION)
    )
    bundles: list[RightsBundle] = []
    for tree in _first_proofs(goal, scoped, facts):
        if not tree.is_ground:  # its article would be no atom to attach to
            raise EngineError("primary proof tree is not ground")
        attached = (_A, tree.literal.term.args[2], person, _K, _V)
        bundles.append(
            RightsBundle(
                source=source,
                primary=tree,
                auxiliaries=_first_proofs(
                    _trusted_term("auxiliary_right", attached), scoped, facts
                ),
                properties=_first_proofs(
                    _trusted_term("right_property", attached), scoped, facts
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
