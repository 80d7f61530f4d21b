"""Core types for legal logic programs.

The fragment is deliberately small: function-free terms over constants and
variables, negation as failure in rule bodies only. Everything is immutable
and validated at construction time, so a KnowledgeBase that exists is safe
to reason over and to share across threads. The engine alone builds terms
and variables through ``_trusted_term`` and ``_trusted_variable``, from
parts that checked objects already hold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

# The atom grammar; every regex that reads an atom is built from it.
ATOM = r"[a-z][A-Za-z0-9_]*"
_IDENT_RE = re.compile(ATOM + r"\Z")
_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


class KbError(ValueError):
    """Invalid knowledge-base construct."""


class SafetyError(KbError):
    """A negated body literal uses a variable with no binding occurrence."""

    def __init__(self, variable: str, clause_text: str):
        self.variable = variable
        self.clause_text = clause_text
        super().__init__(
            f"unsafe negation: variable {variable} in clause "
            f"`{clause_text}` is bound neither by the head nor by an "
            f"earlier positive body literal"
        )


class StratificationError(KbError):
    """A predicate depends on itself through negation."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        loop = " -> ".join(cycle)
        super().__init__(f"program is not stratified: negation cycle {loop}")


def is_identifier(text: str) -> bool:
    return bool(_IDENT_RE.match(text))


def is_variable_name(text: str) -> bool:
    return bool(_VAR_RE.match(text))


# Predicate catalogue of the rights-determination schema. Nothing restricts
# a KnowledgeBase to these symbols; the catalogue documents the vocabulary
# the shipped sources use and gives tests a canonical goal space.
PREDICATE_SCHEMA: dict[tuple[str, int], str] = {
    ("has_right", 5): "right, source tag, article, person, option",
    ("has_right", 4): "article, person, right, option",
    ("auxiliary_right", 5): "article, primary article, person, type, value",
    ("auxiliary_right", 4): "article, person, type, value",
    ("right_property", 5): "article, primary article, person, type, value",
    ("right_property", 4): "article, person, type, value",
    ("essential_document", 3): "article, person, document class",
    ("person_document", 2): "person, document",
    ("proceeding_language", 2): "person, language of the proceeding",
    ("person_understands", 2): "person, language",
    ("proceeding_event", 2): "person, event",
}


@dataclass(frozen=True)
class Variable:
    """A logic variable with an uppercase-initial name.

    Names that start with ``_`` belong to the engine's renamed clause
    variables and cannot be built here, so no goal can alias them.
    """

    name: str

    def __post_init__(self):
        if not is_variable_name(self.name):
            raise KbError(f"invalid variable name: {self.name!r}")

    def __str__(self) -> str:
        return self.name


# Constants (atoms) are plain lowercase-initial strings.
TermArg = Union[str, Variable]


@dataclass(frozen=True)
class Term:
    """A function-free term: a functor applied to atoms and variables."""

    functor: str
    args: tuple[TermArg, ...] = ()

    def __post_init__(self):
        if not is_identifier(self.functor):
            raise KbError(f"invalid functor: {self.functor!r}")
        for arg in self.args:
            if isinstance(arg, Variable):
                continue
            if not isinstance(arg, str) or not is_identifier(arg):
                raise KbError(f"invalid term argument: {arg!r}")

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def predicate(self) -> tuple[str, int]:
        return (self.functor, len(self.args))

    @property
    def is_ground(self) -> bool:
        return not any(isinstance(a, Variable) for a in self.args)

    def variables(self) -> set[str]:
        return {a.name for a in self.args if isinstance(a, Variable)}

    def constants(self) -> set[str]:
        return {a for a in self.args if isinstance(a, str)}

    def __str__(self) -> str:
        return format_term(self)


# The trusted constructors skip __post_init__. Callers pass only parts taken
# from checked terms and variables, or a renamed ``_{tag}_{name}`` variable.


def _trusted_variable(name: str) -> Variable:
    variable = object.__new__(Variable)
    object.__setattr__(variable, "name", name)
    return variable


def _trusted_term(functor: str, args: tuple[TermArg, ...]) -> Term:
    term = object.__new__(Term)
    object.__setattr__(term, "functor", functor)
    object.__setattr__(term, "args", args)
    return term


@dataclass(frozen=True)
class Literal:
    """A term or its negation as failure; negation only occurs in bodies."""

    term: Term
    negated: bool = False

    def __str__(self) -> str:
        return format_literal(self)


@dataclass(frozen=True)
class LegalSource:
    """Identity of a legal source; the jurisdiction is explicit metadata."""

    id: str
    jurisdiction_label: str = ""

    def __post_init__(self):
        if not is_identifier(self.id):
            raise KbError(f"invalid source id: {self.id!r}")


@dataclass(frozen=True)
class Clause:
    """One rule (or unconditional rule) of a legal source.

    A clause with an empty body and a ground head is a fact clause; an
    empty body with variables in the head is an unconditional rule that
    holds for every instantiation.
    """

    head: Term
    body: tuple[Literal, ...]
    source: LegalSource
    article: str
    title: str

    def __post_init__(self):
        if self.head.functor == "not":
            raise KbError("negation cannot appear in a clause head")
        if not is_identifier(self.article):
            raise KbError(f"invalid article id: {self.article!r}")
        if not self.title:
            raise KbError(f"clause for {self.article} has an empty title")
        _check_safety(self)

    def variables(self) -> set[str]:
        names = self.head.variables()
        for lit in self.body:
            names |= lit.term.variables()
        return names

    def __str__(self) -> str:
        return format_clause(self)


def _check_safety(clause: Clause) -> None:
    # A NAF variable must be bound by the head or by an earlier positive
    # body literal; groundness at call time is enforced by the engine.
    bound = clause.head.variables()
    for lit in clause.body:
        if lit.negated:
            for name in lit.term.variables():
                if name not in bound:
                    raise SafetyError(name, format_clause(clause))
        else:
            bound |= lit.term.variables()


@dataclass(frozen=True)
class KnowledgeBase:
    """An ordered set of clauses, stratified with respect to negation."""

    clauses: tuple[Clause, ...] = ()

    def __post_init__(self):
        strata = compute_strata(self.clauses)
        titles: dict[str, str] = {}
        labels: dict[str, str] = {}
        by_head: dict[tuple[str, int], list[Clause]] = {}
        for clause in self.clauses:
            by_head.setdefault(clause.head.predicate, []).append(clause)
            seen = titles.get(clause.article)
            if seen is not None and seen != clause.title:
                raise KbError(
                    f"conflicting titles for article {clause.article}: "
                    f"{seen!r} vs {clause.title!r}"
                )
            titles[clause.article] = clause.title
            label = labels.get(clause.source.id)
            if label is not None and label != clause.source.jurisdiction_label:
                raise KbError(
                    f"conflicting jurisdiction labels for source "
                    f"{clause.source.id}"
                )
            labels[clause.source.id] = clause.source.jurisdiction_label
        object.__setattr__(self, "_strata", strata)
        object.__setattr__(self, "_titles", titles)
        object.__setattr__(
            self, "_by_head", {p: tuple(cs) for p, cs in by_head.items()}
        )
        sources = tuple(dict.fromkeys(c.source for c in self.clauses))
        object.__setattr__(self, "_sources", sources)
        # Scoped KBs by source id, filled on first use by restricted_to.
        object.__setattr__(self, "_scoped", {})

    @property
    def article_titles(self) -> dict[str, str]:
        return dict(self._titles)  # type: ignore[attr-defined]

    @property
    def strata(self) -> dict[tuple[str, int], int]:
        return dict(self._strata)  # type: ignore[attr-defined]

    @property
    def sources(self) -> tuple[LegalSource, ...]:
        return self._sources  # type: ignore[attr-defined]

    def clauses_for(self, predicate: tuple[str, int]) -> tuple[Clause, ...]:
        """The clauses whose head has this predicate, in textual order."""
        return self._by_head.get(predicate, ())  # type: ignore[attr-defined]

    def restricted_to(self, source_id: str) -> "KnowledgeBase":
        """The KB of one source's clauses, the same object on every call."""
        memo = self._scoped  # type: ignore[attr-defined]
        scoped = memo.get(source_id)
        if scoped is None:
            # Threads racing here may each build the KB; setdefault keeps
            # the first, so every caller gets the same object.
            scoped = memo.setdefault(
                source_id,
                KnowledgeBase(
                    tuple(c for c in self.clauses if c.source.id == source_id)
                ),
            )
        return scoped

    def constants(self) -> set[str]:
        out: set[str] = set()
        for clause in self.clauses:
            out |= clause.head.constants()
            for lit in clause.body:
                out |= lit.term.constants()
        return out


def merge(kbs: Iterable[KnowledgeBase]) -> KnowledgeBase:
    """Concatenate several knowledge bases into one, re-validating."""
    clauses: list[Clause] = []
    for kb in kbs:
        clauses.extend(kb.clauses)
    return KnowledgeBase(tuple(clauses))


@dataclass(frozen=True)
class CaseFacts:
    """Ground atoms describing one specific case."""

    facts: frozenset[Term] = frozenset()

    def __post_init__(self):
        for fact in self.facts:
            if not fact.is_ground:
                raise KbError(f"non-ground fact: {fact}")
        ordered = tuple(sorted(self.facts, key=format_term))
        # Keys (functor, arity) and (functor, arity, first argument).
        index: dict[tuple, list[Term]] = {}
        for fact in ordered:
            index.setdefault(fact.predicate, []).append(fact)
            if fact.args:
                key = (fact.functor, len(fact.args), fact.args[0])
                index.setdefault(key, []).append(fact)
        object.__setattr__(self, "_ordered", ordered)
        object.__setattr__(
            self, "_index", {k: tuple(v) for k, v in index.items()}
        )

    @property
    def ordered(self) -> tuple[Term, ...]:
        """Facts in canonical (string) order, for deterministic search."""
        return self._ordered  # type: ignore[attr-defined]

    def candidates(self, goal: Term) -> tuple[Term, ...]:
        """The facts that can unify with goal, in canonical order.

        They share goal's predicate and, when goal's first argument is a
        constant, that first argument too.
        """
        if goal.args and isinstance(goal.args[0], str):
            key: tuple = (goal.functor, len(goal.args), goal.args[0])
        else:
            key = (goal.functor, len(goal.args))
        return self._index.get(key, ())  # type: ignore[attr-defined]

    def __contains__(self, term: Term) -> bool:
        return term in self.facts

    def __len__(self) -> int:
        return len(self.facts)

    def with_fact(self, fact: Term) -> "CaseFacts":
        return CaseFacts(self.facts | {fact})

    def constants(self) -> set[str]:
        out: set[str] = set()
        for fact in self.facts:
            out |= fact.constants()
        return out


def compute_strata(clauses: Iterable[Clause]) -> dict[tuple[str, int], int]:
    """Assign a stratum to every predicate, or fail on negation cycles.

    Levels satisfy level(head) >= level(body) for positive dependencies and
    level(head) > level(body) for negated ones. A path without a repeated
    predicate raises a level by at most the number of negated edges, so a
    level above that comes from a cycle through a negated edge: the chain
    of dependencies that last raised each level, followed from that head,
    runs into such a cycle, and the error reports it.
    """
    clauses = tuple(clauses)
    edges: list[tuple[tuple[str, int], tuple[str, int], bool]] = []
    preds: set[tuple[str, int]] = set()
    for clause in clauses:
        head = clause.head.predicate
        preds.add(head)
        for lit in clause.body:
            dep = lit.term.predicate
            preds.add(dep)
            edges.append((head, dep, lit.negated))
    levels = {p: 0 for p in preds}
    raised_by: dict[tuple[str, int], tuple[str, int]] = {}
    max_level = sum(1 for _, _, neg in edges if neg)
    changed = True
    while changed:
        changed = False
        for head, dep, negated in edges:
            need = levels[dep] + (1 if negated else 0)
            if levels[head] < need:
                levels[head] = need
                raised_by[head] = dep
                if need > max_level:
                    chain = [head]
                    while chain[-1] not in chain[:-1]:
                        chain.append(raised_by[chain[-1]])
                    cycle = chain[chain.index(chain[-1]):]
                    raise StratificationError([f"{f}/{n}" for f, n in cycle])
                changed = True
    return levels


def format_term(term: Term) -> str:
    """Canonical term text: one space after each comma, nothing else."""
    if not term.args:
        return term.functor
    parts = [a.name if isinstance(a, Variable) else a for a in term.args]
    return f"{term.functor}({', '.join(parts)})"


def format_literal(literal: Literal) -> str:
    text = format_term(literal.term)
    return f"not({text})" if literal.negated else text


def format_clause(clause: Clause) -> str:
    head = format_term(clause.head)
    if not clause.body:
        return f"{head}."
    body = ", ".join(format_literal(lit) for lit in clause.body)
    return f"{head} :- {body}."
