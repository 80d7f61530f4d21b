"""Prolog-like rule DSL: parsing and serialization of knowledge bases.

Rule files carry ``%%``-prefixed metadata lines (source, jurisdiction,
article, title) that apply to every following clause until overridden,
``%`` line comments, and clauses terminated by ``.`` with ``not(...)``
marking negation as failure. Facts files hold one ground term per line.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .kb import (
    ATOM,
    CaseFacts,
    Clause,
    KnowledgeBase,
    LegalSource,
    Literal,
    Term,
    Variable,
    format_clause,
    format_term,
    is_identifier,
)

_METADATA_RE = re.compile(r"\s*%%\s*([a-z_]+)\s*:\s*(.*?)\s*$")
# One match per token, tried in this order: '%', which starts a comment
# that runs to the end of the line, ':-' or punctuation, a word, or any
# other character but a blank, which is an error. Blanks match nothing,
# so finditer skips them.
_TOKEN_RE = re.compile(r"(%)|(:-|[(),.])|([A-Za-z][A-Za-z0-9_]*)|([^ \t\r])")
_PUNCT_KINDS = {":-": "IMPLIES", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT"}
# A flat fact line, ``f(a, b).`` or ``f.``, with the blanks and comment the
# tokenizer skips; parse_facts sends every other line to the tokenizer.
_B = r"[ \t\r]*"
_FACT_LINE_RE = re.compile(
    rf"{_B}({ATOM}){_B}(?:\({_B}({ATOM}(?:{_B},{_B}{ATOM})*){_B}\){_B})?\.{_B}(?:%.*)?"
)
_ATOM_RE = re.compile(ATOM)

_METADATA_KEYS = ("source", "jurisdiction", "article", "title")


class DslError(ValueError):
    """Syntax or structure error in DSL input, with source location."""

    def __init__(self, message: str, line: int, col: int | None = None):
        self.line = line
        self.col = col
        where = f"line {line}" if col is None else f"line {line}, column {col}"
        super().__init__(f"{where}: {message}")


class _Token(NamedTuple):
    kind: str  # IDENT, VAR, LPAREN, RPAREN, COMMA, DOT, IMPLIES
    value: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int, out: list[_Token]) -> None:
    for match in _TOKEN_RE.finditer(text):
        group, value, col = match.lastindex, match.group(), match.start() + 1
        if group == 2:
            out.append(_Token(_PUNCT_KINDS[value], value, line_no, col))
        elif group == 3:
            kind = "VAR" if value[0].isupper() else "IDENT"
            out.append(_Token(kind, value, line_no, col))
        elif group == 4:
            raise DslError(f"unexpected character {value!r}", line_no, col)
        else:
            return  # rest of line is a comment


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> _Token:
        try:
            return self._tokens[self._pos]
        except IndexError:
            last = self._tokens[-1]
            raise DslError("unexpected end of line", last.line, last.col) from None

    def next(self, expected: str | None = None) -> _Token:
        token = self.peek()
        if expected is not None and token.kind != expected:
            raise DslError(
                f"expected {expected}, found {token.value!r}",
                token.line,
                token.col,
            )
        self._pos += 1
        return token

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._tokens)


def _parse_term(stream: _TokenStream) -> Term:
    tok = stream.next("IDENT")
    if tok.value == "not":
        raise DslError("'not' is reserved for negation", tok.line, tok.col)
    if stream.exhausted or stream.peek().kind != "LPAREN":
        return Term(tok.value)
    stream.next("LPAREN")
    args: list[str | Variable] = []
    while True:
        arg = stream.next()
        if arg.kind == "VAR":
            args.append(Variable(arg.value))
        elif arg.kind == "IDENT":
            if not stream.exhausted and stream.peek().kind == "LPAREN":
                raise DslError(
                    "nested terms are not supported (function-free fragment)",
                    arg.line,
                    arg.col,
                )
            args.append(arg.value)
        else:
            raise DslError(
                f"expected an atom or variable, found {arg.value!r}",
                arg.line,
                arg.col,
            )
        sep = stream.next()
        if sep.kind == "RPAREN":
            break
        if sep.kind != "COMMA":
            raise DslError(
                f"expected ',' or ')', found {sep.value!r}", sep.line, sep.col
            )
    return Term(tok.value, tuple(args))


def _parse_literal(stream: _TokenStream) -> Literal:
    tok = stream.peek()
    if tok.kind == "IDENT" and tok.value == "not":
        stream.next()
        stream.next("LPAREN")
        term = _parse_term(stream)
        stream.next("RPAREN")
        return Literal(term, negated=True)
    return Literal(_parse_term(stream))


def _parse_clause_tokens(
    tokens: list[_Token],
    source: LegalSource,
    article: str,
    title: str,
) -> Clause:
    stream = _TokenStream(tokens)
    head_tok = stream.peek()
    if head_tok.kind == "IDENT" and head_tok.value == "not":
        raise DslError(
            "negation cannot appear in a clause head",
            head_tok.line,
            head_tok.col,
        )
    head = _parse_term(stream)
    body: list[Literal] = []
    tok = stream.next()
    if tok.kind == "IMPLIES":
        while True:
            body.append(_parse_literal(stream))
            sep = stream.next()
            if sep.kind == "DOT":
                break
            if sep.kind != "COMMA":
                raise DslError(
                    f"expected ',' or '.', found {sep.value!r}",
                    sep.line,
                    sep.col,
                )
    elif tok.kind != "DOT":
        raise DslError(
            f"expected ':-' or '.', found {tok.value!r}", tok.line, tok.col
        )
    if not stream.exhausted:
        extra = stream.peek()
        raise DslError(
            f"unexpected input after clause: {extra.value!r}",
            extra.line,
            extra.col,
        )
    return Clause(head, tuple(body), source, article, title)


class _MetadataState:
    def __init__(self):
        self.source_id: str | None = None
        self.labels: dict[str, str] = {}
        self.article: str | None = None
        self.title: str | None = None

    def apply(self, key: str, value: str, line_no: int) -> None:
        if key == "source":
            if not is_identifier(value):
                raise DslError(f"invalid source id {value!r}", line_no)
            self.source_id = value
        elif key == "jurisdiction":
            if self.source_id is None:
                raise DslError(
                    "%% jurisdiction must follow a %% source line", line_no
                )
            known = self.labels.get(self.source_id)
            if known is not None and known != value:
                raise DslError(
                    f"conflicting jurisdiction for source {self.source_id}",
                    line_no,
                )
            self.labels[self.source_id] = value
        elif key == "article":
            if not is_identifier(value):
                raise DslError(f"invalid article id {value!r}", line_no)
            self.article = value
        elif key == "title":
            if not value:
                raise DslError("empty %% title", line_no)
            self.title = value
        else:
            raise DslError(
                f"unknown metadata key {key!r} "
                f"(expected one of {', '.join(_METADATA_KEYS)})",
                line_no,
            )

    def current_source(self, line_no: int) -> LegalSource:
        if self.source_id is None:
            raise DslError("clause before any %% source line", line_no)
        return LegalSource(self.source_id, self.labels.get(self.source_id, ""))

    def require(self, line_no: int) -> tuple[LegalSource, str, str]:
        source = self.current_source(line_no)
        if self.article is None:
            raise DslError("clause before any %% article line", line_no)
        if self.title is None:
            raise DslError("clause before any %% title line", line_no)
        return source, self.article, self.title


def parse_rules(text: str) -> KnowledgeBase:
    """Parse rule-DSL source into a validated KnowledgeBase.

    Raises DslError for syntax problems (with line/column), SafetyError for
    unsafe negation, StratificationError for negation cycles.
    """
    state = _MetadataState()
    pending: list[_Token] = []
    clauses: list[Clause] = []

    def drain() -> None:
        while True:
            dot = next(
                (i for i, t in enumerate(pending) if t.kind == "DOT"), None
            )
            if dot is None:
                return
            tokens = pending[: dot + 1]
            del pending[: dot + 1]
            meta = state.require(tokens[0].line)
            clauses.append(_parse_clause_tokens(tokens, *meta))

    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped.startswith("%%"):
            if pending:
                raise DslError(
                    "metadata line inside an unterminated clause", line_no
                )
            match = _METADATA_RE.match(line)
            if not match:
                raise DslError("malformed metadata line", line_no)
            state.apply(match.group(1), match.group(2), line_no)
            continue
        _tokenize_line(line, line_no, pending)
        drain()
    if pending:
        last = pending[-1]
        raise DslError("unterminated clause (missing '.')", last.line, last.col)
    return KnowledgeBase(tuple(clauses))


def parse_facts(text: str) -> CaseFacts:
    """Parse a facts file: one ground, '.'-terminated term per line."""
    facts: set[Term] = set()
    for line_no, line in enumerate(text.split("\n"), start=1):
        flat = _FACT_LINE_RE.fullmatch(line)
        if flat and flat[1] != "not":
            facts.add(Term(flat[1], tuple(_ATOM_RE.findall(flat[2] or ""))))
            continue
        tokens: list[_Token] = []
        _tokenize_line(line, line_no, tokens)
        if not tokens:
            continue
        stream = _TokenStream(tokens)
        term = _parse_term(stream)
        stream.next("DOT")
        if not stream.exhausted:
            extra = stream.peek()
            raise DslError(
                f"unexpected input after fact: {extra.value!r}",
                extra.line,
                extra.col,
            )
        if not term.is_ground:
            name = sorted(term.variables())[0]
            raise DslError(
                f"non-ground fact {format_term(term)} (variable {name})",
                line_no,
            )
        facts.add(term)
    return CaseFacts(frozenset(facts))


def serialize_rules(kb: KnowledgeBase) -> str:
    """Render a KnowledgeBase back to DSL text; parse_rules inverts this."""
    blocks: list[str] = []
    for clause in kb.clauses:
        lines = [f"%% source: {clause.source.id}"]
        if clause.source.jurisdiction_label:
            lines.append(f"%% jurisdiction: {clause.source.jurisdiction_label}")
        lines.append(f"%% article: {clause.article}")
        lines.append(f"%% title: {clause.title}")
        lines.append(format_clause(clause))
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def serialize_facts(facts: CaseFacts) -> str:
    """Render case facts in canonical order, one per line."""
    lines = [f"{format_term(fact)}." for fact in facts.ordered]
    return "\n".join(lines) + "\n" if lines else ""
