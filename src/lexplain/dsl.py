"""Prolog-like rule DSL: parsing and serialization of knowledge bases.

Rule files carry ``%%``-prefixed metadata lines (source, jurisdiction,
article, title) that apply to every following clause until overridden,
``%`` line comments, and clauses terminated by ``.`` with ``not(...)``
marking negation as failure. Facts files hold one ground term per line.
"""

from __future__ import annotations

import re

from .kb import (
    ATOM,
    CaseFacts,
    Clause,
    KnowledgeBase,
    LegalSource,
    Literal,
    Term,
    Variable,
    _ATOM_RE,
    _excerpt,
    _trusted_term,
    _trusted_variable,
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

_METADATA_KEYS = ("source", "jurisdiction", "article", "title")


class DslError(ValueError):
    """Syntax or structure error in DSL input, with source location."""

    def __init__(self, message: str, line: int, col: int | None = None):
        self.line = line
        self.col = col
        where = f"line {line}" if col is None else f"line {line}, column {col}"
        super().__init__(f"{where}: {message}")


# A token is (kind, value, line, col); kind is IDENT, VAR, LPAREN, RPAREN,
# COMMA, DOT or IMPLIES.
_Token = tuple[str, str, int, int]


def _tokenize_line(text: str, line_no: int, out: list[_Token]) -> None:
    for match in _TOKEN_RE.finditer(text):
        group, value, col = match.lastindex, match.group(), match.start() + 1
        if group == 2:
            out.append((_PUNCT_KINDS[value], value, line_no, col))
        elif group == 3:
            kind = "VAR" if value[0].isupper() else "IDENT"
            out.append((kind, value, line_no, col))
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
            _, _, line, col = self._tokens[-1]
            raise DslError("unexpected end of line", line, col) from None

    def next(self, expected: str | None = None) -> _Token:
        token = self.peek()
        if expected is not None and token[0] != expected:
            _, value, line, col = token
            raise DslError(f"expected {expected}, found {_excerpt(value)}", line, col)
        self._pos += 1
        return token

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._tokens)


def _parse_list(stream: _TokenStream, parse_item, close: str) -> tuple:
    """The ','-separated items that parse_item reads, up to the close token."""
    items = []
    while True:
        items.append(parse_item(stream))
        kind, value, line, col = stream.next()
        if value == close:
            return tuple(items)
        if kind != "COMMA":
            raise DslError(
                f"expected ',' or {close!r}, found {_excerpt(value)}", line, col
            )


def _parse_arg(stream: _TokenStream) -> str | Variable:
    kind, value, line, col = stream.next()
    if kind == "VAR":
        return _trusted_variable(value)
    if kind != "IDENT":
        raise DslError(
            f"expected an atom or variable, found {_excerpt(value)}", line, col
        )
    if not stream.exhausted and stream.peek()[0] == "LPAREN":
        raise DslError(
            "nested terms are not supported (function-free fragment)", line, col
        )
    return value


def _parse_term(stream: _TokenStream) -> Term:
    _, functor, line, col = stream.next("IDENT")
    if functor == "not":
        raise DslError("'not' is reserved for negation", line, col)
    if stream.exhausted or stream.peek()[0] != "LPAREN":
        return _trusted_term(functor, ())
    stream.next("LPAREN")
    return _trusted_term(functor, _parse_list(stream, _parse_arg, ")"))


def _parse_literal(stream: _TokenStream) -> Literal:
    if stream.peek()[:2] == ("IDENT", "not"):
        stream.next()
        stream.next("LPAREN")
        term = _parse_term(stream)
        stream.next("RPAREN")
        return Literal(term, negated=True)
    return Literal(_parse_term(stream))


def _parse_clause(
    tokens: list[_Token], meta: dict[str, str], labels: dict[str, str]
) -> Clause:
    for key in ("source", "article", "title"):
        if key not in meta:
            raise DslError(f"clause before any %% {key} line", tokens[0][2])
    source = LegalSource(meta["source"], labels.get(meta["source"], ""))
    stream = _TokenStream(tokens)
    kind, value, line, col = stream.peek()
    if kind == "IDENT" and value == "not":
        raise DslError("negation cannot appear in a clause head", line, col)
    head = _parse_term(stream)
    kind, value, line, col = stream.next()
    if kind == "IMPLIES":
        body = _parse_list(stream, _parse_literal, ".")
    elif kind == "DOT":
        body = ()
    else:
        raise DslError(f"expected ':-' or '.', found {_excerpt(value)}", line, col)
    return Clause(head, body, source, meta["article"], meta["title"])


def _apply_metadata(
    meta: dict[str, str], labels: dict[str, str], key: str, value: str, line_no: int
) -> None:
    """Put one ``%% key: value`` line in force: a jurisdiction labels the
    source in force, once; every other key replaces its value in meta."""
    if key not in _METADATA_KEYS:
        raise DslError(
            f"unknown metadata key {_excerpt(key)} "
            f"(expected one of {', '.join(_METADATA_KEYS)})",
            line_no,
        )
    if key == "jurisdiction":
        source_id = meta.get("source")
        if source_id is None:
            raise DslError("%% jurisdiction must follow a %% source line", line_no)
        if labels.setdefault(source_id, value) != value:
            raise DslError(
                f"conflicting jurisdiction for source {_excerpt(source_id, str)}",
                line_no,
            )
        return
    if key != "title" and not is_identifier(value):
        raise DslError(f"invalid {key} id {_excerpt(value)}", line_no)
    if not value:
        raise DslError("empty %% title", line_no)
    meta[key] = value


def parse_rules(text: str) -> KnowledgeBase:
    """Parse rule-DSL source into a validated KnowledgeBase.

    Each line is tokenized whole; its tokens join the clause being read,
    which is parsed when its '.' arrives. Raises DslError for syntax
    problems (with line/column), SafetyError for unsafe negation,
    StratificationError for negation cycles.
    """
    meta: dict[str, str] = {}  # the source, article and title in force
    labels: dict[str, str] = {}  # the jurisdiction label of each source id
    clause: list[_Token] = []  # the tokens of the clause being read
    clauses: list[Clause] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip().startswith("%%"):
            if clause:
                raise DslError("metadata line inside an unterminated clause", line_no)
            match = _METADATA_RE.match(line)
            if not match:
                raise DslError("malformed metadata line", line_no)
            _apply_metadata(meta, labels, match.group(1), match.group(2), line_no)
            continue
        tokens: list[_Token] = []
        _tokenize_line(line, line_no, tokens)
        for token in tokens:
            clause.append(token)
            if token[0] == "DOT":
                clauses.append(_parse_clause(clause, meta, labels))
                clause = []
    if clause:
        _, _, line, col = clause[-1]
        raise DslError("unterminated clause (missing '.')", line, col)
    return KnowledgeBase(tuple(clauses))


def parse_facts(text: str) -> CaseFacts:
    """Parse a facts file: one ground, '.'-terminated term per line."""
    facts: set[Term] = set()
    for line_no, line in enumerate(text.split("\n"), start=1):
        flat = _FACT_LINE_RE.fullmatch(line)
        if flat and flat[1] != "not":
            facts.add(_trusted_term(flat[1], tuple(_ATOM_RE.findall(flat[2] or ""))))
            continue
        # the pattern took every ground fact: this is a blank, a comment or an error
        tokens: list[_Token] = []
        _tokenize_line(line, line_no, tokens)
        if not tokens:
            continue
        stream = _TokenStream(tokens)
        term = _parse_term(stream)
        stream.next("DOT")
        if not stream.exhausted:
            _, value, line, col = stream.peek()
            raise DslError(
                f"unexpected input after fact: {_excerpt(value)}", line, col
            )
        raise DslError(
            f"non-ground fact {_excerpt(format_term(term), str)} "
            f"(variable {_excerpt(min(term.variables()), str)})",
            line_no,
        )
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
