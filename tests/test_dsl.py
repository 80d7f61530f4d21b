"""Rule-DSL parsing, serialization, and error reporting."""

from __future__ import annotations

import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexplain import fixtures
from lexplain.dsl import (
    DslError,
    _tokenize_line,
    parse_facts,
    parse_rules,
    serialize_facts,
    serialize_rules,
)
from lexplain.kb import (
    CaseFacts,
    Clause,
    KbError,
    KnowledgeBase,
    LegalSource,
    Literal,
    SafetyError,
    StratificationError,
    Term,
    Variable,
    _excerpt,
    format_term,
    is_identifier,
    merge,
)

from conftest import LONG_DSL_VALUES, LONG_KB_VALUES, NEAR_BLANKS, near_flat_terms

HEADER = "%% source: s\n%% jurisdiction: X\n%% article: a1\n%% title: Article 1\n"


def test_parse_single_rule_shape():
    text = HEADER + (
        "has_right(art3_1, P, right_to_translation, essentialDocument) :- "
        "proceeding_language(P, L), essential_document(Art2, P, D), "
        "not(person_understands(P, L)).\n"
    )
    kb = parse_rules(text)
    assert len(kb.clauses) == 1
    clause = kb.clauses[0]
    assert clause.head.arity == 4
    assert len(clause.body) == 3
    assert not clause.body[0].negated
    assert not clause.body[1].negated
    assert clause.body[2].negated


def test_empty_input_gives_empty_kb():
    assert parse_rules("").clauses == ()
    assert parse_rules("% only a comment\n").clauses == ()


def test_clause_may_span_lines():
    text = HEADER + "p(X) :-\n    q(X),\n    r(X).\n"
    kb = parse_rules(text)
    assert len(kb.clauses[0].body) == 2


def test_head_bound_negation_is_accepted():
    # Safety counts head occurrences; the engine enforces groundness at
    # call time instead.
    kb = parse_rules(HEADER + "p(X) :- not(q(X)).\n")
    assert kb.clauses[0].body[0].negated


def test_unbound_negation_variable_is_rejected():
    with pytest.raises(SafetyError) as err:
        parse_rules(HEADER + "p(X) :- not(q(Y)).\n")
    assert err.value.variable == "Y"


def test_self_negation_is_rejected():
    with pytest.raises(StratificationError):
        parse_rules(HEADER + "p :- not(p).\n")


def test_syntax_error_carries_line_and_column():
    with pytest.raises(DslError) as err:
        parse_rules(HEADER + "p(X) :- q(X)\nr(X).\n")
    # first clause never terminated before 'r('; the parser points at it
    assert "line" in str(err.value)


def test_unexpected_character_is_located():
    with pytest.raises(DslError) as err:
        parse_rules(HEADER + "p(X) :- q(X) & r(X).\n")
    assert err.value.line == 5
    assert err.value.col == 14


def test_argument_list_needs_a_comma_or_a_closing_parenthesis():
    with pytest.raises(DslError) as err:
        parse_rules(HEADER + "f(a b).\n")
    assert str(err.value) == "line 5, column 5: expected ',' or ')', found 'b'"
    with pytest.raises(DslError) as err:
        parse_facts("f(a b).\n")
    assert str(err.value) == "line 1, column 5: expected ',' or ')', found 'b'"


@pytest.mark.parametrize("text", LONG_DSL_VALUES.values(), ids=LONG_DSL_VALUES)
def test_diagnostics_quote_a_bounded_excerpt(text):
    with pytest.raises(DslError) as err:
        parse_rules(text)
    assert len(str(err.value)) < 200
    assert "... (300" in str(err.value)


def test_short_values_are_quoted_whole():
    with pytest.raises(DslError) as err:
        parse_rules("%% source: 1" + "x" * 59)
    assert str(err.value) == f"line 1: invalid source id '1{'x' * 59}'"


@pytest.mark.parametrize(
    "rules, facts", LONG_KB_VALUES.values(), ids=LONG_KB_VALUES
)
def test_fact_and_kb_diagnostics_quote_a_bounded_excerpt(rules, facts):
    with pytest.raises((DslError, KbError)) as err:
        parse_facts(facts)
        merge(parse_rules(text) for text in rules)
    assert len(str(err.value)) < 200
    assert "... (300" in str(err.value)
    if isinstance(err.value, SafetyError):
        assert len(err.value.clause_text) > 300_000


@pytest.mark.parametrize(
    "rules, facts, message",
    [
        ("", "p(a, X).\n", "line 1: non-ground fact p(a, X) (variable X)"),
        ("%% source: s\n%% jurisdiction: a\n%% jurisdiction: b\n", "",
         "line 3: conflicting jurisdiction for source s"),
        (HEADER + "p(X) :- q(X), not(r(Y)).\n", "",
         "unsafe negation: variable Y in clause `p(X) :- q(X), not(r(Y)).` "
         "is bound neither by the head nor by an earlier positive body literal"),
        ("%% source: s\n%% article: a\n%% title: T\np.\n%% title: U\nq.\n", "",
         "conflicting titles for article a: 'T' vs 'U'"),
    ],
)
def test_fact_and_kb_diagnostics_quote_short_values_as_before(rules, facts, message):
    with pytest.raises((DslError, KbError)) as err:
        parse_facts(facts)
        parse_rules(rules)
    assert str(err.value) == message


def test_metadata_must_precede_clauses():
    with pytest.raises(DslError) as err:
        parse_rules("p(a).\n")
    assert "source" in str(err.value)


def test_metadata_cannot_interrupt_a_clause():
    text = HEADER + "p(X) :-\n%% article: a2\n    q(X).\n"
    with pytest.raises(DslError):
        parse_rules(text)


def test_unknown_metadata_key():
    with pytest.raises(DslError):
        parse_rules("%% flavor: vanilla\n")


def test_nested_terms_rejected():
    with pytest.raises(DslError):
        parse_rules(HEADER + "p(q(a)).\n")


def test_reserved_not_functor_rejected():
    with pytest.raises(DslError):
        parse_rules(HEADER + "not(p).\n")
    with pytest.raises(DslError):
        parse_rules(HEADER + "p :- not(not(q)).\n")


def test_serialize_round_trip_fixtures():
    for text in (fixtures.eu_rules_text(), fixtures.pl_rules_text()):
        kb = parse_rules(text)
        again = parse_rules(serialize_rules(kb))
        assert again == kb


def test_serialize_empty_kb():
    assert serialize_rules(parse_rules("")) == ""


def test_serialize_single_fact_clause():
    kb = parse_rules(HEADER + "p(a).\n")
    out = serialize_rules(kb)
    assert out.endswith("p(a).\n")
    assert parse_rules(out) == kb


def test_parse_facts_basic():
    facts = parse_facts(
        "proceeding_language(mario, polish).\nperson_document(mario, charge).\n"
    )
    assert len(facts) == 2
    assert Term("person_document", ("mario", "charge")) in facts


def test_parse_facts_blank_and_comments():
    assert len(parse_facts("\n% nothing here\n\n")) == 0


def test_parse_facts_rejects_non_ground():
    with pytest.raises(DslError) as err:
        parse_facts("person_document(mario, X).\n")
    assert "non-ground" in str(err.value)
    assert "X" in str(err.value)


def test_parse_facts_rejects_rules():
    with pytest.raises(DslError):
        parse_facts("p(a) :- q(a).\n")


@pytest.mark.parametrize("text", ["foo(a)", "foo(a", "foo(a,", "foo("])
def test_parse_facts_truncated_fact_is_located(text):
    with pytest.raises(DslError) as err:
        parse_facts(text)
    assert "unexpected end of line" in str(err.value)
    # the error points at the last token, which is one character wide here
    assert (err.value.line, err.value.col) == (1, len(text))


def test_parse_facts_duplicates_collapse():
    facts = parse_facts("p(a).\np(a).\n")
    assert len(facts) == 1


@pytest.mark.parametrize(
    "text, char", [("p(a).\x85q(X).\n", "\x85"), ("p(a).\fq(b).\n", "\f")]
)
def test_lines_break_only_at_newline(text, char):
    # \x85 and \f break a line for str.splitlines, but not in an editor
    with pytest.raises(DslError) as err:
        parse_facts(text)
    assert str(err.value) == f"line 1, column 6: unexpected character {char!r}"


def test_crlf_files_parse_like_lf_files():
    for text in (fixtures.eu_rules_text(), fixtures.pl_rules_text()):
        assert parse_rules(text.replace("\n", "\r\n")) == parse_rules(text)
    facts = fixtures.mario_facts_text()
    assert parse_facts(facts.replace("\n", "\r\n")) == parse_facts(facts)


def test_serialize_facts_round_trip(mario_facts):
    assert parse_facts(serialize_facts(mario_facts)) == mario_facts


def test_jurisdiction_labels_attach_to_sources():
    kb = parse_rules(fixtures.eu_rules_text())
    (source,) = kb.sources
    assert source.id == "directive_2010_64"
    assert source.jurisdiction_label == "European Union"


DSL_TOKENS = st.sampled_from(
    [
        "%% source: s",
        "%% article: a1",
        "%% title: Article 1",
        "%% jurisdiction: X",
        "%% ",
        "% ",
        ":-",
        "not(",
        "p",
        "q",
        "has_right",
        "a",
        "X",
        "_Y",
        "(",
        ")",
        ",",
        ".",
        " ",
        "\n",
    ]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(DSL_TOKENS).map("".join)))
def test_parsers_raise_only_typed_errors(text):
    for parse in (parse_rules, parse_facts):
        try:
            parse(text)
        except (DslError, KbError):
            pass


_REFERENCE_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_REFERENCE_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT"}


def _reference_tokens(text: str, line_no: int) -> list[tuple]:
    """The character loop the DSL tokenized lines with before its master
    regex, kept as the reference for it."""
    out = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "%":
            return out
        if text.startswith(":-", pos):
            out.append(("IMPLIES", ":-", line_no, pos + 1))
            pos += 2
            continue
        if ch in "(),.":
            out.append((_REFERENCE_PUNCT[ch], ch, line_no, pos + 1))
            pos += 1
            continue
        match = _REFERENCE_WORD_RE.match(text, pos)
        if match:
            word = match.group(0)
            kind = "VAR" if word[0].isupper() else "IDENT"
            out.append((kind, word, line_no, pos + 1))
            pos = match.end()
            continue
        raise DslError(f"unexpected character {ch!r}", line_no, pos + 1)
    return out


def _outcome(tokenize, text: str, line_no: int):
    try:
        return list(tokenize(text, line_no))
    except DslError as exc:
        return (str(exc), exc.line, exc.col)


def _tokens(text: str, line_no: int) -> list:
    out: list = []
    _tokenize_line(text, line_no, out)
    return out


TOKENIZER_PIECES = st.sampled_from(
    [" ", "\t", "\r", "\f", "\v", "\xa0", "\n", "%", ":", ":-", "-",
     "(", ")", ",", ".", "_", "7", "é", "p", "X", "a1", "Ab_2", "not"]
)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.lists(TOKENIZER_PIECES).map("".join), st.text()),
    st.integers(1, 9),
)
def test_tokenizer_matches_reference_loop(text, line_no):
    assert _outcome(_tokens, text, line_no) == _outcome(
        _reference_tokens, text, line_no
    )


@pytest.mark.parametrize(
    "text", ["\t\t", "   ", "\r", " % note \t", "%\n", "% a\n)é"]
)
def test_tokenizer_skips_blanks_and_comments(text):
    assert _tokens(text, 1) == []


@pytest.mark.parametrize("text", ["p(a). \t", "p(a).\t\t", "p(a).\r"])
def test_tokenizer_skips_trailing_blanks(text):
    assert _tokens(text, 1) == [
        ("IDENT", "p", 1, 1),
        ("LPAREN", "(", 1, 2),
        ("IDENT", "a", 1, 3),
        ("RPAREN", ")", 1, 4),
        ("DOT", ".", 1, 5),
    ]


@pytest.mark.parametrize(
    "text, col", [("p(a). \f", 7), ("p :\t- q.", 3), ("\xa0p.", 1), ("é", 1)]
)
def test_tokenizer_reports_other_characters(text, col):
    with pytest.raises(DslError) as err:
        _tokens(text, 2)
    assert (err.value.line, err.value.col) == (2, col)
    assert str(err.value) == (
        f"line 2, column {col}: unexpected character {text[col - 1]!r}"
    )


# --- the token reader as it was before the one-pass rules reader -------------
#
# The tokenizer, token stream, term parser and literal parser as they were,
# kept so that both references below stay the old code while the live ones
# change. Their messages quote values through kb._excerpt, as the live ones
# do.

_REFERENCE_TOKEN_RE = re.compile(
    r"(%)|(:-|[(),.])|([A-Za-z][A-Za-z0-9_]*)|([^ \t\r])"
)
_REFERENCE_PUNCT_KINDS = {":-": "IMPLIES", **_REFERENCE_PUNCT}


class _ReferenceToken(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


def _reference_tokenize_line(text: str, line_no: int, out: list) -> None:
    for match in _REFERENCE_TOKEN_RE.finditer(text):
        group, value, col = match.lastindex, match.group(), match.start() + 1
        if group == 2:
            out.append(
                _ReferenceToken(_REFERENCE_PUNCT_KINDS[value], value, line_no, col)
            )
        elif group == 3:
            kind = "VAR" if value[0].isupper() else "IDENT"
            out.append(_ReferenceToken(kind, value, line_no, col))
        elif group == 4:
            raise DslError(f"unexpected character {value!r}", line_no, col)
        else:
            return


class _ReferenceTokenStream:
    def __init__(self, tokens: list):
        self._tokens = tokens
        self._pos = 0

    def peek(self):
        try:
            return self._tokens[self._pos]
        except IndexError:
            last = self._tokens[-1]
            raise DslError("unexpected end of line", last.line, last.col) from None

    def next(self, expected: str | None = None):
        token = self.peek()
        if expected is not None and token.kind != expected:
            raise DslError(
                f"expected {expected}, found {_excerpt(token.value)}",
                token.line,
                token.col,
            )
        self._pos += 1
        return token

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._tokens)


def _reference_parse_term(stream: _ReferenceTokenStream) -> Term:
    tok = stream.next("IDENT")
    if tok.value == "not":
        raise DslError("'not' is reserved for negation", tok.line, tok.col)
    if stream.exhausted or stream.peek().kind != "LPAREN":
        return Term(tok.value)
    stream.next("LPAREN")
    args: list = []
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
                f"expected an atom or variable, found {_excerpt(arg.value)}",
                arg.line,
                arg.col,
            )
        sep = stream.next()
        if sep.kind == "RPAREN":
            break
        if sep.kind != "COMMA":
            raise DslError(
                f"expected ',' or ')', found {_excerpt(sep.value)}",
                sep.line,
                sep.col,
            )
    return Term(tok.value, tuple(args))


def _reference_parse_literal(stream: _ReferenceTokenStream) -> Literal:
    tok = stream.peek()
    if tok.kind == "IDENT" and tok.value == "not":
        stream.next()
        stream.next("LPAREN")
        term = _reference_parse_term(stream)
        stream.next("RPAREN")
        return Literal(term, negated=True)
    return Literal(_reference_parse_term(stream))


def _reference_parse_facts(text: str) -> CaseFacts:
    """parse_facts as it read every line before its fact-line pattern, kept
    as the reference for it."""
    facts = set()
    for line_no, line in enumerate(text.split("\n"), start=1):
        tokens: list = []
        _reference_tokenize_line(line, line_no, tokens)
        if not tokens:
            continue
        stream = _ReferenceTokenStream(tokens)
        term = _reference_parse_term(stream)
        stream.next("DOT")
        if not stream.exhausted:
            extra = stream.peek()
            raise DslError(
                f"unexpected input after fact: {_excerpt(extra.value)}",
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


def _facts_outcome(parse, text: str):
    try:
        return parse(text)
    except DslError as exc:
        return (str(exc), exc.line, exc.col)


@st.composite
def _near_fact_lines(draw):
    lead, before_dot, after_dot = (
        draw(st.sampled_from(NEAR_BLANKS)) for _ in range(3)
    )
    end = draw(st.sampled_from([".", ".", ".", "", "..", ". p", ":- q."]))
    comment = draw(st.sampled_from(["", "", "% note", "%", "%%", "% p(X)."]))
    return lead + draw(near_flat_terms()) + before_dot + end + after_dot + comment


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        # listed twice, so half the examples are near-fact lines
        st.lists(_near_fact_lines(), min_size=1, max_size=8).map("\n".join),
        st.lists(_near_fact_lines(), min_size=1, max_size=8).map("\n".join),
        st.lists(TOKENIZER_PIECES).map("".join),
        st.text(),
    )
)
def test_parse_facts_matches_the_tokenizer_path(text):
    assert _facts_outcome(parse_facts, text) == _facts_outcome(
        _reference_parse_facts, text
    )


@pytest.mark.parametrize(
    "text",
    [
        "p.\n",
        " \t p ( a ,b\t) . % note\n",
        "p(a).%\n",
        "p(not).\n",
        "not(a).\n",
        "not.\n",
        "p(X).\n",
        "p(f(a)).\n",
        "p(a)\xa0.\n",
        "p(a).\fq(b).\n",
        "p(a)\v.\n",
        "p().\n",
        "p(a) .. \n",
        "X(a).\n",
        "Y1.\n",
        "\xe9(a).\n",
    ],
)
def test_parse_facts_edge_lines_match_the_tokenizer_path(text):
    assert _facts_outcome(parse_facts, text) == _facts_outcome(
        _reference_parse_facts, text
    )


# --- the rules reader before its metadata became one record ------------------
#
# parse_rules, its metadata class and its clause parser as they were, kept
# as the reference for the reader that replaced them.

_REFERENCE_METADATA_RE = re.compile(r"\s*%%\s*([a-z_]+)\s*:\s*(.*?)\s*$")
_REFERENCE_METADATA_KEYS = ("source", "jurisdiction", "article", "title")


def _reference_parse_clause_tokens(tokens, source, article, title):
    stream = _ReferenceTokenStream(tokens)
    head_tok = stream.peek()
    if head_tok.kind == "IDENT" and head_tok.value == "not":
        raise DslError(
            "negation cannot appear in a clause head",
            head_tok.line,
            head_tok.col,
        )
    head = _reference_parse_term(stream)
    body = []
    tok = stream.next()
    if tok.kind == "IMPLIES":
        while True:
            body.append(_reference_parse_literal(stream))
            sep = stream.next()
            if sep.kind == "DOT":
                break
            if sep.kind != "COMMA":
                raise DslError(
                    f"expected ',' or '.', found {_excerpt(sep.value)}",
                    sep.line,
                    sep.col,
                )
    elif tok.kind != "DOT":
        raise DslError(
            f"expected ':-' or '.', found {_excerpt(tok.value)}", tok.line, tok.col
        )
    if not stream.exhausted:
        extra = stream.peek()
        raise DslError(
            f"unexpected input after clause: {_excerpt(extra.value)}",
            extra.line,
            extra.col,
        )
    return Clause(head, tuple(body), source, article, title)


class _ReferenceMetadataState:
    def __init__(self):
        self.source_id = None
        self.labels = {}
        self.article = None
        self.title = None

    def apply(self, key, value, line_no):
        if key == "source":
            if not is_identifier(value):
                raise DslError(f"invalid source id {_excerpt(value)}", line_no)
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
                raise DslError(f"invalid article id {_excerpt(value)}", line_no)
            self.article = value
        elif key == "title":
            if not value:
                raise DslError("empty %% title", line_no)
            self.title = value
        else:
            raise DslError(
                f"unknown metadata key {_excerpt(key)} "
                f"(expected one of {', '.join(_REFERENCE_METADATA_KEYS)})",
                line_no,
            )

    def current_source(self, line_no):
        if self.source_id is None:
            raise DslError("clause before any %% source line", line_no)
        return LegalSource(self.source_id, self.labels.get(self.source_id, ""))

    def require(self, line_no):
        source = self.current_source(line_no)
        if self.article is None:
            raise DslError("clause before any %% article line", line_no)
        if self.title is None:
            raise DslError("clause before any %% title line", line_no)
        return source, self.article, self.title


def _reference_parse_rules(text: str) -> KnowledgeBase:
    state = _ReferenceMetadataState()
    pending: list = []
    clauses: list = []

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
            clauses.append(_reference_parse_clause_tokens(tokens, *meta))

    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped.startswith("%%"):
            if pending:
                raise DslError(
                    "metadata line inside an unterminated clause", line_no
                )
            match = _REFERENCE_METADATA_RE.match(line)
            if not match:
                raise DslError("malformed metadata line", line_no)
            state.apply(match.group(1), match.group(2), line_no)
            continue
        _reference_tokenize_line(line, line_no, pending)
        drain()
    if pending:
        last = pending[-1]
        raise DslError("unterminated clause (missing '.')", last.line, last.col)
    return KnowledgeBase(tuple(clauses))


def _rules_outcome(parse, text: str):
    try:
        return parse(text)
    except DslError as exc:
        return (str(exc), exc.line, exc.col)
    except KbError as exc:
        return (type(exc), str(exc))


# Valid metadata lines for every key, with two values each, so that a key
# is repeated and a jurisdiction may conflict with an earlier one.
_GOOD_METADATA = [
    "%% source: s", "%% source: t", "%% jurisdiction: X",
    "%% jurisdiction: European Union", "%% article: a1", "%% article: a2",
    "%% title: Article 1", "%% title: T", " \t%%  article :  a2  ",
    "  %% jurisdiction:X",
]
# Invalid values for every key, unknown keys and malformed lines.
_BAD_METADATA = [
    "%% source: 1s", "%% source: S", "%% source:", "%% source: s t",
    "%% jurisdiction:", "%% article: A1", "%% article:", "%% article: a-1",
    "%% title:", "%% flavor: vanilla", "%% Source: s", "%%", "%% source",
    "%%source:s", "%% : s", "%%% source: s",
]
# Clauses whole and split across lines, blank lines and comments.
_GOOD_CLAUSES = [
    "p(a).", "q(X) :- p(X).", "p(X) :-", "    q(X),", "    r(X).", "r(b).",
    "p(X) :- not(q(X)).", "p(a) % note", "% p(X).", "", "p(a). q(b).",
    "has_right(r, t, a, P, o) :- person(P).",
]
# Clauses that the parser or the KB rejects.
_BAD_CLAUSES = [
    "p(X) :- not(r(Y)).", "p :- not(p).", "not(p).", "p(q(a)).",
    "p(a) q(b).", "p(a) :- .", "p(a), q(b).", "p(X) :- q(X) r(X).",
    "p(a) :- q(a)", ".", "p(a) :- not(q(a)). q(a) :- not(p(a)).",
]


def _rule_files(lines: list[str]):
    return st.tuples(
        st.sampled_from(["", "%% source: s\n", HEADER, HEADER]),
        st.lists(st.sampled_from(lines), max_size=12),
    ).map(lambda parts: parts[0] + "\n".join(parts[1]))


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        # listed twice, so that more than a few examples are valid programs
        _rule_files(_GOOD_METADATA + _GOOD_CLAUSES),
        _rule_files(_GOOD_METADATA + _GOOD_CLAUSES),
        _rule_files(_GOOD_METADATA + _GOOD_CLAUSES + _BAD_METADATA + _BAD_CLAUSES),
        st.lists(TOKENIZER_PIECES).map(lambda pieces: HEADER + "".join(pieces)),
        st.lists(TOKENIZER_PIECES).map("".join),
        st.lists(DSL_TOKENS).map("".join),
    )
)
def test_parse_rules_matches_the_reference_reader(text):
    assert _rules_outcome(parse_rules, text) == _rules_outcome(
        _reference_parse_rules, text
    )


def test_empty_title_is_rejected_with_its_line():
    with pytest.raises(DslError) as err:
        parse_rules("%% source: s\n%% article: a\n%% title:\n")
    assert str(err.value) == "line 3: empty %% title"
