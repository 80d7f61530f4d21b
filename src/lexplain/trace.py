"""Bit-exact renderer and parser for rights-trace documents.

A trace document is the textual wire format between the reasoner and the
LLM pipeline: a header block for the primary right, its proof tree at
4-space indentation with ``[FACT]`` markers and ``not(...)`` leaves, then
``Auxiliaries:`` and ``Properties:`` sections (omitted entirely when
empty). ``render`` and ``parse`` invert each other byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .engine import FACT, NAF, RULE, ProofTree, RightsBundle
from .kb import KnowledgeBase, format_literal, format_term, is_identifier

INDENT = "    "

CONCLUSION = "CONCLUSION"
INTERMEDIATE = "INTERMEDIATE"
FACT_LEAF = "FACT_LEAF"
NAF_LEAF = "NAF_LEAF"

_ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
_SPACE = " \t\n\r"


class TraceError(ValueError):
    """Invalid trace document or bundle."""


class MissingTitleError(TraceError):
    def __init__(self, article: str):
        self.article = article
        super().__init__(f"no display title for article {article}")


class TraceParseError(TraceError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class TraceNode:
    """One tree line: canonical term text plus how it was justified."""

    term: str
    kind: str  # RULE, FACT, or NAF
    children: tuple["TraceNode", ...] = ()

    def __post_init__(self):
        if self.kind not in (RULE, FACT, NAF):
            raise TraceError(f"unknown trace node kind: {self.kind!r}")
        if self.kind in (FACT, NAF) and self.children:
            raise TraceError(f"{self.kind} trace node cannot have children")


@dataclass(frozen=True)
class TraceSection:
    """An auxiliary-right or right-property block."""

    article: str
    right_type: str
    value: str
    title: str
    tree: TraceNode


@dataclass(frozen=True)
class TraceBundle:
    """Structured form of one trace document."""

    source_id: str
    article: str
    title: str
    option: str
    explanation: TraceNode
    auxiliaries: tuple[TraceSection, ...] = ()
    properties: tuple[TraceSection, ...] = ()


@dataclass(frozen=True)
class TraceDocument:
    raw_text: str
    bundle: TraceBundle


@dataclass(frozen=True)
class TraceTerm:
    """One tree node as seen by the evaluation harness."""

    text: str
    role: str  # CONCLUSION, INTERMEDIATE, FACT_LEAF, or NAF_LEAF
    depth: int


# --- canonical term text ----------------------------------------------------


def parse_term_at(text: str, pos: int) -> tuple[str, int] | None:
    """Parse a ground term (possibly ``not(...)``-wrapped) starting at pos.

    Returns (canonical text, end position) or None. The functor must be
    immediately followed by ``(``; whitespace is tolerated around commas
    and canonicalized away. Atoms only: this is the ground trace fragment.
    An argument is a nested term exactly when its atom is followed by
    ``(``. Nesting depth is bounded only by memory.
    """
    return parse_term_cached(text, pos, {})


def parse_term_cached(
    text: str, pos: int, memo: dict[int, tuple[str, int] | None]
) -> tuple[str, int] | None:
    """``parse_term_at`` that shares results through memo.

    memo maps a start position to its parse result. This call looks pos
    up first, then records every term it opens: the result of each one
    it closes, and None for those still open when it fails. Parsing from
    a position does not depend on the text before it, so a scan over all
    start positions parses each term once.
    """
    if pos in memo:
        return memo[pos]
    match = _ATOM_RE.match(text, pos)
    if not match:
        return None
    cursor = match.end()
    if cursor >= len(text) or text[cursor] != "(":
        return None
    cursor += 1
    # One (start, functor, arguments so far) frame per open term.
    stack: list[tuple[int, str, list[str]]] = [(pos, match.group(0), [])]
    while True:
        while cursor < len(text) and text[cursor] in _SPACE:
            cursor += 1
        match = _ATOM_RE.match(text, cursor)
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
            while cursor < len(text) and text[cursor] in _SPACE:
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


def canonical_term_text(text: str) -> str:
    """Canonicalize a full term string, or raise TraceError."""
    if _ATOM_RE.fullmatch(text):
        return text  # bare atom
    parsed = parse_term_at(text, 0)
    if parsed is None or parsed[1] != len(text):
        raise TraceError(f"malformed term: {text!r}")
    return parsed[0]


# --- rendering ---------------------------------------------------------------


def _check_title(title: str) -> str:
    if not title or title != title.strip() or "\n" in title:
        raise TraceError(f"invalid display title: {title!r}")
    return title


def _preorder(root: TraceNode) -> Iterator[tuple[TraceNode, int]]:
    """Each node of the tree and its depth, in document order."""
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((child, depth + 1) for child in reversed(node.children))


def _node_lines(root: TraceNode, out: list[str]) -> None:
    for node, depth in _preorder(root):
        if node.term != canonical_term_text(node.term):
            raise TraceError(f"non-canonical term text: {node.term!r}")
        suffix = " [FACT]" if node.kind == FACT else ""
        out.append(f"{INDENT * depth}{node.term}{suffix}")


def render_document(bundle: TraceBundle) -> str:
    """Render a structured bundle to canonical trace text."""
    lines: list[str] = []
    lines.append(f"{bundle.source_id} - {bundle.article}")
    lines.append("")
    lines.append(_check_title(bundle.title))
    lines.append(f"Option: {bundle.option}")
    lines.append("")
    lines.append("Explanation:")
    lines.append("")
    _node_lines(bundle.explanation, lines)
    for keyword, sections in (
        ("Auxiliaries:", bundle.auxiliaries),
        ("Properties:", bundle.properties),
    ):
        if not sections:
            continue
        lines.append("")
        lines.append(keyword)
        for section in sections:
            lines.append("")
            lines.append(
                f"{section.article} - {section.right_type} - {section.value}"
            )
            lines.append("")
            lines.append(_check_title(section.title))
            lines.append("Explanation:")
            lines.append("")
            _node_lines(section.tree, lines)
    return "\n".join(lines) + "\n"


def _node_from_proof(tree: ProofTree) -> TraceNode:
    if not tree.literal.term.is_ground:
        raise TraceError(f"proof tree is not ground: {tree.literal}")
    if tree.kind == NAF:
        text = format_literal(tree.literal)
    else:
        text = format_term(tree.literal.term)
    return TraceNode(
        text, tree.kind, tuple(_node_from_proof(c) for c in tree.children)
    )


def render_trace(bundle: RightsBundle, kb: KnowledgeBase) -> TraceDocument:
    """Render a derived rights bundle using the KB's display titles."""
    titles = kb.article_titles

    def title_for(article: str) -> str:
        if article not in titles:
            raise MissingTitleError(article)
        return titles[article]

    def section_for(tree: ProofTree) -> TraceSection:
        args = tree.literal.term.args
        return TraceSection(
            article=str(args[0]),
            right_type=str(args[3]),
            value=str(args[4]),
            title=title_for(str(args[0])),
            tree=_node_from_proof(tree),
        )

    structured = TraceBundle(
        source_id=bundle.source.id,
        article=bundle.article,
        title=title_for(bundle.article),
        option=bundle.option,
        explanation=_node_from_proof(bundle.primary),
        auxiliaries=tuple(section_for(t) for t in bundle.auxiliaries),
        properties=tuple(section_for(t) for t in bundle.properties),
    )
    return TraceDocument(render_document(structured), structured)


# --- parsing -----------------------------------------------------------------


class _Cursor:
    def __init__(self, text: str):
        if not text.endswith("\n"):
            raise TraceParseError(
                "document must end with a newline", text.count("\n") + 1
            )
        self.lines = text.split("\n")[:-1]
        self.pos = 0

    @property
    def line_no(self) -> int:
        return self.pos + 1

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.lines)

    def peek(self) -> str:
        if self.exhausted:
            raise TraceParseError("unexpected end of document", self.line_no)
        return self.lines[self.pos]

    def next(self) -> str:
        line = self.peek()
        if "\t" in line:
            raise TraceParseError("tab character in trace", self.line_no)
        if line != line.rstrip():
            raise TraceParseError("trailing whitespace", self.line_no)
        self.pos += 1
        return line

    def expect_blank(self) -> None:
        line = self.next()
        if line:
            raise TraceParseError(
                f"expected a blank line, found {line!r}", self.line_no - 1
            )

    def expect_nonblank(self, what: str) -> str:
        line = self.next()
        if not line:
            raise TraceParseError(f"expected {what}", self.line_no - 1)
        return line


def _parse_tree_line(line: str, line_no: int) -> tuple[int, TraceNode]:
    stripped = line.lstrip(" ")
    indent = len(line) - len(stripped)
    if indent % len(INDENT):
        raise TraceParseError(
            f"indentation of {indent} spaces is not a multiple of 4", line_no
        )
    depth = indent // len(INDENT)
    if stripped.endswith(" [FACT]"):
        term = stripped[: -len(" [FACT]")]
        if term.startswith("not("):
            raise TraceParseError("negated literal marked [FACT]", line_no)
        kind = FACT
    elif stripped.startswith("not("):
        term = stripped
        kind = NAF
    else:
        term = stripped
        kind = RULE
    try:
        canonical = canonical_term_text(term)
    except TraceError as exc:
        raise TraceParseError(str(exc), line_no) from exc
    if canonical != term:
        raise TraceParseError(f"non-canonical term text: {term!r}", line_no)
    return depth, TraceNode(term, kind)


def _parse_tree(cursor: _Cursor) -> TraceNode:
    entries: list[tuple[int, TraceNode, int]] = []
    while not cursor.exhausted and cursor.peek():
        line_no = cursor.line_no
        depth, node = _parse_tree_line(cursor.next(), line_no)
        entries.append((depth, node, line_no))
    if not entries:
        raise TraceParseError("expected a proof tree", cursor.line_no)
    if entries[0][0] != 0:
        raise TraceParseError("tree root must not be indented", entries[0][2])

    # Rebuild the tree from (depth, node) pairs; children are immutable,
    # so collect child lists first and construct bottom-up on dedent.
    root = entries[0][1]
    stack: list[tuple[int, TraceNode, list[TraceNode]]] = [(0, root, [])]

    def reduce_to(depth: int) -> None:
        while len(stack) > depth + 1:
            _, node, kids = stack.pop()
            rebuilt = TraceNode(node.term, node.kind, tuple(kids))
            stack[-1][2].append(rebuilt)

    for depth, node, line_no in entries[1:]:
        if depth > len(stack):
            raise TraceParseError(
                f"indentation jumps from level {len(stack) - 1} to {depth}",
                line_no,
            )
        if depth == 0:
            raise TraceParseError(
                "multiple roots in one explanation tree", line_no
            )
        reduce_to(depth - 1)
        parent_kind = stack[-1][1].kind
        if parent_kind != RULE:
            raise TraceParseError(
                f"{parent_kind} node cannot have children", line_no
            )
        stack.append((depth, node, []))
    reduce_to(0)
    _, node, kids = stack.pop()
    return TraceNode(node.term, node.kind, tuple(kids))


def _parse_section(cursor: _Cursor) -> TraceSection:
    header = cursor.expect_nonblank("a section header")
    parts = header.split(" - ")
    if len(parts) != 3 or not all(is_identifier(p) for p in parts):
        raise TraceParseError(
            f"malformed section header: {header!r}", cursor.line_no - 1
        )
    cursor.expect_blank()
    title = cursor.expect_nonblank("a display title")
    marker = cursor.expect_nonblank("'Explanation:'")
    if marker != "Explanation:":
        raise TraceParseError(
            f"expected 'Explanation:', found {marker!r}", cursor.line_no - 1
        )
    cursor.expect_blank()
    tree = _parse_tree(cursor)
    return TraceSection(parts[0], parts[1], parts[2], title, tree)


def parse_trace(text: str) -> TraceDocument:
    """Parse canonical trace text back into its structured bundle."""
    cursor = _Cursor(text)
    header = cursor.expect_nonblank("a header line")
    parts = header.split(" - ")
    if len(parts) != 2 or not all(is_identifier(p) for p in parts):
        raise TraceParseError(
            f"malformed header line: {header!r}", cursor.line_no - 1
        )
    source_id, article = parts
    cursor.expect_blank()
    title = cursor.expect_nonblank("a display title")
    option_line = cursor.expect_nonblank("an 'Option:' line")
    if not option_line.startswith("Option: "):
        raise TraceParseError(
            f"expected 'Option: <atom>', found {option_line!r}",
            cursor.line_no - 1,
        )
    option = option_line[len("Option: "):]
    if not is_identifier(option):
        raise TraceParseError(
            f"option is not an atom: {option!r}", cursor.line_no - 1
        )
    cursor.expect_blank()
    marker = cursor.expect_nonblank("'Explanation:'")
    if marker != "Explanation:":
        raise TraceParseError(
            f"expected 'Explanation:', found {marker!r}", cursor.line_no - 1
        )
    cursor.expect_blank()
    explanation = _parse_tree(cursor)

    auxiliaries: list[TraceSection] = []
    properties: list[TraceSection] = []
    section = None  # None -> "Auxiliaries:" -> "Properties:"
    while not cursor.exhausted:
        cursor.expect_blank()
        keyword_or_header = cursor.peek()
        if keyword_or_header == "Auxiliaries:":
            if section is not None:
                raise TraceParseError(
                    "'Auxiliaries:' must precede 'Properties:'",
                    cursor.line_no,
                )
            section = auxiliaries
            cursor.next()
            cursor.expect_blank()
            auxiliaries.append(_parse_section(cursor))
        elif keyword_or_header == "Properties:":
            section = properties
            cursor.next()
            cursor.expect_blank()
            properties.append(_parse_section(cursor))
        elif section is not None:
            section.append(_parse_section(cursor))
        else:
            raise TraceParseError(
                f"unknown section header: {keyword_or_header!r}",
                cursor.line_no,
            )

    bundle = TraceBundle(
        source_id=source_id,
        article=article,
        title=title,
        option=option,
        explanation=explanation,
        auxiliaries=tuple(auxiliaries),
        properties=tuple(properties),
    )
    rendered = render_document(bundle)
    if rendered != text:
        line = _first_divergence(rendered, text)
        raise TraceParseError(
            f"document does not round-trip; first divergence at line {line}",
            line,
        )
    return TraceDocument(text, bundle)


def _first_divergence(a: str, b: str) -> int:
    for i, (la, lb) in enumerate(zip(a.split("\n"), b.split("\n")), start=1):
        if la != lb:
            return i
    return min(a.count("\n"), b.count("\n")) + 1


# --- term extraction ---------------------------------------------------------


def _walk_terms(root: TraceNode, out: list[TraceTerm]) -> None:
    for node, depth in _preorder(root):
        if depth == 0:
            role = CONCLUSION
        elif node.kind == FACT:
            role = FACT_LEAF
        elif node.kind == NAF:
            role = NAF_LEAF
        else:
            role = INTERMEDIATE
        out.append(TraceTerm(node.term, role, depth))


def extract_terms(doc: TraceDocument) -> list[TraceTerm]:
    """Every tree node across all sections, in document order."""
    out: list[TraceTerm] = []
    _walk_terms(doc.bundle.explanation, out)
    for section in doc.bundle.auxiliaries + doc.bundle.properties:
        _walk_terms(section.tree, out)
    return out
