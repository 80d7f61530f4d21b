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
from functools import cached_property
from typing import NoReturn

from .engine import FACT, NAF, RULE, ProofTree, RightsBundle
from .kb import ATOM, KnowledgeBase, format_literal, is_identifier

INDENT = "    "

CONCLUSION = "CONCLUSION"
INTERMEDIATE = "INTERMEDIATE"
FACT_LEAF = "FACT_LEAF"
NAF_LEAF = "NAF_LEAF"

_ATOM_RE = re.compile(ATOM)
_SPACE = " \t\n\r"
# Flat terms, a functor over atoms, are nearly all terms read: canonical
# text, bare or negated, and cited text with _SPACE between its tokens.
_FLAT = rf"{ATOM}(?:\({ATOM}(?:, {ATOM})*\))?"
_CANONICAL_FLAT_RE = re.compile(rf"{_FLAT}|not\({_FLAT}\)")
_S = f"[{_SPACE}]*"
_FLAT_TERM_RE = re.compile(rf"{ATOM}\({_S}{ATOM}{_S}(?:,{_S}{ATOM}{_S})*\)")
_CANONICAL_SPACING = str.maketrans({**dict.fromkeys(_SPACE), ",": ", "})
_KEYWORDS = ("Auxiliaries:", "Properties:")


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
    """One tree line: canonical term text, how it was justified, and its
    depth below the tree's root (the line's indentation level)."""

    term: str
    kind: str  # RULE, FACT, or NAF
    depth: int

    def __post_init__(self):
        if self.kind not in (RULE, FACT, NAF):
            raise TraceError(f"unknown trace node kind: {self.kind!r}")
        _check_kind(self.term, self.kind)
        if canonical_term_text(self.term) != self.term:
            raise TraceError(f"non-canonical term text: {self.term!r}")

    @property
    def role(self) -> str:
        """CONCLUSION, INTERMEDIATE, FACT_LEAF, or NAF_LEAF."""
        if self.depth == 0:
            return CONCLUSION
        if self.kind == FACT:
            return FACT_LEAF
        if self.kind == NAF:
            return NAF_LEAF
        return INTERMEDIATE


def _check_kind(term: str, kind: str) -> None:
    # the rendered line carries the kind only as this prefix and [FACT]
    if (kind == NAF) != term.startswith("not("):
        raise TraceError(f"{kind} node disagrees with its term text: {term!r}")


def _check_tree(tree: tuple[TraceNode, ...], first_line: int | None) -> None:
    """Require one root at depth 0, no indentation jump, and children only
    under RULE nodes. A parsed tree passes the line number of its root, so
    the error names the offending line; a constructed one passes None."""

    def fail(message: str, index: int) -> NoReturn:
        if first_line is not None:
            raise TraceParseError(message, first_line + index)
        raise TraceError(message)

    if not tree:
        fail("expected a proof tree", 0)
    if tree[0].depth != 0:
        fail("tree root must not be indented", 0)
    for index in range(1, len(tree)):
        depth, previous = tree[index].depth, tree[index - 1]
        if depth > previous.depth + 1:
            fail(
                f"indentation jumps from level {previous.depth} to {depth}",
                index,
            )
        if depth < 1:
            fail("multiple roots in one explanation tree", index)
        if depth > previous.depth and previous.kind != RULE:
            fail(f"{previous.kind} node cannot have children", index)


def _check_header(title: str, *atoms: str) -> None:
    """Reject a header whose rendered lines would not parse back."""
    if not title or title != title.strip() or "\n" in title or "\t" in title:
        raise TraceError(f"invalid display title: {title!r}")
    for atom in atoms:
        if not is_identifier(atom):
            raise TraceError(f"header part is not an atom: {atom!r}")


@dataclass(frozen=True)
class TraceSection:
    """An auxiliary-right or right-property block."""

    article: str
    right_type: str
    value: str
    title: str
    tree: tuple[TraceNode, ...]  # the tree's lines in document order

    def __post_init__(self):
        _check_header(self.title, self.article, self.right_type, self.value)
        _check_tree(self.tree, None)


@dataclass(frozen=True)
class TraceBundle:
    """Structured form of one trace document."""

    source_id: str
    article: str
    title: str
    option: str
    explanation: tuple[TraceNode, ...]  # the tree's lines in document order
    auxiliaries: tuple[TraceSection, ...] = ()
    properties: tuple[TraceSection, ...] = ()

    def __post_init__(self):
        _check_header(self.title, self.source_id, self.article, self.option)
        _check_tree(self.explanation, None)


@dataclass(frozen=True)
class TraceDocument:
    """A trace's text and bundle; the term views are computed once each."""

    raw_text: str
    bundle: TraceBundle

    @cached_property
    def terms(self) -> tuple[str, ...]:
        """Distinct node terms, in document order."""
        return tuple(dict.fromkeys(node.term for node in extract_terms(self)))

    @cached_property
    def known_terms(self) -> frozenset[str]:
        """Every node term, and the body of every ``not(...)`` term."""
        bodies = (t[4:-1] for t in self.terms if t.startswith("not("))
        return frozenset(self.terms).union(bodies)

    @cached_property
    def restatements(self) -> dict[str, str]:
        """Map each inner restatement (same functor, arity one less, directly
        under a section conclusion) to that conclusion."""
        bundle = self.bundle
        trees = [bundle.explanation]
        trees += [s.tree for s in bundle.auxiliaries + bundle.properties]
        mapping: dict[str, str] = {}
        for root, *nodes in trees:
            functor, arity = _term_parts(root.term)
            for child in nodes:
                if child.depth == 1 and _term_parts(child.term) == (functor, arity - 1):
                    mapping[child.term] = root.term
        return mapping


def _term_parts(text: str) -> tuple[str, int]:
    """Functor and arity of canonical term text."""
    functor, _, args = text.partition("(")
    depth, arity = 0, int(bool(args))
    for ch in args[:-1]:
        if ch in "()":
            depth += 1 if ch == "(" else -1
        elif ch == "," and depth == 0:
            arity += 1
    return functor, arity


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
    start positions parses each term once. A flat term, a functor over
    atoms, takes one regex match instead of the stack.
    """
    if pos in memo:
        return memo[pos]
    flat = _FLAT_TERM_RE.match(text, pos)
    if flat:
        term = flat.group()
        if not _CANONICAL_FLAT_RE.fullmatch(term):
            term = term.translate(_CANONICAL_SPACING)
        memo[pos] = (term, flat.end())
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
    if _CANONICAL_FLAT_RE.fullmatch(text):
        return text
    parsed = parse_term_at(text, 0)
    if parsed is None or parsed[1] != len(text):
        raise TraceError(f"malformed term: {text!r}")
    return parsed[0]


# --- rendering ---------------------------------------------------------------


def _node_lines(tree: tuple[TraceNode, ...], out: list[str]) -> None:
    for node in tree:
        suffix = " [FACT]" if node.kind == FACT else ""
        out.append(f"{INDENT * node.depth}{node.term}{suffix}")


def render_document(bundle: TraceBundle) -> str:
    """Render a structured bundle to canonical trace text."""
    lines: list[str] = []
    lines.append(f"{bundle.source_id} - {bundle.article}")
    lines.append("")
    lines.append(bundle.title)
    lines.append(f"Option: {bundle.option}")
    lines.append("")
    lines.append("Explanation:")
    lines.append("")
    _node_lines(bundle.explanation, lines)
    groups = (bundle.auxiliaries, bundle.properties)
    for keyword, sections in zip(_KEYWORDS, groups):
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
            lines.append(section.title)
            lines.append("Explanation:")
            lines.append("")
            _node_lines(section.tree, lines)
    return "\n".join(lines) + "\n"


def _nodes_from_proof(root: ProofTree) -> tuple[TraceNode, ...]:
    """The tree's lines, built without re-parsing their text: a bundle's
    trees are ground, and format_literal of a ground literal is canonical.
    Only the kind check runs, since a term's functor may be ``not``."""
    nodes = []
    for depth, proof in root.nodes():
        term = format_literal(proof.literal)
        _check_kind(term, proof.kind)
        node = object.__new__(TraceNode)
        object.__setattr__(node, "term", term)
        object.__setattr__(node, "kind", proof.kind)
        object.__setattr__(node, "depth", depth)
        nodes.append(node)
    return tuple(nodes)


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
            tree=_nodes_from_proof(tree),
        )

    structured = TraceBundle(
        source_id=bundle.source.id,
        article=bundle.article,
        title=title_for(bundle.article),
        option=bundle.option,
        explanation=_nodes_from_proof(bundle.primary),
        auxiliaries=tuple(section_for(t) for t in bundle.auxiliaries),
        properties=tuple(section_for(t) for t in bundle.properties),
    )
    return TraceDocument(render_document(structured), structured)


# --- parsing -----------------------------------------------------------------


def parse_trace(text: str) -> TraceDocument:
    """Parse canonical trace text back into its structured bundle.

    Each field is read where ``render_document`` writes it, and the bundle
    must then render back to the text byte for byte."""
    if not text.endswith("\n"):
        raise TraceParseError(
            "document must end with a newline", text.count("\n") + 1
        )
    lines = text.split("\n")[:-1]
    pos = 0  # the number of lines taken

    def fail(message: str) -> NoReturn:
        raise TraceParseError(message, pos)

    def take(what: str, expected: str | None = None) -> str:
        """The next line; it must equal expected, or be nonblank if None."""
        nonlocal pos
        if pos == len(lines):
            raise TraceParseError("unexpected end of document", pos + 1)
        line = lines[pos]
        pos += 1
        if "\t" in line:
            fail("tab character in trace")
        if line != line.rstrip():
            fail("trailing whitespace")
        wrong = not line if expected is None else line != expected
        if wrong:
            fail(f"expected {what}" + (f", found {line!r}" if line else ""))
        return line

    def header(what: str, parts: int) -> list[str]:
        """A header line of atoms joined by ' - ', and the blank after it."""
        line = take(f"a {what}")
        atoms = line.split(" - ")
        if len(atoms) != parts or not all(map(is_identifier, atoms)):
            fail(f"malformed {what}: {line!r}")
        take("a blank line", "")
        return atoms

    def title() -> str:
        line = take("a display title")
        try:
            _check_header(line)
        except TraceError as exc:
            fail(str(exc))
        return line

    def tree() -> tuple[TraceNode, ...]:
        """The 'Explanation:' marker, a blank line, then the tree's lines."""
        take("'Explanation:'", "Explanation:")
        take("a blank line", "")
        first_line = pos + 1
        nodes: list[TraceNode] = []
        while pos < len(lines) and lines[pos]:
            line = take("a tree line")
            term = line.lstrip(" ")
            indent = len(line) - len(term)
            if indent % len(INDENT):
                fail(f"indentation of {indent} spaces is not a multiple of 4")
            kind = NAF if term.startswith("not(") else RULE
            if term.endswith(" [FACT]"):
                if kind == NAF:
                    fail("negated literal marked [FACT]")
                term, kind = term[: -len(" [FACT]")], FACT
            try:
                nodes.append(TraceNode(term, kind, indent // len(INDENT)))
            except TraceError as exc:
                fail(str(exc))
        parsed = tuple(nodes)
        _check_tree(parsed, first_line)
        return parsed

    def after_blank() -> str | None:
        """The line after the next, which follows a tree's closing blank."""
        return lines[pos + 1] if pos + 1 < len(lines) else None

    def section() -> TraceSection:
        take("a blank line", "")
        article, right_type, value = header("section header", 3)
        return TraceSection(article, right_type, value, title(), tree())

    source_id, article = header("header line", 2)
    bundle_title = title()
    option = take("an 'Option:' line")
    if not option.startswith("Option: "):
        fail(f"expected 'Option: <atom>', found {option!r}")
    option = option[len("Option: ") :]
    if not is_identifier(option):
        fail(f"option is not an atom: {option!r}")
    take("a blank line", "")
    explanation = tree()

    # Each keyword that is present precedes its sections, which run on
    # until a keyword or the end of the document.
    groups = []
    for keyword in _KEYWORDS:
        found = []
        if after_blank() == keyword:
            take("a blank line", "")
            take(keyword, keyword)
            found.append(section())
            while after_blank() not in (None, *_KEYWORDS):
                found.append(section())
        groups.append(tuple(found))
    if pos < len(lines):
        take("a blank line", "")
        line = take("a section header")
        if line == "Auxiliaries:":
            fail("'Auxiliaries:' must precede 'Properties:'")
        if line == "Properties:":
            fail("'Properties:' appears twice")
        fail(f"unknown section header: {line!r}")

    bundle = TraceBundle(
        source_id, article, bundle_title, option, explanation, *groups
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


def extract_terms(doc: TraceDocument) -> list[TraceNode]:
    """Every tree node across all sections, in document order."""
    out = list(doc.bundle.explanation)
    for section in doc.bundle.auxiliaries + doc.bundle.properties:
        out.extend(section.tree)
    return out
