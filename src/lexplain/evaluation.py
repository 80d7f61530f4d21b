"""Automated checks for generated explanations against their source trace.

Three criteria are operationalized: form (required section structure),
completeness (every trace term cited back in the output), and groundedness
(no term-shaped reference absent from the trace). Completeness and
groundedness read the same term scan of the output: a trace term is cited
when the scan yields its canonical text, so a paraphrase does not count;
only the parenthesized reference does. Juridical validity of the prose is
not machine-decidable here; reports carry a manual-annotation field instead.
"""

from __future__ import annotations

import re
from math import fsum
from typing import Iterable, Iterator

from .gateway import _checked
from .kb import ATOM, _excerpt, _Record
from .trace import _S, _TERM_RE, TraceDocument, _canonical_spacing

TRANSLATION_SECTIONS = (
    "Summary",
    "What Rights do You Have",
    "Why do You Have Them",
)

COMPARISON_SECTIONS = (
    "1. Comparison of differences",
    "2. Potential consequences",
)

_ENUM_RE = re.compile(r"^(?:[-*]+|\(?\d+[.)]|\(?[a-z][.)])\s+")
_WORD_RE = re.compile(r"\w*")
# A run of term tokens from an "atom(": each "(" or "," is followed by an
# atom, and each atom or ")" by "," or ")". A term is valid when the run
# from its start reaches the ")" that closes its "(".
_RUN_RE = re.compile(
    rf"{ATOM}\((?:{_S}{ATOM}(?:\(|{_S}(?:\){_S})*,))*"
    rf"(?:{_S}{ATOM}{_S}(?:\){_S})*)?"
)
_PAREN_RE = re.compile(r"[()]")


class FormResult(_Record):
    """Outcome of the section-structure check."""

    def __init__(self, sections_found: tuple[str, ...], passed: bool,
                 violations: tuple[str, ...]):
        object.__setattr__(self, "sections_found", sections_found)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "violations", violations)


class CompletenessResult(_Record):
    """Which required trace terms the output cites."""

    def __init__(self, required_terms: tuple[str, ...], cited_terms: tuple[str, ...],
                 missing_terms: tuple[str, ...], coverage: float):
        object.__setattr__(self, "required_terms", required_terms)
        object.__setattr__(self, "cited_terms", cited_terms)
        object.__setattr__(self, "missing_terms", missing_terms)
        object.__setattr__(self, "coverage", coverage)


class GroundednessResult(_Record):
    """Term-shaped strings in the output that the trace never mentions."""

    def __init__(self, hallucinated_terms: tuple[str, ...]):
        object.__setattr__(self, "hallucinated_terms", hallucinated_terms)


class ManualAnnotation(_Record):
    """Juridical validity is assessed by a human, not automated."""

    def __init__(self, juridical_pass: bool | None = None, notes: str = ""):
        object.__setattr__(self, "juridical_pass", juridical_pass)
        object.__setattr__(self, "notes", notes)


class EvaluationReport(_Record):
    def __init__(self, form: FormResult, completeness: CompletenessResult,
                 groundedness: GroundednessResult, run_index: int = 0,
                 manual: ManualAnnotation = None):  # type: ignore[assignment]
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "completeness", completeness)
        object.__setattr__(self, "groundedness", groundedness)
        object.__setattr__(self, "run_index", run_index)
        # None stands for a new ManualAnnotation() on each call
        object.__setattr__(
            self, "manual", ManualAnnotation() if manual is None else manual
        )


class StabilityResult(_Record):
    """Aggregate statistics over repeated runs of identical inputs."""

    def __init__(self, runs: int, form_pass_rate: float, coverage_min: float,
                 coverage_mean: float, coverage_max: float, hallucinated_runs: int):
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "form_pass_rate", form_pass_rate)
        object.__setattr__(self, "coverage_min", coverage_min)
        object.__setattr__(self, "coverage_mean", coverage_mean)
        object.__setattr__(self, "coverage_max", coverage_max)
        object.__setattr__(self, "hallucinated_runs", hallucinated_runs)


# --- form ---------------------------------------------------------------------


def _normalize_heading(text: str) -> str:
    t = text.strip().lower()
    match = _ENUM_RE.match(t)
    if match:
        t = t[match.end():]
    return t


def _section_heads(expected_sections: tuple[str, ...]) -> list[tuple[str, str]]:
    """Each expected section with its normalized header text. ValueError
    names a section that is empty or the same header as an earlier one."""
    if not expected_sections:
        raise ValueError("expected_sections must be nonempty")
    heads = [
        (name, _normalize_heading(name).rstrip(":").rstrip())
        for name in expected_sections
    ]
    for index, (name, head) in enumerate(heads):
        if not head:
            raise ValueError(f"expected section {_excerpt(name)} has no header text")
        if head in (h for _, h in heads[:index]):
            raise ValueError(f"expected section {_excerpt(name)} repeats an earlier one")
    return heads


def check_form(output: str, expected_sections: tuple[str, ...]) -> FormResult:
    """Verify the expected section headers appear, in order, exactly once.

    Headers are matched case-insensitively at line starts, tolerating
    leading enumeration markers and trailing colons. Only a line feed ends
    a line. Failures are results, not errors; ValueError names an expected
    section that is empty or the same header as an earlier one.
    """
    heads = _section_heads(expected_sections)
    hits: dict[str, list[int]] = {name: [] for name in expected_sections}
    for idx, line in enumerate(output.split("\n")):
        norm = _normalize_heading(line)
        if not norm:
            continue
        for name, head in heads:
            if norm.startswith(head):
                # the header must not run on into a longer word
                after = norm[len(head) : len(head) + 1]
                if not (after.isalnum() or after == "_"):
                    hits[name].append(idx)
    violations: list[str] = []
    for name in expected_sections:
        if not hits[name]:
            violations.append(f"missing section: {name}")
        elif len(hits[name]) > 1:
            violations.append(f"duplicate section: {name}")
    present = [name for name in expected_sections if hits[name]]
    order = [hits[name][0] for name in present]
    if order != sorted(order):
        violations.append(
            "sections out of order: " + ", ".join(present)
        )
    found = tuple(sorted(present, key=lambda n: hits[n][0]))
    return FormResult(
        sections_found=found,
        passed=not violations,
        violations=tuple(violations),
    )


# --- term scan -----------------------------------------------------------------


def _scan_spans(text: str) -> Iterator[tuple[int, int, str]]:
    """(start, end, canonical text) of term-shaped substrings, in order of
    start: every flat term, bare or negated, and every other term that no
    term encloses. A nested term is never a trace term, so the nested
    terms inside one are skipped; the flat terms inside are not."""
    # A term can only start where the whole word before a "(" starts. The
    # word is matched in the reversed text, so each "(" costs one match
    # instead of one regex attempt per letter of the output. A "(" with no
    # word before it starts no term.
    backwards = text[::-1]
    closing: dict[int, int] | None = None  # each "(" to its ")", if needed
    run_end = enclosed_end = 0
    pos = text.find("(")
    while pos != -1:
        start = pos - len(_WORD_RE.match(backwards, len(text) - pos).group())
        flat = _TERM_RE.match(text, start) if start < pos else None
        if flat:
            yield start, flat.end(), _canonical_spacing(flat.group())
        elif enclosed_end <= start < pos:
            if start >= run_end:
                run = _RUN_RE.match(text, start)
                run_end = run.end() if run else pos
            # inside a run, this "(" opens a term whose tokens are valid up
            # to run_end; the term is valid if it closes before that
            if pos < run_end:
                if closing is None:
                    closing = _closing_parens(text)
                end = closing.get(pos, run_end) + 1
                if end <= run_end:
                    enclosed_end = end
                    yield start, end, _canonical_spacing(text[start:end])
        pos = text.find("(", pos + 1)


def _closing_parens(text: str) -> dict[int, int]:
    """The position of the ")" that closes each closed "(" of text."""
    closing, opened = {}, []
    for paren in _PAREN_RE.finditer(text):
        if paren.group() == "(":
            opened.append(paren.start())
        elif opened:
            closing[opened.pop()] = paren.start()
    return closing


# --- completeness --------------------------------------------------------------


def check_completeness(
    output: str, trace: TraceDocument
) -> CompletenessResult:
    """Require every trace term to be cited in the output.

    A term is cited when the output's term scan, the one groundedness
    reads, yields its canonical text. Inner conclusion restatements count
    as cited when their wrapping conclusion is cited.
    """
    return _completeness(_scan_spans(output), trace)


def _completeness(spans: Iterable, trace: TraceDocument) -> CompletenessResult:
    scanned = {term for _, _, term in spans}
    required, restated = trace.terms, trace.restatements
    cited_terms: list[str] = []
    missing: list[str] = []
    for term in required:
        if term in scanned or restated.get(term) in scanned:
            cited_terms.append(term)
        else:
            missing.append(term)
    coverage = len(cited_terms) / len(required) if required else 1.0
    return CompletenessResult(
        required_terms=required,
        cited_terms=tuple(cited_terms),
        missing_terms=tuple(missing),
        coverage=coverage,
    )


# --- groundedness ---------------------------------------------------------------


def check_groundedness(
    output: str, trace: TraceDocument
) -> GroundednessResult:
    """Flag term-shaped references that do not occur in the trace
    (negation bodies count as known subterms).

    Only the outermost unknown term is reported: a term inside one already
    flagged is skipped, so the report grows with the output, not with the
    square of its nesting depth.
    """
    return _groundedness(_scan_spans(output), trace)


def _groundedness(spans: Iterable, trace: TraceDocument) -> GroundednessResult:
    known = trace.known_terms
    hallucinated: dict[str, None] = {}
    flagged_end = 0
    for start, end, candidate in spans:
        if start >= flagged_end and candidate not in known:
            hallucinated[candidate] = None
            flagged_end = end
    return GroundednessResult(hallucinated_terms=tuple(hallucinated))


# --- composition ----------------------------------------------------------------


def evaluate(
    output: str,
    trace: TraceDocument,
    expected_sections: tuple[str, ...] = TRANSLATION_SECTIONS,
    run_index: int = 0,
) -> EvaluationReport:
    """Run all three checks over one output/trace pair."""
    spans = list(_scan_spans(output))
    return EvaluationReport(
        form=check_form(output, expected_sections),
        completeness=_completeness(spans, trace),
        groundedness=_groundedness(spans, trace),
        run_index=run_index,
    )


def stability(reports: list[EvaluationReport]) -> StabilityResult:
    """Aggregate repeated-run reports; requires >= 2 reports over the same
    inputs (recognized by identical required-term lists)."""
    if len(reports) < 2:
        raise ValueError(f"need at least 2 reports, got {len(reports)}")
    baseline = reports[0].completeness.required_terms
    for report in reports[1:]:
        if report.completeness.required_terms != baseline:
            raise ValueError(
                "reports come from different inputs "
                "(required-term sets differ)"
            )
    coverages = [r.completeness.coverage for r in reports]
    return StabilityResult(
        runs=len(reports),
        form_pass_rate=sum(r.form.passed for r in reports) / len(reports),
        coverage_min=min(coverages),
        coverage_mean=fsum(coverages) / len(coverages),
        coverage_max=max(coverages),
        hallucinated_runs=sum(
            1 for r in reports if r.groundedness.hallucinated_terms
        ),
    )


# --- serialization ----------------------------------------------------------------


def report_to_json(report: EvaluationReport) -> dict:
    return {
        "run_index": report.run_index,
        "form": {
            "pass": report.form.passed,
            "sections": list(report.form.sections_found),
            "violations": list(report.form.violations),
        },
        "completeness": {
            "coverage": report.completeness.coverage,
            "missing": list(report.completeness.missing_terms),
            "required": list(report.completeness.required_terms),
            "cited": list(report.completeness.cited_terms),
        },
        "groundedness": {
            "hallucinated": list(report.groundedness.hallucinated_terms),
        },
        "manual": {
            "juridical_pass": report.manual.juridical_pass,
            "notes": report.manual.notes,
        },
    }


# The parts of a report record, and the JSON types of each part's fields.
_PART_FIELDS = {
    "form": {"pass": (bool,), "sections": [str], "violations": [str]},
    "completeness": {
        "coverage": (int, float), "missing": [str], "required": [str], "cited": [str]
    },
    "groundedness": {"hallucinated": [str]},
    "manual": {"juridical_pass": (bool, type(None)), "notes": (str,)},
}
_REPORT_FIELDS = {"run_index": (int,), **dict.fromkeys(_PART_FIELDS, (dict,))}


def report_from_json(data) -> EvaluationReport:
    """Rebuild report_to_json's record; ValueError names a malformed field."""
    data = _checked(data, _REPORT_FIELDS, "report")
    form, completeness, groundedness, manual = (
        _checked(data[part], fields, part) for part, fields in _PART_FIELDS.items()
    )
    if form["pass"] != (not form["violations"]):
        raise ValueError("form field 'pass' disagrees with 'violations'")
    required, cited = completeness["required"], completeness["cited"]
    missing = completeness["missing"]
    if sorted(cited + missing) != sorted(required) or set(cited) & set(missing):
        raise ValueError(
            "completeness fields 'cited' and 'missing' do not split 'required'"
        )
    coverage = len(cited) / len(required) if required else 1.0
    if completeness["coverage"] != coverage:
        raise ValueError(f"completeness field 'coverage' is not {coverage!r}")
    return EvaluationReport(
        form=FormResult(
            sections_found=tuple(form["sections"]),
            passed=form["pass"],
            violations=tuple(form["violations"]),
        ),
        completeness=CompletenessResult(
            required_terms=tuple(required),
            cited_terms=tuple(cited),
            missing_terms=tuple(missing),
            coverage=completeness["coverage"],
        ),
        groundedness=GroundednessResult(
            hallucinated_terms=tuple(groundedness["hallucinated"])
        ),
        run_index=data["run_index"],
        manual=ManualAnnotation(
            juridical_pass=manual["juridical_pass"], notes=manual["notes"]
        ),
    )
