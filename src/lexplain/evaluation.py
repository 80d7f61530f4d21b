"""Automated checks for generated explanations against their source trace.

Three criteria are operationalized: form (required section structure),
completeness (every trace term cited back in the output), and groundedness
(no term-shaped reference absent from the trace). Matching is exact-string
after whitespace canonicalization, so a paraphrase does not count; only
the parenthesized reference does. Juridical validity of the prose is not
machine-decidable here; reports carry a manual-annotation field instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from statistics import fmean

from .trace import TraceDocument, extract_terms, parse_term_at

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
_CANDIDATE_RE = re.compile(r"[a-z][A-Za-z0-9_]*\(")


@dataclass(frozen=True)
class FormResult:
    """Outcome of the section-structure check."""

    sections_found: tuple[str, ...]
    passed: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class CompletenessResult:
    """Which required trace terms the output cites."""

    required_terms: tuple[str, ...]
    cited_terms: tuple[str, ...]
    missing_terms: tuple[str, ...]
    coverage: float


@dataclass(frozen=True)
class GroundednessResult:
    """Term-shaped strings in the output that the trace never mentions."""

    hallucinated_terms: tuple[str, ...]


@dataclass(frozen=True)
class ManualAnnotation:
    """Juridical validity is assessed by a human, not automated."""

    juridical_pass: bool | None = None
    notes: str = ""


@dataclass(frozen=True)
class EvaluationReport:
    form: FormResult
    completeness: CompletenessResult
    groundedness: GroundednessResult
    run_index: int = 0
    manual: ManualAnnotation = field(default_factory=ManualAnnotation)


@dataclass(frozen=True)
class StabilityResult:
    """Aggregate statistics over repeated runs of identical inputs."""

    runs: int
    form_pass_rate: float
    coverage_min: float
    coverage_mean: float
    coverage_max: float
    hallucinated_runs: int


# --- form ---------------------------------------------------------------------


def _normalize_heading(text: str) -> str:
    t = text.strip().lower()
    match = _ENUM_RE.match(t)
    if match:
        t = t[match.end():]
    return t


def _heading_matches(line: str, expected: str) -> bool:
    norm_line = _normalize_heading(line)
    norm_expected = _normalize_heading(expected).rstrip(":").rstrip()
    if not norm_line.startswith(norm_expected):
        return False
    rest = norm_line[len(norm_expected):]
    return not rest or not (rest[0].isalnum() or rest[0] == "_")


def check_form(output: str, expected_sections: tuple[str, ...]) -> FormResult:
    """Verify the expected section headers appear, in order, exactly once.

    Headers are matched case-insensitively at line starts, tolerating
    leading enumeration markers and trailing colons. Failures are results,
    not errors.
    """
    if not expected_sections:
        raise ValueError("expected_sections must be nonempty")
    hits: dict[str, list[int]] = {name: [] for name in expected_sections}
    for idx, line in enumerate(output.splitlines()):
        if not line.strip():
            continue
        for name in expected_sections:
            if _heading_matches(line, name):
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


# --- completeness --------------------------------------------------------------


def _normalize_for_match(text: str) -> str:
    text = re.sub(r"\s*\(\s*", "(", text)
    text = re.sub(r"\s*\)", ")", text)
    text = re.sub(r"\s*,\s*", ", ", text)
    return re.sub(r"\s+", " ", text)


def _term_parts(text: str) -> tuple[str, int]:
    if "(" not in text:
        return text, 0
    functor = text[: text.index("(")]
    inner = text[text.index("(") + 1 : -1]
    depth = 0
    count = 1
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            count += 1
    return functor, count


def _restatements(trace: TraceDocument) -> dict[str, str]:
    """Map each inner restatement (same functor, arity one less, directly
    under a section conclusion) to that conclusion; citing the conclusion
    counts as citing the restatement."""
    mapping: dict[str, str] = {}
    roots = [trace.bundle.explanation]
    roots += [s.tree for s in trace.bundle.auxiliaries]
    roots += [s.tree for s in trace.bundle.properties]
    for root in roots:
        functor, arity = _term_parts(root.term)
        for child in root.children:
            child_functor, child_arity = _term_parts(child.term)
            if child_functor == functor and child_arity == arity - 1:
                mapping[child.term] = root.term
    return mapping


def check_completeness(
    output: str, trace: TraceDocument
) -> CompletenessResult:
    """Require every trace term to be cited verbatim in the output.

    Inner conclusion restatements count as cited when their wrapping
    conclusion is cited.
    """
    normalized = _normalize_for_match(output)
    restated = _restatements(trace)
    required: list[str] = []
    seen: set[str] = set()
    for term in extract_terms(trace):
        if term.text not in seen:
            seen.add(term.text)
            required.append(term.text)

    def cited(term_text: str) -> bool:
        if term_text in normalized:
            return True
        wrapper = restated.get(term_text)
        return wrapper is not None and wrapper in normalized

    cited_terms = tuple(t for t in required if cited(t))
    missing = tuple(t for t in required if not cited(t))
    coverage = len(cited_terms) / len(required) if required else 1.0
    return CompletenessResult(
        required_terms=tuple(required),
        cited_terms=cited_terms,
        missing_terms=missing,
        coverage=coverage,
    )


# --- groundedness ---------------------------------------------------------------


def scan_output_terms(text: str) -> list[str]:
    """All term-shaped substrings, canonicalized, in order.

    Nested occurrences are reported too (``not(q(a))`` yields both the
    wrapper and ``q(a)``): each is looked up independently, and appending
    text to the output can then only ever grow the candidate list.
    """
    found: list[str] = []
    for match in _CANDIDATE_RE.finditer(text):
        start = match.start()
        if start > 0 and (text[start - 1].isalnum() or text[start - 1] == "_"):
            continue
        parsed = parse_term_at(text, start)
        if parsed is not None:
            found.append(parsed[0])
    return found


def check_groundedness(
    output: str, trace: TraceDocument
) -> GroundednessResult:
    """Flag term-shaped references that do not occur in the trace
    (negation bodies count as known subterms)."""
    known: set[str] = set()
    for term in extract_terms(trace):
        known.add(term.text)
        if term.text.startswith("not(") and term.text.endswith(")"):
            known.add(term.text[4:-1])
    hallucinated: list[str] = []
    for candidate in scan_output_terms(output):
        if candidate not in known and candidate not in hallucinated:
            hallucinated.append(candidate)
    return GroundednessResult(hallucinated_terms=tuple(hallucinated))


# --- composition ----------------------------------------------------------------


def evaluate(
    output: str,
    trace: TraceDocument,
    expected_sections: tuple[str, ...] = TRANSLATION_SECTIONS,
    run_index: int = 0,
) -> EvaluationReport:
    """Run all three checks over one output/trace pair."""
    return EvaluationReport(
        form=check_form(output, expected_sections),
        completeness=check_completeness(output, trace),
        groundedness=check_groundedness(output, trace),
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
        coverage_mean=fmean(coverages),
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


def report_from_json(data: dict) -> EvaluationReport:
    completeness = data["completeness"]
    return EvaluationReport(
        form=FormResult(
            sections_found=tuple(data["form"]["sections"]),
            passed=data["form"]["pass"],
            violations=tuple(data["form"]["violations"]),
        ),
        completeness=CompletenessResult(
            required_terms=tuple(completeness["required"]),
            cited_terms=tuple(completeness["cited"]),
            missing_terms=tuple(completeness["missing"]),
            coverage=completeness["coverage"],
        ),
        groundedness=GroundednessResult(
            hallucinated_terms=tuple(data["groundedness"]["hallucinated"])
        ),
        run_index=data["run_index"],
        manual=ManualAnnotation(
            juridical_pass=data["manual"]["juridical_pass"],
            notes=data["manual"]["notes"],
        ),
    )

