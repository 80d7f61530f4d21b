"""The records of kb, engine, trace, gateway, chain and evaluation are plain
frozen classes.
They keep the behaviour they had as frozen dataclasses: repr, ==, hash,
frozen fields, and what the functions of ``dataclasses`` read from them."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexplain import fixtures
from lexplain.chain import ChainRun, ChainRunRecord, ChainStep
from lexplain.engine import (
    FACT,
    RULE,
    EngineError,
    ProofTree,
    RightsBundle,
    derive_rights,
)
from lexplain.evaluation import (
    CompletenessResult,
    EvaluationReport,
    FormResult,
    GroundednessResult,
    ManualAnnotation,
    StabilityResult,
    evaluate,
    report_to_json,
    stability,
)
from lexplain.gateway import LlmConfig, LlmResponse
from lexplain.kb import (
    CaseFacts,
    Clause,
    KbError,
    KnowledgeBase,
    LegalSource,
    Literal,
    Term,
    Variable,
)
from lexplain.trace import (
    TraceBundle,
    TraceDocument,
    TraceError,
    TraceNode,
    TraceSection,
    parse_trace,
    render_trace,
)

# Each record's dataclass fields, (name, type), as the records declared
# them when they were frozen dataclasses.
HEAD_FIELDS = {
    Variable: [("name", "str")],
    Term: [("functor", "str"), ("args", "tuple[TermArg, ...]")],
    Literal: [("term", "Term"), ("negated", "bool")],
    LegalSource: [("id", "str"), ("jurisdiction_label", "str")],
    Clause: [("head", "Term"), ("body", "tuple[Literal, ...]"),
             ("source", "LegalSource"), ("article", "str"), ("title", "str")],
    KnowledgeBase: [("clauses", "tuple[Clause, ...]")],
    CaseFacts: [("facts", "frozenset[Term]")],
    ProofTree: [("literal", "Literal"), ("kind", "str"),
                ("article", "str | None"),
                ("children", "tuple['ProofTree', ...]")],
    RightsBundle: [("source", "LegalSource"), ("primary", "ProofTree"),
                   ("auxiliaries", "tuple[ProofTree, ...]"),
                   ("properties", "tuple[ProofTree, ...]")],
    TraceNode: [("term", "str"), ("kind", "str"), ("depth", "int")],
    TraceSection: [("article", "str"), ("right_type", "str"), ("value", "str"),
                   ("title", "str"), ("tree", "tuple[TraceNode, ...]")],
    TraceBundle: [("source_id", "str"), ("article", "str"), ("title", "str"),
                  ("option", "str"), ("explanation", "tuple[TraceNode, ...]"),
                  ("auxiliaries", "tuple[TraceSection, ...]"),
                  ("properties", "tuple[TraceSection, ...]")],
    TraceDocument: [("raw_text", "str"), ("bundle", "TraceBundle")],
    LlmConfig: [("model_id", "str"), ("temperature", "float"),
                ("max_tokens", "int"), ("base_url", "str"), ("timeout", "float")],
    LlmResponse: [("text", "str"), ("model_id", "str"), ("latency", "float"),
                  ("prompt_tokens", "int"), ("completion_tokens", "int")],
    ChainStep: [("prompt", "str"), ("output", "str"), ("latency", "float")],
    ChainRun: [("run_index", "int"), ("config", "LlmConfig"),
               ("steps", "tuple[ChainStep, ChainStep, ChainStep]"),
               ("created_at", "str")],
    ChainRunRecord: [("run_index", "int"), ("run", "ChainRun | None"),
                     ("error", "str | None")],
    FormResult: [("sections_found", "tuple[str, ...]"), ("passed", "bool"),
                 ("violations", "tuple[str, ...]")],
    CompletenessResult: [("required_terms", "tuple[str, ...]"),
                         ("cited_terms", "tuple[str, ...]"),
                         ("missing_terms", "tuple[str, ...]"),
                         ("coverage", "float")],
    GroundednessResult: [("hallucinated_terms", "tuple[str, ...]")],
    ManualAnnotation: [("juridical_pass", "bool | None"), ("notes", "str")],
    EvaluationReport: [("form", "FormResult"),
                       ("completeness", "CompletenessResult"),
                       ("groundedness", "GroundednessResult"),
                       ("run_index", "int"), ("manual", "ManualAnnotation")],
    StabilityResult: [("runs", "int"), ("form_pass_rate", "float"),
                      ("coverage_min", "float"), ("coverage_mean", "float"),
                      ("coverage_max", "float"), ("hallucinated_runs", "int")],
}

# The reference for repr, == and hash: each record declared again as the
# frozen dataclass it was, under the same name.
DATACLASS_COPY = {
    cls: dataclasses.make_dataclass(
        cls.__name__, [name for name, _ in fields], frozen=True
    )
    for cls, fields in HEAD_FIELDS.items()
}


def as_dataclass(value):
    """value with every record in it replaced by its DATACLASS_COPY."""
    copy = DATACLASS_COPY.get(type(value))
    if copy is not None:
        return copy(*(as_dataclass(getattr(value, name))
                      for name, _ in HEAD_FIELDS[type(value)]))
    if isinstance(value, (tuple, frozenset)):
        return type(value)(map(as_dataclass, value))
    if isinstance(value, dict):
        return {key: as_dataclass(item) for key, item in value.items()}
    return value


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


EU_KB = fixtures.eu_kb()
PL_KB = fixtures.pl_kb()
MARIO = fixtures.mario_facts()
BUNDLE = derive_rights("mario", "directive_2010_64", EU_KB, MARIO)[0]
DOC = render_trace(BUNDLE, EU_KB)
X = Variable("X")
CLAUSE = Clause(Term("p", (X,)), (Literal(Term("q", (X,))),), LegalSource("s"),
                "art1", "Article 1")
LISTING1 = parse_trace(fixtures.resource_text("listing1.trace"))
REPORT = evaluate(fixtures.resource_text("outputs/translation_eu.txt"), LISTING1,
                  run_index=2)
STABILITY = stability([REPORT, evaluate("Summary\n", LISTING1, run_index=3)])
STEP = ChainStep("prompt", "output", 0.5)
RUN = ChainRun(0, LlmConfig(), (STEP, STEP, STEP), "2026-01-01T00:00:00+00:00")

# One record of each class, a change to one of its fields, and the repr
# (or, when long, the digest of the repr) that dataclasses.replace gave.
REPLACED = {
    Variable: (X, {"name": "Y"}, "Variable(name='Y')"),
    Term: (Term("p", ("a", X)), {"args": ("b",)},
           "Term(functor='p', args=('b',))"),
    Literal: (Literal(Term("p", ("a",))), {"negated": True},
              "Literal(term=Term(functor='p', args=('a',)), negated=True)"),
    LegalSource: (LegalSource("eu", "EU"), {"jurisdiction_label": "PL"},
                  "LegalSource(id='eu', jurisdiction_label='PL')"),
    Clause: (CLAUSE, {"article": "art2"}, "77eb9c4837a48947"),
    KnowledgeBase: (KnowledgeBase((CLAUSE,)), {"clauses": ()},
                    "KnowledgeBase(clauses=())"),
    CaseFacts: (CaseFacts(frozenset({Term("q", ("a",))})),
                {"facts": frozenset()}, "CaseFacts(facts=frozenset())"),
    ProofTree: (ProofTree(Literal(Term("q", ("a",))), FACT, None),
                {"literal": Literal(Term("q", ("b",)))},
                "ProofTree(literal=Literal(term=Term(functor='q', args=('b',)), "
                "negated=False), kind='FACT', article=None, children=())"),
    RightsBundle: (BUNDLE, {"auxiliaries": ()}, "69aba1a708e7f0b7"),
    TraceNode: (TraceNode("p(a)", RULE, 0), {"depth": 1},
                "TraceNode(term='p(a)', kind='RULE', depth=1)"),
    TraceSection: (DOC.bundle.auxiliaries[0], {"title": "Another title"},
                   "e26b70c5be7d2c51"),
    TraceBundle: (DOC.bundle, {"option": "records"}, "542359f47841d257"),
    TraceDocument: (DOC, {"raw_text": "x"}, "67f22e43207bcd96"),
    LlmConfig: (LlmConfig(), {"temperature": 0.5},
                "LlmConfig(model_id='gpt-4', temperature=0.5, max_tokens=2048, "
                "base_url='https://api.openai.com/v1/chat/completions', "
                "timeout=60.0)"),
    LlmResponse: (LlmResponse("text", "m", 0.5), {"prompt_tokens": 3},
                  "LlmResponse(text='text', model_id='m', latency=0.5, "
                  "prompt_tokens=3, completion_tokens=0)"),
    ChainStep: (STEP, {"latency": 1.5},
                "ChainStep(prompt='prompt', output='output', latency=1.5)"),
    ChainRun: (RUN, {"run_index": 1}, "1b495a434c795b72"),
    ChainRunRecord: (ChainRunRecord(1, error="timeout"), {"run_index": 2},
                     "ChainRunRecord(run_index=2, run=None, error='timeout')"),
    FormResult: (REPORT.form, {"passed": False},
                 "FormResult(sections_found=('Summary', 'What Rights do You Have', "
                 "'Why do You Have Them'), passed=False, violations=())"),
    CompletenessResult: (REPORT.completeness, {"coverage": 0.5},
                         "6523d750845407e9"),
    GroundednessResult: (REPORT.groundedness, {"hallucinated_terms": ("x(a)",)},
                         "GroundednessResult(hallucinated_terms=('x(a)',))"),
    ManualAnnotation: (ManualAnnotation(), {"notes": "checked"},
                       "ManualAnnotation(juridical_pass=None, notes='checked')"),
    EvaluationReport: (REPORT, {"run_index": 4}, "020b8e8c209009a9"),
    StabilityResult: (STABILITY, {"runs": 3},
                      "StabilityResult(runs=3, form_pass_rate=0.5, coverage_min=0.0, "
                      "coverage_mean=0.45454545454545453, "
                      "coverage_max=0.9090909090909091, hallucinated_runs=0)"),
}
RECORDS = {cls: record for cls, (record, _, _) in REPLACED.items()}
IDS = [cls.__name__ for cls in HEAD_FIELDS]


@pytest.mark.parametrize("cls", HEAD_FIELDS, ids=IDS)
def test_dataclasses_reads_the_fields_it_read_before(cls):
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(RECORDS[cls])
    assert not dataclasses.is_dataclass(Term.__mro__[1])  # the shared base
    fields = dataclasses.fields(cls)
    assert [(f.name, f.type) for f in fields] == HEAD_FIELDS[cls]
    assert dataclasses.fields(RECORDS[cls]) == fields


@pytest.mark.parametrize("cls", HEAD_FIELDS, ids=IDS)
def test_replace_gives_what_it_gave_before(cls):
    record, change, expected = REPLACED[cls]
    replaced = dataclasses.replace(record, **change)
    assert type(replaced) is cls
    text = repr(replaced)
    assert (text if len(text) < 200 else digest(replaced)) == expected


def test_asdict_gives_what_it_gave_before():
    assert dataclasses.asdict(LlmConfig()) == {
        "model_id": "gpt-4", "temperature": 0.0, "max_tokens": 2048,
        "base_url": "https://api.openai.com/v1/chat/completions",
        "timeout": 60.0,
    }
    assert dataclasses.asdict(LlmResponse("text", "m", 0.5)) == {
        "text": "text", "model_id": "m", "latency": 0.5, "prompt_tokens": 0,
        "completion_tokens": 0,
    }
    assert dataclasses.asdict(Literal(Term("p", ("a", X)), True)) == {
        "term": {"functor": "p", "args": ("a", {"name": "X"})}, "negated": True,
    }
    assert digest(dataclasses.asdict(BUNDLE)) == "22061fffe84bbf7a"
    assert dataclasses.asdict(STABILITY) == {
        "runs": 2, "form_pass_rate": 0.5, "coverage_min": 0.0,
        "coverage_mean": 0.45454545454545453, "coverage_max": 0.9090909090909091,
        "hallucinated_runs": 0,
    }
    assert digest(dataclasses.asdict(REPORT)) == "9c17a653ac67bcb9"
    assert digest(dataclasses.asdict(RUN)) == "91c29d4573f80d21"


@pytest.mark.parametrize(
    "config", [LlmConfig(), LlmConfig("m", 0.7, 10, "http://localhost:1/v1", 2.5)]
)
def test_a_config_rebuilds_from_its_asdict(config):
    assert LlmConfig(**dataclasses.asdict(config)) == config


@pytest.mark.parametrize(
    "record, change, error",
    [
        (TraceNode("p(a)", RULE, 0), {"kind": "BAD"}, TraceError),
        (Term("p", ("a",)), {"functor": "P"}, KbError),
        (ProofTree(Literal(Term("q", ("a",))), FACT, None), {"kind": RULE},
         EngineError),
        (LlmConfig(), {"temperature": 3.0}, ValueError),
        (LlmResponse("text", "m", 0.5), {"text": ""}, ValueError),
    ],
    ids=["TraceNode", "Term", "ProofTree", "LlmConfig", "LlmResponse"],
)
def test_replace_runs_the_constructor_checks(record, change, error):
    with pytest.raises(error):
        dataclasses.replace(record, **change)


def _proof_nodes():
    for kb in (EU_KB, PL_KB):
        for source in kb.sources:
            for bundle in derive_rights("mario", source.id, kb, MARIO):
                for tree in (bundle.primary, *bundle.auxiliaries,
                             *bundle.properties):
                    yield from (node for _, node in tree.nodes())


# Terms, literals and proof trees (every subtree) of the shipped sources.
TREES = list(_proof_nodes())
LITERALS = [lit for kb in (EU_KB, PL_KB) for c in kb.clauses for lit in c.body]
LITERALS += [tree.literal for tree in TREES]
TERMS = [c.head for kb in (EU_KB, PL_KB) for c in kb.clauses]
TERMS += [lit.term for lit in LITERALS] + list(MARIO.ordered)
SHIPPED = st.sampled_from(TERMS) | st.sampled_from(LITERALS) | st.sampled_from(TREES)


def _assert_behaves_as_the_dataclass(a, b):
    a_copy, b_copy = as_dataclass(a), as_dataclass(b)
    assert repr(a) == repr(a_copy)
    assert hash(a) == hash(a_copy)
    assert (a == b) is (a_copy == b_copy)
    assert (a != b) is (a_copy != b_copy)
    assert a != a_copy and a.__eq__(a_copy) is NotImplemented
    assert a != repr(a) and a.__eq__(None) is NotImplemented


@given(SHIPPED, SHIPPED)
def test_shipped_records_behave_as_the_dataclasses(a, b):
    _assert_behaves_as_the_dataclass(a, b)
    _assert_behaves_as_the_dataclass(a, a)
    rebuilt = type(a)(*(getattr(a, name) for name, _ in HEAD_FIELDS[type(a)]))
    assert rebuilt == a and hash(rebuilt) == hash(a)


@pytest.mark.parametrize("cls", HEAD_FIELDS, ids=IDS)
def test_each_record_behaves_as_the_dataclass(cls):
    record = RECORDS[cls]
    other = dataclasses.replace(record, **REPLACED[cls][1])
    copy = as_dataclass(record)
    assert repr(record) == repr(copy)
    assert record == type(record)(*(getattr(record, f) for f, _ in HEAD_FIELDS[cls]))
    assert (record == other) is (copy == as_dataclass(other)) is False
    assert record != copy and record.__eq__(copy) is NotImplemented
    assert hash(record) == hash(copy)


def test_a_report_without_a_manual_block_gets_a_new_default_one():
    # The one field whose dataclasses.fields entry changed: it shows
    # default=None, which stands for a new ManualAnnotation(), where the
    # dataclass showed default_factory=ManualAnnotation.
    manual = dataclasses.fields(EvaluationReport)[-1]
    assert manual.default is None
    assert manual.default_factory is dataclasses.MISSING
    parts = (REPORT.form, REPORT.completeness, REPORT.groundedness)
    first, second = EvaluationReport(*parts), EvaluationReport(*parts, manual=None)
    assert first.manual == second.manual == ManualAnnotation()
    assert first == second and hash(first) == hash(second)
    assert report_to_json(second)["manual"] == {"juridical_pass": None, "notes": ""}


def test_a_term_hashes_and_compares_as_its_functor_and_args():
    for term in TERMS:
        assert hash(term) == hash((term.functor, term.args))
        assert term == Term(term.functor, term.args)
        assert term != Term(term.functor + "x", term.args)
        assert (term == Literal(term)) is False and Literal(term) != term
        assert term.__eq__(Literal(term)) is NotImplemented


@pytest.mark.parametrize("cls", HEAD_FIELDS, ids=IDS)
def test_no_field_can_be_assigned_or_deleted(cls):
    record = RECORDS[cls]
    before = repr(record)
    for name, _ in HEAD_FIELDS[cls]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
        record.other = 1
    assert repr(record) == before
