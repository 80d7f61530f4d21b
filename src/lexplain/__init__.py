"""lexplain: a rule-based rights reasoner with proof-tree traces, an LLM
explanation/comparison chain, and an evaluation harness for the outputs."""

from .chain import (
    ChainRun,
    ChainRunRecord,
    ChainStep,
    ChainStepError,
    build_comparison_prompt,
    build_translation_prompt,
    comparison_template,
    run_chain,
    run_repeated,
    translation_template,
)
from .dsl import DslError, parse_facts, parse_rules, serialize_facts, serialize_rules
from .engine import (
    FACT,
    NAF,
    RULE,
    DepthLimitError,
    EngineError,
    NafNonGroundError,
    ProofTree,
    RightsBundle,
    Substitution,
    UnknownSourceError,
    derive_rights,
    ground_oracle,
    solve,
)
from .evaluation import (
    COMPARISON_SECTIONS,
    TRANSLATION_SECTIONS,
    CompletenessResult,
    EvaluationReport,
    FormResult,
    GroundednessResult,
    StabilityResult,
    check_completeness,
    check_form,
    check_groundedness,
    evaluate,
    stability,
)
from .gateway import (
    AuthenticationError,
    GatewayError,
    HttpCompletionClient,
    LlmConfig,
    LlmResponse,
    MockCompletionClient,
    mock_from_dir,
)
from .kb import (
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
)
from .trace import (
    CONCLUSION,
    FACT_LEAF,
    INTERMEDIATE,
    NAF_LEAF,
    TraceBundle,
    TraceDocument,
    TraceError,
    TraceNode,
    TraceParseError,
    TraceSection,
    extract_terms,
    parse_trace,
    render_document,
    render_trace,
)

__version__ = "0.1.0"
