"""lexplain: a rule-based rights reasoner with proof-tree traces, an LLM
explanation/comparison chain, and an evaluation harness for the outputs.
The ``chain`` and ``evaluation`` modules and their names load on first use.
"""

from importlib import import_module as _import_module

from .dsl import DslError, parse_facts, parse_rules, serialize_facts, serialize_rules
from .engine import (
    FACT,
    NAF,
    RULE,
    DepthLimitError,
    EngineError,
    GoalLimitError,
    NafNonGroundError,
    ProofTree,
    RightsBundle,
    UnknownSourceError,
    derive_rights,
    ground_oracle,
    solve,
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

# The module that defines each name loaded on first use (a run that only
# derives, renders or parses traces never needs them); a module's own name
# stands for the module.
_LAZY = dict.fromkeys(
    ("chain", "ChainRun", "ChainRunRecord", "ChainStep", "ChainStepError",
     "build_comparison_prompt", "build_translation_prompt",
     "comparison_template", "run_chain", "run_repeated", "translation_template"),
    "chain",
) | dict.fromkeys(
    ("evaluation", "COMPARISON_SECTIONS", "TRANSLATION_SECTIONS",
     "CompletenessResult", "EvaluationReport", "FormResult",
     "GroundednessResult", "StabilityResult", "check_completeness",
     "check_form", "check_groundedness", "evaluate", "stability"),
    "evaluation",
)
__all__ = sorted(name for name in {*globals(), *_LAZY} if name[0] != "_")


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
