"""Two-step prompt chain: per-source plain-language explanation, then a
comparison of the two explanations.

The prompt templates are shipped as resource files and embedded verbatim
(their recorded SHA-256 hashes are checked at load time); the chain never
edits completions, and the comparison step sees only the step-1 outputs,
never the raw traces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .gateway import (
    CompletionClient,
    GatewayError,
    LlmConfig,
)
from .trace import TraceDocument

TRANSLATION_TEMPLATE_FILE = "translation_prompt.txt"
COMPARISON_TEMPLATE_FILE = "comparison_prompt.txt"
_HASH_FILE = "prompt_hashes.json"

SOURCE_1_LABEL = "=== SOURCE 1 ==="
SOURCE_2_LABEL = "=== SOURCE 2 ==="


class TemplateIntegrityError(RuntimeError):
    """A shipped prompt template does not match its recorded hash."""


def _resource_text(name: str) -> str:
    return (resources.files("lexplain") / "resources" / name).read_text(
        encoding="utf-8"
    )


@lru_cache(maxsize=None)
def _load_template(name: str) -> str:
    text = _resource_text(name)
    template = text[:-1] if text.endswith("\n") else text
    recorded = json.loads(_resource_text(_HASH_FILE))[name]
    actual = hashlib.sha256(template.encode("utf-8")).hexdigest()
    if actual != recorded:
        raise TemplateIntegrityError(
            f"{name}: sha256 {actual} != recorded {recorded}"
        )
    return template


def translation_template() -> str:
    """The verbatim translation prompt (structure + term-citing rules)."""
    return _load_template(TRANSLATION_TEMPLATE_FILE)


def comparison_template() -> str:
    """The verbatim two-step comparison prompt."""
    return _load_template(COMPARISON_TEMPLATE_FILE)


def template_hashes() -> dict[str, str]:
    return dict(json.loads(_resource_text(_HASH_FILE)))


def build_translation_prompt(trace: TraceDocument) -> str:
    """Template, a blank line, then the raw trace in a fenced block."""
    body = trace.raw_text
    if not body.endswith("\n"):
        body += "\n"
    return f"{translation_template()}\n\n```\n{body}```\n"


def build_comparison_prompt(expl_a: str, expl_b: str) -> str:
    """Template followed by the two labeled explanations, order preserved."""
    if not expl_a:
        raise ValueError("first explanation is empty")
    if not expl_b:
        raise ValueError("second explanation is empty")
    a = expl_a if expl_a.endswith("\n") else expl_a + "\n"
    b = expl_b if expl_b.endswith("\n") else expl_b + "\n"
    return (
        f"{comparison_template()}\n\n"
        f"{SOURCE_1_LABEL}\n{a}\n"
        f"{SOURCE_2_LABEL}\n{b}"
    )


@dataclass(frozen=True)
class ChainStep:
    prompt: str
    output: str
    latency: float


@dataclass(frozen=True)
class ChainRun:
    """One execution of the chain: translate A, translate B, compare."""

    run_index: int
    config: LlmConfig
    steps: tuple[ChainStep, ChainStep, ChainStep]
    created_at: str

    @property
    def step1_outputs(self) -> tuple[str, str]:
        return (self.steps[0].output, self.steps[1].output)

    @property
    def step2_output(self) -> str:
        return self.steps[2].output


@dataclass(frozen=True)
class ChainRunRecord:
    """Outcome of one repetition: a ChainRun or a recorded failure."""

    run_index: int
    run: ChainRun | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.run is not None


class ChainStepError(GatewayError):
    """A gateway failure annotated with the chain step that hit it."""

    def __init__(
        self, step: int, cause: GatewayError, completed: tuple[str, ...]
    ):
        self.step = step
        self.cause = cause
        self.completed_outputs = completed
        self.retryable = cause.retryable
        super().__init__(f"chain step {step} failed: {cause}")


def run_chain(
    trace_a: TraceDocument,
    trace_b: TraceDocument,
    client: CompletionClient,
    config: LlmConfig,
    run_index: int = 0,
) -> ChainRun:
    """Exactly three completions: step 1 on each trace, step 2 on the
    two step-1 outputs (never on the raw traces)."""
    created_at = datetime.now(timezone.utc).isoformat()
    outputs: list[str] = []
    steps: list[ChainStep] = []
    for step_no, prompt in (
        (1, build_translation_prompt(trace_a)),
        (1, build_translation_prompt(trace_b)),
    ):
        try:
            response = client.complete(prompt, config)
        except GatewayError as exc:
            raise ChainStepError(step_no, exc, tuple(outputs)) from exc
        outputs.append(response.text)
        steps.append(ChainStep(prompt, response.text, response.latency))
    comparison_prompt = build_comparison_prompt(outputs[0], outputs[1])
    try:
        response = client.complete(comparison_prompt, config)
    except GatewayError as exc:
        raise ChainStepError(2, exc, tuple(outputs)) from exc
    steps.append(
        ChainStep(comparison_prompt, response.text, response.latency)
    )
    return ChainRun(
        run_index=run_index,
        config=config,
        steps=(steps[0], steps[1], steps[2]),
        created_at=created_at,
    )


def run_repeated(
    trace_a: TraceDocument,
    trace_b: TraceDocument,
    client: CompletionClient,
    config: LlmConfig,
    n: int,
) -> list[ChainRunRecord]:
    """Repeat the chain n times; per-run failures are recorded, not fatal.

    Records are indexed by run number. Runs execute sequentially so that a
    shared mock sees a stable call order; the chain itself is stateless.
    """
    if n < 1:
        raise ValueError(f"repetitions must be >= 1, got {n}")
    records: list[ChainRunRecord] = []
    for index in range(n):
        try:
            run = run_chain(trace_a, trace_b, client, config, run_index=index)
            records.append(ChainRunRecord(index, run=run))
        except GatewayError as exc:
            records.append(ChainRunRecord(index, error=str(exc)))
    return records


# --- persistence -------------------------------------------------------------


def run_to_json(run: ChainRun) -> dict:
    return asdict(run)


def run_from_json(data: dict) -> ChainRun:
    steps = tuple(
        ChainStep(s["prompt"], s["output"], s["latency"])
        for s in data["steps"]
    )
    if len(steps) != 3:
        raise ValueError(f"a chain run has 3 steps, found {len(steps)}")
    return ChainRun(
        run_index=data["run_index"],
        config=LlmConfig(**data["config"]),
        steps=steps,  # type: ignore[arg-type]
        created_at=data["created_at"],
    )


def save_run(run: ChainRun, directory: str | Path) -> Path:
    path = Path(directory) / f"run_{run.run_index:03d}.json"
    path.write_text(
        json.dumps(run_to_json(run), indent=2) + "\n", encoding="utf-8"
    )
    return path


def load_run(path: str | Path) -> ChainRun:
    return run_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
