"""Two-step prompt chain: per-source plain-language explanation, then a
comparison of the two explanations.

The prompt templates are shipped as resource files and embedded verbatim
(their recorded SHA-256 hashes are checked at load time); the chain never
edits completions, and the comparison step sees only the step-1 outputs,
never the raw traces.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .fixtures import resource_text
from .gateway import (
    CompletionClient,
    GatewayError,
    LlmConfig,
    _checked,
    _json_fields,
)
from .kb import _Record
from .trace import TraceDocument

TRANSLATION_TEMPLATE_FILE = "translation_prompt.txt"
COMPARISON_TEMPLATE_FILE = "comparison_prompt.txt"
_HASH_FILE = "prompt_hashes.json"

SOURCE_1_LABEL = "=== SOURCE 1 ==="
SOURCE_2_LABEL = "=== SOURCE 2 ==="


class TemplateIntegrityError(RuntimeError):
    """A shipped prompt template does not match its recorded hash."""


@lru_cache(maxsize=None)
def _load_template(name: str) -> str:
    import hashlib  # here, not at import: lexplain evaluate reads no template

    text = resource_text(name)
    template = text[:-1] if text.endswith("\n") else text
    recorded = json.loads(resource_text(_HASH_FILE))[name]
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
    return dict(json.loads(resource_text(_HASH_FILE)))


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


class ChainStep(_Record):
    def __init__(self, prompt: str, output: str, latency: float):
        object.__setattr__(self, "prompt", prompt)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "latency", latency)


class ChainRun(_Record):
    """One execution of the chain: translate A, translate B, compare."""

    def __init__(self, run_index: int, config: LlmConfig,
                 steps: tuple[ChainStep, ChainStep, ChainStep], created_at: str):
        object.__setattr__(self, "run_index", run_index)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "created_at", created_at)

    @property
    def step1_outputs(self) -> tuple[str, str]:
        return (self.steps[0].output, self.steps[1].output)

    @property
    def step2_output(self) -> str:
        return self.steps[2].output


class ChainRunRecord(_Record):
    """Outcome of one repetition: a ChainRun or a recorded failure."""

    def __init__(self, run_index: int, run: ChainRun | None = None,
                 error: str | None = None):
        object.__setattr__(self, "run_index", run_index)
        object.__setattr__(self, "run", run)
        object.__setattr__(self, "error", error)

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
    from datetime import datetime, timezone

    created_at = datetime.now(timezone.utc).isoformat()
    steps: list[ChainStep] = []

    def step(step_no: int, prompt: str) -> str:
        try:
            response = client.complete(prompt, config)
        except GatewayError as exc:
            done = tuple(s.output for s in steps)
            raise ChainStepError(step_no, exc, done) from exc
        steps.append(ChainStep(prompt, response.text, response.latency))
        return response.text

    prompts = (build_translation_prompt(trace_a), build_translation_prompt(trace_b))
    outputs = [step(1, prompt) for prompt in prompts]
    step(2, build_comparison_prompt(*outputs))
    return ChainRun(run_index, config, tuple(steps), created_at)  # type: ignore[arg-type]


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
    steps = [dict(vars(step)) for step in run.steps]
    return {**vars(run), "config": dict(vars(run.config)), "steps": steps}


# The fields of each object in a run record, with the JSON types of each.
_RUN_FIELDS = {
    "run_index": (int,), "config": (dict,), "steps": (list,), "created_at": (str,)
}
_STEP_FIELDS = _json_fields(ChainStep)
_CONFIG_FIELDS = _json_fields(LlmConfig)


def run_from_json(data) -> ChainRun:
    """Rebuild run_to_json's record; ValueError names a malformed field."""
    data = _checked(data, _RUN_FIELDS, "run")
    steps = tuple(
        ChainStep(**_checked(step, _STEP_FIELDS, f"step {index}"))
        for index, step in enumerate(data["steps"])
    )
    if len(steps) != 3:
        raise ValueError(f"a chain run has 3 steps, found {len(steps)}")
    return ChainRun(
        run_index=data["run_index"],
        config=LlmConfig(**_checked(data["config"], _CONFIG_FIELDS, "config")),
        steps=steps,  # type: ignore[arg-type]
        created_at=data["created_at"],
    )


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps_json(value, indent: str = "") -> str:
    """The text json.dumps makes with indent=2, for a value on a line that
    starts with indent, without its pure-Python encoder. Keys must be str."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_NAMES.get(text, text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if all(isinstance(item, str) for item in value):
            items = map(_encode_str, value)
        else:
            items = [dumps_json(item, inner) for item in value]
        brackets = "[]"
    elif isinstance(value, dict):
        # _encode_str raises TypeError on a key that is not a str
        items = [f"{_encode_str(k)}: {dumps_json(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    if not value:
        return brackets
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def write_json(path: Path, data) -> None:
    """Write dumps_json(data) and a newline, as ASCII bytes."""
    path.write_bytes((dumps_json(data) + "\n").encode("ascii"))


def save_run(run: ChainRun, directory: str | Path) -> Path:
    path = Path(directory) / f"run_{run.run_index:03d}.json"
    write_json(path, run_to_json(run))
    return path


def load_run(path: str | Path) -> ChainRun:
    return run_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
