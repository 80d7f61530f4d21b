"""Pluggable chat-completion clients.

Two backends behind one ``complete(prompt, config)`` surface: an HTTP
client for OpenAI-style chat-completion endpoints, and a deterministic
canned-response mock that records the prompts it receives. Generation
defaults follow the experimental setup: temperature at its minimum and a
fixed token budget. The API key comes from the ``LLM_API_KEY`` environment
variable only, never from configuration files.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from .kb import _Record, _excerpt

if TYPE_CHECKING:
    import requests

DEFAULT_BASE_URL = "https://api.openai.com/v1/chat/completions"
API_KEY_ENV = "LLM_API_KEY"
MAX_RETRIES = 3
BACKOFF = 0.5

_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


class GatewayError(Exception):
    """Base class for completion failures."""

    retryable = False


class TransportError(GatewayError):
    """Network-level failure; safe to retry at temperature 0."""

    retryable = True


class CompletionTimeout(GatewayError):
    retryable = True


class AuthenticationError(GatewayError):
    """Missing or rejected API key."""


class BackendError(GatewayError):
    """The backend answered with an error or an unusable body."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status
        self.retryable = status in _RETRYABLE_STATUSES


class MockExhaustedError(GatewayError):
    """The mock's response queue ran out."""


class LlmConfig(_Record):
    """Generation settings; defaults are the documented assumptions."""

    def __init__(self, model_id: str = "gpt-4", temperature: float = 0.0,
                 max_tokens: int = 2048, base_url: str = DEFAULT_BASE_URL,
                 timeout: float = 60.0):
        object.__setattr__(self, "model_id", model_id)
        object.__setattr__(self, "temperature", temperature)
        object.__setattr__(self, "max_tokens", max_tokens)
        object.__setattr__(self, "base_url", base_url)
        object.__setattr__(self, "timeout", timeout)
        _checked(vars(self), _json_fields(LlmConfig), "config")
        if not model_id:
            raise ValueError("model_id must be nonempty")
        if not 0.0 <= temperature <= 2.0:
            raise ValueError(f"temperature must be in [0, 2], got {temperature}")
        if max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if not base_url:
            raise ValueError("base_url must be nonempty")
        if not 0 < timeout <= threading.TIMEOUT_MAX:  # NaN fails it too
            raise ValueError(
                f"timeout must be positive and at most {threading.TIMEOUT_MAX} s, "
                f"got {timeout}"
            )


class LlmResponse(_Record):
    """One completion: its text, the model that wrote it, and its cost."""

    def __init__(self, text: str, model_id: str, latency: float,
                 prompt_tokens: int = 0, completion_tokens: int = 0):
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "model_id", model_id)
        object.__setattr__(self, "latency", latency)
        object.__setattr__(self, "prompt_tokens", prompt_tokens)
        object.__setattr__(self, "completion_tokens", completion_tokens)
        if not text:
            raise ValueError("completion text must be nonempty")


class CompletionClient(Protocol):
    def complete(self, prompt: str, config: LlmConfig) -> LlmResponse:
        ...


# The JSON value types a record field of each annotation accepts.
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


def _json_fields(cls) -> dict:
    types = cls.__init__.__annotations__
    return {name: _JSON_TYPES[types[name]] for name in cls._fields}


def _checked(data, types_by_key: dict, what: str) -> dict:
    """data, once it is an object with exactly these fields, each of one of
    its JSON types: a tuple of Python types, or [str] for a list of strings."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, not {type(data).__name__}")
    for key in data:
        if key not in types_by_key:
            raise ValueError(f"{what} has an unknown field {_excerpt(key)}")
    for key, types in types_by_key.items():
        if key not in data:
            raise ValueError(f"{what} has no field {key!r}")
        value = data[key]
        if types == [str]:
            well_typed = type(value) is list and all(type(v) is str for v in value)
        else:
            well_typed = type(value) in types
        if not well_typed:
            raise ValueError(f"{what} field {key!r} is of type {type(value).__name__}")
    return data


def _require_prompt(prompt: str) -> None:
    if not prompt:
        raise ValueError("prompt must be nonempty")


class HttpCompletionClient:
    """Chat-completion over HTTP with bounded retries.

    Retries (up to ``MAX_RETRIES`` extra attempts, exponential backoff)
    only on retryable failures; completions at temperature 0 are treated
    as idempotent. Safe for concurrent ``complete`` calls. ``requests`` is
    imported only when a client is built, so offline runs never load it.
    """

    def __init__(
        self,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        import requests
        self._session = session or requests.Session()
        self._sleep = sleep

    def complete(self, prompt: str, config: LlmConfig) -> LlmResponse:
        _require_prompt(prompt)
        api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise AuthenticationError(
                f"environment variable {API_KEY_ENV} is not set"
            )
        attempt = 0
        while True:
            try:
                return self._request(prompt, config, api_key)
            except GatewayError as exc:
                if not exc.retryable or attempt >= MAX_RETRIES:
                    raise
                self._sleep(BACKOFF * (2 ** attempt))
                attempt += 1

    def _request(
        self, prompt: str, config: LlmConfig, api_key: str
    ) -> LlmResponse:
        import requests
        payload = {
            "model": config.model_id,
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
            "messages": [{"role": "user", "content": prompt}],
        }
        started = time.monotonic()
        try:
            response = self._session.post(
                config.base_url,
                json=payload,
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=config.timeout,
            )
        except requests.Timeout as exc:
            raise CompletionTimeout(
                f"no response within {config.timeout}s"
            ) from exc
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        latency = time.monotonic() - started
        if response.status_code in (401, 403):
            raise AuthenticationError(
                f"backend rejected credentials (HTTP {response.status_code})"
            )
        if response.status_code != 200:
            raise BackendError(
                f"backend returned HTTP {response.status_code}: "
                f"{response.text[:200]}",
                status=response.status_code,
            )
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
            model_id = body.get("model", config.model_id)
            usage = body.get("usage")
            keys = ("prompt_tokens", "completion_tokens")
            tokens = [0, 0] if usage is None else [usage.get(k, 0) for k in keys]
        except (
            ValueError, LookupError, TypeError, AttributeError, RecursionError
        ) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc
        if type(text) is not str or type(model_id) is not str:
            raise BackendError(
                "malformed backend response: content and model must be strings"
            )
        try:
            text.encode("utf-8")  # as the CLI writes it out
        except UnicodeEncodeError as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc
        if any(type(count) is not int or count < 0 for count in tokens):
            raise BackendError(
                "malformed backend response: token counts must be "
                "non-negative integers"
            )
        if not text:
            raise BackendError("backend returned an empty completion")
        return LlmResponse(text, model_id, latency, *tokens)


class MockCompletionClient:
    """Deterministic canned-response client for offline runs and tests.

    Responses are dequeued in order (or cycled when ``cycle`` is set) and
    every received prompt is recorded for later assertion. The queue is
    serialized internally, so concurrent ``complete`` calls are safe.
    """

    def __init__(self, responses: Sequence[str], cycle: bool = False):
        self._responses = list(responses)
        self._cycle = cycle
        self._lock = threading.Lock()
        self._prompts: list[str] = []

    @property
    def prompts(self) -> list[str]:
        """Prompts received so far, in call order."""
        with self._lock:
            return list(self._prompts)

    @property
    def calls(self) -> int:
        with self._lock:
            return len(self._prompts)

    def complete(self, prompt: str, config: LlmConfig) -> LlmResponse:
        _require_prompt(prompt)
        with self._lock:
            count = len(self._prompts)
            if count >= len(self._responses) and not (self._cycle and self._responses):
                raise MockExhaustedError(
                    f"mock queue exhausted after {len(self._responses)} responses"
                )
            text = self._responses[count % len(self._responses)]
            self._prompts.append(prompt)
        if not text:
            raise BackendError("mock response file is empty")
        return LlmResponse(text=text, model_id="mock", latency=0.0)


def mock_from_dir(path: str | Path, cycle: bool = False) -> MockCompletionClient:
    """Build a mock client from ordered response files (001.txt, 002.txt, ...)."""
    directory = Path(path)
    try:
        files = sorted(p for p in directory.iterdir() if p.is_file())
        responses = [p.read_text(encoding="utf-8") for p in files]
    except (OSError, UnicodeDecodeError) as exc:
        raise GatewayError(f"unreadable mock directory {directory}: {exc}")
    return MockCompletionClient(responses, cycle=cycle)
