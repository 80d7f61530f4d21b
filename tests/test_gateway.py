"""Completion clients: mock determinism, HTTP behavior, retries, errors."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

from lexplain.gateway import (
    AuthenticationError,
    BackendError,
    CompletionTimeout,
    GatewayError,
    HttpCompletionClient,
    LlmConfig,
    MockCompletionClient,
    MockExhaustedError,
    TransportError,
    mock_from_dir,
)

CFG = LlmConfig(base_url="http://localhost:1/unused")


def test_config_defaults_follow_documented_assumptions():
    cfg = LlmConfig()
    assert cfg.temperature == 0.0
    assert cfg.model_id == "gpt-4"
    assert cfg.max_tokens == 2048


@pytest.mark.parametrize(
    "kwargs",
    [
        {"temperature": -0.1},
        {"temperature": 2.5},
        {"max_tokens": 0},
        {"timeout": 0},
        {"model_id": ""},
        {"base_url": ""},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        LlmConfig(**kwargs)


def test_mock_dequeues_in_order_and_records_prompts():
    client = MockCompletionClient(["one", "two"])
    assert client.complete("p1", CFG).text == "one"
    assert client.complete("p2", CFG).text == "two"
    assert client.prompts == ["p1", "p2"]
    with pytest.raises(MockExhaustedError):
        client.complete("p3", CFG)


def test_mock_rejects_empty_prompt():
    client = MockCompletionClient(["x"])
    with pytest.raises(ValueError):
        client.complete("", CFG)


def test_mock_cycles_when_asked():
    client = MockCompletionClient(["a", "b"], cycle=True)
    texts = [client.complete("p", CFG).text for _ in range(5)]
    assert texts == ["a", "b", "a", "b", "a"]


def test_mock_determinism():
    queue = ["alpha", "beta", "gamma"]
    runs = []
    for _ in range(2):
        client = MockCompletionClient(list(queue))
        runs.append(
            [(client.complete(f"p{i}", CFG).text) for i in range(3)]
            + client.prompts
        )
    assert runs[0] == runs[1]


def test_mock_from_dir(tmp_path):
    for i, text in enumerate(["first", "second", "third"], start=1):
        (tmp_path / f"{i:03d}.txt").write_text(text, encoding="utf-8")
    client = mock_from_dir(tmp_path)
    assert [client.complete("p", CFG).text for _ in range(3)] == [
        "first",
        "second",
        "third",
    ]
    with pytest.raises(MockExhaustedError):
        client.complete("p", CFG)


def test_mock_from_dir_unreadable(tmp_path):
    with pytest.raises(GatewayError):
        mock_from_dir(tmp_path / "does-not-exist")


def test_mock_empty_queue_errors_immediately():
    with pytest.raises(MockExhaustedError):
        MockCompletionClient([]).complete("p", CFG)


def test_mock_thread_safety():
    client = MockCompletionClient([str(i) for i in range(64)])
    seen = []

    def worker():
        for _ in range(8):
            seen.append(client.complete("p", CFG).text)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(seen, key=int) == [str(i) for i in range(64)]


# --- HTTP client -----------------------------------------------------------


class _FakeResponse:
    def __init__(self, status=200, body=None, text=""):
        self.status_code = status
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class _FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _ok_body(text="hello"):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 11, "completion_tokens": 7},
        "model": "gpt-4-0613",
    }


def test_http_client_happy_path(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    session = _FakeSession([_FakeResponse(body=_ok_body())])
    client = HttpCompletionClient(session=session)
    response = client.complete("ping", CFG)
    assert response.text == "hello"
    assert response.model_id == "gpt-4-0613"
    assert response.prompt_tokens == 11
    sent = session.requests[0]
    assert sent["json"]["messages"] == [{"role": "user", "content": "ping"}]
    assert sent["json"]["temperature"] == 0.0
    assert sent["headers"]["Authorization"] == "Bearer sk-test"


def test_http_client_requires_api_key(monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    client = HttpCompletionClient(session=_FakeSession([]))
    with pytest.raises(AuthenticationError):
        client.complete("ping", CFG)


def test_http_client_maps_auth_status(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    session = _FakeSession([_FakeResponse(status=401, text="nope")])
    client = HttpCompletionClient(session=session)
    with pytest.raises(AuthenticationError):
        client.complete("ping", CFG)


def test_http_client_retries_transport_errors(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    naps = []
    session = _FakeSession(
        [
            requests.ConnectionError("boom"),
            requests.ConnectionError("boom"),
            _FakeResponse(body=_ok_body("finally")),
        ]
    )
    client = HttpCompletionClient(session=session, sleep=naps.append)
    assert client.complete("ping", CFG).text == "finally"
    assert naps == [0.5, 1.0]


def test_http_client_gives_up_after_retries(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    session = _FakeSession([requests.ConnectionError("boom")] * 4)
    client = HttpCompletionClient(session=session, sleep=lambda _: None)
    with pytest.raises(TransportError):
        client.complete("ping", CFG)
    assert len(session.requests) == 4


def test_http_client_no_retry_on_client_error(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    session = _FakeSession([_FakeResponse(status=400, text="bad request")])
    client = HttpCompletionClient(session=session, sleep=lambda _: None)
    with pytest.raises(BackendError) as err:
        client.complete("ping", CFG)
    assert err.value.status == 400
    assert len(session.requests) == 1


def test_http_client_timeout(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    session = _FakeSession([requests.Timeout("slow")] * 4)
    client = HttpCompletionClient(session=session, sleep=lambda _: None)
    with pytest.raises(CompletionTimeout):
        client.complete("ping", CFG)


def test_http_client_malformed_body(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    for body in (
        {"choices": []},
        {**_ok_body(), "usage": {"prompt_tokens": None}},
        {**_ok_body(), "usage": {"prompt_tokens": "abc"}},
        {**_ok_body(), "usage": "oops"},
        {**_ok_body(), "usage": [1]},
    ):
        session = _FakeSession([_FakeResponse(body=body)])
        client = HttpCompletionClient(session=session)
        with pytest.raises(BackendError) as err:
            client.complete("ping", CFG)
        assert "malformed" in str(err.value)


def test_http_client_empty_completion(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    session = _FakeSession([_FakeResponse(body=_ok_body(""))])
    client = HttpCompletionClient(session=session)
    with pytest.raises(BackendError) as err:
        client.complete("ping", CFG)
    assert "empty completion" in str(err.value)


def test_http_client_against_real_socket(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            payload = json.loads(self.rfile.read(length))
            body = json.dumps(_ok_body(f"echo:{payload['model']}")).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        cfg = LlmConfig(
            base_url=f"http://127.0.0.1:{server.server_port}/v1/chat"
        )
        response = HttpCompletionClient().complete("over the wire", cfg)
        assert response.text == "echo:gpt-4"
    finally:
        server.shutdown()
        server.server_close()
