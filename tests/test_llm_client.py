"""Tests for the chat-client interface (offline paths only)."""

import json
import urllib.error

import pytest

from repro.delivery import DeadlineBudget, DeadlineExceeded, DeliveryBackend
from repro.llm.client import (
    RETRYABLE_STATUSES,
    ChatClient,
    ChatClientError,
    EchoClient,
    HTTPChatClient,
    extract_completion,
)
from repro.resilience.faults import FaultClock
from repro.resilience.retry import CircuitBreaker, CircuitOpenError, RetryPolicy


class FakeResponse:
    def __init__(self, payload):
        self._payload = payload

    def read(self):
        return self._payload

    def __enter__(self):
        return self

    def __exit__(self, *args):
        return False


class TestEchoClient:
    def test_returns_fixed_response(self):
        assert EchoClient("yes").complete("anything") == "yes"

    def test_default(self):
        assert EchoClient().complete("x") == "True"

    def test_name(self):
        assert EchoClient().name == "EchoClient"


class TestHTTPChatClient:
    def test_requires_api_key(self):
        with pytest.raises(ValueError, match="api_key"):
            HTTPChatClient(api_key="")

    def test_name_is_model(self):
        client = HTTPChatClient(api_key="sk-test", model="gpt-4-0613")
        assert client.name == "gpt-4-0613"

    def test_defaults_match_paper_setup(self):
        client = HTTPChatClient(api_key="sk-test")
        assert client.model == "gpt-4-0613"
        assert client.endpoint.endswith("/v1/chat/completions")

    def test_is_chat_client(self):
        assert issubclass(HTTPChatClient, ChatClient)

    def test_malformed_response_error(self, monkeypatch):
        client = HTTPChatClient(api_key="sk-test")

        class FakeResponse:
            def read(self):
                return json.dumps({"unexpected": True}).encode()

            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        monkeypatch.setattr(
            "urllib.request.urlopen", lambda *a, **k: FakeResponse()
        )
        with pytest.raises(RuntimeError, match="malformed"):
            client.complete("hello")

    def test_successful_response_parsed(self, monkeypatch):
        client = HTTPChatClient(api_key="sk-test", temperature=0.0)
        captured = {}

        class FakeResponse:
            def read(self):
                return json.dumps(
                    {"choices": [{"message": {"content": "True"}}]}
                ).encode()

            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        def fake_urlopen(request, timeout):
            captured["body"] = json.loads(request.data.decode())
            captured["auth"] = request.headers.get("Authorization")
            return FakeResponse()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        assert client.complete("classify this") == "True"
        assert captured["body"]["model"] == "gpt-4-0613"
        assert captured["body"]["temperature"] == 0.0
        assert captured["body"]["messages"][0]["content"] == "classify this"
        assert captured["auth"] == "Bearer sk-test"


class TestErrorMapping:
    """Every HTTP failure mode becomes a typed ChatClientError."""

    def client(self):
        return HTTPChatClient(api_key="sk-test")

    def raise_from_urlopen(self, monkeypatch, error):
        def fake_urlopen(*args, **kwargs):
            raise error

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)

    def test_http_500_retryable(self, monkeypatch):
        self.raise_from_urlopen(
            monkeypatch,
            urllib.error.HTTPError("url", 500, "boom", {}, None),
        )
        with pytest.raises(ChatClientError) as exc:
            self.client().complete("p")
        assert exc.value.status == 500
        assert exc.value.retryable
        assert exc.value.kind == "http"

    def test_http_429_retryable(self, monkeypatch):
        self.raise_from_urlopen(
            monkeypatch,
            urllib.error.HTTPError("url", 429, "rate limited", {}, None),
        )
        with pytest.raises(ChatClientError) as exc:
            self.client().complete("p")
        assert exc.value.status == 429
        assert exc.value.retryable

    def test_http_401_not_retryable(self, monkeypatch):
        self.raise_from_urlopen(
            monkeypatch,
            urllib.error.HTTPError("url", 401, "bad key", {}, None),
        )
        with pytest.raises(ChatClientError) as exc:
            self.client().complete("p")
        assert exc.value.status == 401
        assert not exc.value.retryable

    def test_timeout_maps_to_timeout_kind(self, monkeypatch):
        self.raise_from_urlopen(
            monkeypatch, urllib.error.URLError(TimeoutError("timed out"))
        )
        with pytest.raises(ChatClientError) as exc:
            self.client().complete("p")
        assert exc.value.kind == "timeout"
        assert exc.value.retryable

    def test_network_error_retryable(self, monkeypatch):
        self.raise_from_urlopen(
            monkeypatch, urllib.error.URLError(ConnectionRefusedError())
        )
        with pytest.raises(ChatClientError) as exc:
            self.client().complete("p")
        assert exc.value.kind == "network"
        assert exc.value.retryable

    def test_non_json_body_retryable(self, monkeypatch):
        monkeypatch.setattr(
            "urllib.request.urlopen",
            lambda *a, **k: FakeResponse(b"<html>502 Bad Gateway</html>"),
        )
        with pytest.raises(ChatClientError) as exc:
            self.client().complete("p")
        assert exc.value.kind == "malformed"
        assert exc.value.retryable

    def test_wrong_shape_not_retryable(self, monkeypatch):
        monkeypatch.setattr(
            "urllib.request.urlopen",
            lambda *a, **k: FakeResponse(json.dumps({"choices": []}).encode()),
        )
        with pytest.raises(ChatClientError) as exc:
            self.client().complete("p")
        assert exc.value.kind == "protocol"
        assert not exc.value.retryable

    def test_retryable_statuses_constant(self):
        assert 429 in RETRYABLE_STATUSES
        assert 404 not in RETRYABLE_STATUSES


class TestExtractCompletion:
    def test_happy_path(self):
        body = {"choices": [{"message": {"content": "False"}}]}
        assert extract_completion(body) == "False"

    @pytest.mark.parametrize("body", [
        None,
        {},
        {"choices": []},
        {"choices": [{}]},
        {"choices": [{"message": {}}]},
        {"choices": [{"message": {"content": 42}}]},
        {"choices": "not-a-list"},
    ])
    def test_bad_shapes_raise_protocol_error(self, body):
        with pytest.raises(ChatClientError) as exc:
            extract_completion(body)
        assert exc.value.kind == "protocol"


def _backend(client, **kwargs):
    """The one delivery layer that owns retries, breakers and deadlines."""
    return DeliveryBackend(client.name, client, **kwargs)


class TestRetryWiring:
    """Retries and breakers around the single-attempt HTTP transport."""

    def test_retry_policy_recovers_transient_failures(self, monkeypatch):
        attempts = []

        def flaky_urlopen(*args, **kwargs):
            attempts.append(1)
            if len(attempts) < 3:
                raise urllib.error.HTTPError("url", 500, "boom", {}, None)
            return FakeResponse(
                json.dumps({"choices": [{"message": {"content": "True"}}]}).encode()
            )

        monkeypatch.setattr("urllib.request.urlopen", flaky_urlopen)
        backend = _backend(
            HTTPChatClient(api_key="sk-test"),
            retry=RetryPolicy(base_delay=0.01, clock=FaultClock()),
        )
        assert backend.deliver("p", 0) == "True"
        assert len(attempts) == 3

    def test_non_retryable_fails_fast_despite_policy(self, monkeypatch):
        attempts = []

        def denied_urlopen(*args, **kwargs):
            attempts.append(1)
            raise urllib.error.HTTPError("url", 401, "bad key", {}, None)

        monkeypatch.setattr("urllib.request.urlopen", denied_urlopen)
        backend = _backend(
            HTTPChatClient(api_key="sk-test"),
            retry=RetryPolicy(base_delay=0.01, clock=FaultClock()),
        )
        with pytest.raises(ChatClientError):
            backend.deliver("p", 0)
        assert len(attempts) == 1

    def test_breaker_cuts_off_dead_endpoint(self, monkeypatch):
        attempts = []

        def dead_urlopen(*args, **kwargs):
            attempts.append(1)
            raise urllib.error.URLError(ConnectionRefusedError())

        monkeypatch.setattr("urllib.request.urlopen", dead_urlopen)
        clock = FaultClock()
        backend = _backend(
            HTTPChatClient(api_key="sk-test"),
            breaker=CircuitBreaker(failure_threshold=2, reset_timeout=60.0,
                                   clock=clock),
            clock=clock,
        )
        for _ in range(2):
            with pytest.raises(ChatClientError):
                backend.deliver("p", 0)
        with pytest.raises(CircuitOpenError):
            backend.deliver("p", 0)
        assert len(attempts) == 2  # the open circuit never hit the network


class TestDeadlineBudgets:
    """The per-request deadline flows from the backend into the socket."""

    def ok_response(self):
        return FakeResponse(
            json.dumps({"choices": [{"message": {"content": "True"}}]}).encode()
        )

    def test_remaining_budget_becomes_the_socket_timeout(self, monkeypatch):
        captured = {}

        def fake_urlopen(request, timeout):
            captured["timeout"] = timeout
            return self.ok_response()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        clock = FaultClock()
        backend = _backend(
            HTTPChatClient(api_key="sk-test", timeout=60.0), clock=clock
        )
        backend.deliver("p", 0, DeadlineBudget(2.5, clock=clock))
        assert captured["timeout"] == pytest.approx(2.5)

    def test_client_timeout_still_caps_the_budget(self, monkeypatch):
        captured = {}

        def fake_urlopen(request, timeout):
            captured["timeout"] = timeout
            return self.ok_response()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        clock = FaultClock()
        backend = _backend(
            HTTPChatClient(api_key="sk-test", timeout=5.0), clock=clock
        )
        backend.deliver("p", 0, DeadlineBudget(120.0, clock=clock))
        assert captured["timeout"] == pytest.approx(5.0)

    def test_expired_budget_is_a_typed_timeout_error(self, monkeypatch):
        monkeypatch.setattr(
            "urllib.request.urlopen",
            lambda *a, **k: pytest.fail("must not touch the network"),
        )
        client = HTTPChatClient(api_key="sk-test")
        # A spent budget handed to the transport fails before the request.
        with pytest.raises(ChatClientError) as exc:
            client.complete_indexed("p", 0, timeout_s=0.0)
        assert exc.value.kind == "timeout"
        assert exc.value.retryable is False
        # Through the backend, time leaps past the deadline between opening
        # the budget and the first attempt: no request is issued either.
        clock = FaultClock()
        deadline = DeadlineBudget(1.0, clock=clock)
        clock.advance(3.0)
        with pytest.raises(DeadlineExceeded):
            _backend(client, clock=clock).deliver("p", 0, deadline)

    def test_no_retries_once_the_budget_is_spent(self, monkeypatch):
        attempts = []
        clock = FaultClock()

        def slow_failing_urlopen(*args, **kwargs):
            attempts.append(1)
            clock.advance(2.0)  # each attempt burns 2s of virtual time
            raise urllib.error.URLError(TimeoutError("socket timed out"))

        monkeypatch.setattr("urllib.request.urlopen", slow_failing_urlopen)
        backend = _backend(
            HTTPChatClient(api_key="sk-test"),
            retry=RetryPolicy(max_attempts=5, base_delay=0.01, clock=clock),
            clock=clock,
        )
        with pytest.raises(ChatClientError) as exc:
            backend.deliver("p", 0, DeadlineBudget(1.5, clock=clock))
        # The first attempt consumed the whole budget; the timeout error
        # must surface immediately instead of burning four more attempts.
        assert len(attempts) == 1
        assert exc.value.kind == "timeout"

    def test_socket_timeout_is_a_retryable_timeout_error(self, monkeypatch):
        def timing_out_urlopen(*args, **kwargs):
            raise urllib.error.URLError(TimeoutError("timed out"))

        monkeypatch.setattr("urllib.request.urlopen", timing_out_urlopen)
        client = HTTPChatClient(api_key="sk-test")
        with pytest.raises(ChatClientError) as exc:
            client.complete_indexed("p", 0, timeout_s=0.5)
        assert exc.value.kind == "timeout"
        assert exc.value.retryable is True

    def test_complete_indexed_is_a_single_attempt(self, monkeypatch):
        attempts = []

        def failing_urlopen(*args, **kwargs):
            attempts.append(1)
            raise urllib.error.URLError(ConnectionRefusedError())

        monkeypatch.setattr("urllib.request.urlopen", failing_urlopen)
        client = HTTPChatClient(api_key="sk-test")
        with pytest.raises(ChatClientError):
            client.complete_indexed("p", 0)
        with pytest.raises(ChatClientError):
            client.complete("p")
        # The transport never retries: the backend's policy is the only
        # schedule, so two schedules can never multiply attempts.
        assert len(attempts) == 2
