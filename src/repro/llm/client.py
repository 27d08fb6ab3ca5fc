"""Chat-completion client interface.

:class:`SimulatedChatModel` (in :mod:`repro.llm.simulated`) implements this
interface offline; :class:`HTTPChatClient` talks to a real OpenAI-compatible
endpoint for users with API access, reproducing the paper's original setup
(``gpt-3.5-turbo-0613`` / ``gpt-4-0613`` via the chat-completions API).

A client is a single-attempt transport: every delivery names its repeat
index, so a completion is a pure function of ``(prompt, repeat)``.
Retries, circuit breaking, rate limits and deadlines live one layer up, in
:class:`~repro.delivery.backends.DeliveryBackend`.  Every failure of the
HTTP path surfaces as a typed :class:`ChatClientError` whose ``retryable``
flag drives that layer's :class:`~repro.resilience.retry.RetryPolicy`; raw
``urllib`` / ``json`` / ``KeyError`` exceptions never leak.
"""

from __future__ import annotations

import abc
import json
import urllib.error
import urllib.request
from typing import Optional

from repro.obs.trace import get_tracer, span


class ChatClientError(RuntimeError):
    """A chat-completions request failed.

    ``retryable`` tells the retry layer whether another attempt can help;
    ``status`` carries the HTTP status code when one was received; ``kind``
    is a coarse category: ``timeout``, ``network``, ``http``, ``malformed``
    (body is not JSON), or ``protocol`` (JSON of the wrong shape).
    """

    def __init__(
        self,
        message: str,
        *,
        status: Optional[int] = None,
        retryable: bool = False,
        kind: str = "error",
    ):
        super().__init__(message)
        self.status = status
        self.retryable = retryable
        self.kind = kind


#: Non-5xx statuses worth retrying (timeouts, races, rate limits).
RETRYABLE_STATUSES = frozenset({408, 409, 425, 429})


class ChatClient(abc.ABC):
    """Anything that maps a ``(prompt, repeat)`` delivery to a completion."""

    @abc.abstractmethod
    def complete_indexed(
        self, prompt: str, repeat: int, *, timeout_s: Optional[float] = None
    ) -> str:
        """The completion for delivery ``repeat`` of ``prompt``.

        The answer must be a pure function of ``(prompt, repeat)`` — no
        delivery history — so the delivery engine can run deliveries in any
        order on any thread.  ``timeout_s`` is the remaining deadline
        budget for this attempt; clients without a network ignore it.
        """

    def complete(self, prompt: str) -> str:
        """The first delivery (repeat 0) of ``prompt``."""
        return self.complete_indexed(prompt, 0)

    @property
    def name(self) -> str:
        return type(self).__name__


class EchoClient(ChatClient):
    """Degenerate client returning a fixed completion; useful in tests."""

    def __init__(self, response: str = "True"):
        self._response = response

    def complete_indexed(
        self, prompt: str, repeat: int, *, timeout_s: Optional[float] = None
    ) -> str:
        return self._response


class HTTPChatClient(ChatClient):
    """OpenAI-compatible chat-completions client (requires network access).

    Mirrors the paper's API usage: one user message per prompt, temperature
    configurable (the repeated-delivery protocol measures consistency, so
    the default keeps the provider's sampling behaviour).
    """

    def __init__(
        self,
        api_key: str,
        model: str = "gpt-4-0613",
        endpoint: str = "https://api.openai.com/v1/chat/completions",
        temperature: Optional[float] = None,
        timeout: float = 60.0,
    ):
        if not api_key:
            raise ValueError("api_key must be provided")
        self.api_key = api_key
        self.model = model
        self.endpoint = endpoint
        self.temperature = temperature
        self.timeout = timeout

    @property
    def name(self) -> str:
        return self.model

    def complete_indexed(
        self, prompt: str, repeat: int, *, timeout_s: Optional[float] = None
    ) -> str:
        """One HTTP attempt; the API is stateless in the repeat index.

        ``timeout_s`` (the delivery's remaining deadline budget) caps the
        socket timeout; a spent budget fails before touching the network.
        """
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        if self.temperature is not None:
            payload["temperature"] = self.temperature
        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps(payload, sort_keys=True).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self.api_key}",
            },
        )
        if timeout_s is not None and timeout_s <= 0:
            raise ChatClientError(
                "deadline exhausted before the request was issued",
                retryable=False,
                kind="timeout",
            )
        timeout = (
            self.timeout if timeout_s is None else min(self.timeout, timeout_s)
        )
        get_tracer().count("llm.http.requests")
        with span("llm.http.request", model=self.model):
            try:
                with urllib.request.urlopen(
                    request, timeout=timeout
                ) as response:
                    raw = response.read()
            except urllib.error.HTTPError as error:
                status = error.code
                raise ChatClientError(
                    f"chat endpoint returned HTTP {status}",
                    status=status,
                    retryable=status >= 500 or status in RETRYABLE_STATUSES,
                    kind="http",
                ) from error
            except urllib.error.URLError as error:
                reason = getattr(error, "reason", error)
                kind = "timeout" if isinstance(reason, TimeoutError) else "network"
                raise ChatClientError(
                    f"chat endpoint unreachable: {reason}",
                    retryable=True,
                    kind=kind,
                ) from error
            except TimeoutError as error:
                raise ChatClientError(
                    "chat request timed out", retryable=True, kind="timeout"
                ) from error
            except OSError as error:
                raise ChatClientError(
                    f"chat request failed: {error}", retryable=True, kind="network"
                ) from error
        try:
            body = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ChatClientError(
                f"malformed chat-completions body (not JSON): {raw[:200]!r}",
                retryable=True,
                kind="malformed",
            ) from error
        return extract_completion(body)


def extract_completion(body: object) -> str:
    """Validate a chat-completions response body and return its content.

    Checks the full path (``choices[0].message.content`` must be a string)
    before indexing, so a well-formed-JSON-but-wrong-shape response becomes
    a non-retryable ``protocol`` :class:`ChatClientError` rather than a
    ``KeyError`` deep in the benchmark loop.
    """
    choices = body.get("choices") if isinstance(body, dict) else None
    message = (
        choices[0].get("message")
        if isinstance(choices, list) and choices and isinstance(choices[0], dict)
        else None
    )
    content = message.get("content") if isinstance(message, dict) else None
    if not isinstance(content, str):
        raise ChatClientError(
            f"malformed chat-completions response: {body!r}",
            retryable=False,
            kind="protocol",
        )
    return content


__all__ = [
    "ChatClient",
    "ChatClientError",
    "EchoClient",
    "HTTPChatClient",
    "RETRYABLE_STATUSES",
    "extract_completion",
]
