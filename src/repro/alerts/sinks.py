"""Pluggable alert routing: where fired alerts go besides the pane.

A sink is anything with an ``emit(alert)`` method. The engine fans
every fired alert out to every registered sink *after* recording it in
its history, so a crashing sink can never lose an alert — sink
failures are reported as warnings and the watch keeps running (a
paging path must not take down the monitoring path). Those warnings
are rate-limited per sink by :class:`SinkFailureThrottle` (first
failure of a streak + every Nth), with exact failure counts flowing
into the telemetry registry instead of the terminal.

Built-ins:

- :class:`StderrSink` — one ``!! [rule] message`` line per alert on
  stderr (stdout belongs to the watch rendering);
- :class:`JsonlSink` — appends one JSON object per alert to a file,
  opened per emit so the stream survives watcher restarts and is
  tail-able by other tools;
- :class:`CommandSink` — runs a shell command per alert with the JSON
  payload on stdin (webhook escape hatch: ``curl -d @- ...``,
  ``mail``, a cluster pager script);
- :class:`HttpSink` — POSTs the JSON payload to an HTTP(S) endpoint
  directly, with env-sourced auth, a timeout, and bounded
  retry/exponential backoff — the real pager path, replacing the
  shell-out for endpoints that just want the webhook.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import IO, Callable, Protocol, runtime_checkable

from repro.alerts.model import Alert
from repro.alerts.rules import AlertConfigError


class AlertSinkWarning(UserWarning):
    """A sink failed to deliver an alert (the alert itself is safe in
    the engine history / checkpoint)."""


#: Throttled sinks warn on the first failure of a streak and every
#: Nth after it.
DEFAULT_WARN_EVERY = 10


class SinkFailureThrottle:
    """Rate limiter for sink-failure warnings.

    A persistently dead webhook used to warn on *every* poll with a
    firing rule — hundreds of identical lines per hour that bury the
    one warning that matters. The throttle collapses a failure streak
    to its first warning plus every ``warn_every``-th, annotating each
    emitted warning with how many were suppressed since the last one.
    Any success resets the streak, so recovery (and the next outage's
    first failure) always warns immediately.

    The lifetime tallies (:attr:`n_failures`, :attr:`n_suppressed`)
    feed the metrics registry
    (``st_inspector_sink_failures_total`` /
    ``..._warnings_suppressed_total``) and the :attr:`streak` feeds
    the ``sink_failure_streak`` health gauge — the warnings get
    quieter, the numbers stay exact.
    """

    __slots__ = ("warn_every", "streak", "n_failures", "n_suppressed",
                 "_since_warn")

    def __init__(self, warn_every: int = DEFAULT_WARN_EVERY) -> None:
        if warn_every < 1:
            raise AlertConfigError(
                f"warn_every must be >= 1 (got {warn_every})")
        self.warn_every = warn_every
        #: Consecutive failures since the last success.
        self.streak = 0
        #: Lifetime failures (this process).
        self.n_failures = 0
        #: Lifetime warnings suppressed (this process).
        self.n_suppressed = 0
        self._since_warn = 0

    def record_success(self) -> None:
        self.streak = 0
        self._since_warn = 0

    def record_failure(self) -> tuple[bool, int]:
        """Account one failure; returns ``(warn_now, n_suppressed_since
        _last_warning)``."""
        self.streak += 1
        self.n_failures += 1
        if self.streak == 1 or self.streak % self.warn_every == 0:
            suppressed = self._since_warn
            self._since_warn = 0
            return True, suppressed
        self._since_warn += 1
        self.n_suppressed += 1
        return False, 0


def throttled_warn(throttle: SinkFailureThrottle, message: str, *,
                   stacklevel: int = 3) -> None:
    """Route one failure's warning through a throttle (see above)."""
    warn_now, suppressed = throttle.record_failure()
    if not warn_now:
        return
    if suppressed:
        message += (f" ({suppressed} earlier failure warning(s) "
                    f"suppressed)")
    warnings.warn(message, AlertSinkWarning, stacklevel=stacklevel)


@runtime_checkable
class AlertSink(Protocol):
    """Anything that can receive a fired :class:`Alert`."""

    def emit(self, alert: Alert) -> None:  # pragma: no cover - protocol
        ...


class StderrSink:
    """One highlighted line per alert on stderr (stream injectable)."""

    def __init__(self, stream: IO[str] | None = None) -> None:
        self._stream = stream

    def emit(self, alert: Alert) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        print(alert.render_line(), file=stream)


class JsonlSink:
    """Append alerts as JSON lines to a file.

    The file is opened in append mode per emit: restarted watchers
    extend the same stream, and concurrent readers (``tail -f``,
    ingest into a TSDB) see complete lines only.

    The parent directory is created (or validated) at construction —
    a sink that could only ever warn on every emit is a configuration
    error, and it fails at rules-load time naming the path, not
    minutes later at the first firing.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise AlertConfigError(
                f"jsonl sink {str(self.path)!r}: cannot create parent "
                f"directory: {exc}") from exc

    def emit(self, alert: Alert) -> None:
        line = json.dumps(alert.to_json(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")


class CommandSink:
    """Run a shell command per alert, JSON payload on stdin.

    The command is the operator's webhook bridge — it is *their*
    configured code, run with a timeout so a hung pager cannot stall
    the poll loop. Non-zero exits and spawn failures warn
    (:class:`AlertSinkWarning`) instead of raising.
    """

    def __init__(self, command: str, *, timeout: float = 30.0) -> None:
        self.command = command
        self.timeout = timeout
        self.throttle = SinkFailureThrottle()

    def emit(self, alert: Alert) -> None:
        payload = json.dumps(alert.to_json(), sort_keys=True)
        try:
            completed = subprocess.run(
                self.command, shell=True, input=payload.encode("utf-8"),
                timeout=self.timeout, capture_output=True)
        except (OSError, subprocess.TimeoutExpired) as exc:
            throttled_warn(
                self.throttle,
                f"alert command sink failed for {alert.identity}: {exc}")
            return
        if completed.returncode != 0:
            throttled_warn(
                self.throttle,
                f"alert command sink exited {completed.returncode} for "
                f"{alert.identity}: "
                f"{completed.stderr.decode(errors='replace').strip()}")
        else:
            self.throttle.record_success()


class HttpSink:
    """POST each alert's JSON payload to an HTTP(S) endpoint.

    Parameters
    ----------
    url:
        The endpoint; must be ``http://`` or ``https://``.
    timeout:
        Per-attempt socket timeout in seconds.
    retries:
        Extra attempts after the first (``0`` = single shot). Network
        failures and 5xx responses retry; 4xx responses do not — the
        payload will not get better.
    backoff:
        Sleep before the first retry, doubling per further retry
        (exponential). The worst-case stall of one emit is therefore
        bounded and knowable up front: ``(retries + 1) × timeout +
        backoff × (2^retries - 1)`` — a dead pager endpoint delays
        the poll loop by at most that budget, never indefinitely.
    auth_env:
        Name of an environment variable whose *value* is sent as the
        ``Authorization`` header. The secret stays out of rules files,
        process listings and checkpoints; a missing variable is a
        configuration error at construction, not a 401 storm at the
        first page.

    Delivery failures warn (:class:`AlertSinkWarning`) after the
    retry budget is spent — the alert itself is already safe in the
    engine history.
    """

    def __init__(self, url: str, *, timeout: float = 5.0,
                 retries: int = 2, backoff: float = 0.5,
                 auth_env: str | None = None,
                 opener: "Callable[..., object] | None" = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if not url.startswith(("http://", "https://")):
            raise AlertConfigError(
                f"http sink: url must start with http:// or https:// "
                f"(got {url!r})")
        if timeout <= 0:
            raise AlertConfigError(
                f"http sink {url!r}: timeout must be > 0 (got {timeout})")
        if retries < 0:
            raise AlertConfigError(
                f"http sink {url!r}: retries must be >= 0 (got {retries})")
        if backoff < 0:
            raise AlertConfigError(
                f"http sink {url!r}: backoff must be >= 0 (got {backoff})")
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._auth: str | None = None
        if auth_env is not None:
            token = os.environ.get(auth_env)
            if not token:
                raise AlertConfigError(
                    f"http sink {url!r}: auth_env names environment "
                    f"variable {auth_env!r}, which is unset or empty")
            self._auth = token
        if opener is None:
            # Imported by the one sink that speaks HTTP, so a watch
            # without it never loads urllib (or ssl behind it).
            import urllib.request

            opener = urllib.request.urlopen
        self._opener = opener
        self._sleep = sleep
        self.throttle = SinkFailureThrottle()
        #: Lifetime retry attempts (attempts beyond each emit's first),
        #: mirrored into ``st_inspector_sink_retries_total``.
        self.n_retries = 0

    def emit(self, alert: Alert) -> None:
        import urllib.error
        import urllib.request

        payload = json.dumps(alert.to_json(),
                             sort_keys=True).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self._auth is not None:
            headers["Authorization"] = self._auth
        delay = self.backoff
        failure = "no attempt made"
        attempts = 0
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                self.url, data=payload, headers=headers, method="POST")
            attempts += 1
            try:
                response = self._opener(request, timeout=self.timeout)
                getattr(response, "close", lambda: None)()
                self.n_retries += attempts - 1
                self.throttle.record_success()
                return
            except urllib.error.HTTPError as exc:
                failure = f"HTTP {exc.code}"
                if exc.code < 500:  # a 4xx will not get better
                    break
            except (urllib.error.URLError, TimeoutError, OSError,
                    ConnectionError) as exc:
                failure = str(exc)
            if attempt < self.retries:
                if delay > 0:
                    self._sleep(delay)
                delay *= 2
        self.n_retries += attempts - 1
        throttled_warn(
            self.throttle,
            f"alert http sink {self.url} failed for {alert.identity} "
            f"after {attempts} attempt(s): {failure}")
