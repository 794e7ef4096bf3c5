"""The ``http-sp-initiated`` workload: browsers over loopback HTTP.

The load generator is this process: ``BROWSERS`` threads, each holding one
keep-alive connection and signing on in a closed loop as a seeded-random
user: ``GET /login`` -> ``GET /sso?SAMLRequest..&user=U`` -> ``POST /acs``
answered 303 to the requested target. The service runs in its own process
(``server.py``), so its memory and CPU are apart from the client's.
"""

from __future__ import annotations

import html
import http.client
import json
import os
import queue
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from urllib.parse import quote, quote_plus, urlsplit

from common import ROOT, median_or_zero, signon_figures, summarize, user_records

import server as server_mod

BROWSERS = 2
SETUPS = 3  # server set-up repetitions per run; setup_s is their median
WARMUP_SIGNONS = 10  # per browser, before the timed window
THINK_MS = (0.0, 10.0)  # seeded pause before each sign-on, so the browsers drift in phase
RSS_AFTER_SIGNONS = 200  # peak_rss_mb is sampled after this many timed sign-ons
STEADY_DRIFT = 0.25  # a live-state gauge moving more than this share flags the run
REPLY_TIMEOUT_S = 120
ROUTES = ("login", "sso", "acs")

_FIELD = re.compile(r'name="(SAMLResponse|RelayState)" value="([^"]*)"')
_ACTION = re.compile(r'<form method="post" action="([^"]*)"')


class Server:
    """The service process and its command pipe."""

    def __init__(self, seed: int, setups: int, trace: bool) -> None:
        self.workdir = ROOT / ".bench_work" / f"server-{os.getpid()}-{int(trace)}"
        env = dict(os.environ, SAMLFORGE_LOG="INFO" if trace else "WARNING")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(Path(server_mod.__file__)),
                "--seed", str(seed),
                "--setups", str(setups),
                "--trace", str(int(trace)),
                "--workdir", str(self.workdir),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.ready = self._reply()
        except BaseException:
            self.stop()
            raise
        self.port = self.ready["port"]

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _reply(self) -> dict:
        try:
            line = self._lines.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("server process did not answer in time") from None
        if line is None:
            raise RuntimeError(f"server process exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            self.proc.wait(timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


class Browser:
    """One keep-alive connection signing on in a closed loop."""

    def __init__(self, index: int, seed: int, port: int, users: list[str]) -> None:
        self.port = port
        self.base = f"http://127.0.0.1:{port}"
        self.users = users
        self.rng = random.Random(f"browser-{seed}-{index}")
        self.index = index
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.sequence = 0
        self.reset()

    def reset(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.users_signed_on: Counter[str] = Counter()
        self.signon_ms: list[float] = []
        self.round_trip_ms: dict[str, list[float]] = {r: [] for r in ROUTES}
        self.mismatches: list[str] = []

    def _exchange(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/x-www-form-urlencoded"} if body else {}
        started = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        elapsed = (time.perf_counter() - started) * 1e3
        return response.status, response.getheader("Location"), payload, elapsed

    def signon(self) -> None:
        time.sleep(self.rng.uniform(*THINK_MS) / 1e3)
        self.attempted += 1
        self.sequence += 1
        user = self.rng.choice(self.users)
        target = f"{self.base}/app/b{self.index}/{self.sequence}"
        try:
            problem, timings = self._signon(user, target)
        except Exception as exc:  # any exception is a wrong outcome, not a crash
            problem, timings = f"{type(exc).__name__}: {exc}", None
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        if problem is not None:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(problem)
            return
        self.ok += 1
        self.users_signed_on[user] += 1
        for route, ms in zip(ROUTES, timings):
            self.round_trip_ms[route].append(ms)
        self.signon_ms.append(timings[3])

    def _signon(self, user: str, target: str):
        started = time.perf_counter()
        status, location, _, login_ms = self._exchange("GET", "/login?target=" + quote(target, safe=""))
        if status != 303 or not location or not location.startswith(f"{self.base}/sso?"):
            return f"/login answered {status} to {location!r}", None
        parts = urlsplit(location)
        status, _, page, sso_ms = self._exchange(
            "GET", f"{parts.path}?{parts.query}&user={quote_plus(user)}"
        )
        if status != 200:
            return f"/sso answered {status}", None
        text = page.decode("utf-8")
        fields = {name: html.unescape(value) for name, value in _FIELD.findall(text)}
        action = _ACTION.search(text)
        acs_url = f"{self.base}/acs"
        if action is None or html.unescape(action.group(1)) != acs_url:
            return "/sso form does not post to this service's /acs", None
        if "SAMLResponse" not in fields:
            return "/sso form carries no SAMLResponse", None
        form = "&".join(f"{k}={quote_plus(v)}" for k, v in fields.items()).encode("ascii")
        status, location, _, acs_ms = self._exchange("POST", "/acs", form)
        if status != 303 or location != target:
            return f"/acs answered {status} to {location!r}, expected {target!r}", None
        return None, (login_ms, sso_ms, acs_ms, (time.perf_counter() - started) * 1e3)

    def close(self) -> None:
        self.conn.close()


def _run_browsers(browsers: list[Browser], until: float | None, count: int | None):
    """Start every browser on its own thread, to run to a deadline or a
    count; returns the threads and the list their exceptions land in."""
    errors: list[BaseException] = []

    def loop(browser: Browser) -> None:
        try:
            done = 0
            while (until is None or time.perf_counter() < until) and (count is None or done < count):
                browser.signon()
                done += 1
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(b,)) for b in browsers]
    for thread in threads:
        thread.start()
    return threads, errors


def _join(threads, errors) -> None:
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _phase(server: Server, seed: int, seconds: float, sample_rss: bool) -> dict:
    """Warm up, then one timed window against a running server."""
    _, users = user_records(seed, server_mod.USERS)
    browsers = [Browser(i, seed, server.port, users) for i in range(BROWSERS)]
    try:
        _join(*_run_browsers(browsers, None, WARMUP_SIGNONS))
        warm = [(b.attempted, b.failed, b.users_signed_on, b.mismatches) for b in browsers]
        for browser in browsers:
            browser.reset()
        start = server.command("mark")
        started = time.perf_counter()
        threads, errors = _run_browsers(browsers, started + seconds, None)
        rss_mb = None
        while sample_rss and any(t.is_alive() for t in threads):
            if sum(b.ok for b in browsers) >= RSS_AFTER_SIGNONS:
                rss_mb = server.command("rss")["rss_mb"]
                break
            time.sleep(0.02)
        _join(threads, errors)
        elapsed = time.perf_counter() - started
        ok = sum(b.ok for b in browsers)
        end = server.command(f"end {ok}")
    finally:
        for browser in browsers:
            browser.close()

    attempted = sum(b.attempted for b in browsers) + sum(w[0] for w in warm)
    failed = sum(b.failed for b in browsers) + sum(w[1] for w in warm)
    mismatches = [m for w in warm for m in w[3]] + [m for b in browsers for m in b.mismatches]
    expected_users = Counter()
    for browser, w in zip(browsers, warm):
        expected_users.update(w[2])
        expected_users.update(browser.users_signed_on)
    if end["users"] != dict(expected_users) or end["mismatched"]:
        failed += 1
        mismatches.append(
            f"SP sessions disagree with the sign-ons made: {end['mismatched']} with wrong "
            f"content, {sum(end['users'].values())} sessions for {sum(expected_users.values())} sign-ons"
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "ok": ok,
        "elapsed": elapsed,
        "signon_ms": [ms for b in browsers for ms in b.signon_ms],
        "round_trip_ms": {r: [ms for b in browsers for ms in b.round_trip_ms[r]] for r in ROUTES},
        "mismatches": mismatches[:10],
        "start": start,
        "end": end,
        "rss_mb": rss_mb,
    }


def _steady_state(start: dict, end: dict) -> dict:
    out = {"steady": True}
    for name in ("sp.replay.live", "idp.sessions.live", "idp.request_replay.live"):
        before, after = start["gauges"][name], end["gauges"][name]
        drift = (after - before) / max(before, 1)
        out[name] = {"start": before, "end": after, "drift": drift}
        if abs(drift) > STEADY_DRIFT:
            out["steady"] = False
    return out


def run_plain(workload: str, seed: int, seconds: float) -> dict:
    server = Server(seed, SETUPS, trace=False)
    try:
        phase = _phase(server, seed, seconds, sample_rss=True)
    finally:
        server.stop()
    signon = summarize(phase["signon_ms"])
    rtt = {r: summarize(v) for r, v in phase["round_trip_ms"].items()}
    rss = phase["rss_mb"] if phase["rss_mb"] is not None else phase["end"]["rss_mb"]
    figures = signon_figures(
        phase["ok"] / phase["elapsed"],
        signon,
        rtt["sso"],
        rtt["acs"],
        server.ready["setup_median_s"],
        rss,
        phase["failed"] / max(phase["attempted"], 1),
    )
    info = {
        "mismatches": phase["mismatches"],
        "latency_ms": {"signon": signon, **{f"{r}_round_trip": s for r, s in rtt.items()}},
        "setup_s_each": server.ready["setup_s"],
        "measured_s": phase["elapsed"],
        "rss_sampled_after_signons": RSS_AFTER_SIGNONS if phase["rss_mb"] is not None else phase["ok"],
        "peak_rss_end_mb": phase["end"]["rss_mb"],
        "steady_state": _steady_state(phase["start"], phase["end"]),
        "browsers": BROWSERS,
    }
    return {"attempted": phase["attempted"], "failed": phase["failed"], "figures": figures, "info": info}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Half the time against an untraced server, half against a traced one
    whose service log runs at INFO."""
    results = []
    for trace in (False, True):
        server = Server(seed, 1, trace=trace)
        try:
            results.append(_phase(server, seed, seconds / 2, sample_rss=False))
        finally:
            server.stop()
    plain, traced = results
    layer = dict(traced["end"]["layer"])
    layer.update(traced["end"]["gauges"])
    for route in ROUTES:
        handler = traced["end"]["handler_ms"][f"/{route}"]
        layer[f"service.handler_ms.{route}"] = handler["p50"]
        # Log lines carry no request id, so waits are not paired one by one;
        # the mean of (round trip - handler) is still exact over all requests.
        round_trips = traced["round_trip_ms"][route]
        layer[f"service.transport_wait_ms.{route}"] = (
            sum(round_trips) / len(round_trips) - handler["mean"]
        )
    untraced_p50 = median_or_zero(plain["signon_ms"])
    traced_p50 = median_or_zero(traced["signon_ms"])
    layer["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1) * 100 if untraced_p50 else 0.0
    info = {
        "error_rate": (plain["failed"] + traced["failed"]) / max(plain["attempted"] + traced["attempted"], 1),
        "mismatches": plain["mismatches"] + traced["mismatches"],
        "untraced_signon_ms": summarize(plain["signon_ms"]),
        "traced_signon_ms": summarize(traced["signon_ms"]),
        "handler_ms": traced["end"]["handler_ms"],
        "steady_state": _steady_state(traced["start"], traced["end"]),
    }
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "layer": layer,
        "info": info,
    }
