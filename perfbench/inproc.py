"""In-process workloads on ``SimulatedFederation``: ``post-signon`` and
``sealed-artifact-pair``.

One closed-loop client. Before each attempt the sim clock advances 8-12 s
(about 10 s), so with the 900 s replay retention the SP replay store holds
about 100 live IDs. Every outcome is checked against what the inputs must
produce; a mismatch is counted as failed.
"""

from __future__ import annotations

import random
import time
from collections import deque

from samlforge import bindings, cryptoseal
from samlforge.harness.faults import FAULT_STEP, apply_message_fault
from samlforge.harness.scenarios import (
    CLIENT_IP,
    LANDING_URL,
    SP_BASE,
    SP_ENTITY,
    SimulatedFederation,
)

import tracing
from common import (
    SIM_TICK_SECONDS,
    live_state,
    median_or_zero,
    peak_rss_mb,
    signon_figures,
    summarize,
    user_records,
)

USERS = 1000
SETUPS = 9  # set-up repetitions per run; setup_s is their median
WARMUP_ATTEMPTS = 40
TAMPER_POOL = 8  # tampered bodies prepared during warm-up, reused in the timed loop
RECENT_BODIES = 10  # replays pick one of the last genuine bodies (< 300 s sim old)
RSS_AFTER_SIGNONS = 400  # peak_rss_mb is sampled after this many genuine sign-ons

# post-signon mix: share of genuine, replayed and signature-tampered attempts
POST_MIX = (("genuine", 0.90), ("replay", 0.05), ("tamper", 0.05))
EXPECTED = {
    "replay": f"fail:{FAULT_STEP['replay_assertion']}",
    "tamper": f"fail:{FAULT_STEP['tamper_signature']}",
}


class Setup:
    """Keystores, registries, user records and one IdP session per user.

    The RSA keys are generated before the clock starts: their generation
    time is random by design and is not work the toolkit does."""

    def __init__(self, workload: str, seed: int) -> None:
        records, self.users = user_records(seed, USERS)
        keys = {
            alias: cryptoseal.new_keypair(alias)
            for alias in ("idp-signing", "sp-signing", "sp-encryption")
        }
        started = time.perf_counter()
        self.fed = SimulatedFederation(
            encrypt=workload == "sealed-artifact-pair", seed=seed, records=records, keys=keys
        )
        self.sessions = {
            user: self.fed.idp.create_session(user, CLIENT_IP, self.fed.clock)
            for user in self.users
        }
        self.seconds = time.perf_counter() - started


class Loop:
    """The closed-loop client and the tallies of one measured phase."""

    def __init__(self, workload: str, setup: Setup, rng: random.Random) -> None:
        self.workload = workload
        self.fed = setup.fed
        self.sessions = setup.sessions
        self.users = setup.users
        self.rng = rng
        self.recent: deque[bytes] = deque(maxlen=RECENT_BODIES)
        self.tampered: list[bytes] = []
        self.warm_attempted = self.warm_failed = 0
        self._reset()

    def _reset(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.genuine_ok = 0
        self.signon_ms: list[float] = []
        self.issue_ms: list[float] = []
        self.acs_ms: list[float] = []
        self.reject_ms: list[float] = []
        self.kinds: dict[int, str] = {}
        self.rejects: dict[str, int] = {}
        self.mismatches: list[str] = []
        self.rss_at_n: float | None = None

    # -- one attempt ------------------------------------------------------------

    def _pick_kind(self) -> str:
        if self.workload != "post-signon" or not self.recent or not self.tampered:
            return "genuine"
        roll = self.rng.random()
        for kind, share in POST_MIX:
            if roll < share:
                return kind
            roll -= share
        return POST_MIX[-1][0]

    def _check_session(self, user: str, result) -> str | None:
        record = self.fed.source.lookup(user)
        if result.session is None:
            return f"outcome {result.report.outcome}"
        if result.session.name_id != record.name_id or result.session.attributes != record.attributes:
            return "session content differs from the attribute source"
        if result.redirect_url != LANDING_URL:
            return f"redirect to {result.redirect_url!r}"
        return None

    def _genuine_post(self, user: str):
        fed = self.fed
        t0 = time.perf_counter()
        form = fed.idp.idp_initiated_post(self.sessions[user], SP_ENTITY, fed.clock)
        t1 = time.perf_counter()
        body = bindings.serialize_post_body(form)
        fed.clock = fed.clock.plus(1)
        result = fed.sp.consume(body, CLIENT_IP, fed.clock)
        t2 = time.perf_counter()
        return result, body, t0, t1, t2

    def _genuine_artifact(self, user: str):
        fed = self.fed
        t0 = time.perf_counter()
        response = fed.idp.issue_assertion(self.sessions[user], SP_ENTITY, fed.clock)
        first, second = fed.idp.issue_artifact_pair(response, SP_ENTITY)
        t1 = time.perf_counter()
        fed.clock = fed.clock.plus(1)
        result = fed.sp.fetch_via_artifact([first.encode(), second.encode()], CLIENT_IP, fed.clock)
        t2 = time.perf_counter()
        fed.trace.clear()  # the simulator's message log is not part of the workload
        return result, None, t0, t1, t2

    def attempt(self, attempt_id: int) -> None:
        fed = self.fed
        fed.tick(self.rng.randint(*SIM_TICK_SECONDS))
        kind = self._pick_kind()
        self.kinds[attempt_id] = kind
        self.attempted += 1
        try:
            if kind == "genuine":
                user = self.rng.choice(self.users)
                run = self._genuine_post if self.workload == "post-signon" else self._genuine_artifact
                result, body, t0, t1, t2 = run(user)
                problem = self._check_session(user, result)
                if problem is None:
                    self.genuine_ok += 1
                    self.signon_ms.append((t2 - t0) * 1e3)
                    self.issue_ms.append((t1 - t0) * 1e3)
                    self.acs_ms.append((t2 - t1) * 1e3)
                    if body is not None:
                        self.recent.append(body)
                    if self.genuine_ok == RSS_AFTER_SIGNONS:
                        self.rss_at_n = peak_rss_mb()
            else:
                body = self.rng.choice(self.recent if kind == "replay" else self.tampered)
                fed.clock = fed.clock.plus(1)
                t0 = time.perf_counter()
                result = fed.sp.consume(body, CLIENT_IP, fed.clock)
                self.reject_ms.append((time.perf_counter() - t0) * 1e3)
                outcome = result.report.outcome
                problem = None if outcome == EXPECTED[kind] else f"outcome {outcome}"
                if problem is None:
                    step = result.report.failed_step
                    self.rejects[step] = self.rejects.get(step, 0) + 1
        except Exception as exc:  # any exception is a wrong outcome, not a crash
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{kind}: {problem}")

    # -- phases -------------------------------------------------------------------

    def warm_up(self) -> None:
        """Checked attempts before timing; their tallies are kept apart."""
        for i in range(WARMUP_ATTEMPTS):
            self.attempt(-1 - i)
        if self.workload == "post-signon":
            for body in list(self.recent)[:TAMPER_POOL]:
                message = bindings.decode_post(body).message
                bad = apply_message_fault("tamper_signature", message, self.fed.fault_kit)
                form = bindings.encode_post(bad, "response", SP_BASE + "/acs")
                self.tampered.append(bindings.serialize_post_body(form))
        self.warm_attempted, self.warm_failed = self.attempted, self.failed
        warm_mismatches = self.mismatches
        self._reset()
        self.mismatches = warm_mismatches

    def measure(self, seconds: float, tracer: tracing.Tracer | None = None) -> float:
        started = time.perf_counter()
        deadline = started + seconds
        attempt_id = 0
        while time.perf_counter() < deadline:
            if tracer is not None:
                tracer.signon = attempt_id
            self.attempt(attempt_id)
            attempt_id += 1
        return time.perf_counter() - started

    @property
    def total_attempted(self) -> int:
        return self.warm_attempted + self.attempted

    @property
    def total_failed(self) -> int:
        return self.warm_failed + self.failed

    def ids(self, *kinds: str) -> set[int]:
        return {i for i, k in self.kinds.items() if k in kinds and i >= 0}



def run_plain(workload: str, seed: int, seconds: float) -> dict:
    setups = []
    setup = None
    for _ in range(SETUPS):
        setup = None  # drop the previous set-up before building the next
        setup = Setup(workload, seed)
        setups.append(setup.seconds)
    loop = Loop(workload, setup, random.Random(f"load-{seed}"))
    loop.warm_up()
    elapsed = loop.measure(seconds)
    attempted, failed = loop.total_attempted, loop.total_failed
    signon, issue, acs = summarize(loop.signon_ms), summarize(loop.issue_ms), summarize(loop.acs_ms)
    rss = loop.rss_at_n if loop.rss_at_n is not None else peak_rss_mb()
    figures = signon_figures(
        loop.genuine_ok / elapsed, signon, issue, acs, median_or_zero(setups), rss, failed / max(attempted, 1)
    )
    info = {
        "mismatches": loop.mismatches,
        "latency_ms": {"signon": signon, "issue": issue, "acs": acs, "reject": summarize(loop.reject_ms)},
        "setup_s_each": setups,
        "measured_s": elapsed,
        "rss_sampled_after_signons": RSS_AFTER_SIGNONS if loop.rss_at_n is not None else loop.genuine_ok,
        "peak_rss_end_mb": peak_rss_mb(),
        "rejects_by_step": loop.rejects,
        "gauges_end": live_state(loop.fed.sp, loop.fed.idp),
    }
    return {"attempted": attempted, "failed": failed, "figures": figures, "info": info}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Half the time untraced (for the overhead figure), half traced on a
    fresh set-up so that partner registration is traced too."""
    plain = Loop(workload, Setup(workload, seed), random.Random(f"load-{seed}"))
    plain.warm_up()
    plain.measure(seconds / 2)
    untraced_p50 = summarize(plain.signon_ms)["p50"]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup = Setup(workload, seed)
        tracer.watch_stores(setup.fed.sp, setup.fed.idp)
        setup_spans = tracer.snapshot()
        loop = Loop(workload, setup, random.Random(f"load-{seed}"))
        loop.warm_up()
        since = tracer.mark()
        loop.measure(seconds / 2, tracer)
        spans = tracer.snapshot(since)
    finally:
        tracer.uninstall()

    genuine = loop.ids("genuine")
    layer = tracing.layer_metrics(tracing.SpanTable(spans, genuine), loop.genuine_ok)
    layer["federation.register_partner.ms"] = tracing.register_partner_ms(setup_spans)
    layer["sp.reject.ms"] = tracing.SpanTable(spans, loop.ids("replay", "tamper")).p50_total(
        *tracing.SP_ENTRY
    )
    for step in ("replay", "signature"):
        layer[f"sp.reject.{step}"] = loop.rejects.get(step, 0)
    layer.update(live_state(loop.fed.sp, loop.fed.idp))
    traced_p50 = summarize(loop.signon_ms)["p50"]
    layer["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1) * 100 if untraced_p50 else 0.0
    attempted = plain.total_attempted + loop.total_attempted
    failed = plain.total_failed + loop.total_failed
    info = {
        "error_rate": failed / max(attempted, 1),
        "mismatches": plain.mismatches + loop.mismatches,
        "untraced_signon_ms": summarize(plain.signon_ms),
        "traced_signon_ms": summarize(loop.signon_ms),
        "spans": len(spans),
    }
    return {"attempted": attempted, "failed": failed, "layer": layer, "info": info}
