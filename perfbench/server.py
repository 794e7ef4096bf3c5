"""Server process of the ``http-sp-initiated`` workload.

Builds a ``HarnessService`` from a demo-style config (encrypted assertions,
signed requests), fills its live state to a steady state, serves it on
loopback and answers one-line commands on stdin with one JSON line on
stdout:

    mark        start of the timed window: live-state gauges
    rss         peak resident memory of this process so far
    end N       end of the window (N sign-ons done): gauges, memory, the
                sessions the SP holds per user, handler times from the
                service log and, when tracing, the per-layer figures
    quit        shut down and exit (also on end of input)

Set-up is repeated ``--setups`` times; each repetition writes keystores
(for freshly generated keys), user records and the config, loads them
through ``HarnessService.from_config``, prefills and starts the server.
Only the last service keeps running.

The prefill is the only place the benchmark calls a store method
directly (``ReplayCache.check_and_record``); a store rewrite that renames
it needs a benchmark-only change first.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import re
import shutil
import socket
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from samlforge import cryptoseal  # noqa: E402
from samlforge.federation import BEARER_GRACE_SECONDS  # noqa: E402
from samlforge.harness.config import load_config  # noqa: E402
from samlforge.harness.service import HarnessService  # noqa: E402

import tracing  # noqa: E402
from common import live_state, median_or_zero, peak_rss_mb, user_records  # noqa: E402

USERS = 5000
REPLAY_IDS = 5000  # ~5.5 sign-ons/s sustained over the 900 s retention
ABANDONED_RELAY_STATES = 300
VALIDITY = 300
RETENTION = VALIDITY + BEARER_GRACE_SECONDS
PASSPHRASE = "changeit"
BROWSER_IP = "127.0.0.1"

CONFIG_TEMPLATE = """\
host = 127.0.0.1
port = {port}
skew = 30
validity = {validity}
artifact_mode = single
locality_check = true

idp.entity_id = mycompany:saml2.0
idp.base_url = http://127.0.0.1:{port}
idp.keystore = keys/idp.keystore
idp.passphrase = {passphrase}
idp.signing_alias = idp-signing
idp.source = users.records

sp.entity_id = mypartner:saml2.0
sp.base_url = http://127.0.0.1:{port}
sp.keystore = keys/sp.keystore
sp.passphrase = {passphrase}
sp.signing_alias = sp-signing
sp.encryption_alias = sp-encryption
sp.landing_url = http://127.0.0.1:{port}/app
sp.want_assertions_signed = true
sp.encrypt_assertions = true
"""

_REQUEST_LINE = re.compile(r"request method=\S+ path=(\S+) status=\d+ duration_ms=([0-9.]+)")


class HandlerTimes(logging.Handler):
    """Keeps the per-request ``duration_ms`` of the service log by path."""

    def __init__(self) -> None:
        super().__init__()
        self.by_path: dict[str, list[float]] = defaultdict(list)

    def emit(self, record: logging.LogRecord) -> None:
        match = _REQUEST_LINE.match(record.getMessage())
        if match:
            self.by_path[match.group(1)].append(float(match.group(2)))


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def new_keys() -> tuple[cryptoseal.KeyEntry, ...]:
    """IdP signing, SP signing and SP encryption keys. Generated outside the
    timed set-up: their generation time is random by design and is not work
    the toolkit does."""
    return tuple(
        cryptoseal.new_keypair(name) for name in ("idp signing", "sp signing", "sp encryption")
    )


def build_service(seed: int, workdir: Path, keys: tuple[cryptoseal.KeyEntry, ...]) -> HarnessService:
    """Keystores, records, config, engines, prefill and start."""
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "keys").mkdir(parents=True)
    idp_key, sp_key, sp_enc = keys
    cryptoseal.save_keystore(
        cryptoseal.make_keystore({"idp-signing": idp_key}), workdir / "keys/idp.keystore", PASSPHRASE
    )
    cryptoseal.save_keystore(
        cryptoseal.make_keystore({"sp-signing": sp_key, "sp-encryption": sp_enc}),
        workdir / "keys/sp.keystore",
        PASSPHRASE,
    )
    records, users = user_records(seed, USERS)
    (workdir / "users.records").write_text(records, encoding="utf-8")
    port = _free_port()
    (workdir / "service.conf").write_text(
        CONFIG_TEMPLATE.format(port=port, validity=VALIDITY, passphrase=PASSPHRASE),
        encoding="utf-8",
    )
    service = HarnessService.from_config(load_config(workdir / "service.conf"))
    prefill(service, seed, users)
    service.start()
    return service


def prefill(service: HarnessService, seed: int, users: list[str]) -> None:
    """Live state of a service that has run at ~5.5 sign-ons/s for one
    retention period: replay IDs with expiries spread over the retention,
    one IdP session per user, abandoned relay-state tokens."""
    rng = random.Random(f"prefill-{seed}")
    now = service.clock()
    for store in (service.sp.replay, service.idp.request_replay):
        for i in range(REPLAY_IDS):
            expiry = now.plus(1 + i * RETENTION // REPLAY_IDS)
            store.check_and_record(f"_prefill{rng.getrandbits(64):016x}", expiry, now)
    for user in users:
        service.idp.create_session(user, BROWSER_IP, now)
    for i in range(ABANDONED_RELAY_STATES):
        service.sp.build_authn_request(f"{service.sp.landing_url}/abandoned/{i}", now)


def sessions_by_user(service: HarnessService) -> tuple[dict[str, int], int]:
    """SP sessions per IdP user, and how many disagree with the attribute
    source on name or attributes."""
    users: Counter[str] = Counter()
    mismatched = 0
    for session in service.sp.live_sessions():
        idp_session = service.idp.sessions.get(session.session_index)
        if idp_session is None:
            mismatched += 1
            continue
        record = service.idp.source.lookup(idp_session.user_key)
        if session.name_id != record.name_id or session.attributes != record.attributes:
            mismatched += 1
        users[idp_session.user_key] += 1
    return dict(users), mismatched


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    # as the CLI does: the level comes from SAMLFORGE_LOG; problems go to stderr
    level = os.environ.get("SAMLFORGE_LOG", "WARNING").upper()
    root = logging.getLogger()
    root.setLevel(getattr(logging, level, logging.WARNING))
    problems = logging.StreamHandler(sys.stderr)
    problems.setLevel(logging.WARNING)
    handler_times = HandlerTimes()
    root.addHandler(problems)
    root.addHandler(handler_times)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    service = None
    setups = []
    try:
        for _ in range(args.setups):
            if service is not None:
                service.shutdown()
                service = None
            keys = new_keys()
            started = time.perf_counter()
            service = build_service(args.seed, args.workdir, keys)
            setups.append(time.perf_counter() - started)
        register_ms = 0.0
        if tracer is not None:
            register_ms = tracing.register_partner_ms(tracer.snapshot())
            tracer.watch_stores(service.sp, service.idp)
        reply({"port": service.port, "setup_s": setups, "setup_median_s": median_or_zero(setups)})

        since = 0
        for line in sys.stdin:
            command, *rest = line.split()
            if command == "mark":
                since = tracer.mark() if tracer is not None else 0
                with handler_times.lock:
                    handler_times.by_path.clear()
                reply({"gauges": live_state(service.sp, service.idp)})
            elif command == "rss":
                reply({"rss_mb": peak_rss_mb()})
            elif command == "end":
                signons = int(rest[0])
                users, mismatched = sessions_by_user(service)
                with handler_times.lock:
                    by_path = {path: list(v) for path, v in handler_times.by_path.items()}
                result = {
                    "gauges": live_state(service.sp, service.idp),
                    "rss_mb": peak_rss_mb(),
                    "users": users,
                    "mismatched": mismatched,
                    "handler_ms": {
                        path: {"p50": median_or_zero(v), "mean": sum(v) / len(v), "n": len(v)}
                        for path, v in by_path.items()
                    },
                }
                if tracer is not None:
                    table = tracing.SpanTable(tracer.snapshot(since))
                    layer = tracing.layer_metrics(table, signons)
                    layer["federation.register_partner.ms"] = register_ms
                    result["layer"] = layer
                reply(result)
            elif command == "quit":
                break
    finally:
        if service is not None:
            service.shutdown()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    raise SystemExit(main())
