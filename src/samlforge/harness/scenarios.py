"""Scenario file grammar, in-process flow simulator, and trace capture.

Scenario file grammar (one stanza per scenario)::

    [scenario <name>]
    flow = idp_initiated | sp_initiated | artifact | artifact_pair | single_logout
    faults = <comma-separated fault names, may be empty>
    expect = success | fail:<step>
    encrypt = true | false        # optional, default false
    user = <user-key>             # optional, default the.user

``expect`` must be consistent with the fault list: no faults means
success, and each fault pins the pipeline step it trips. The simulator
runs everything in one process with a fixed clock and a seeded token
source, so a given (file, seed) pair always reproduces the same outcome.
"""

from __future__ import annotations

import hashlib
import random
import weakref
from dataclasses import dataclass, field

from .. import bindings, cryptoseal, xmlcodec
from ..core import EntityId, Instant, SamlError
from ..federation import FederationRegistry, register_partner
from ..idp import AttributeSource, IdpEngine, parse_attribute_records
from ..sp import PIPELINE_STEPS, BackChannel, ConsumeResult, SpEngine, ValidationReport
from . import faults as faults_mod
from .config import build_idp_descriptor, build_sp_descriptor
from .faults import FAULT_STEP, FaultKit, apply_message_fault

FLOWS = ("idp_initiated", "sp_initiated", "artifact", "artifact_pair", "single_logout")

# Faults that involve repetition or pairing cannot be combined with others.
_EXCLUSIVE_FAULTS = {
    "replay_assertion",
    "replay_artifact",
    "single_token_of_pair",
    "cross_pair_tokens",
}

_STEP_ORDER = ("fetch",) + PIPELINE_STEPS

_ARTIFACT_ONLY = {"replay_artifact"}
_PAIR_ONLY = {"single_token_of_pair", "cross_pair_tokens"}

DEFAULT_USER = "the.user"
DEFAULT_RECORDS = (
    "# user-key  name-id  attribute=value ...\n"
    "the.user the.user@mycompany.com clientId=1234 uid=the.user@mycompany.com\n"
    "j.doe jane.doe@mycompany.com clientId=1234 uid=jane.doe@mycompany.com\n"
)

SIM_EPOCH = Instant.parse("2009-04-22T12:28:36Z")


class BadScenario(SamlError):
    pass


@dataclass(frozen=True)
class Scenario:
    name: str
    flow: str
    faults: tuple[str, ...] = ()
    expect: str = "success"
    encrypt: bool = False
    user: str = DEFAULT_USER


def expected_outcome(faults: tuple[str, ...]) -> str:
    if not faults:
        return "success"
    steps = [FAULT_STEP[f] for f in faults]
    earliest = min(steps, key=_STEP_ORDER.index)
    return f"fail:{earliest}"


def validate_scenario(scenario: Scenario) -> None:
    if scenario.flow not in FLOWS:
        raise BadScenario(f"{scenario.name}: unknown flow {scenario.flow!r}")
    for fault in scenario.faults:
        if fault not in FAULT_STEP:
            raise BadScenario(f"{scenario.name}: unknown fault {fault!r}")
    exclusive = set(scenario.faults) & _EXCLUSIVE_FAULTS
    if exclusive and len(scenario.faults) > 1:
        raise BadScenario(
            f"{scenario.name}: {sorted(exclusive)[0]} cannot be combined with other faults"
        )
    if scenario.flow == "single_logout" and scenario.faults:
        raise BadScenario(f"{scenario.name}: the single_logout flow takes no faults")
    for fault in scenario.faults:
        if fault in _PAIR_ONLY and scenario.flow != "artifact_pair":
            raise BadScenario(f"{scenario.name}: {fault} requires flow artifact_pair")
        if fault in _ARTIFACT_ONLY and scenario.flow not in ("artifact", "artifact_pair"):
            raise BadScenario(f"{scenario.name}: {fault} requires an artifact flow")
        if fault == "replay_assertion" and scenario.flow not in ("idp_initiated", "sp_initiated"):
            raise BadScenario(f"{scenario.name}: replay_assertion requires a POST flow")
        if fault == "expire_window" and scenario.flow in ("artifact", "artifact_pair"):
            # artifact retention equals assertion validity, so the artifact
            # always expires first and the window step is unreachable
            raise BadScenario(
                f"{scenario.name}: expire_window cannot be observed through an artifact flow"
            )
    expected = expected_outcome(scenario.faults)
    if scenario.expect != expected:
        raise BadScenario(
            f"{scenario.name}: expect {scenario.expect!r} is inconsistent with the "
            f"fault list (must be {expected!r})"
        )


def parse_scenarios(text: str) -> tuple[Scenario, ...]:
    scenarios: list[Scenario] = []
    current: dict[str, str] | None = None
    name: str | None = None

    def flush() -> None:
        if name is None:
            return
        fields = current or {}
        faults = tuple(
            f.strip() for f in fields.get("faults", "").split(",") if f.strip()
        )
        scenario = Scenario(
            name=name,
            flow=fields.get("flow", ""),
            faults=faults,
            expect=fields.get("expect", "success"),
            encrypt=fields.get("encrypt", "false") in ("true", "1"),
            user=fields.get("user", DEFAULT_USER),
        )
        validate_scenario(scenario)
        scenarios.append(scenario)

    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[scenario ") and stripped.endswith("]"):
            flush()
            name = stripped[len("[scenario ") : -1].strip()
            if not name:
                raise BadScenario(f"line {lineno}: scenario stanza needs a name")
            current = {}
            continue
        if current is None:
            raise BadScenario(f"line {lineno}: content before the first [scenario ...] stanza")
        key, sep, value = stripped.partition("=")
        if not sep:
            raise BadScenario(f"line {lineno}: expected key = value, got {line!r}")
        current[key.strip()] = value.strip()
    flush()
    if not scenarios:
        raise BadScenario("scenario file defines no scenarios")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise BadScenario("scenario names must be unique")
    return tuple(scenarios)


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    timestamp: Instant
    actor: str  # browser | idp | sp
    direction: str  # send | recv | note
    kind: str
    digest: str
    summary: str

    def render(self) -> str:
        return (
            f"{self.timestamp.isoformat()} {self.actor:<7} {self.direction:<4} "
            f"{self.kind:<16} {self.digest:<12} {self.summary}"
        )


def _digest(payload: bytes | str) -> str:
    raw = payload.encode("utf-8") if isinstance(payload, str) else payload
    return hashlib.sha256(raw).hexdigest()[:12]


# ---------------------------------------------------------------------------
# In-process federation
# ---------------------------------------------------------------------------

_KEYS: dict[str, cryptoseal.KeyEntry] = {}


def _shared_keys() -> dict[str, cryptoseal.KeyEntry]:
    """RSA keygen is the slow part; share one set per process."""
    if not _KEYS:
        _KEYS["idp-signing"] = cryptoseal.new_keypair("idp-signing")
        _KEYS["sp-signing"] = cryptoseal.new_keypair("sp-signing")
        _KEYS["sp-encryption"] = cryptoseal.new_keypair("sp-encryption")
    return _KEYS


IDP_ENTITY = "mycompany:saml2.0"
SP_ENTITY = "mypartner:saml2.0"
IDP_BASE = "http://idp.internal.test"
SP_BASE = "https://sp.internal.test"
LANDING_URL = f"{SP_BASE}/app"
CLIENT_IP = "192.168.0.189"


class SimulatedFederation:
    """Both parties wired together in one process, no network."""

    def __init__(
        self,
        encrypt: bool = False,
        seed: int = 0,
        skew: int = 0,
        records: str = DEFAULT_RECORDS,
        keys: dict[str, cryptoseal.KeyEntry] | None = None,
    ) -> None:
        rng = random.Random(seed)
        token_source = rng.randbytes
        keys = keys or _shared_keys()
        self.keys = keys
        self.clock = SIM_EPOCH
        self.trace: list[TraceEvent] = []

        idp_store = cryptoseal.make_keystore({"idp-signing": keys["idp-signing"]})
        sp_store = cryptoseal.make_keystore(
            {"sp-signing": keys["sp-signing"], "sp-encryption": keys["sp-encryption"]}
        )

        idp_desc = build_idp_descriptor(IDP_ENTITY, IDP_BASE, keys["idp-signing"].cert_b64)
        sp_desc = build_sp_descriptor(
            SP_ENTITY,
            SP_BASE,
            keys["sp-signing"].cert_b64,
            keys["sp-encryption"].cert_b64 if encrypt else None,
        )

        idp_registry = FederationRegistry(local=idp_desc, signing_alias="idp-signing")
        sp_registry = FederationRegistry(
            local=sp_desc, signing_alias="sp-signing", encryption_alias="sp-encryption"
        )
        idp_registry = register_partner(idp_registry, xmlcodec.emit_metadata(sp_desc), clock_skew=skew)
        sp_registry = register_partner(sp_registry, xmlcodec.emit_metadata(idp_desc), clock_skew=skew)

        self.source: AttributeSource = parse_attribute_records(records)
        self.idp = IdpEngine(idp_registry, idp_store, self.source, token_source=token_source)
        self.sp = SpEngine(
            sp_registry,
            sp_store,
            landing_url=LANDING_URL,
            token_source=token_source,
            back_channel=_weak_back_channel(self._back_channel),
        )
        self.fault_kit = FaultKit(
            idp_store=idp_store,
            idp_signing_alias="idp-signing",
            sp_store=sp_store,
            sp_encryption_alias=sp_registry.encryption_alias,
            encrypt_to=self.idp.registry.partner(SP_ENTITY).encryption_cert_ders,
            recipient=EntityId(SP_ENTITY),
        )

    # -- plumbing -----------------------------------------------------------

    def record(self, actor: str, direction: str, kind: str, payload: bytes | str, summary: str) -> None:
        self.trace.append(TraceEvent(self.clock, actor, direction, kind, _digest(payload), summary))

    def tick(self, seconds: int = 1) -> Instant:
        self.clock = self.clock.plus(seconds)
        return self.clock

    def _back_channel(self, endpoint: str, payload: bytes) -> bytes:
        self.record("sp", "send", "artifact_resolve", payload, f"to {endpoint}")
        try:
            response = self.idp.resolve_artifact(payload, self.clock)
        except SamlError as exc:
            self.record("idp", "send", "fault", str(exc), type(exc).__name__)
            raise bindings.FaultResponse(type(exc).__name__, str(exc)) from exc
        self.record("idp", "send", "response", response, "resolved artifact")
        return response


def _weak_back_channel(method: BackChannel) -> BackChannel:
    """The SP's back channel to ``method``'s federation; it does not keep the
    federation alive, so dropping the federation frees both engines."""
    ref = weakref.WeakMethod(method)

    def send(endpoint: str, payload: bytes) -> bytes:
        target = ref()
        if target is None:
            raise bindings.ConnectFailed(f"{endpoint}: the simulated federation is gone")
        return target(endpoint, payload)

    return send


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    scenario: Scenario
    expected: str
    actual: str
    trace: list[TraceEvent] = field(default_factory=list)
    report: ValidationReport | None = None

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def run_scenario(
    scenario: Scenario,
    seed: int = 0,
    skew: int = 0,
    keys: dict[str, cryptoseal.KeyEntry] | None = None,
) -> ScenarioResult:
    validate_scenario(scenario)
    fed = SimulatedFederation(
        encrypt=scenario.encrypt, seed=seed, skew=skew, keys=keys
    )
    runner = {
        "idp_initiated": _run_post_flow,
        "sp_initiated": _run_post_flow,
        "artifact": _run_artifact_flow,
        "artifact_pair": _run_artifact_flow,
        "single_logout": _run_single_logout,
    }[scenario.flow]
    try:
        actual, report = runner(fed, scenario)
    except SamlError as exc:
        actual, report = f"error:{type(exc).__name__}", None
        fed.record("sp", "note", "error", str(exc), type(exc).__name__)
    return ScenarioResult(
        scenario=scenario,
        expected=scenario.expect,
        actual=actual,
        trace=fed.trace,
        report=report,
    )


def _consume_instant(fed: SimulatedFederation, scenario: Scenario, issued_at: Instant) -> Instant:
    validity = fed.sp.registry.partner(IDP_ENTITY).policy.validity
    skew = fed.sp.registry.partner(IDP_ENTITY).policy.clock_skew
    if "expire_window" in scenario.faults:
        return issued_at.plus(validity + skew + 1)
    if "not_yet_valid" in scenario.faults:
        return issued_at.minus(skew + 10)
    return issued_at.plus(1)


def _observed_ip(scenario: Scenario) -> str:
    return faults_mod.WRONG_IP if "wrong_locality" in scenario.faults else CLIENT_IP


def _verify_session(fed: SimulatedFederation, scenario: Scenario, result: ConsumeResult) -> str:
    """Cross-check an accepted session against the attribute source."""
    record = fed.source.lookup(scenario.user)
    session = result.session
    if session is None:
        return "fail:session-missing"
    if session.name_id != record.name_id or session.attributes != record.attributes:
        return "fail:session-content"
    return "success"


def _run_post_flow(fed: SimulatedFederation, scenario: Scenario) -> tuple[str, ValidationReport]:
    session = fed.idp.create_session(scenario.user, CLIENT_IP, fed.clock)
    relay_token: str | None = None

    if scenario.flow == "sp_initiated":
        redirect, relay_token = fed.sp.build_authn_request(f"{SP_BASE}/app/reports", fed.clock)
        fed.record("browser", "recv", "redirect", redirect.url, "to identity provider")
        fed.tick()
        form = fed.idp.handle_authn_request(redirect.url, session, fed.clock)
    else:
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, fed.clock)
    fed.record("idp", "send", "post_form", form.saml_value, f"to {form.action_url}")

    message = bindings.decode_post(bindings.serialize_post_body(form)).message
    for fault in scenario.faults:
        if fault in faults_mod.MESSAGE_FAULT_STEP:
            message = apply_message_fault(fault, message, fed.fault_kit)
            fed.record("browser", "note", "fault", message, fault)
    tampered_form = bindings.encode_post(
        message, "response", form.action_url, form.relay_state
    )
    body = bindings.serialize_post_body(tampered_form)

    when = _consume_instant(fed, scenario, fed.clock)
    fed.clock = when
    fed.record("browser", "send", "acs_post", body, f"as {_observed_ip(scenario)}")
    result = fed.sp.consume(body, _observed_ip(scenario), when)
    fed.record("sp", "note", "verdict", result.report.render(), result.report.outcome)

    if "replay_assertion" in scenario.faults:
        if not result.ok:
            return f"fail:first-attempt-{result.report.failed_step}", result.report
        fed.tick()
        fed.record("browser", "send", "acs_post", body, "replayed")
        result = fed.sp.consume(body, _observed_ip(scenario), fed.clock)
        fed.record("sp", "note", "verdict", result.report.render(), result.report.outcome)
        return result.report.outcome, result.report

    if result.ok:
        verdict = _verify_session(fed, scenario, result)
        if verdict != "success":
            return verdict, result.report
        if scenario.flow == "sp_initiated" and result.redirect_url != f"{SP_BASE}/app/reports":
            return "fail:relay-target", result.report
        if scenario.flow == "idp_initiated" and result.redirect_url != LANDING_URL:
            return "fail:relay-target", result.report
    return result.report.outcome, result.report


def _run_artifact_flow(fed: SimulatedFederation, scenario: Scenario) -> tuple[str, ValidationReport]:
    session = fed.idp.create_session(scenario.user, CLIENT_IP, fed.clock)
    response = fed.idp.issue_assertion(session, SP_ENTITY, fed.clock)
    response_bytes = xmlcodec.emit_response(response)
    for fault in scenario.faults:
        if fault in faults_mod.MESSAGE_FAULT_STEP:
            response_bytes = apply_message_fault(fault, response_bytes, fed.fault_kit)
            fed.record("idp", "note", "fault", response_bytes, fault)
    doctored = xmlcodec.parse_response(response_bytes)

    if scenario.flow == "artifact_pair":
        first, second = fed.idp.issue_artifact_pair(doctored, SP_ENTITY)
        if "single_token_of_pair" in scenario.faults:
            artifacts: list[str] = [first.encode()]
        elif "cross_pair_tokens" in scenario.faults:
            other_response = fed.idp.issue_assertion(session, SP_ENTITY, fed.clock)
            third, _fourth = fed.idp.issue_artifact_pair(other_response, SP_ENTITY)
            artifacts = [first.encode(), third.encode()]
        else:
            artifacts = [first.encode(), second.encode()]
    else:
        artifacts = [fed.idp.issue_artifact(doctored, SP_ENTITY).encode()]
    fed.record("idp", "send", "artifact", ",".join(artifacts), f"{len(artifacts)} value(s)")

    when = _consume_instant(fed, scenario, fed.clock)
    fed.clock = when
    result = fed.sp.fetch_via_artifact(artifacts, _observed_ip(scenario), when)
    fed.record("sp", "note", "verdict", result.report.render(), result.report.outcome)

    if "replay_artifact" in scenario.faults:
        if not result.ok:
            return f"fail:first-attempt-{result.report.failed_step}", result.report
        fed.tick()
        result = fed.sp.fetch_via_artifact(artifacts, _observed_ip(scenario), fed.clock)
        fed.record("sp", "note", "verdict", result.report.render(), result.report.outcome)
        return result.report.outcome, result.report

    if result.ok:
        verdict = _verify_session(fed, scenario, result)
        if verdict != "success":
            return verdict, result.report
    return result.report.outcome, result.report


def _run_single_logout(fed: SimulatedFederation, scenario: Scenario) -> tuple[str, ValidationReport]:
    session = fed.idp.create_session(scenario.user, CLIENT_IP, fed.clock)
    form = fed.idp.idp_initiated_post(session, SP_ENTITY, fed.clock)
    result = fed.sp.consume(
        bindings.serialize_post_body(form), CLIENT_IP, fed.tick()
    )
    if not result.ok:
        return f"fail:setup-{result.report.failed_step}", result.report

    forms = fed.idp.initiate_single_logout(session.session_index, fed.tick())
    fed.record("idp", "send", "logout_request", str(len(forms)), f"{len(forms)} request(s)")
    replayable: bytes | None = None
    for request_form in forms:
        request_bytes = bindings.decode_post(
            bindings.serialize_post_body(request_form)
        ).message
        replayable = request_bytes
        response_bytes = fed.sp.handle_logout_request(request_bytes, fed.tick())
        fed.record("sp", "send", "logout_response", response_bytes, "to identity provider")
        fed.idp.handle_logout_response(response_bytes, fed.clock)

    if fed.sp.live_sessions(session.session_index):
        return "fail:logout", result.report
    if session.session_index in fed.idp.sessions:
        return "fail:logout", result.report
    if replayable is not None:
        replay = fed.sp.handle_logout_request(replayable, fed.tick())
        status = xmlcodec.parse_logout_response(replay).status
        fed.record("sp", "note", "logout_replay", replay, status)
        if not status.endswith(":Success"):
            return "fail:logout", result.report
    return "success", result.report


def run_scenarios(
    scenarios: tuple[Scenario, ...], seed: int = 0, skew: int = 0
) -> list[ScenarioResult]:
    keys = _shared_keys()
    return [run_scenario(s, seed=seed, skew=skew, keys=keys) for s in scenarios]
