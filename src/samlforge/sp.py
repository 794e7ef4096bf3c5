"""Relying-party engine: ACS validation pipeline, replay cache, relay-state
resolution, request construction, artifact retrieval, logout participation.

The consume pipeline treats its input as hostile. It is one table of
named steps run by one loop: every step is recorded in a ValidationReport,
a SamlError inside a step fails that step, the run stops at the first
failure and never creates a partial session.
"""

from __future__ import annotations

import logging
import secrets
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import bindings, cryptoseal, xmlcodec
from .core import (
    Assertion,
    Attribute,
    AuthnRequest,
    EncryptedAssertion,
    EntityId,
    ExpiringMap,
    Instant,
    LogoutResponse,
    ReplayCache,
    Response,
    SamlError,
    TokenSource,
    ValidityVerdict,
    check_audience,
    check_bearer,
    check_locality,
    evaluate_window,
    new_message_id,
    trim_slash,
    STATUS_SUCCESS,
)
from .cryptoseal import InvalidRequestSignature  # noqa: F401 - re-exported
from .federation import (
    BEARER_GRACE_SECONDS,
    FederationRegistry,
    Partner,
    register_partner,
)
from .xmlcodec import (
    BINDING_HTTP_POST,
    BINDING_HTTP_REDIRECT,
    IdpSsoDescriptor,
    SpSsoDescriptor,
)

logger = logging.getLogger(__name__)


class NoIdpRegistered(SamlError):
    pass


class UnsupportedBinding(SamlError):
    pass


# ---------------------------------------------------------------------------
# Session and report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SsoSession:
    name_id: str
    attributes: tuple[Attribute, ...]
    issuer: EntityId
    session_index: str
    established_at: Instant
    client_ip: str


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(CheckResult(name, ok, detail))
        return ok

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failed_step(self) -> str | None:
        for check in self.checks:
            if not check.ok:
                return check.name
        return None

    @property
    def outcome(self) -> str:
        failed = self.failed_step
        return "success" if failed is None else f"fail:{failed}"

    def render(self) -> str:
        lines = [
            f"{c.name} {'ok' if c.ok else 'fail'}" + (f" {c.detail}" if c.detail else "")
            for c in self.checks
        ]
        lines.append(f"outcome {self.outcome}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ConsumeResult:
    report: ValidationReport
    session: SsoSession | None = None
    redirect_url: str | None = None

    @property
    def ok(self) -> bool:
        return self.session is not None


@dataclass
class _Exchange:
    """What one consume run has learned so far; the steps fill it in order."""

    inbound: bytes | str | tuple[str, ...]  # POST form body, or artifact values
    observed_ip: str
    now: Instant
    relay_state: str | None = None
    message: bytes = b""
    response: Response | None = None
    partner: Partner | None = None
    assertion: Assertion | None = None
    redirect_url: str = ""


def _named(verdict: ValidityVerdict) -> tuple[bool, str]:
    """A verdict as (ok, detail), the detail led by the outcome's name."""
    return verdict.ok, verdict.outcome.value + (f": {verdict.detail}" if verdict.detail else "")


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

BackChannel = Callable[[str, bytes], bytes]
Step = Callable[["SpEngine", _Exchange], tuple[bool, str]]


class SpEngine:
    """One service provider: registry, keys, replay cache, live sessions."""

    def __init__(
        self,
        registry: FederationRegistry,
        store: cryptoseal.KeyStore,
        landing_url: str,
        locality_check: bool = True,
        token_source: TokenSource = secrets.token_bytes,
        back_channel: BackChannel | None = None,
    ) -> None:
        if not isinstance(registry.local.role, SpSsoDescriptor):
            raise ValueError("SpEngine needs a registry whose local entity is an SP")
        if registry.signing_alias is None:
            raise ValueError("SpEngine needs a registry with a signing alias")
        self._lock = threading.Lock()
        self.registry = registry
        self.store = store
        self.landing_url = landing_url
        self.locality_check = locality_check
        self.token_source = token_source
        self.back_channel = back_channel or (
            lambda endpoint, payload: bindings.back_channel_exchange(endpoint, payload)
        )
        self.replay = ReplayCache()
        self.sessions: dict[str, list[SsoSession]] = {}
        self._relay_states = ExpiringMap()  # token -> target URL

    # -- registry ---------------------------------------------------------

    def register_partner(self, metadata_bytes: bytes) -> None:
        with self._lock:
            self.registry = register_partner(self.registry, metadata_bytes)

    @property
    def entity_id(self) -> EntityId:
        return self.registry.local.entity_id

    @property
    def local_role(self) -> SpSsoDescriptor:
        return self.registry.local.role

    @property
    def acs_url(self) -> str:
        return self.local_role.default_acs().location

    # -- consume pipeline ---------------------------------------------------

    def consume(self, post_body: bytes | str, observed_ip: str, now: Instant) -> ConsumeResult:
        """Full ACS pipeline over a POST form body."""
        return self._run(self._POST_STEPS, _Exchange(post_body, observed_ip, now))

    def _run(self, steps: tuple[tuple[str, Step], ...], x: _Exchange) -> ConsumeResult:
        """Run ``steps`` in order; the first failure ends the run, and a
        session exists only after the last step passed."""
        report = ValidationReport()
        for name, step in steps:
            try:
                ok, detail = step(self, x)
            except SamlError as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            if not report.record(name, ok, detail):
                return ConsumeResult(report)
        assertion = x.assertion
        session = SsoSession(
            name_id=assertion.subject.name_id,
            attributes=assertion.attributes,
            issuer=EntityId(x.response.issuer),
            session_index=assertion.authn_statement.session_index,
            established_at=x.now,
            client_ip=x.observed_ip,
        )
        with self._lock:
            self.sessions.setdefault(session.session_index, []).append(session)
        return ConsumeResult(report, session, x.redirect_url)

    # Each step reads and fills the exchange and returns (ok, detail).

    def _decode(self, x: _Exchange) -> tuple[bool, str]:
        decoded = bindings.decode_post(x.inbound)
        if decoded.field != bindings.FIELD_RESPONSE:
            return False, "form carries no SAMLResponse field"
        x.message, x.relay_state = decoded.message, decoded.relay_state
        return True, ""

    def _fetch(self, x: _Exchange) -> tuple[bool, str]:
        """Resolve the artifact value(s) over the back channel."""
        if not x.inbound:
            return False, "no artifact to resolve"
        parsed = [bindings.parse_artifact(v) for v in x.inbound]
        partner = next(
            (
                p
                for p in self.registry.idp_partners()
                if bindings.source_id_for(p.entity_id) == parsed[0].source_id
            ),
            None,
        )
        if partner is None:
            return False, "artifact source matches no registered identity provider"
        role: IdpSsoDescriptor = partner.descriptor.role
        endpoint = next(
            (e for e in role.artifact_resolution_endpoints if e.index == parsed[0].endpoint_index),
            None,
        )
        if endpoint is None:
            return False, (
                f"partner {partner.entity_id} advertises no artifact resolution "
                f"endpoint with index {parsed[0].endpoint_index}"
            )
        resolve = xmlcodec.emit_artifact_resolve(
            new_message_id(self.token_source), x.now, self.entity_id, x.inbound
        )
        x.message = self.back_channel(endpoint.location, resolve)
        return True, ""

    def _parse(self, x: _Exchange) -> tuple[bool, str]:
        x.response = xmlcodec.read_exact(
            x.message, xmlcodec.response_from_element, xmlcodec.emit_response
        )
        return True, ""

    def _issuer(self, x: _Exchange) -> tuple[bool, str]:
        issuer = x.response.issuer
        x.partner = self.registry.partners.get(issuer)
        if x.partner is None or not x.partner.descriptor.is_idp:
            return False, f"unknown identity provider {issuer!r}"
        return True, issuer

    def _signature(self, x: _Exchange) -> tuple[bool, str]:
        """The Response signature, then the assertion it carries.

        The one signature is checked before anything it covers is unsealed
        or parsed, so an unauthenticated sender gets no private-key ECDH
        and no say in the report. An SP that wants signed assertions
        refuses an unsigned Response outright. The plaintext of a sealed
        assertion is read as ``parse`` reads the Response."""
        response = x.response
        if response.signature is not None:
            result = cryptoseal.verify_message(
                response, xmlcodec.emit_response, x.partner.entity_id,
                x.partner.signing_cert_ders, self.store,
            )
            if not result.accepted:
                return False, f"response signature: {result.reason}"
        elif self.local_role.want_assertions_signed:
            return False, "response signature missing but required"

        assertion = response.assertion
        if isinstance(assertion, EncryptedAssertion):
            plain = cryptoseal.decrypt_assertion(
                assertion, self.registry.encryption_alias, self.store
            )
            assertion = xmlcodec.read_exact(
                plain, xmlcodec.assertion_from_element, xmlcodec.emit_assertion
            )
        elif assertion is None:
            return False, "response carries no assertion"
        elif self.local_role.encryption_keys:
            return False, "policy requires an encrypted assertion"
        x.assertion = assertion
        return True, ""

    def _status(self, x: _Exchange) -> tuple[bool, str]:
        if x.response.status != STATUS_SUCCESS:
            return False, x.response.status
        return True, ""

    def _destination(self, x: _Exchange) -> tuple[bool, str]:
        if trim_slash(x.response.destination) != trim_slash(self.acs_url):
            return False, f"{x.response.destination!r} is not this consumer service"
        return True, ""

    def _window(self, x: _Exchange) -> tuple[bool, str]:
        conditions = x.assertion.conditions
        return _named(evaluate_window(
            conditions.not_before, conditions.not_on_or_after, x.now, self.registry.clock_skew
        ))

    def _audience(self, x: _Exchange) -> tuple[bool, str]:
        verdict = check_audience(x.assertion.conditions, self.entity_id)
        return verdict.ok, verdict.detail

    def _bearer(self, x: _Exchange) -> tuple[bool, str]:
        return _named(check_bearer(
            x.assertion.subject.confirmation, self.acs_url, x.now, self.registry.clock_skew
        ))

    def _replay(self, x: _Exchange) -> tuple[bool, str]:
        assertion = x.assertion
        expiry = assertion.subject.confirmation.not_on_or_after.plus(self.registry.clock_skew)
        if not self.replay.check_and_record(assertion.id, expiry, x.now):
            return False, f"assertion {assertion.id!r} was already consumed"
        return True, ""

    def _locality(self, x: _Exchange) -> tuple[bool, str]:
        if not self.locality_check:
            return True, "check disabled by policy"
        verdict = check_locality(x.assertion.authn_statement, x.observed_ip)
        return verdict.ok, verdict.detail

    def _relay_state(self, x: _Exchange) -> tuple[bool, str]:
        """Known token -> stored URL (single use); anything else -> the
        configured landing URL. Never an open redirect."""
        x.redirect_url = self.landing_url
        if x.relay_state is None:
            return True, "no relay state; using landing URL"
        target = self._relay_states.take(x.relay_state)
        if target is None:
            return True, f"unissued relay state {x.relay_state!r} ignored; using landing URL"
        x.redirect_url = target
        return True, ""

    _RESPONSE_STEPS = (
        ("parse", _parse),
        ("issuer", _issuer),
        ("signature", _signature),
        ("status", _status),
        ("destination", _destination),
        ("window", _window),
        ("audience", _audience),
        ("bearer", _bearer),
        ("replay", _replay),
        ("locality", _locality),
        ("relay_state", _relay_state),
    )
    _POST_STEPS = (("decode", _decode),) + _RESPONSE_STEPS
    _ARTIFACT_STEPS = (("fetch", _fetch),) + _RESPONSE_STEPS

    # -- SP-initiated flow --------------------------------------------------

    def build_authn_request(
        self, target_resource: str, now: Instant
    ) -> tuple[bindings.RedirectUrl, str]:
        """Redirect the browser to the IdP with a fresh signed request.

        RelayState is an opaque token mapped internally to the target URL;
        the raw URL never crosses the wire.
        """
        idps = self.registry.idp_partners()
        if not idps:
            raise NoIdpRegistered("no identity provider partner registered")
        partner = idps[0]
        role: IdpSsoDescriptor = partner.descriptor.role
        endpoint = next(
            (
                e
                for e in role.sso_endpoints
                if e.binding in (BINDING_HTTP_REDIRECT, BINDING_HTTP_POST)
            ),
            None,
        )
        if endpoint is None:
            raise UnsupportedBinding(
                f"partner {partner.entity_id} advertises no redirect or POST sign-on endpoint"
            )
        request = AuthnRequest(
            id=new_message_id(self.token_source),
            issue_instant=now,
            issuer=self.entity_id,
            acs_url=self.acs_url,
        )
        message = xmlcodec.emit_authn_request(request)
        if self.local_role.authn_requests_signed:
            signature = cryptoseal.sign_element(
                message, request.id, self.registry.signing_alias, self.store
            )
            message = xmlcodec.insert_signature(message, signature)
        token = self.token_source(9).hex()
        expiry = now.plus(self.registry.validity + BEARER_GRACE_SECONDS)
        # Tokens expire with the request they accompany.
        self._relay_states.put(token, target_resource, expiry, now)
        redirect = bindings.encode_redirect(message, endpoint.location, relay_state=token)
        return redirect, token

    # -- artifact retrieval --------------------------------------------------

    def fetch_via_artifact(
        self, artifacts: str | Sequence[str], observed_ip: str, now: Instant
    ) -> ConsumeResult:
        """Resolve artifact(s) over the back channel, then run the pipeline
        from the parse step. Pair-mode partners send two artifacts."""
        values = (artifacts,) if isinstance(artifacts, str) else tuple(artifacts)
        return self._run(self._ARTIFACT_STEPS, _Exchange(values, observed_ip, now))

    # -- logout --------------------------------------------------------------

    def handle_logout_request(self, request_bytes: bytes, now: Instant) -> bytes:
        """Terminate matching sessions; always Success, replay is a no-op.
        An SP that insists on signed assertions also insists on signed logout."""
        request, _idp = self.registry.receive(
            request_bytes, xmlcodec.logout_request_from_element, xmlcodec.emit_logout_request,
            self.store, lambda idp: self.local_role.want_assertions_signed,
        )
        with self._lock:
            removed = self.sessions.pop(request.session_index, [])
        if removed:
            logger.info(
                "terminated %d session(s) session_index=%s", len(removed), request.session_index
            )
        response = LogoutResponse(
            id=new_message_id(self.token_source),
            issue_instant=now,
            issuer=self.entity_id,
            status=STATUS_SUCCESS,
            in_response_to=request.id,
        )
        response = cryptoseal.sign_message(
            response, xmlcodec.emit_logout_response, self.registry.signing_alias, self.store
        )
        return xmlcodec.emit_logout_response(response)

    def live_sessions(self, session_index: str | None = None) -> tuple[SsoSession, ...]:
        with self._lock:
            if session_index is not None:
                return tuple(self.sessions.get(session_index, ()))
            return tuple(s for group in self.sessions.values() for s in group)


# Pipeline step names, in mandatory execution order.
PIPELINE_STEPS = tuple(name for name, _ in SpEngine._POST_STEPS)
