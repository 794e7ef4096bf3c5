"""Relying-party engine: ACS validation pipeline, replay cache, relay-state
resolution, request construction, artifact retrieval, logout participation.

The consume pipeline treats its input as hostile. Every step is recorded
in a ValidationReport; the pipeline short-circuits on the first failure
and never creates a partial session.
"""

from __future__ import annotations

import dataclasses
import heapq
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
    Instant,
    LogoutResponse,
    SamlError,
    Signature,
    TokenSource,
    check_audience,
    check_bearer,
    check_locality,
    evaluate_window,
    new_message_id,
    STATUS_SUCCESS,
)
from .federation import (
    BEARER_GRACE_SECONDS,
    FederationRegistry,
    Partner,
    UnknownIssuer,
)
from .xmlcodec import (
    BINDING_HTTP_POST,
    BINDING_HTTP_REDIRECT,
    IdpSsoDescriptor,
    SpSsoDescriptor,
    XmlElement,
)

logger = logging.getLogger(__name__)


class NoIdpRegistered(SamlError):
    pass


class UnsupportedBinding(SamlError):
    pass


class InvalidRequestSignature(SamlError):
    pass


# ---------------------------------------------------------------------------
# Replay cache
# ---------------------------------------------------------------------------


class ReplayCache:
    """Consumed-ID store. An ID that is present and unexpired blocks
    re-acceptance; the insert is an atomic check-and-record.

    A min-heap of ``(expiry, id)`` mirrors the dict one-to-one, so eviction
    pops only the expired entries instead of scanning every live ID."""

    def __init__(self) -> None:
        self._entries: dict[str, Instant] = {}
        self._expiries: list[tuple[Instant, str]] = []
        self._lock = threading.Lock()

    def check_and_record(self, message_id: str, expiry: Instant, now: Instant) -> bool:
        """True if the ID was fresh (and is now recorded)."""
        with self._lock:
            self._evict(now)
            if message_id in self._entries:
                return False
            self._entries[message_id] = expiry
            heapq.heappush(self._expiries, (expiry, message_id))
            return True

    def evict_expired(self, now: Instant) -> None:
        with self._lock:
            self._evict(now)

    def _evict(self, now: Instant) -> None:
        while self._expiries and self._expiries[0][0] <= now:
            _, message_id = heapq.heappop(self._expiries)
            del self._entries[message_id]

    def __contains__(self, message_id: str) -> bool:
        with self._lock:
            return message_id in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


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


# Pipeline step names, in mandatory execution order.
PIPELINE_STEPS = (
    "decode",
    "parse",
    "issuer",
    "signature",
    "status",
    "destination",
    "window",
    "audience",
    "bearer",
    "replay",
    "locality",
    "relay_state",
)


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


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

BackChannel = Callable[[str, bytes], bytes]


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
        self.request_replay = ReplayCache()
        self.sessions: dict[str, list[SsoSession]] = {}
        self._relay_states: dict[str, tuple[str, Instant]] = {}

    # -- registry ---------------------------------------------------------

    def register_partner(self, metadata_bytes: bytes, **kwargs) -> None:
        from .federation import register_partner

        with self._lock:
            self.registry = register_partner(self.registry, metadata_bytes, **kwargs)

    @property
    def entity_id(self) -> EntityId:
        return self.registry.local.entity_id

    @property
    def local_role(self) -> SpSsoDescriptor:
        return self.registry.local.role

    @property
    def acs_url(self) -> str:
        return self.local_role.default_acs().location

    def _verify(self, payload: bytes, signature: Signature, signer: Partner) -> cryptoseal.VerifyResult:
        pinned = self.store.with_trust_anchors(
            signer.entity_id, signing=signer.signing_cert_ders()
        )
        return cryptoseal.verify_signature(payload, signature, signer.entity_id, pinned)

    # -- consume pipeline ---------------------------------------------------

    def consume(self, post_body: bytes | str, observed_ip: str, now: Instant) -> ConsumeResult:
        """Full ACS pipeline over a POST form body."""
        report = ValidationReport()
        try:
            decoded = bindings.decode_post(post_body)
        except SamlError as exc:
            report.record("decode", False, f"{type(exc).__name__}: {exc}")
            return ConsumeResult(report)
        if decoded.field != bindings.FIELD_RESPONSE:
            report.record("decode", False, "form carries no SAMLResponse field")
            return ConsumeResult(report)
        report.record("decode", True)
        return self._consume_response_bytes(
            decoded.message, observed_ip, now, decoded.relay_state, report
        )

    def _consume_response_bytes(
        self,
        response_bytes: bytes,
        observed_ip: str,
        now: Instant,
        relay_state: str | None,
        report: ValidationReport,
    ) -> ConsumeResult:
        # (2) parse
        try:
            root = xmlcodec.parse_xml(response_bytes)
            response = xmlcodec.response_from_element(root)
        except SamlError as exc:
            report.record("parse", False, f"{type(exc).__name__}: {exc}")
            return ConsumeResult(report)
        report.record("parse", True)

        # (3) issuer is a registered IdP
        partner = self.registry.partners.get(response.issuer)
        if partner is None or not partner.descriptor.is_idp:
            report.record("issuer", False, f"unknown identity provider {response.issuer!r}")
            return ConsumeResult(report)
        report.record("issuer", True, response.issuer)
        skew = partner.policy.clock_skew

        # (4) signatures (decrypt first when encrypted)
        assertion = self._check_signatures(root, response, partner, report)
        if assertion is None:
            return ConsumeResult(report)

        # (5) status
        if response.status != STATUS_SUCCESS:
            report.record("status", False, response.status)
            return ConsumeResult(report)
        report.record("status", True)

        # (6) destination
        if _trim(response.destination) != _trim(self.acs_url):
            report.record(
                "destination", False, f"{response.destination!r} is not this consumer service"
            )
            return ConsumeResult(report)
        report.record("destination", True)

        # (7) conditions window
        verdict = evaluate_window(
            assertion.conditions.not_before, assertion.conditions.not_on_or_after, now, skew
        )
        if not report.record("window", verdict.ok, verdict.outcome.value + (
            f": {verdict.detail}" if verdict.detail else "")):
            return ConsumeResult(report)

        # (8) audience
        verdict = check_audience(assertion.conditions, self.entity_id)
        if not report.record("audience", verdict.ok, verdict.detail):
            return ConsumeResult(report)

        # (9) bearer confirmation
        try:
            verdict = check_bearer(assertion.subject.confirmation, self.acs_url, now, skew)
        except SamlError as exc:
            report.record("bearer", False, f"{type(exc).__name__}: {exc}")
            return ConsumeResult(report)
        if not report.record("bearer", verdict.ok, verdict.outcome.value + (
            f": {verdict.detail}" if verdict.detail else "")):
            return ConsumeResult(report)

        # (10) replay check, then record
        expiry = assertion.subject.confirmation.not_on_or_after.plus(skew)
        if not self.replay.check_and_record(assertion.id, expiry, now):
            report.record("replay", False, f"assertion {assertion.id!r} was already consumed")
            return ConsumeResult(report)
        report.record("replay", True)

        # (11) locality
        if self.locality_check:
            verdict = check_locality(assertion.authn_statement, observed_ip)
            if not report.record("locality", verdict.ok, verdict.detail):
                return ConsumeResult(report)
        else:
            report.record("locality", True, "check disabled by policy")

        # (12) relay state
        redirect_url = self.resolve_relay_state(relay_state, report=report)

        session = SsoSession(
            name_id=assertion.subject.name_id,
            attributes=assertion.attributes,
            issuer=EntityId(response.issuer),
            session_index=assertion.authn_statement.session_index,
            established_at=now,
            client_ip=observed_ip,
        )
        with self._lock:
            self.sessions.setdefault(session.session_index, []).append(session)
        return ConsumeResult(report, session, redirect_url)

    def _check_signatures(
        self,
        root: XmlElement,
        response,
        partner: Partner,
        report: ValidationReport,
    ) -> Assertion | None:
        """Step 4: response signature, decryption, assertion signature."""
        if response.signature is not None:
            payload = xmlcodec.signed_payload_bytes(root)
            if response.signature.reference_id != response.id:
                report.record("signature", False, "response signature references a different ID")
                return None
            result = self._verify(payload, response.signature, partner)
            if not result.accepted:
                report.record("signature", False, f"response signature: {result.reason}")
                return None
        else:
            # Without a response-level signature nothing authenticates foreign
            # direct children; a mangled-namespace Signature element would
            # otherwise slide through as preserved-opaque content.
            foreign = [
                c
                for c in root.children
                if c.ns not in (xmlcodec.NS_ASSERTION, xmlcodec.NS_PROTOCOL)
            ]
            if foreign:
                report.record(
                    "signature",
                    False,
                    f"unsigned response carries unauthenticated <{foreign[0].local}> content",
                )
                return None

        assertion = response.assertion
        assertion_elem: XmlElement | None = None
        if isinstance(assertion, EncryptedAssertion):
            try:
                plain = cryptoseal.decrypt_assertion(assertion, self.store)
                assertion_elem = xmlcodec.parse_xml(plain)
                assertion = xmlcodec.assertion_from_element(assertion_elem)
            except SamlError as exc:
                report.record("signature", False, f"{type(exc).__name__}: {exc}")
                return None
        elif isinstance(assertion, Assertion):
            if self._require_encryption():
                report.record("signature", False, "policy requires an encrypted assertion")
                return None
            assertion_elem = root.find("Assertion", xmlcodec.NS_ASSERTION)
        if assertion is None or assertion_elem is None:
            report.record("signature", False, "response carries no assertion")
            return None

        want_signed = self.local_role.want_assertions_signed
        if assertion.signature is None:
            if want_signed:
                report.record("signature", False, "assertion signature missing but required")
                return None
        else:
            if assertion.signature.reference_id != assertion.id:
                report.record("signature", False, "assertion signature references a different ID")
                return None
            payload = xmlcodec.signed_payload_bytes(assertion_elem)
            result = self._verify(payload, assertion.signature, partner)
            if not result.accepted:
                report.record("signature", False, f"assertion signature: {result.reason}")
                return None
        report.record("signature", True)
        return assertion

    def _require_encryption(self) -> bool:
        return bool(self.local_role.encryption_keys)

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
        if self.local_role.authn_requests_signed:
            if self.registry.signing_alias is None:
                raise UnsupportedBinding("local metadata promises signed requests but no signing alias is set")
            payload = xmlcodec.emit_authn_request(request)
            signature = cryptoseal.sign_element(
                payload, request.id, self.registry.signing_alias, self.store
            )
            # Drop the embedded certificate so the request fits the redirect
            # URL budget; the receiver verifies against pinned metadata certs.
            request = dataclasses.replace(
                request, signature=dataclasses.replace(signature, certificate=b"")
            )
        token = self.token_source(9).hex()
        expiry = now.plus(partner.policy.validity + BEARER_GRACE_SECONDS)
        with self._lock:
            # Tokens expire with the request they accompany.
            for stale in [t for t, (_, exp) in self._relay_states.items() if now >= exp]:
                del self._relay_states[stale]
            self._relay_states[token] = (target_resource, expiry)
        redirect = bindings.encode_redirect(
            xmlcodec.emit_authn_request(request), endpoint.location, relay_state=token
        )
        return redirect, token

    def resolve_relay_state(
        self, token: str | None, report: ValidationReport | None = None
    ) -> str:
        """Known token -> stored URL (single use); anything else -> the
        configured landing URL. Never an open redirect."""
        if report is None:
            report = ValidationReport()
        if token is None:
            report.record("relay_state", True, "no relay state; using landing URL")
            return self.landing_url
        with self._lock:
            entry = self._relay_states.pop(token, None)
        if entry is None:
            report.record(
                "relay_state", True, f"unissued relay state {token!r} ignored; using landing URL"
            )
            return self.landing_url
        url, _expiry = entry
        report.record("relay_state", True)
        return url

    # -- artifact retrieval --------------------------------------------------

    def fetch_via_artifact(
        self, artifacts: str | Sequence[str], observed_ip: str, now: Instant
    ) -> ConsumeResult:
        """Resolve artifact(s) over the back channel, then run the pipeline
        from the parse step. Pair-mode partners send two artifacts."""
        report = ValidationReport()
        values = (artifacts,) if isinstance(artifacts, str) else tuple(artifacts)
        try:
            parsed = [bindings.parse_artifact(v) for v in values]
        except SamlError as exc:
            report.record("fetch", False, f"{type(exc).__name__}: {exc}")
            return ConsumeResult(report)

        partner = None
        for candidate in self.registry.idp_partners():
            if bindings.source_id_for(candidate.entity_id) == parsed[0].source_id:
                partner = candidate
                break
        if partner is None:
            report.record("fetch", False, "artifact source matches no registered identity provider")
            return ConsumeResult(report)

        role: IdpSsoDescriptor = partner.descriptor.role
        endpoint = next(
            (
                e
                for e in role.artifact_resolution_endpoints
                if e.index == parsed[0].endpoint_index
            ),
            None,
        )
        if endpoint is None:
            report.record(
                "fetch",
                False,
                f"partner {partner.entity_id} advertises no artifact resolution "
                f"endpoint with index {parsed[0].endpoint_index}",
            )
            return ConsumeResult(report)

        resolve = xmlcodec.emit_artifact_resolve(
            new_message_id(self.token_source), now, self.entity_id, values
        )
        try:
            response_bytes = self.back_channel(endpoint.location, resolve)
        except SamlError as exc:
            report.record("fetch", False, f"{type(exc).__name__}: {exc}")
            return ConsumeResult(report)
        report.record("fetch", True)
        return self._consume_response_bytes(response_bytes, observed_ip, now, None, report)

    # -- logout --------------------------------------------------------------

    def handle_logout_request(self, request_bytes: bytes, now: Instant) -> bytes:
        """Terminate matching sessions; always Success, replay is a no-op."""
        request = xmlcodec.parse_logout_request(request_bytes)
        partner = self.registry.partners.get(request.issuer.value)
        if partner is None:
            raise UnknownIssuer(request.issuer.value)
        if self._require_signed_logout():
            if request.signature is None:
                raise InvalidRequestSignature("logout request is unsigned but policy requires signing")
            elem = xmlcodec.parse_xml(request_bytes)
            if request.signature.reference_id != request.id:
                raise InvalidRequestSignature("signature references a different ID")
            result = self._verify(xmlcodec.signed_payload_bytes(elem), request.signature, partner)
            if not result.accepted:
                raise InvalidRequestSignature(result.reason or "rejected")

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
        payload = xmlcodec.emit_logout_response(response)
        if self.registry.signing_alias is not None:
            signature = cryptoseal.sign_element(
                payload, response.id, self.registry.signing_alias, self.store
            )
            response = LogoutResponse(
                id=response.id,
                issue_instant=response.issue_instant,
                issuer=response.issuer,
                status=response.status,
                in_response_to=response.in_response_to,
                signature=signature,
            )
            payload = xmlcodec.emit_logout_response(response)
        return payload

    def _require_signed_logout(self) -> bool:
        # An SP that insists on signed assertions also insists on signed logout.
        return self.local_role.want_assertions_signed

    def live_sessions(self, session_index: str | None = None) -> tuple[SsoSession, ...]:
        with self._lock:
            if session_index is not None:
                return tuple(self.sessions.get(session_index, ()))
            return tuple(s for group in self.sessions.values() for s in group)


def _trim(url: str) -> str:
    return url[:-1] if url.endswith("/") else url
