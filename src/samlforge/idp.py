"""Asserting-party engine: attribute sourcing, assertion issuance, request
handling, artifact resolution (single and paired), single logout.

Attribute records file format (documented wire contract): one user per
line, whitespace-separated tokens::

    <user-key> <name-id> <name>=<value> [<name>=<value> ...]

Repeated names accumulate into one multi-valued attribute; ``#`` starts a
comment line. Values cannot contain whitespace. A user key may appear on
one line only.
"""

from __future__ import annotations

import logging
import secrets
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from . import bindings, cryptoseal, xmlcodec
from .core import (
    ATTRNAME_FORMAT_BASIC,
    BEARER_METHOD,
    STATUS_SUCCESS,
    Assertion,
    Attribute,
    AuthnStatement,
    Conditions,
    EntityId,
    ExpiringMap,
    Instant,
    LogoutRequest,
    ReplayCache,
    Response,
    SamlError,
    Subject,
    SubjectConfirmation,
    TokenSource,
    new_message_id,
)
from .cryptoseal import InvalidRequestSignature, SignatureRequired  # noqa: F401 - re-exported
from .federation import (
    BEARER_GRACE_SECONDS,
    FederationRegistry,
    Partner,
    register_partner,
)
from .xmlcodec import IdpSsoDescriptor, SpSsoDescriptor

logger = logging.getLogger(__name__)


class UnknownPartner(SamlError):
    pass


class UnknownUser(SamlError):
    pass


class PolicyViolation(SamlError):
    pass


class ReplayedRequestId(SamlError):
    pass


class UnknownArtifact(SamlError):
    pass


class AlreadyConsumed(SamlError):
    pass


class ArtifactExpired(SamlError):
    pass


class WrongSourceId(SamlError):
    pass


class IncompletePair(SamlError):
    pass


class MismatchedPair(SamlError):
    pass


class UnknownSession(SamlError):
    pass


# ---------------------------------------------------------------------------
# Attribute source
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class UserRecord:
    name_id: str
    attributes: tuple[Attribute, ...]


@dataclass(frozen=True)
class AttributeSource:
    """Deterministic user-key lookup; a missing user is an explicit error,
    never an empty attribute set."""

    records: Mapping[str, UserRecord]

    def lookup(self, user_key: str) -> UserRecord:
        try:
            return self.records[user_key]
        except KeyError:
            raise UnknownUser(user_key) from None


def parse_attribute_records(text: str) -> AttributeSource:
    """One record per user key. Every distinct name, value and name-id is
    kept as one string object, so what many users share is stored once."""
    lines = text.splitlines()
    records: dict[str, UserRecord] = {}
    shared = {}.setdefault
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: expected '<user-key> <name-id> [name=value ...]'")
        user_key, name_id = tokens[0], tokens[1]
        if user_key in records:
            first = next(n for n, other in enumerate(lines, 1) if other.split()[:1] == [user_key])
            raise ValueError(f"line {lineno}: user key {user_key!r} already given on line {first}")
        values: dict[str, list[str]] = {}
        for token in tokens[2:]:
            name, sep, value = token.partition("=")
            if not sep or not name:
                raise ValueError(f"line {lineno}: bad attribute token {token!r}")
            values.setdefault(shared(name, name), []).append(shared(value, value))
        # Fields by position (name, values, friendly name, format) and a list,
        # not a generator: parsing is most of set-up, and both are faster.
        attributes = tuple(
            [
                Attribute(name, tuple(named), name, ATTRNAME_FORMAT_BASIC)
                for name, named in values.items()
            ]
        )
        records[user_key] = UserRecord(shared(name_id, name_id), attributes)
    return AttributeSource(records)


def load_attribute_source(path: str | Path) -> AttributeSource:
    return parse_attribute_records(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Sessions and artifact store
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class IdpSession:
    session_index: str
    user_key: str
    authenticated_at: Instant
    client_ip: str
    # rebound under the engine's lock, never mutated: every session starts
    # with the same empty set
    participating_sps: frozenset[str] = frozenset()


@dataclass
class ArtifactEntry:
    response_bytes: bytes
    partner: str
    consumed: bool = False
    pair_handle: bytes | None = None


class ArtifactStore(ExpiringMap):
    """Single-use artifact entries, each held until its ``expiry``;
    consumption is an atomic test-and-set."""

    def add(
        self,
        handles: tuple[bytes, ...],
        response_bytes: bytes,
        partner: str,
        expiry: Instant,
        now: Instant,
    ) -> None:
        """Hold one artifact, or a pair whose entries name each other."""
        links = handles[::-1] if len(handles) == 2 else (None,)
        with self._lock:
            self._evict(now)
            for handle, pair_handle in zip(handles, links):
                entry = ArtifactEntry(response_bytes, partner, pair_handle=pair_handle)
                self._store(handle, entry, expiry)

    def consume(self, handles: tuple[bytes, ...], requester: str, now: Instant) -> bytes:
        """Atomically consume one entry (or one linked pair) issued to
        ``requester``; to anyone else an entry is unknown, and stays
        resolvable for its partner."""
        with self._lock:
            held = [self._entries.get(handle) for handle in handles]
            for handle, entry in zip(handles, held):
                if entry is None or entry[1].partner != requester:
                    raise UnknownArtifact(handle.hex())
            entries = [entry for _, entry in held]
            links = [entry.pair_handle for entry in entries]
            if len(handles) == 1 and links[0] is not None:
                raise IncompletePair("this artifact is half of a pair; both values are required")
            if len(handles) == 2 and (links != [handles[1], handles[0]] or handles[0] == handles[1]):
                raise MismatchedPair("artifacts do not belong to the same pair")
            for handle, (expiry, _) in zip(handles, held):
                if now.epoch >= expiry:
                    raise ArtifactExpired(handle.hex())
            if any(entry.consumed for entry in entries):
                raise AlreadyConsumed(handles[0].hex())
            for entry in entries:
                entry.consumed = True
            return entries[0].response_bytes


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class IdpEngine:
    """One identity provider: registry, keys, attribute source, sessions,
    artifact store, request replay cache."""

    def __init__(
        self,
        registry: FederationRegistry,
        store: cryptoseal.KeyStore,
        source: AttributeSource,
        token_source: TokenSource = secrets.token_bytes,
    ) -> None:
        if not isinstance(registry.local.role, IdpSsoDescriptor):
            raise ValueError("IdpEngine needs a registry whose local entity is an IdP")
        if registry.signing_alias is None:
            raise ValueError("IdpEngine needs a registry with a signing alias")
        self._lock = threading.Lock()
        self.registry = registry
        self.store = store
        self.source = source
        self.token_source = token_source
        self.sessions: dict[str, IdpSession] = {}
        # user key -> that user's oldest live session
        self._first_sessions: dict[str, IdpSession] = {}
        self.artifacts = ArtifactStore()
        self.request_replay = ReplayCache()
        # logout request id -> (session index, partner entity id)
        self._pending_logouts: dict[str, tuple[str, str]] = {}

    @property
    def entity_id(self) -> EntityId:
        return self.registry.local.entity_id

    def register_partner(self, metadata_bytes: bytes) -> None:
        with self._lock:
            self.registry = register_partner(self.registry, metadata_bytes)

    # -- sessions -----------------------------------------------------------

    def create_session(self, user_key: str, client_ip: str, now: Instant) -> IdpSession:
        """Harness-facing substitute for real user authentication."""
        self.source.lookup(user_key)  # fail fast on unknown users
        session = IdpSession(
            session_index=self.token_source(12).hex(),
            user_key=user_key,
            authenticated_at=now,
            client_ip=client_ip,
        )
        with self._lock:
            self.sessions[session.session_index] = session
            self._first_sessions.setdefault(user_key, session)
        return session

    def session_for_user(self, user_key: str) -> IdpSession | None:
        """The user's oldest live session."""
        with self._lock:
            return self._first_sessions.get(user_key)

    # -- issuance -----------------------------------------------------------

    def issue_assertion(
        self,
        session: IdpSession,
        partner_id: EntityId | str,
        now: Instant,
    ) -> Response:
        """Build a Response carrying an unsigned assertion: sealed when the
        partner's metadata lists an encryption key, and the Response signed
        over what it carries (the sealed bytes, when sealed) when that
        metadata sets WantAssertionsSigned. Encrypt, then sign: one
        signature per sign-on, which the SP checks before it unseals."""
        key = partner_id.value if isinstance(partner_id, EntityId) else partner_id
        partner = self.registry.partners.get(key)
        if partner is None:
            raise UnknownPartner(key)
        role = partner.descriptor.role
        if not isinstance(role, SpSsoDescriptor):
            raise UnknownPartner(f"{key} is not a service provider")
        record = self.source.lookup(session.user_key)
        acs = role.default_acs().location

        validity = self.registry.validity
        conditions = Conditions(
            not_before=now,
            not_on_or_after=now.plus(validity),
            audiences=(partner.entity_id,),
        )
        confirmation = SubjectConfirmation(
            method=BEARER_METHOD,
            not_on_or_after=now.plus(validity + BEARER_GRACE_SECONDS),
            recipient=acs,
        )
        formats = role.name_id_formats
        assertion = Assertion(
            id=new_message_id(self.token_source),
            issue_instant=now,
            issuer=self.entity_id.value,
            subject=Subject(
                name_id=record.name_id,
                confirmation=confirmation,
                name_id_format=formats[0] if formats else None,
            ),
            conditions=conditions,
            authn_statement=AuthnStatement(
                authn_instant=session.authenticated_at,
                session_index=session.session_index,
                locality_address=session.client_ip,
            ),
            attributes=record.attributes,
        )

        if role.encryption_keys:
            assertion = self._seal_assertion(assertion, partner)
        response = Response(
            id=new_message_id(self.token_source),
            issue_instant=now,
            issuer=self.entity_id.value,
            destination=acs,
            status=STATUS_SUCCESS,
            assertion=assertion,
        )
        if role.want_assertions_signed:
            response = self._sign(response, xmlcodec.emit_response)
        sp_id = partner.entity_id.value
        with self._lock:
            if sp_id not in session.participating_sps:
                session.participating_sps |= {sp_id}
        return response

    def _sign(self, message, emit):
        return cryptoseal.sign_message(message, emit, self.registry.signing_alias, self.store)

    def _seal_assertion(self, assertion: Assertion, partner: Partner):
        ders = partner.encryption_cert_ders
        pinned = self.store.with_trust_anchors(partner.entity_id, encryption=ders)
        return cryptoseal.encrypt_assertion(
            xmlcodec.emit_assertion(assertion), partner.entity_id, pinned
        )

    def idp_initiated_post(
        self,
        session: IdpSession,
        partner_id: EntityId | str,
        now: Instant,
        relay_state: str | None = None,
    ) -> bindings.PostForm:
        """Issue and wrap a response for the POST binding (the kick-off flow)."""
        response = self.issue_assertion(session, partner_id, now)
        return bindings.encode_post(
            xmlcodec.emit_response(response), "response", response.destination, relay_state
        )

    # -- SP-initiated flow ----------------------------------------------------

    def handle_authn_request(
        self,
        request_input: bytes | str,
        session: IdpSession,
        now: Instant,
    ) -> bindings.PostForm:
        """Validate an inbound request and answer with a fresh response.

        Accepts a redirect URL (``str``) or a POST form body (``bytes``)
        whose message field is ``SAMLRequest``; the inbound RelayState is
        echoed back verbatim and never dereferenced.
        """
        if isinstance(request_input, str):
            decoded = bindings.decode_redirect(request_input)
        else:
            decoded = bindings.decode_post(request_input)
        if decoded.field != bindings.FIELD_REQUEST:
            raise bindings.MissingField(bindings.FIELD_REQUEST)
        request, _sp = self.registry.receive(
            decoded.message, xmlcodec.authn_request_from_element, xmlcodec.emit_authn_request,
            self.store, lambda sp: sp.descriptor.role.authn_requests_signed,
        )
        expiry = request.issue_instant.plus(self.registry.validity + BEARER_GRACE_SECONDS)
        if not self.request_replay.check_and_record(request.id, expiry, now):
            raise ReplayedRequestId(request.id)

        response = self.issue_assertion(session, request.issuer, now)
        return bindings.encode_post(
            xmlcodec.emit_response(response), "response", response.destination, decoded.relay_state
        )

    # -- artifact profile ------------------------------------------------------

    def issue_artifact(self, response: Response, partner_id: EntityId | str) -> bindings.Artifact:
        return self._issue_artifacts(response, partner_id, 1)[0]

    def issue_artifact_pair(
        self, response: Response, partner_id: EntityId | str
    ) -> tuple[bindings.Artifact, bindings.Artifact]:
        """Two cross-referencing artifacts; the token is only valid when it
        consists of both values."""
        return self._issue_artifacts(response, partner_id, 2)

    def _issue_artifacts(
        self, response: Response, partner_id: EntityId | str, count: int
    ) -> tuple[bindings.Artifact, ...]:
        """Artifacts that name the first ArtifactResolutionService of the
        local metadata, each held until the response's assertion expires."""
        key = partner_id.value if isinstance(partner_id, EntityId) else partner_id
        if key not in self.registry.partners:
            raise UnknownPartner(key)
        endpoints = self.registry.local.role.artifact_resolution_endpoints
        if not endpoints:
            raise PolicyViolation("local metadata lists no artifact resolution endpoint")
        artifacts = tuple(
            bindings.new_artifact(self.entity_id, endpoints[0].index, self.token_source)
            for _ in range(count)
        )
        handles = tuple(a.message_handle for a in artifacts)
        issued = response.issue_instant
        expiry = issued.plus(self.registry.validity)
        self.artifacts.add(handles, xmlcodec.emit_response(response), key, expiry, issued)
        return artifacts

    def resolve_artifact(self, request_bytes: bytes, now: Instant) -> bytes:
        """Resolve an ArtifactResolve (one artifact or a pair) to the stored
        response, exactly once, for the SP it was issued to. The request is
        unsigned, so its issuer is taken as given."""
        issuer, values = xmlcodec.parse_artifact_resolve(request_bytes)
        if len(values) > 2:
            raise MismatchedPair("at most two artifact values are accepted")
        artifacts = [bindings.parse_artifact(v) for v in values]
        local_source = bindings.source_id_for(self.entity_id)
        for artifact in artifacts:
            if artifact.source_id != local_source:
                raise WrongSourceId("artifact was not issued by this entity")
        handles = tuple(a.message_handle for a in artifacts)
        return self.artifacts.consume(handles, issuer.value, now)

    # -- single logout -----------------------------------------------------------

    def initiate_single_logout(
        self, session_index: str, now: Instant
    ) -> list[bindings.PostForm]:
        """One LogoutRequest per participating SP that lists a
        SingleLogoutService; the session is removed once every response has
        arrived (or immediately when no such SP holds it).
        A new round replaces the session's earlier one, whose requests then
        count toward nothing."""
        with self._lock:
            session = self.sessions.get(session_index)
            if session is None:
                raise UnknownSession(session_index)
            participants = sorted(session.participating_sps)

        record = self.source.lookup(session.user_key)
        forms: list[bindings.PostForm] = []
        issued: list[tuple[str, str]] = []
        for sp_id in participants:
            partner = self.registry.partners.get(sp_id)
            if partner is None or not partner.descriptor.role.single_logout_endpoints:
                continue
            destination = partner.descriptor.role.single_logout_endpoints[0].location
            request = LogoutRequest(
                id=new_message_id(self.token_source),
                issue_instant=now,
                issuer=self.entity_id,
                name_id=record.name_id,
                session_index=session_index,
            )
            request = self._sign(request, xmlcodec.emit_logout_request)
            forms.append(
                bindings.encode_post(xmlcodec.emit_logout_request(request), "request", destination)
            )
            issued.append((request.id, sp_id))

        with self._lock:
            self._drop_pending_logouts(session_index)
            for request_id, sp_id in issued:
                self._pending_logouts[request_id] = (session_index, sp_id)
            if not issued:
                self._drop_session(session_index)
        return forms

    def handle_logout_response(self, response_bytes: bytes, now: Instant) -> str | None:
        """Count an SP's logout response toward session termination.

        Returns the index of the session it counted toward, or ``None`` when
        it answers no logout request pending at that SP (which stays pending).
        An SP whose metadata pins a signing certificate must sign."""
        response, sp = self.registry.receive(
            response_bytes, xmlcodec.logout_response_from_element,
            xmlcodec.emit_logout_response, self.store, lambda sp: bool(sp.signing_cert_ders),
        )
        with self._lock:
            session_index, sp_id = self._pending_logouts.get(response.in_response_to, ("", ""))
            if sp_id != sp.entity_id.value:
                return None
            del self._pending_logouts[response.in_response_to]
            if not any(s == session_index for s, _ in self._pending_logouts.values()):
                self._end_session(session_index)
            return session_index

    def _end_session(self, session_index: str) -> None:
        """End the session and drop its pending logouts; the caller holds the lock."""
        self._drop_pending_logouts(session_index)
        self._drop_session(session_index)

    def _drop_pending_logouts(self, session_index: str) -> None:
        """Forget the session's pending logout requests; the caller holds the lock."""
        for request_id in [r for r, (s, _) in self._pending_logouts.items() if s == session_index]:
            del self._pending_logouts[request_id]

    def _drop_session(self, session_index: str) -> None:
        """Forget a session in both maps; the caller holds the lock."""
        session = self.sessions.pop(session_index, None)
        if session is not None and self._first_sessions.get(session.user_key) is session:
            del self._first_sessions[session.user_key]
            for other in self.sessions.values():  # the next oldest, if the user has one
                if other.user_key == session.user_key:
                    self._first_sessions[session.user_key] = other
                    break
