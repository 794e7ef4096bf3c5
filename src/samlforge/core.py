"""Domain model for web-SSO federation messages plus the pure validity checks.

Every message here is an immutable value; the check functions are pure and
thread-safe. ``ExpiringMap`` is the one store behind all server-side state.
Serialization lives in ``xmlcodec``, key handling in ``cryptoseal``.
"""

from __future__ import annotations

import calendar
import heapq
import re
import secrets
import threading
import time
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Callable

BEARER_METHOD = "urn:oasis:names:tc:SAML:2.0:cm:bearer"
STATUS_SUCCESS = "urn:oasis:names:tc:SAML:2.0:status:Success"
STATUS_RESPONDER = "urn:oasis:names:tc:SAML:2.0:status:Responder"
ATTRNAME_FORMAT_BASIC = "urn:oasis:names:tc:SAML:2.0:attrname-format:basic"
NAMEID_FORMAT_TRANSIENT = "urn:oasis:names:tc:SAML:2.0:nameid-format:transient"
CONSENT_UNSPECIFIED = "urn:oasis:names:tc:SAML:2.0:consent:unspecified"

_INSTANT_FORMAT = "%Y-%m-%dT%H:%M:%SZ"

# The pattern ``datetime.strptime`` builds for _INSTANT_FORMAT, matched the
# same way (case-insensitive, Unicode digits, 1-2 digit fields, space-padded
# day), so Instant.parse accepts exactly what strptime accepts.
_INSTANT_PATTERN = re.compile(
    r"(?P<Y>\d\d\d\d)-(?P<m>1[0-2]|0[1-9]|[1-9])-(?P<d>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"
    r"T(?P<H>2[0-3]|[0-1]\d|\d):(?P<M>[0-5]\d|\d):(?P<S>6[0-1]|[0-5]\d|\d)Z",
    re.IGNORECASE,
)


class SamlError(Exception):
    """Base class for every structured error raised by this package."""


class UnsupportedConfirmationMethod(SamlError):
    """Subject confirmation uses a method other than bearer."""


@dataclass(frozen=True, order=True)
class Instant:
    """UTC timestamp with second precision; serializes as ISO-8601 ending in Z."""

    epoch: int

    @classmethod
    def parse(cls, text: str) -> Instant:
        found = _INSTANT_PATTERN.match(text)
        if found is None or found.end() != len(text):
            raise ValueError(f"time data {text!r} does not match format {_INSTANT_FORMAT!r}")
        fields = tuple(map(int, found.groups()))
        datetime(*fields)  # the range checks strptime makes (day of month, second < 60)
        return cls(calendar.timegm(fields))

    @classmethod
    def now(cls) -> Instant:
        return cls(int(time.time()))

    def isoformat(self) -> str:
        return time.strftime(_INSTANT_FORMAT, time.gmtime(self.epoch))

    def plus(self, seconds: int) -> Instant:
        return Instant(self.epoch + seconds)

    def minus(self, seconds: int) -> Instant:
        return Instant(self.epoch - seconds)

    def __str__(self) -> str:
        return self.isoformat()


_ASCII_WS = " \t\n\r"


@dataclass(frozen=True)
class EntityId:
    """Federation party identifier, URI or URN shaped (e.g. "mycompany:saml2.0")."""

    value: str

    def __post_init__(self) -> None:
        if not self.value or self.value != self.value.strip(_ASCII_WS):
            raise ValueError(f"entity id must be non-empty with no surrounding whitespace: {self.value!r}")

    def __str__(self) -> str:
        return self.value


class Outcome(Enum):
    VALID = "Valid"
    NOT_YET_VALID = "NotYetValid"
    EXPIRED = "Expired"
    AUDIENCE_MISMATCH = "AudienceMismatch"
    RECIPIENT_MISMATCH = "RecipientMismatch"
    LOCALITY_MISMATCH = "LocalityMismatch"


@dataclass(frozen=True)
class ValidityVerdict:
    """Result of one validity check; ``detail`` is informational only."""

    outcome: Outcome
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome is Outcome.VALID


@dataclass(frozen=True)
class Conditions:
    # not_before <= not_on_or_after is deliberately NOT enforced: inbound
    # documents are represented verbatim and judged by evaluate_window.
    not_before: Instant
    not_on_or_after: Instant
    audiences: tuple[EntityId, ...] = ()


@dataclass(frozen=True)
class SubjectConfirmation:
    method: str
    not_on_or_after: Instant
    recipient: str


@dataclass(frozen=True)
class Subject:
    name_id: str
    confirmation: SubjectConfirmation
    name_id_format: str | None = None

    def __post_init__(self) -> None:
        if not self.name_id:
            raise ValueError("subject name_id must be non-empty")


@dataclass(frozen=True)
class AuthnStatement:
    authn_instant: Instant
    session_index: str
    locality_address: str | None = None
    locality_dns: str | None = None

    def __post_init__(self) -> None:
        if not self.session_index:
            raise ValueError("session_index must be non-empty")


@dataclass(frozen=True)
class Attribute:
    name: str
    values: tuple[str, ...]
    friendly_name: str | None = None
    name_format: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if not self.values:
            raise ValueError(f"attribute {self.name!r} must carry at least one value")


@dataclass(frozen=True)
class Signature:
    """Detached description of an enveloped signature over canonical bytes.

    ``reference_id`` must equal the ID attribute of the signed element;
    ``certificate`` is the signer's X509 certificate in DER form.
    """

    digest_algorithm: str
    signature_algorithm: str
    reference_id: str
    digest_value: bytes
    signature_value: bytes
    certificate: bytes


@dataclass(frozen=True)
class EncryptedAssertion:
    """AES-128-CBC sealed assertion with an RSA-wrapped content key."""

    algorithm: str
    encrypted_key: bytes
    iv: bytes
    ciphertext: bytes

    def __post_init__(self) -> None:
        if len(self.iv) != 16:
            raise ValueError("iv must be exactly 16 bytes")


@dataclass(frozen=True)
class Assertion:
    id: str
    issue_instant: Instant
    issuer: str
    subject: Subject
    conditions: Conditions
    authn_statement: AuthnStatement
    attributes: tuple[Attribute, ...] = ()
    signature: Signature | None = None


@dataclass(frozen=True)
class Response:
    id: str
    issue_instant: Instant
    issuer: str
    destination: str
    status: str
    assertion: Assertion | EncryptedAssertion | None = None
    signature: Signature | None = None
    consent: str | None = None


@dataclass(frozen=True)
class AuthnRequest:
    id: str
    issue_instant: Instant
    issuer: EntityId
    acs_url: str
    signature: Signature | None = None


@dataclass(frozen=True)
class LogoutRequest:
    id: str
    issue_instant: Instant
    issuer: EntityId
    name_id: str
    session_index: str
    signature: Signature | None = None


@dataclass(frozen=True)
class LogoutResponse:
    id: str
    issue_instant: Instant
    issuer: EntityId
    status: str
    in_response_to: str | None = None
    signature: Signature | None = None


TokenSource = Callable[[int], bytes]


def new_message_id(token_source: TokenSource = secrets.token_bytes) -> str:
    """Fresh message/assertion ID with 128 bits of entropy."""
    return "_" + token_source(16).hex()


def evaluate_window(
    not_before: Instant,
    not_on_or_after: Instant,
    now: Instant,
    skew: int = 0,
) -> ValidityVerdict:
    """Judge ``now`` against a validity window widened by ``skew`` seconds.

    The lower bound is inclusive, the upper bound exclusive: an instant
    exactly "on" NotOnOrAfter is already expired. Exactly one of
    Valid/NotYetValid/Expired is returned for any input.
    """
    if skew < 0:
        raise ValueError("skew must be >= 0")
    lower = not_before.minus(skew)
    upper = not_on_or_after.plus(skew)
    if now < lower:
        return ValidityVerdict(Outcome.NOT_YET_VALID, f"{now} is before {lower}")
    if now >= upper:
        return ValidityVerdict(Outcome.EXPIRED, f"{now} is on or after {upper}")
    return ValidityVerdict(Outcome.VALID)


def check_audience(conditions: Conditions, local: EntityId) -> ValidityVerdict:
    """Valid when no audience restriction is present or ``local`` is listed.

    Matching is exact string comparison; ordering and duplication of the
    audience list are irrelevant.
    """
    if not conditions.audiences:
        return ValidityVerdict(Outcome.VALID, "no audience restriction")
    if any(a.value == local.value for a in conditions.audiences):
        return ValidityVerdict(Outcome.VALID)
    listed = ", ".join(a.value for a in conditions.audiences)
    return ValidityVerdict(Outcome.AUDIENCE_MISMATCH, f"{local} not among [{listed}]")


def trim_slash(url: str) -> str:
    return url[:-1] if url.endswith("/") else url


def check_bearer(
    confirmation: SubjectConfirmation,
    acs_url: str,
    now: Instant,
    skew: int = 0,
) -> ValidityVerdict:
    """Bearer confirmation: recipient must equal the consuming ACS and the
    confirmation window must still be open (exclusive upper bound)."""
    if confirmation.method != BEARER_METHOD:
        raise UnsupportedConfirmationMethod(confirmation.method)
    if skew < 0:
        raise ValueError("skew must be >= 0")
    if trim_slash(confirmation.recipient) != trim_slash(acs_url):
        return ValidityVerdict(
            Outcome.RECIPIENT_MISMATCH,
            f"recipient {confirmation.recipient!r} != acs {acs_url!r}",
        )
    if now >= confirmation.not_on_or_after.plus(skew):
        return ValidityVerdict(
            Outcome.EXPIRED, f"{now} is on or after {confirmation.not_on_or_after.plus(skew)}"
        )
    return ValidityVerdict(Outcome.VALID)


def check_locality(statement: AuthnStatement, observed_ip: str) -> ValidityVerdict:
    """Valid when the assertion carries no locality or it equals the caller's IP."""
    if statement.locality_address is None:
        return ValidityVerdict(Outcome.VALID, "no locality asserted")
    if statement.locality_address == observed_ip:
        return ValidityVerdict(Outcome.VALID)
    return ValidityVerdict(
        Outcome.LOCALITY_MISMATCH,
        f"asserted {statement.locality_address} but observed {observed_ip}",
    )


_ABSENT = (None, None)  # the (expiry, value) of a key an ExpiringMap does not hold


class ExpiringMap:
    """Keyed entries with expiry instants, under one lock. Every write first
    evicts each entry whose expiry is at or before its ``now`` (which may go
    backwards); reads neither evict nor check expiry. A min-heap gets one
    ``(expiry, key)`` per write, so eviction pops only what has expired; an
    item whose key was since taken or rewritten is skipped. Expiries are
    held as epoch seconds, not ``Instant`` objects: an int per live entry,
    compared in C. Values are never compared."""

    def __init__(self) -> None:
        self._entries: dict = {}  # key -> (expiry epoch, value)
        self._expiries: list = []  # heap of (expiry epoch, key)
        self._lock = threading.Lock()

    def put_if_absent(self, key, value, expiry: Instant, now: Instant) -> bool:
        """True if ``key`` was not held (and now holds ``value``)."""
        with self._lock:
            self._evict(now)
            if key in self._entries:
                return False
            self._store(key, value, expiry)
            return True

    def put(self, key, value, expiry: Instant, now: Instant) -> None:
        with self._lock:
            self._evict(now)
            self._store(key, value, expiry)

    def take(self, key):
        """Remove and return the value held under ``key``, or None."""
        with self._lock:
            return self._entries.pop(key, _ABSENT)[1]

    def get(self, key):
        with self._lock:
            return self._entries.get(key, _ABSENT)[1]

    def evict_expired(self, now: Instant) -> None:
        with self._lock:
            self._evict(now)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # The caller holds the lock.

    def _store(self, key, value, expiry: Instant) -> None:
        self._entries[key] = (expiry.epoch, value)
        heapq.heappush(self._expiries, (expiry.epoch, key))

    def _evict(self, now: Instant) -> None:
        expiries, entries, now = self._expiries, self._entries, now.epoch
        while expiries and expiries[0][0] <= now:
            _, key = heapq.heappop(expiries)
            entry = entries.get(key)
            if entry is not None and entry[0] <= now:
                del entries[key]


class ReplayCache(ExpiringMap):
    """Consumed-ID store: an unexpired ID blocks re-acceptance."""

    def check_and_record(self, message_id: str, expiry: Instant, now: Instant) -> bool:
        """True if the ID was fresh (and is now recorded)."""
        return self.put_if_absent(message_id, True, expiry, now)
