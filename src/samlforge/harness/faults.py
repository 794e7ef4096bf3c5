"""The fault alphabet of scenario runs, one row per fault.

A row names the pipeline step the fault must trip and the flows through
which that can be observed. Message faults also carry a rewrite of the
issued response and its (unsealed) assertion. Faults that target
post-signature steps sign the Response again (the attack model is a
confused or hostile asserting party, not a broken signature); the two
signature faults deliberately leave a stale or absent Response signature
behind. Faults without a rewrite are timing, addressing or repetition
faults, which the scenario runner interprets.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from .. import cryptoseal, xmlcodec
from ..core import Assertion, EncryptedAssertion, EntityId, Response

Rewrite = Callable[[Response, Assertion], tuple[Response, Assertion]]

POST_FLOWS = ("idp_initiated", "sp_initiated")
ARTIFACT_FLOWS = ("artifact", "artifact_pair")
SIGNON_FLOWS = POST_FLOWS + ARTIFACT_FLOWS

WRONG_URL = "https://evil.example/acs"
WRONG_AUDIENCE = EntityId("evil.example:saml2.0")
WRONG_IP = "10.0.0.7"


@dataclass(frozen=True)
class Fault:
    """One fault of the alphabet; adding a fault is adding a row."""

    step: str  # the pipeline step the fault must trip
    flows: tuple[str, ...]  # the flows through which it can be observed
    combinable: bool = True  # may share a scenario with other faults
    rewrite: Rewrite | None = None  # message faults only
    resign: bool = False  # sign the Response again if it was signed


def _tamper_signed_content(response: Response, assertion: Assertion) -> tuple[Response, Assertion]:
    """Corrupt signed content while keeping the original Response signature."""
    attrs = assertion.attributes
    if attrs:
        first = attrs[0]
        mutated = dataclasses.replace(first, values=(first.values[0] + "0",) + first.values[1:])
        return response, dataclasses.replace(assertion, attributes=(mutated,) + attrs[1:])
    subject = dataclasses.replace(assertion.subject, name_id=assertion.subject.name_id + "0")
    return response, dataclasses.replace(assertion, subject=subject)


def _wrong_audience(response: Response, assertion: Assertion) -> tuple[Response, Assertion]:
    conditions = dataclasses.replace(assertion.conditions, audiences=(WRONG_AUDIENCE,))
    return response, dataclasses.replace(assertion, conditions=conditions)


def _wrong_recipient(response: Response, assertion: Assertion) -> tuple[Response, Assertion]:
    subject = assertion.subject
    confirmation = dataclasses.replace(subject.confirmation, recipient=WRONG_URL)
    return response, dataclasses.replace(
        assertion, subject=dataclasses.replace(subject, confirmation=confirmation)
    )


FAULTS: dict[str, Fault] = {
    "tamper_signature": Fault("signature", SIGNON_FLOWS, rewrite=_tamper_signed_content),
    "strip_signature": Fault(
        "signature", SIGNON_FLOWS, rewrite=lambda r, a: (dataclasses.replace(r, signature=None), a)
    ),
    # artifact retention equals assertion validity, so through an artifact
    # flow the artifact always expires first and the window step is unreachable
    "expire_window": Fault("window", POST_FLOWS),
    "not_yet_valid": Fault("window", SIGNON_FLOWS),
    "wrong_audience": Fault("audience", SIGNON_FLOWS, rewrite=_wrong_audience, resign=True),
    "wrong_recipient": Fault("bearer", SIGNON_FLOWS, rewrite=_wrong_recipient, resign=True),
    "wrong_destination": Fault(
        "destination",
        SIGNON_FLOWS,
        rewrite=lambda r, a: (dataclasses.replace(r, destination=WRONG_URL), a),
        resign=True,
    ),
    "replay_assertion": Fault("replay", POST_FLOWS, combinable=False),
    "wrong_locality": Fault("locality", SIGNON_FLOWS),
    "replay_artifact": Fault("fetch", ARTIFACT_FLOWS, combinable=False),
    "single_token_of_pair": Fault("fetch", ("artifact_pair",), combinable=False),
    "cross_pair_tokens": Fault("fetch", ("artifact_pair",), combinable=False),
}

FAULT_STEP = {name: row.step for name, row in FAULTS.items()}


@dataclass(frozen=True)
class FaultKit:
    """Key material a fault needs to rebuild believable messages."""

    idp_store: cryptoseal.KeyStore
    idp_signing_alias: str
    sp_store: cryptoseal.KeyStore  # holds the decryption key
    sp_encryption_alias: str | None
    encrypt_to: tuple[bytes, ...] = ()  # partner encryption certs, DER
    recipient: EntityId | None = None


def apply_message_fault(fault: str, response_bytes: bytes, kit: FaultKit) -> bytes:
    """Return the response bytes with ``fault`` injected."""
    row = FAULTS[fault]
    if row.rewrite is None:
        raise ValueError(f"{fault!r} is not a message fault")
    response = xmlcodec.parse_response(response_bytes)
    sealed = response.assertion
    assertion = sealed
    if isinstance(sealed, EncryptedAssertion):
        plain = cryptoseal.decrypt_assertion(sealed, kit.sp_encryption_alias, kit.sp_store)
        assertion = xmlcodec.parse_assertion(plain)
    if not isinstance(assertion, Assertion):
        raise ValueError("response carries no assertion to mutate")

    response, assertion = row.rewrite(response, assertion)
    carried: Assertion | EncryptedAssertion = assertion
    if isinstance(sealed, EncryptedAssertion):
        if kit.recipient is None or not kit.encrypt_to:
            raise ValueError("fault kit lacks the recipient certificates for re-encryption")
        pinned = kit.idp_store.with_trust_anchors(kit.recipient, encryption=kit.encrypt_to)
        carried = cryptoseal.encrypt_assertion(
            xmlcodec.emit_assertion(assertion), kit.recipient, pinned
        )
    response = dataclasses.replace(response, assertion=carried)
    if row.resign and response.signature is not None:
        response = cryptoseal.sign_message(
            response, xmlcodec.emit_response, kit.idp_signing_alias, kit.idp_store
        )
    return xmlcodec.emit_response(response)
