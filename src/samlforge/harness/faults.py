"""Fault injection for scenario runs.

Message faults rebuild an issued response with one field corrupted. Faults
that target post-signature pipeline steps re-sign the mutated assertion
(the attack model is a confused or hostile asserting party, not a broken
signature); the two signature faults deliberately leave a stale or absent
signature behind. Timing and transport faults carry no message mutation
and are interpreted by the scenario runner instead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .. import cryptoseal, xmlcodec
from ..core import Assertion, EncryptedAssertion, EntityId, Response

# Message-mutating faults and the pipeline step each one must trip.
MESSAGE_FAULT_STEP = {
    "tamper_signature": "signature",
    "strip_signature": "signature",
    "wrong_audience": "audience",
    "wrong_recipient": "bearer",
    "wrong_destination": "destination",
}

# Faults the runner realizes through timing, addressing, or repetition.
BEHAVIOUR_FAULT_STEP = {
    "expire_window": "window",
    "not_yet_valid": "window",
    "replay_assertion": "replay",
    "wrong_locality": "locality",
    "replay_artifact": "fetch",
    "single_token_of_pair": "fetch",
    "cross_pair_tokens": "fetch",
}

FAULT_STEP = {**MESSAGE_FAULT_STEP, **BEHAVIOUR_FAULT_STEP}

WRONG_URL = "https://evil.example/acs"
WRONG_AUDIENCE = EntityId("evil.example:saml2.0")
WRONG_IP = "10.0.0.7"


@dataclass(frozen=True)
class FaultKit:
    """Key material a fault needs to rebuild believable messages."""

    idp_store: cryptoseal.KeyStore
    idp_signing_alias: str
    sp_store: cryptoseal.KeyStore  # holds the decryption key
    sp_encryption_alias: str | None
    encrypt_to: tuple[bytes, ...] = ()  # partner encryption certs, DER
    recipient: EntityId | None = None


def _open_assertion(response: Response, kit: FaultKit) -> tuple[Assertion, bool]:
    assertion = response.assertion
    if isinstance(assertion, EncryptedAssertion):
        plain = cryptoseal.decrypt_assertion(assertion, kit.sp_encryption_alias, kit.sp_store)
        return xmlcodec.parse_assertion(plain), True
    if isinstance(assertion, Assertion):
        return assertion, False
    raise ValueError("response carries no assertion to mutate")


def _reissue(
    response: Response,
    assertion: Assertion,
    was_encrypted: bool,
    kit: FaultKit,
    resign_assertion: bool,
    resign_response: bool,
) -> Response:
    if resign_assertion:
        assertion = cryptoseal.sign_message(
            assertion, xmlcodec.emit_assertion, kit.idp_signing_alias, kit.idp_store
        )

    sealed: Assertion | EncryptedAssertion = assertion
    if was_encrypted:
        if kit.recipient is None or not kit.encrypt_to:
            raise ValueError("fault kit lacks the recipient certificates for re-encryption")
        pinned = kit.idp_store.with_trust_anchors(kit.recipient, encryption=kit.encrypt_to)
        sealed = cryptoseal.encrypt_assertion(
            xmlcodec.emit_assertion(assertion), kit.recipient, pinned
        )

    rebuilt = dataclasses.replace(response, assertion=sealed, signature=None)
    if resign_response:
        rebuilt = cryptoseal.sign_message(
            rebuilt, xmlcodec.emit_response, kit.idp_signing_alias, kit.idp_store
        )
    return rebuilt


def apply_message_fault(fault: str, response_bytes: bytes, kit: FaultKit) -> bytes:
    """Return the response bytes with ``fault`` injected."""
    response = xmlcodec.parse_response(response_bytes)
    had_response_sig = response.signature is not None
    assertion, was_encrypted = _open_assertion(response, kit)

    if fault == "strip_signature":
        bare = dataclasses.replace(assertion, signature=None)
        rebuilt = _reissue(
            response, bare, was_encrypted, kit, resign_assertion=False, resign_response=False
        )
        return xmlcodec.emit_response(rebuilt)

    if fault == "tamper_signature":
        # Corrupt signed content while keeping the original signature.
        attrs = assertion.attributes
        if attrs:
            first = attrs[0]
            mutated_attr = dataclasses.replace(
                first, values=(first.values[0] + "0",) + first.values[1:]
            )
            mutated = dataclasses.replace(assertion, attributes=(mutated_attr,) + attrs[1:])
        else:
            mutated = dataclasses.replace(
                assertion,
                subject=dataclasses.replace(
                    assertion.subject, name_id=assertion.subject.name_id + "0"
                ),
            )
        rebuilt = _reissue(
            response, mutated, was_encrypted, kit, resign_assertion=False, resign_response=False
        )
        return xmlcodec.emit_response(rebuilt)

    if fault == "wrong_audience":
        mutated = dataclasses.replace(
            assertion,
            conditions=dataclasses.replace(assertion.conditions, audiences=(WRONG_AUDIENCE,)),
        )
    elif fault == "wrong_recipient":
        mutated = dataclasses.replace(
            assertion,
            subject=dataclasses.replace(
                assertion.subject,
                confirmation=dataclasses.replace(
                    assertion.subject.confirmation, recipient=WRONG_URL
                ),
            ),
        )
    elif fault == "wrong_destination":
        rebuilt = _reissue(
            dataclasses.replace(response, destination=WRONG_URL),
            assertion,
            was_encrypted,
            kit,
            resign_assertion=assertion.signature is not None,
            resign_response=had_response_sig,
        )
        return xmlcodec.emit_response(rebuilt)
    else:
        raise ValueError(f"unknown message fault {fault!r}")

    rebuilt = _reissue(
        response,
        mutated,
        was_encrypted,
        kit,
        resign_assertion=assertion.signature is not None,
        resign_response=had_response_sig,
    )
    return xmlcodec.emit_response(rebuilt)
