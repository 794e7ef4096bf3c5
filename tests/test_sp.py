import base64
import dataclasses
import re
import sys
import threading

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from samlforge import bindings, cryptoseal, idp, sp, xmlcodec
from samlforge.core import AuthnRequest, EntityId, Instant, SamlError, new_message_id
from samlforge.federation import BEARER_GRACE_SECONDS
from samlforge.harness.scenarios import (
    CLIENT_IP,
    IDP_BASE,
    IDP_ENTITY,
    LANDING_URL,
    SIM_EPOCH,
    SP_ENTITY,
    SimulatedFederation,
    _shared_keys,
)
from samlforge.sp import PIPELINE_STEPS, ReplayCache, NoIdpRegistered

NOW = SIM_EPOCH


@pytest.fixture
def fed(shared_keys):
    return SimulatedFederation(encrypt=True, keys=shared_keys)


def _post(message: bytes, fed) -> bytes:
    return bindings.serialize_post_body(bindings.encode_post(message, "response", fed.sp.acs_url))


def _stop_requiring_signatures(engine: sp.SpEngine) -> None:
    """Let ``engine`` accept unsigned Responses; its partners still see the
    metadata that asks for signatures, so its IdP still signs."""
    local = engine.registry.local
    role = dataclasses.replace(local.role, want_assertions_signed=False)
    engine.registry = dataclasses.replace(
        engine.registry, local=dataclasses.replace(local, role=role)
    )


def issue_body(fed, now=NOW, relay=None):
    session = fed.idp.session_for_user("the.user") or fed.idp.create_session(
        "the.user", CLIENT_IP, now
    )
    form = fed.idp.idp_initiated_post(session, SP_ENTITY, now, relay_state=relay)
    return bindings.serialize_post_body(form)


class TestConsumePipeline:
    def test_full_success_records_every_step(self, fed):
        result = fed.sp.consume(issue_body(fed), CLIENT_IP, NOW.plus(1))
        assert result.ok
        assert [c.name for c in result.report.checks] == list(PIPELINE_STEPS)
        assert all(c.ok for c in result.report.checks)
        assert result.session.name_id == "the.user@mycompany.com"
        assert [a.name for a in result.session.attributes] == ["clientId", "uid"]
        assert result.redirect_url == LANDING_URL

    def test_short_circuit_still_reports_executed_checks(self, fed):
        result = fed.sp.consume(b"SAMLResponse=!!!", CLIENT_IP, NOW)
        assert not result.ok
        assert result.report.failed_step == "decode"
        assert len(result.report.checks) == 1

    def test_no_partial_session_on_failure(self, fed):
        body = issue_body(fed)
        fed.sp.consume(body, "10.9.9.9", NOW.plus(1))  # locality mismatch
        assert fed.sp.live_sessions() == ()

    def test_unknown_issuer_fails_at_issuer_step(self, fed, shared_keys):
        stranger = SimulatedFederation(keys=shared_keys)
        import dataclasses

        # rebuild the sender under a different entity id
        from samlforge.harness.config import build_idp_descriptor
        from samlforge.federation import FederationRegistry, register_partner
        from samlforge import xmlcodec, cryptoseal
        from samlforge.idp import IdpEngine, parse_attribute_records

        desc = build_idp_descriptor(
            "stranger:saml2.0", IDP_BASE, shared_keys["idp-signing"].cert_b64
        )
        registry = FederationRegistry(local=desc, signing_alias="idp-signing")
        registry = register_partner(
            registry, xmlcodec.emit_metadata(fed.sp.registry.local)
        )
        rogue_idp = IdpEngine(
            registry,
            cryptoseal.make_keystore({"idp-signing": shared_keys["idp-signing"]}),
            parse_attribute_records("the.user the.user@mycompany.com uid=x"),
        )
        session = rogue_idp.create_session("the.user", CLIENT_IP, NOW)
        form = rogue_idp.idp_initiated_post(session, SP_ENTITY, NOW)
        result = fed.sp.consume(bindings.serialize_post_body(form), CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "issuer"

    def test_plain_assertion_rejected_when_encryption_expected(self, fed, shared_keys):
        plain_fed = SimulatedFederation(keys=shared_keys)  # sender that never encrypts
        body = issue_body(plain_fed)
        result = fed.sp.consume(body, CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "signature"
        assert "encrypted" in result.report.checks[-1].detail

    def test_assertion_sealed_to_the_signing_certificate_fails_at_signature(
        self, fed, shared_keys
    ):
        # Only the SP's encryption key may unseal; its signing key never does.
        session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        issued = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        sp_alias = fed.sp.registry.encryption_alias
        plain = cryptoseal.decrypt_assertion(issued.assertion, sp_alias, fed.sp.store)
        to_signing = cryptoseal.KeyStore().with_trust_anchors(
            EntityId(SP_ENTITY), encryption=(shared_keys["sp-signing"].cert_der,)
        )
        resealed = cryptoseal.sign_message(
            dataclasses.replace(
                issued,
                assertion=cryptoseal.encrypt_assertion(plain, EntityId(SP_ENTITY), to_signing),
            ),
            xmlcodec.emit_response,
            fed.idp.registry.signing_alias,
            fed.idp.store,
        )
        body = bindings.serialize_post_body(
            bindings.encode_post(xmlcodec.emit_response(resealed), "response", fed.sp.acs_url)
        )
        result = fed.sp.consume(body, CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "signature"
        assert result.report.checks[-1].detail == (
            "DecryptFailed: no held key unseals this assertion"
        )

    @pytest.mark.parametrize(
        "pattern,replacement",
        [
            (r'ID="_([0-9a-f])', r'ID="_e\1'),  # response/assertion ID
            (r"T12:28:36Z", r"T12:28:37Z"),  # window timestamp
            (r"mypartner:saml2\.0</saml:Audience>", r"evil:saml2.0</saml:Audience>"),
            (r'Recipient="https://sp', r'Recipient="https://ev'),
            (r'Destination="https://sp', r'Destination="https://ev'),
            (r">1234</saml:AttributeValue>", r">9999</saml:AttributeValue>"),
            ("signature-value", None),
        ],
    )
    def test_unauthorized_field_edits_fail_at_signature(self, shared_keys, pattern, replacement):
        # Without re-signing, every content edit must die at the signature
        # step: the digest no longer matches (or the value fails to verify).
        fed = SimulatedFederation(keys=shared_keys)  # sign-only keeps XML editable
        body = issue_body(fed)
        message = bindings.decode_post(body).message
        text = message.decode()
        if replacement is None:
            # swap the leading base64 character for a different one so the
            # value still decodes but verifies against the wrong bytes
            match = re.search(r"<ds:SignatureValue>(.)", text)
            original_char = match.group(1)
            swapped = "B" if original_char != "B" else "C"
            edited = (
                text[: match.start(1)] + swapped + text[match.end(1) :]
            ).encode()
        else:
            edited = re.sub(pattern, replacement, text, count=1).encode()
        assert edited != message, pattern
        tampered = bindings.serialize_post_body(
            bindings.encode_post(edited, "response", fed.sp.acs_url)
        )
        result = fed.sp.consume(tampered, CLIENT_IP, NOW.plus(1))
        assert not result.ok
        assert result.report.failed_step == "signature"

    @pytest.mark.parametrize("requires_signature", [True, False], ids=["required", "not-required"])
    def test_mangled_signature_namespace_cannot_strip_the_signature(self, fed, requires_signature):
        # One bit flipped inside the xmldsig namespace URI turns the response
        # signature into an element no Response holds; the consumer must not
        # read that as "legitimately unsigned", even when it does not require
        # a signature. The closed set of Response children refuses it.
        body = issue_body(fed)
        if not requires_signature:
            _stop_requiring_signatures(fed.sp)
        decoded = bindings.decode_post(body)
        mangled = decoded.message.replace(
            b"http://www.w3.org/2000/09/xmldsig#", b"http://www.w3.org/r000/09/xmldsig#", 1
        )
        assert mangled != decoded.message
        tampered = bindings.serialize_post_body(
            bindings.encode_post(mangled, "response", fed.sp.acs_url)
        )
        result = fed.sp.consume(tampered, CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "parse"
        assert result.report.checks[-1].detail == (
            "MalformedXml: unexpected element <Signature> inside <Response>"
        )

    @pytest.mark.parametrize(
        "anchor",
        [b"</samlp:Response>", b"<samlp:StatusCode "],
        ids=["last-child", "inside-status"],
    )
    def test_element_without_namespace_fails_at_parse(self, shared_keys, anchor):
        # Such an element has no canonical form, so it must stop the
        # pipeline at parse instead of escaping from the signature step.
        plain_fed = SimulatedFederation(keys=shared_keys)
        message = bindings.decode_post(issue_body(plain_fed)).message
        at = message.index(anchor)
        result = plain_fed.sp.consume(
            _post(message[:at] + b"<Ext/>" + message[at:], plain_fed), CLIENT_IP, NOW.plus(1)
        )
        assert result.report.failed_step == "parse"
        assert result.report.checks[-1].detail == "MalformedXml: element 'Ext' has no namespace"

    def test_response_with_two_assertions_fails_at_parse(self, shared_keys):
        plain_fed = SimulatedFederation(keys=shared_keys)
        message = bindings.decode_post(issue_body(plain_fed)).message
        start = message.index(b"<saml:Assertion ")
        end = message.index(b"</samlp:Response>")
        doubled = message[:end] + message[start:end] + message[end:]
        result = plain_fed.sp.consume(_post(doubled, plain_fed), CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "parse"
        assert result.report.checks[-1].detail == (
            "MalformedXml: response carries more than one assertion"
        )

    def test_signature_over_another_id_is_wrong_reference(self, shared_keys):
        plain_fed = SimulatedFederation(keys=shared_keys)
        message = bindings.decode_post(issue_body(plain_fed)).message
        response_id = xmlcodec.parse_response(message).id
        moved = message.replace(f'ID="{response_id}"'.encode(), b'ID="_elsewhere"', 1)
        result = plain_fed.sp.consume(_post(moved, plain_fed), CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "signature"
        assert result.report.checks[-1].detail == "response signature: WrongReference"

    def test_error_inside_a_step_fails_that_step(self, fed, monkeypatch):
        def broken(conditions, local):
            raise SamlError("no audience today")

        monkeypatch.setattr(sp, "check_audience", broken)
        result = fed.sp.consume(issue_body(fed), CLIENT_IP, NOW.plus(1))
        assert [c.name for c in result.report.checks] == list(
            PIPELINE_STEPS[: PIPELINE_STEPS.index("audience") + 1]
        )
        assert result.report.checks[-1].detail == "SamlError: no audience today"
        assert fed.sp.live_sessions() == ()

    def test_signature_value_with_nonzero_trailing_bits_fails_at_parse(self, shared_keys):
        # A 256-byte value ends in "XY==": Y carries two data bits and four
        # unused ones, so Y's neighbour decodes to the same bytes.
        plain_fed = SimulatedFederation(keys=shared_keys)
        message = bindings.decode_post(issue_body(plain_fed)).message
        end = message.index(b"==</ds:SignatureValue>")
        alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
        neighbour = alphabet.index(message[end - 1 : end]) ^ 1
        edited = message[: end - 1] + alphabet[neighbour : neighbour + 1] + message[end:]
        start = edited.index(b"<ds:SignatureValue>") + len(b"<ds:SignatureValue>")
        assert base64.b64decode(edited[start : end + 2]) == base64.b64decode(message[start : end + 2])
        result = plain_fed.sp.consume(_post(edited, plain_fed), CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "parse"
        assert result.report.checks[-1].detail == (
            "MalformedXml: SignatureValue: invalid base64 content"
        )

    def test_no_artifact_fails_at_fetch(self, fed):
        result = fed.sp.fetch_via_artifact([], CLIENT_IP, NOW)
        assert not result.ok
        assert [(c.name, c.ok, c.detail) for c in result.report.checks] == [
            ("fetch", False, "no artifact to resolve")
        ]

    @pytest.mark.parametrize(
        "bend",
        [
            lambda m: m.replace(b"<saml:Issuer", b"<!----><saml:Issuer", 1),
            lambda m: m.replace(b"><", b"> <", 1),
        ],
        ids=["comment-before-issuer", "space-between-tags"],
    )
    def test_a_response_bent_on_the_back_channel_fails_at_parse(self, shared_keys, bend):
        plain_fed = SimulatedFederation(keys=shared_keys)
        session = plain_fed.idp.create_session("the.user", CLIENT_IP, NOW)
        response = plain_fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        artifact = plain_fed.idp.issue_artifact(response, SP_ENTITY)

        def bending(endpoint, body, timeout):
            resolved = plain_fed.idp.resolve_artifact(bindings.unwrap_envelope(body), NOW.plus(1))
            return 200, bindings.wrap_envelope(bend(resolved))

        plain_fed.sp.back_channel = lambda endpoint, payload: bindings.back_channel_exchange(
            endpoint, payload, transport=bending
        )
        result = plain_fed.sp.fetch_via_artifact(artifact.encode(), CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "parse"
        assert result.report.checks[-1].detail == f"MalformedXml: {xmlcodec.NOT_EMITTED_BYTES}"

    def test_replay_window_boundaries(self, fed):
        body = issue_body(fed)
        first = fed.sp.consume(body, CLIENT_IP, NOW.plus(1))
        assert first.ok
        within = fed.sp.consume(body, CLIENT_IP, NOW.plus(299))
        assert within.report.failed_step == "replay"
        after = fed.sp.consume(body, CLIENT_IP, NOW.plus(301))
        assert after.report.failed_step == "window"

    def test_no_gap_between_cache_and_window(self, fed):
        # bearer horizon (where the cache forgets) sits far beyond the window
        body = issue_body(fed)
        fed.sp.consume(body, CLIENT_IP, NOW.plus(1))
        for offset in (2, 150, 299, 300, 301, 899, 900, 2000):
            result = fed.sp.consume(body, CLIENT_IP, NOW.plus(offset))
            assert not result.ok, f"replay accepted at +{offset}s"

    def test_concurrent_same_assertion_yields_one_session(self, fed):
        body = issue_body(fed)
        outcomes: list[bool] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def attempt():
            barrier.wait()
            result = fed.sp.consume(body, CLIENT_IP, NOW.plus(1))
            with lock:
                outcomes.append(result.ok)

        threads = [threading.Thread(target=attempt) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count(True) == 1
        assert len(fed.sp.live_sessions()) == 1


@pytest.fixture(scope="module")
def genuine(shared_keys):
    """One plain and one sealed federation, each with a genuine message."""
    feds = {sealed: SimulatedFederation(encrypt=sealed, keys=shared_keys) for sealed in (False, True)}
    return {
        sealed: (f, bindings.decode_post(issue_body(f)).message) for sealed, f in feds.items()
    }


_INSERTS = [b"<", b">", b'"', b"&", b"/", b"=", b"\x00"]
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "delete", "insert"]),
        st.integers(-6000, 6000),
        st.integers(0, 7),
        st.sampled_from(_INSERTS),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(data: bytes, edits) -> bytes:
    """Apply edits at Python index ``position`` (negative counts from the end)."""
    out = bytearray(data)
    for op, position, bit, inserted in edits:
        position = max(-len(out), min(position, len(out) - 1))
        if op == "flip":
            out[position] ^= 1 << bit
        elif op == "delete":
            del out[position]
        else:
            out[position:position] = inserted
    return bytes(out)


class TestHostileBodies:
    @given(sealed=st.booleans(), in_form=st.booleans(), edits=_EDITS)
    @example(sealed=False, in_form=False, edits=[("insert", -len(b"</samlp:Response>"), 0, b"<Ext/>")])
    @example(sealed=True, in_form=False, edits=[("insert", -len(b"</samlp:Response>"), 0, b"<Ext/>")])
    @settings(max_examples=150)
    def test_mutated_bodies_get_a_report_and_only_genuine_bytes_pass(
        self, genuine, sealed, in_form, edits
    ):
        fed, message = genuine[sealed]
        body = _post(message, fed)
        if in_form:
            body = _mutate(body, edits)
        else:
            body = _post(_mutate(message, edits), fed)
        fed.sp.replay.evict_expired(NOW.plus(10**6))  # each example starts unseen
        result = fed.sp.consume(body, CLIENT_IP, NOW.plus(1))
        assert result.report.checks
        assert result.ok == (result.report.failed_step is None)
        if result.ok:
            assert bindings.decode_post(body).message == message


def test_deeply_nested_response_fails_at_parse(fed):
    """2,000 nested foreign elements end in a report, not RecursionError."""
    session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
    message = xmlcodec.emit_response(fed.idp.issue_assertion(session, SP_ENTITY, NOW))
    deep = b'<f:x xmlns:f="urn:foreign">' * 2_000 + b"</f:x>" * 2_000
    message = message.replace(b"</samlp:Response>", deep + b"</samlp:Response>")
    result = fed.sp.consume(_post(message, fed), CLIENT_IP, NOW.plus(1))
    assert result.report.failed_step == "parse"
    assert "nest deeper" in result.report.checks[-1].detail



# Assertion edits that the model constructors reject: each must fail a
# pipeline step with the model's reason instead of escaping ``consume``.
HOSTILE_ASSERTION_EDITS = {
    "empty-nameid": (
        rb"<saml:NameID>[^<]+</saml:NameID>",
        b"<saml:NameID></saml:NameID>",
        "subject name_id must be non-empty",
    ),
    "empty-session-index": (
        rb'SessionIndex="[^"]+"',
        b'SessionIndex=""',
        "session_index must be non-empty",
    ),
    "attribute-without-value": (
        rb"<saml:AttributeValue>1234</saml:AttributeValue>",
        b"",
        "attribute 'clientId' must carry at least one value",
    ),
}


def _edit_assertion(message: bytes, case: str) -> bytes:
    pattern, replacement, _reason = HOSTILE_ASSERTION_EDITS[case]
    edited = re.sub(pattern, replacement, message, count=1)
    assert edited != message
    return edited


@pytest.mark.parametrize("case", sorted(HOSTILE_ASSERTION_EDITS))
def test_hostile_assertion_content_fails_at_parse(shared_keys, case):
    plain_fed = SimulatedFederation(keys=shared_keys)
    message = _edit_assertion(bindings.decode_post(issue_body(plain_fed)).message, case)
    result = plain_fed.sp.consume(_post(message, plain_fed), CLIENT_IP, NOW.plus(1))
    assert result.report.failed_step == "parse"
    assert result.report.checks[-1].detail == f"MalformedXml: {HOSTILE_ASSERTION_EDITS[case][2]}"


def _signed_by_the_idp(fed, response):
    """``response`` signed with the IdP's key, as wire bytes."""
    signed = cryptoseal.sign_message(
        response, xmlcodec.emit_response, fed.idp.registry.signing_alias, fed.idp.store
    )
    return xmlcodec.emit_response(signed)


def _seal_to_sp(plain: bytes, shared_keys):
    to_sp = cryptoseal.KeyStore().with_trust_anchors(
        EntityId(SP_ENTITY), encryption=(shared_keys["sp-encryption"].cert_der,)
    )
    return cryptoseal.encrypt_assertion(plain, EntityId(SP_ENTITY), to_sp)


@pytest.mark.parametrize("case", sorted(HOSTILE_ASSERTION_EDITS))
def test_hostile_sealed_assertion_fails_at_signature(fed, shared_keys, case):
    # A hostile but registered sender: its Response signature verifies, and
    # the model's reason surfaces where the plaintext is parsed.
    session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
    issued = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
    plain = cryptoseal.decrypt_assertion(issued.assertion, fed.sp.registry.encryption_alias, fed.sp.store)
    sealed = _seal_to_sp(_edit_assertion(plain, case), shared_keys)
    message = _signed_by_the_idp(fed, dataclasses.replace(issued, assertion=sealed))
    result = fed.sp.consume(_post(message, fed), CLIENT_IP, NOW.plus(1))
    assert result.report.failed_step == "signature"
    assert result.report.checks[-1].detail == f"MalformedXml: {HOSTILE_ASSERTION_EDITS[case][2]}"


def test_a_signature_method_other_than_ecdsa_sha256_fails_at_signature(fed):
    message = bindings.decode_post(issue_body(fed)).message
    # the one signature is the Response's
    renamed = message.replace(b"xmldsig-more#ecdsa-sha256", b"xmldsig-more#rsa-sha256", 1)
    assert renamed != message
    result = fed.sp.consume(_post(renamed, fed), CLIENT_IP, NOW.plus(1))
    assert result.report.failed_step == "signature"
    assert result.report.checks[-1].detail == "response signature: UnsupportedAlgorithm"


@pytest.fixture(scope="module")
def signed_sealed(shared_keys):
    """A federation and a genuine sealed Response of it, with its Response
    signature over the sealed bytes."""
    fed = SimulatedFederation(encrypt=True, keys=shared_keys)
    session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
    return fed, fed.idp.issue_assertion(session, SP_ENTITY, NOW)


def _flip_sealed(enc, part: str, bit: int):
    """``enc`` with one bit flipped in ``part``; the GCM tag is the last 16
    bytes of the ciphertext field."""
    parts = {
        "iv": enc.iv,
        "ciphertext": enc.ciphertext[:-16],
        "tag": enc.ciphertext[-16:],
        "encrypted_key": enc.encrypted_key,
        "ephemeral_key": enc.ephemeral_key,
    }
    flipped = bytearray(parts[part])
    flipped[bit // 8 % len(flipped)] ^= 1 << (bit % 8)
    parts[part] = bytes(flipped)
    return dataclasses.replace(
        enc,
        iv=parts["iv"],
        ciphertext=parts["ciphertext"] + parts["tag"],
        encrypted_key=parts["encrypted_key"],
        ephemeral_key=parts["ephemeral_key"],
    )


def _consume_counting_unseals(fed, message: bytes):
    """Consume ``message`` and count the ``decrypt_assertion`` calls it made."""
    unseals = []
    original = cryptoseal.decrypt_assertion

    def counted(*args):
        unseals.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cryptoseal, "decrypt_assertion", counted)
        result = fed.sp.consume(_post(message, fed), CLIENT_IP, NOW.plus(1))
    return result, len(unseals)


@given(
    part=st.sampled_from(["iv", "ciphertext", "tag", "encrypted_key", "ephemeral_key"]),
    bit=st.integers(min_value=0, max_value=8 * 4096),
)
@settings(max_examples=60)
def test_a_flipped_bit_in_a_sealed_assertion_fails_before_the_unseal(signed_sealed, part, bit):
    # The Response signature covers the sealed bytes and is checked first,
    # so no flip reaches the ECDH or shapes the report.
    fed, response = signed_sealed
    bent = _flip_sealed(response.assertion, part, bit)
    message = xmlcodec.emit_response(dataclasses.replace(response, assertion=bent))
    result, unseals = _consume_counting_unseals(fed, message)
    assert result.report.failed_step == "signature"
    assert result.report.checks[-1].detail == "response signature: DigestMismatch"
    assert unseals == 0


def test_an_unsigned_sealed_response_fails_before_the_unseal(signed_sealed):
    fed, response = signed_sealed
    message = xmlcodec.emit_response(dataclasses.replace(response, signature=None))
    result, unseals = _consume_counting_unseals(fed, message)
    assert result.report.failed_step == "signature"
    assert result.report.checks[-1].detail == "response signature missing but required"
    assert unseals == 0


def test_the_unflipped_signed_sealed_response_signs_on(signed_sealed):
    # the property above starts from a message that passes, unsealed once
    fed, response = signed_sealed
    result, unseals = _consume_counting_unseals(fed, xmlcodec.emit_response(response))
    assert result.ok, result.report.render()
    assert unseals == 1


def _counting(patch, calls: list, module, name: str) -> None:
    """Append ``name`` to ``calls`` on each call of ``module.name``, made from
    any samlforge module that holds it, the defining one included."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for held in [m for n, m in sys.modules.items() if n.split(".")[0] == "samlforge"]:
        if getattr(held, name, None) is original:
            patch.setattr(held, name, counted)


_SIGN_ON_WORK = (
    (cryptoseal, "sign_element"),
    (cryptoseal, "verify_signature"),
    (cryptoseal, "decrypt_assertion"),
    (xmlcodec, "canonicalize"),
)


class TestOneSignaturePerSignOn:
    """The IdP signs only the Response and the SP checks only that signature,
    so a sign-on signs and verifies once each. Both digest the emitter's
    bytes, so no element tree is canonicalized."""

    @pytest.mark.parametrize("sealed", [False, True], ids=["plain", "sealed"])
    def test_a_genuine_sign_on_signs_and_verifies_once(self, shared_keys, sealed):
        fed = SimulatedFederation(encrypt=sealed, keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        calls: list[str] = []
        with pytest.MonkeyPatch.context() as patch:
            for module, name in _SIGN_ON_WORK:
                _counting(patch, calls, module, name)
            form = fed.idp.idp_initiated_post(session, SP_ENTITY, NOW)
            result = fed.sp.consume(bindings.serialize_post_body(form), CLIENT_IP, NOW.plus(1))
        assert result.ok, result.report.render()
        expected = ["sign_element", "verify_signature"]
        if sealed:
            expected.append("decrypt_assertion")  # only after the verify
        assert calls == expected

    def _signed_assertion(self, fed, assertion) -> tuple[bytes, bytes]:
        """The assertion's bytes, and the same bytes with an enveloped
        signature of its own by the IdP's key."""
        unsigned = xmlcodec.emit_assertion(assertion)
        signature = cryptoseal.sign_element(
            unsigned, assertion.id, fed.idp.registry.signing_alias, fed.idp.store
        )
        return unsigned, xmlcodec.insert_signature(unsigned, signature)

    def test_a_plain_assertion_with_its_own_signature_fails_at_parse(self, shared_keys):
        fed = SimulatedFederation(keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        issued = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        unsigned, signed = self._signed_assertion(fed, issued.assertion)
        message = xmlcodec.emit_response(issued).replace(unsigned, signed)
        result = fed.sp.consume(_post(message, fed), CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "parse"
        assert result.report.checks[-1].detail == (
            "MalformedXml: unexpected element <Signature> inside <Assertion>"
        )

    def test_a_sealed_assertion_with_its_own_signature_fails_at_signature(self, shared_keys):
        fed = SimulatedFederation(encrypt=True, keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        issued = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        plain = cryptoseal.decrypt_assertion(
            issued.assertion, fed.sp.registry.encryption_alias, fed.sp.store
        )
        _, signed = self._signed_assertion(fed, xmlcodec.parse_assertion(plain))
        sealed = _seal_to_sp(signed, shared_keys)
        message = _signed_by_the_idp(fed, dataclasses.replace(issued, assertion=sealed))
        result = fed.sp.consume(_post(message, fed), CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "signature"
        assert result.report.checks[-1].detail == (
            "MalformedXml: unexpected element <Signature> inside <Assertion>"
        )

    @pytest.mark.parametrize("sealed", [False, True], ids=["plain", "sealed"])
    def test_an_sp_initiated_sign_on_signs_and_verifies_twice(self, shared_keys, sealed):
        # The signed AuthnRequest and the signed Response: two signs and two
        # verifies, each over an emitter's bytes.
        fed = SimulatedFederation(encrypt=sealed, keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        calls: list[str] = []
        with pytest.MonkeyPatch.context() as patch:
            for module, name in _SIGN_ON_WORK:
                _counting(patch, calls, module, name)
            redirect, _ = fed.sp.build_authn_request(LANDING_URL, NOW)
            form = fed.idp.handle_authn_request(redirect.url, session, NOW)
            result = fed.sp.consume(bindings.serialize_post_body(form), CLIENT_IP, NOW.plus(1))
        assert result.ok, result.report.render()
        expected = ["sign_element", "verify_signature"] * 2
        if sealed:
            expected.append("decrypt_assertion")
        assert calls == expected


NOT_EMITTED = f"MalformedXml: {xmlcodec.NOT_EMITTED_BYTES}"


def _wrapped_assertion_copy(message: bytes) -> bytes:
    """A copy of the Assertion, inside a foreign element, as a Response child
    ahead of the genuine one (a signature-wrapping move)."""
    start, end = message.index(b"<saml:Assertion "), message.index(b"</samlp:Response>")
    copy = message[start:end].replace(b"the.user@", b"the.boss@", 1)
    return message[:start] + b'<w:Wrap xmlns:w="urn:wrap">' + copy + b"</w:Wrap>" + message[start:]


def _with_key_info(message: bytes, cert_der: bytes) -> bytes:
    """``message`` whose ds:Signature ends with exactly one ds:KeyInfo, which
    holds ``cert_der``: the form of a signature that names its own key."""
    key_info = (
        b"<ds:KeyInfo><ds:X509Data><ds:X509Certificate>"
        + base64.b64encode(cert_der)
        + b"</ds:X509Certificate></ds:X509Data></ds:KeyInfo>"
    )
    message = re.sub(rb"<ds:KeyInfo>.*?</ds:KeyInfo>", b"", message, count=1)
    return message.replace(b"</ds:Signature>", key_info + b"</ds:Signature>", 1)


# Edits of a genuine signed plain Response that the byte comparison refuses,
# or, for an element no Response holds, the closed set of its children.
UNEMITTED_EDITS = {
    "comment-in-nameid": (
        lambda m: re.sub(rb"(<saml:NameID[^>]*>[^<@]+)", rb"\1<!---->", m, count=1),
        NOT_EMITTED,
    ),
    "attribute-on-root": (
        lambda m: m.replace(b"<samlp:Response ", b'<samlp:Response Extra="1" ', 1),
        NOT_EMITTED,
    ),
    "whitespace-between-tags": (
        lambda m: m.replace(b"><", b"> <", 1),
        NOT_EMITTED,
    ),
    "wrapped-assertion-copy": (
        _wrapped_assertion_copy,
        "MalformedXml: unexpected element <Wrap> inside <Response>",
    ),
    "key-info-with-the-signers-own-certificate": (
        lambda m: _with_key_info(m, _shared_keys()["idp-signing"].cert_der),
        NOT_EMITTED,
    ),
    "mangled-signature-namespace": (
        lambda m: m.replace(b"/2000/09/xmldsig#", b"/r000/09/xmldsig#", 1),
        "MalformedXml: unexpected element <Signature> inside <Response>",
    ),
}


class TestOnlyEmittedBytes:
    """A message is accepted only as the bytes its emitter writes for the
    parsed model, so what is verified, what is processed and what arrived
    are one thing."""

    @pytest.mark.parametrize("case", sorted(UNEMITTED_EDITS))
    def test_an_edit_the_parse_would_forgive_fails_at_parse_before_any_verify(
        self, shared_keys, case
    ):
        plain_fed = SimulatedFederation(keys=shared_keys)
        message = bindings.decode_post(issue_body(plain_fed)).message
        edit, detail = UNEMITTED_EDITS[case]
        edited = edit(message)
        assert edited != message
        calls: list[str] = []
        with pytest.MonkeyPatch.context() as patch:
            _counting(patch, calls, cryptoseal, "verify_signature")
            result = plain_fed.sp.consume(_post(edited, plain_fed), CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "parse"
        assert result.report.checks[-1].detail == detail
        assert calls == []

    def test_a_comment_in_a_sealed_assertion_fails_at_signature(self, fed, shared_keys):
        # The Response signature of a registered IdP verifies; the plaintext
        # is then held to the same rule as the Response.
        session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        issued = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        plain = cryptoseal.decrypt_assertion(
            issued.assertion, fed.sp.registry.encryption_alias, fed.sp.store
        )
        commented = plain.replace(b"@mycompany", b"@<!---->mycompany", 1)
        assert commented != plain
        sealed = _seal_to_sp(commented, shared_keys)
        message = _signed_by_the_idp(fed, dataclasses.replace(issued, assertion=sealed))
        result = fed.sp.consume(_post(message, fed), CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "signature"
        assert result.report.checks[-1].detail == NOT_EMITTED

    def test_a_comment_in_a_signed_logout_request_fails_before_any_verify(self, fed):
        result = fed.sp.consume(issue_body(fed), CLIENT_IP, NOW.plus(1))
        forms = fed.idp.initiate_single_logout(result.session.session_index, NOW.plus(2))
        message = bindings.decode_post(bindings.serialize_post_body(forms[0])).message
        commented = message.replace(b"</samlp:SessionIndex>", b"<!----></samlp:SessionIndex>", 1)
        assert commented != message
        calls: list[str] = []
        with pytest.MonkeyPatch.context() as patch:
            _counting(patch, calls, cryptoseal, "verify_signature")
            with pytest.raises(xmlcodec.MalformedXml, match=f"^{xmlcodec.NOT_EMITTED_BYTES}$"):
                fed.sp.handle_logout_request(commented, NOW.plus(3))
        assert calls == []
        assert fed.sp.live_sessions(result.session.session_index) != ()


class TestPinnedKeysOnly:
    """A signature names no key: a ds:KeyInfo inside one, even one holding
    the signer's own pinned certificate, is not what the emitter writes
    (for a Response, see ``UNEMITTED_EDITS``)."""

    def test_a_key_info_in_a_logout_request_signature_fails_before_any_verify(
        self, fed, shared_keys
    ):
        result = fed.sp.consume(issue_body(fed), CLIENT_IP, NOW.plus(1))
        forms = fed.idp.initiate_single_logout(result.session.session_index, NOW.plus(2))
        message = bindings.decode_post(bindings.serialize_post_body(forms[0])).message
        edited = _with_key_info(message, shared_keys["idp-signing"].cert_der)
        calls: list[str] = []
        with pytest.MonkeyPatch.context() as patch:
            _counting(patch, calls, cryptoseal, "verify_signature")
            with pytest.raises(xmlcodec.MalformedXml, match=f"^{xmlcodec.NOT_EMITTED_BYTES}$"):
                fed.sp.handle_logout_request(edited, NOW.plus(3))
        assert calls == []
        assert fed.sp.live_sessions(result.session.session_index) != ()

    def test_a_key_info_in_a_redirect_authn_request_fails_before_any_verify(
        self, fed, shared_keys
    ):
        redirect, token = fed.sp.build_authn_request(LANDING_URL, NOW)
        message = bindings.decode_redirect(redirect.url).message
        edited = _with_key_info(message, shared_keys["sp-signing"].cert_der)
        url = bindings.encode_redirect(edited, redirect.base, relay_state=token).url
        session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        calls: list[str] = []
        with pytest.MonkeyPatch.context() as patch:
            _counting(patch, calls, cryptoseal, "verify_signature")
            with pytest.raises(xmlcodec.MalformedXml, match=f"^{xmlcodec.NOT_EMITTED_BYTES}$"):
                fed.idp.handle_authn_request(url, session, NOW)
        assert calls == []

    def test_a_signing_key_rollover_follows_the_pinned_metadata(self, shared_keys, rogue_key):
        # The IdP's metadata lists its old and its new signing certificate,
        # then only the new one; the SP honours exactly what it holds.
        old = SimulatedFederation(keys=shared_keys)
        new = SimulatedFederation(seed=1, keys={**shared_keys, "idp-signing": rogue_key})
        local = old.idp.registry.local
        both = dataclasses.replace(
            local.role,
            signing_certs=(shared_keys["idp-signing"].cert_b64, rogue_key.cert_b64),
        )
        old.sp.register_partner(xmlcodec.emit_metadata(dataclasses.replace(local, role=both)))
        for sender in (old, new):
            result = old.sp.consume(issue_body(sender), CLIENT_IP, NOW.plus(1))
            assert result.ok, result.report.render()
        old.sp.register_partner(xmlcodec.emit_metadata(new.idp.registry.local))
        result = old.sp.consume(issue_body(old), CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "signature"
        assert result.report.checks[-1].detail == "response signature: BadSignatureValue"
        assert old.sp.consume(issue_body(new), CLIENT_IP, NOW.plus(1)).ok


def _genuine_messages(shared_keys) -> dict[str, tuple[bytes, object, object]]:
    """Each kind of message the engines exchange in a sign-on and a logout,
    as the bytes that crossed, with its model reader and emitter."""
    plain = SimulatedFederation(keys=shared_keys)
    sealed = SimulatedFederation(encrypt=True, keys=shared_keys)
    plain_response = bindings.decode_post(issue_body(plain)).message
    sealed_response = bindings.decode_post(issue_body(sealed)).message
    enc = xmlcodec.parse_response(sealed_response).assertion
    plaintext = cryptoseal.decrypt_assertion(enc, sealed.sp.registry.encryption_alias, sealed.sp.store)
    redirect, _ = plain.sp.build_authn_request(LANDING_URL, NOW)
    session_index = plain.sp.consume(_post(plain_response, plain), CLIENT_IP, NOW.plus(1)).session.session_index
    forms = plain.idp.initiate_single_logout(session_index, NOW.plus(2))
    logout_request = bindings.decode_post(bindings.serialize_post_body(forms[0])).message
    logout_response = plain.sp.handle_logout_request(logout_request, NOW.plus(3))
    response_kind = (xmlcodec.response_from_element, xmlcodec.emit_response)
    return {
        "response": (plain_response, *response_kind),
        "sealed-response": (sealed_response, *response_kind),
        "sealed-plaintext": (plaintext, xmlcodec.assertion_from_element, xmlcodec.emit_assertion),
        "redirect-authn-request": (
            bindings.decode_redirect(redirect.url).message,
            xmlcodec.authn_request_from_element,
            xmlcodec.emit_authn_request,
        ),
        "logout-request": (
            logout_request, xmlcodec.logout_request_from_element, xmlcodec.emit_logout_request
        ),
        "logout-response": (
            logout_response, xmlcodec.logout_response_from_element, xmlcodec.emit_logout_response
        ),
    }


def test_every_genuine_message_re_emits_to_its_own_bytes(shared_keys):
    for kind, (data, from_element, emit) in _genuine_messages(shared_keys).items():
        # a fresh model, which keeps no bytes, renders exactly what crossed
        assert emit(from_element(xmlcodec.parse_xml(data))) == data, kind
        assert xmlcodec.read_exact(data, from_element, emit) is not None


def test_no_genuine_message_carries_a_certificate(shared_keys):
    for kind, (data, _, _) in _genuine_messages(shared_keys).items():
        assert b"X509Certificate" not in data, kind


def _landing(fed, token, now=NOW):
    """Where a genuine IdP-initiated POST carrying RelayState ``token`` sends the browser."""
    result = fed.sp.consume(issue_body(fed, now, relay=token), CLIENT_IP, now.plus(1))
    assert result.ok
    return result.redirect_url


def test_a_partner_registered_later_is_judged_with_the_federation_skew(shared_keys):
    fed = SimulatedFederation(skew=30, keys=shared_keys)
    # a metadata refresh registers each partner again
    fed.idp.register_partner(xmlcodec.emit_metadata(fed.sp.registry.local))
    fed.sp.register_partner(xmlcodec.emit_metadata(fed.idp.registry.local))
    early = fed.sp.consume(issue_body(fed, NOW), CLIENT_IP, NOW.minus(20))
    assert early.ok
    later = NOW.plus(100)
    too_early = fed.sp.consume(issue_body(fed, later), CLIENT_IP, later.minus(31))
    assert too_early.report.failed_step == "window"


class TestRelayStateExpiry:
    def test_token_expires_with_its_request(self, fed):
        _, stale = fed.sp.build_authn_request("https://sp.internal.test/old", NOW)
        lifetime = fed.sp.registry.validity + BEARER_GRACE_SECONDS
        later = NOW.plus(lifetime)
        _, token = fed.sp.build_authn_request("https://sp.internal.test/new", later)
        assert _landing(fed, stale, later) == LANDING_URL
        assert _landing(fed, token, later) == "https://sp.internal.test/new"


class TestRelayState:
    def test_issued_token_resolves_once(self, fed):
        _, token = fed.sp.build_authn_request("https://sp.internal.test/deep", NOW)
        assert _landing(fed, token) == "https://sp.internal.test/deep"
        # single use: the second resolution downgrades to the landing page
        assert _landing(fed, token) == LANDING_URL

    def test_absent_token_lands_home(self, fed):
        assert _landing(fed, None) == LANDING_URL

    def test_unissued_token_never_redirects(self, fed):
        assert _landing(fed, "../../evil") == LANDING_URL
        assert _landing(fed, "https://evil.example") == LANDING_URL

    def test_only_configured_or_issued_urls_are_returned(self, fed):
        issued = {}
        for i in range(20):
            url = f"https://sp.internal.test/page/{i}"
            _, token = fed.sp.build_authn_request(url, NOW)
            issued[token] = url
        for token, url in issued.items():
            assert _landing(fed, token) in (url, LANDING_URL)


class TestBuildAuthnRequest:
    def test_redirect_targets_partner_sso_location(self, fed):
        redirect, token = fed.sp.build_authn_request("https://sp.internal.test/app", NOW)
        assert redirect.url.startswith(f"{IDP_BASE}/sso?SAMLRequest=")
        assert f"RelayState={token}" in redirect.url

    def test_fresh_ids_and_tokens(self, fed):
        r1, t1 = fed.sp.build_authn_request("https://sp.internal.test/a", NOW)
        r2, t2 = fed.sp.build_authn_request("https://sp.internal.test/b", NOW)
        assert t1 != t2
        m1 = bindings.decode_redirect(r1.url).message
        m2 = bindings.decode_redirect(r2.url).message
        parse = xmlcodec.authn_request_from_element
        assert parse(xmlcodec.parse_xml(m1)).id != parse(xmlcodec.parse_xml(m2)).id

    def test_request_is_signed_per_local_metadata(self, fed):
        redirect, _ = fed.sp.build_authn_request("https://sp.internal.test/app", NOW)
        message = bindings.decode_redirect(redirect.url).message
        request = xmlcodec.authn_request_from_element(xmlcodec.parse_xml(message))
        assert request.signature is not None
        # the signature names no key: the IdP takes it from the SP's metadata
        session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        assert fed.idp.handle_authn_request(redirect.url, session, NOW).saml_value

    def test_the_request_is_rendered_once_to_the_bytes_of_the_two_step_construction(
        self, fed, monkeypatch
    ):
        fed.sp.token_source = lambda n: bytes(range(n))
        renders = []
        render = xmlcodec._render_authn_request
        monkeypatch.setattr(
            xmlcodec, "_render_authn_request", lambda r: renders.append(r) or render(r)
        )
        redirect, token = fed.sp.build_authn_request("https://sp.internal.test/app", NOW)
        assert len(renders) == 1
        # the two-step construction: sign the unsigned request, then render
        # the signed one afresh
        request = AuthnRequest(
            id=new_message_id(fed.sp.token_source),
            issue_instant=NOW,
            issuer=fed.sp.entity_id,
            acs_url=fed.sp.acs_url,
        )
        signed = cryptoseal.sign_message(
            request, xmlcodec.emit_authn_request, fed.sp.registry.signing_alias, fed.sp.store
        )
        two_step = bindings.encode_redirect(render(signed), redirect.base, relay_state=token)
        assert redirect.url == two_step.url

    def test_no_idp_registered(self, shared_keys):
        import dataclasses

        fed = SimulatedFederation(keys=shared_keys)
        fed.sp.registry = dataclasses.replace(fed.sp.registry, partners={})
        with pytest.raises(NoIdpRegistered):
            fed.sp.build_authn_request("https://sp.internal.test/app", NOW)


class TestEquivalenceOfFlows:
    def test_idp_and_sp_initiated_sessions_match(self, fed):
        body = issue_body(fed)
        idp_side = fed.sp.consume(body, CLIENT_IP, NOW.plus(1))

        session = fed.idp.session_for_user("the.user")
        redirect, _ = fed.sp.build_authn_request("https://sp.internal.test/app", NOW)
        form = fed.idp.handle_authn_request(redirect.url, session, NOW)
        sp_side = fed.sp.consume(bindings.serialize_post_body(form), CLIENT_IP, NOW.plus(1))

        assert idp_side.ok and sp_side.ok
        assert idp_side.session.name_id == sp_side.session.name_id
        assert idp_side.session.attributes == sp_side.session.attributes


class TestLogoutEndpoint:
    def test_terminates_matching_sessions(self, fed):
        result = fed.sp.consume(issue_body(fed), CLIENT_IP, NOW.plus(1))
        session_index = result.session.session_index
        forms = fed.idp.initiate_single_logout(session_index, NOW.plus(2))
        message = bindings.decode_post(bindings.serialize_post_body(forms[0])).message
        response = fed.sp.handle_logout_request(message, NOW.plus(3))
        from samlforge.xmlcodec import parse_logout_response

        assert parse_logout_response(response).status.endswith(":Success")
        assert fed.sp.live_sessions(session_index) == ()

    def test_replay_is_success_noop(self, fed):
        result = fed.sp.consume(issue_body(fed), CLIENT_IP, NOW.plus(1))
        forms = fed.idp.initiate_single_logout(result.session.session_index, NOW.plus(2))
        message = bindings.decode_post(bindings.serialize_post_body(forms[0])).message
        fed.sp.handle_logout_request(message, NOW.plus(3))
        replay = fed.sp.handle_logout_request(message, NOW.plus(4))
        from samlforge.xmlcodec import parse_logout_response

        assert parse_logout_response(replay).status.endswith(":Success")

    def test_unknown_issuer_rejected(self, fed):
        from samlforge.core import EntityId, LogoutRequest, new_message_id
        from samlforge.federation import UnknownIssuer
        from samlforge import xmlcodec

        request = LogoutRequest(
            id=new_message_id(),
            issue_instant=NOW,
            issuer=EntityId("stranger:saml2.0"),
            name_id="x",
            session_index="y",
        )
        with pytest.raises(UnknownIssuer):
            fed.sp.handle_logout_request(xmlcodec.emit_logout_request(request), NOW)

    def test_signed_request_from_a_service_provider_is_refused(self, fed, rogue_key):
        from samlforge.core import LogoutRequest, new_message_id
        from samlforge.federation import UnknownIssuer
        from samlforge.harness.config import build_sp_descriptor

        result = fed.sp.consume(issue_body(fed), CLIENT_IP, NOW.plus(1))
        session_index = result.session.session_index
        peer = build_sp_descriptor("peer:sp", "https://peer.internal.test", rogue_key.cert_b64)
        fed.sp.register_partner(xmlcodec.emit_metadata(peer))
        request = LogoutRequest(
            id=new_message_id(),
            issue_instant=NOW.plus(2),
            issuer=EntityId("peer:sp"),
            name_id=result.session.name_id,
            session_index=session_index,
        )
        store = cryptoseal.make_keystore({"peer": rogue_key})
        signed = cryptoseal.sign_message(request, xmlcodec.emit_logout_request, "peer", store)
        with pytest.raises(UnknownIssuer):
            fed.sp.handle_logout_request(xmlcodec.emit_logout_request(signed), NOW.plus(3))
        assert fed.sp.live_sessions(session_index) != ()

    def test_signed_request_is_parsed_once(self, fed, monkeypatch):
        result = fed.sp.consume(issue_body(fed), CLIENT_IP, NOW.plus(1))
        forms = fed.idp.initiate_single_logout(result.session.session_index, NOW.plus(2))
        message = bindings.decode_post(bindings.serialize_post_body(forms[0])).message
        parsed: list[bytes] = []
        real_parse = xmlcodec.parse_xml

        def counting(data):
            parsed.append(data)
            return real_parse(data)

        monkeypatch.setattr(xmlcodec, "parse_xml", counting)
        fed.sp.handle_logout_request(message, NOW.plus(3))
        assert parsed == [message]

    def test_signature_over_another_id_is_rejected(self, fed):
        result = fed.sp.consume(issue_body(fed), CLIENT_IP, NOW.plus(1))
        forms = fed.idp.initiate_single_logout(result.session.session_index, NOW.plus(2))
        message = bindings.decode_post(bindings.serialize_post_body(forms[0])).message
        request_id = xmlcodec.logout_request_from_element(xmlcodec.parse_xml(message)).id
        moved = message.replace(f'ID="{request_id}"'.encode(), b'ID="_elsewhere"', 1)
        with pytest.raises(sp.InvalidRequestSignature, match="^WrongReference$"):
            fed.sp.handle_logout_request(moved, NOW.plus(3))
        assert fed.sp.live_sessions(result.session.session_index) != ()

    def test_one_request_signature_error_for_both_roles(self):
        assert sp.InvalidRequestSignature is idp.InvalidRequestSignature
        assert sp.InvalidRequestSignature is cryptoseal.InvalidRequestSignature

    def test_unsigned_logout_rejected_under_signing_policy(self, fed):
        from samlforge.core import EntityId, LogoutRequest, new_message_id
        from samlforge.sp import InvalidRequestSignature
        from samlforge import xmlcodec

        request = LogoutRequest(
            id=new_message_id(),
            issue_instant=NOW,
            issuer=EntityId(IDP_ENTITY),
            name_id="the.user@mycompany.com",
            session_index="whatever",
        )
        with pytest.raises(InvalidRequestSignature):
            fed.sp.handle_logout_request(xmlcodec.emit_logout_request(request), NOW)


class TestReplayCache:
    def test_blocks_unexpired_ids(self):
        cache = ReplayCache()
        assert cache.check_and_record("a", Instant(100), Instant(0))
        assert not cache.check_and_record("a", Instant(100), Instant(50))

    def test_expired_entries_can_be_reused(self):
        cache = ReplayCache()
        cache.check_and_record("a", Instant(100), Instant(0))
        assert cache.check_and_record("a", Instant(300), Instant(100))

    @given(
        entries=st.lists(
            st.tuples(st.text("ab", min_size=1, max_size=4), st.integers(0, 100)),
            max_size=30,
        ),
        now=st.integers(0, 120),
    )
    @settings(max_examples=100)
    def test_eviction_never_removes_unexpired(self, entries, now):
        cache = ReplayCache()
        recorded: dict[str, int] = {}
        for message_id, expiry in entries:
            if cache.check_and_record(message_id, Instant(expiry), Instant(0)):
                recorded[message_id] = expiry
        cache.evict_expired(Instant(now))
        for message_id, expiry in recorded.items():
            if expiry > now:
                assert message_id in cache

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["record", "evict", "contains"]),
                st.text("abc", min_size=1, max_size=2),
                st.integers(0, 60),
                st.integers(0, 60),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=300)
    def test_matches_full_scan_model(self, ops):
        """Non-monotonic clocks included: every call evicts exactly the
        entries whose expiry is at or before its ``now``."""
        cache = ReplayCache()
        model: dict[str, int] = {}

        def model_evict(now):
            for key in [k for k, expiry in model.items() if now >= expiry]:
                del model[key]

        for op, message_id, expiry, now in ops:
            if op == "record":
                model_evict(now)
                fresh = message_id not in model
                if fresh:
                    model[message_id] = expiry
                assert cache.check_and_record(message_id, Instant(expiry), Instant(now)) == fresh
            elif op == "evict":
                model_evict(now)
                cache.evict_expired(Instant(now))
            else:
                assert (message_id in cache) == (message_id in model)
            assert len(cache) == len(model)

    def test_concurrent_inserts_admit_each_id_once(self):
        cache = ReplayCache()
        ids = [f"_id{n}" for n in range(500)]
        wins: list[str] = []
        wins_lock = threading.Lock()
        start = threading.Barrier(8)

        def race():
            start.wait()
            mine = [i for i in ids if cache.check_and_record(i, Instant(100), Instant(0))]
            with wins_lock:
                wins.extend(mine)

        threads = [threading.Thread(target=race) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(wins) == sorted(ids)
        assert len(cache) == len(ids)
