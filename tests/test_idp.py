import dataclasses
import gc
import random
import threading
import tracemalloc

import pytest

from samlforge import bindings, cryptoseal, xmlcodec
from samlforge.core import (
    STATUS_SUCCESS,
    AuthnRequest,
    EncryptedAssertion,
    EntityId,
    LogoutResponse,
    new_message_id,
)
from samlforge.cryptoseal import decrypt_assertion
from samlforge.federation import UnknownIssuer
from samlforge.harness.config import build_sp_descriptor
from samlforge.harness.scenarios import (
    CLIENT_IP,
    IDP_BASE,
    SIM_EPOCH,
    SP_BASE,
    SP_ENTITY,
    SimulatedFederation,
)
from samlforge.idp import (
    AlreadyConsumed,
    ArtifactExpired,
    IdpEngine,
    IncompletePair,
    InvalidRequestSignature,
    MismatchedPair,
    PolicyViolation,
    ReplayedRequestId,
    SignatureRequired,
    UnknownArtifact,
    UnknownPartner,
    UnknownSession,
    UnknownUser,
    WrongSourceId,
    parse_attribute_records,
)
from samlforge.sp import SpEngine
from samlforge.xmlcodec import BINDING_SOAP, IndexedEndpoint

NOW = SIM_EPOCH


@pytest.fixture
def fed(shared_keys):
    return SimulatedFederation(encrypt=True, keys=shared_keys)


@pytest.fixture
def session(fed):
    return fed.idp.create_session("the.user", CLIENT_IP, NOW)


def _resolve(fed, now, *values, issuer=SP_ENTITY):
    """Resolve artifact values the one way there is: an ArtifactResolve."""
    request = xmlcodec.emit_artifact_resolve(new_message_id(), now, EntityId(issuer), values)
    return fed.idp.resolve_artifact(request, now)


def _signed_by(key, message, emit) -> bytes:
    """``message`` signed with ``key``, as wire bytes."""
    store = cryptoseal.make_keystore({"k": key})
    return emit(cryptoseal.sign_message(message, emit, "k", store))


def _post_body(message: bytes) -> bytes:
    """``message`` as a POST /sso form body."""
    form = bindings.encode_post(message, "request", f"{IDP_BASE}/sso")
    return bindings.serialize_post_body(form)


class TestAttributeSource:
    def test_records_parse(self):
        source = parse_attribute_records(
            "# comment\nthe.user the.user@mycompany.com clientId=1234 uid=the.user@mycompany.com\n"
        )
        record = source.lookup("the.user")
        assert record.name_id == "the.user@mycompany.com"
        assert [(a.name, a.values) for a in record.attributes] == [
            ("clientId", ("1234",)),
            ("uid", ("the.user@mycompany.com",)),
        ]

    def test_repeated_names_accumulate(self):
        source = parse_attribute_records("u nid role=admin role=auditor\n")
        assert source.lookup("u").attributes[0].values == ("admin", "auditor")

    def test_missing_user_is_an_error(self):
        source = parse_attribute_records("u nid a=1\n")
        with pytest.raises(UnknownUser):
            source.lookup("ghost")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_attribute_records("loneword\n")

    def test_repeated_user_key_is_an_error(self):
        # a stale line further down must not replace the user's record
        text = "  u a@x a=1\n# u is taken\nv b@x a=1\nu c@x a=2\n"
        with pytest.raises(ValueError, match=r"^line 4: user key 'u' already given on line 1$"):
            parse_attribute_records(text)


def _directory_export(count: int) -> str:
    """Records shaped like a directory export: the name-id again as uid, a
    client id and one to three of forty groups per user."""
    rng = random.Random(count)
    lines = []
    for i in range(count):
        name_id = f"user{i:05d}@mycompany.com"
        groups = " ".join(f"group=g{rng.randrange(40)}" for _ in range(rng.randint(1, 3)))
        lines.append(f"user{i:05d} {name_id} clientId={rng.randrange(10**6)} uid={name_id} {groups}")
    return "\n".join(lines) + "\n"


class TestCompactState:
    """Per-user and per-session state stays small: an IdP keeps one record
    per user and one session per signed-in user."""

    def test_records_keep_under_900_bytes_per_user(self):
        users = 2000
        text = _directory_export(users)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            source = parse_attribute_records(text)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(source.records) == users
        assert grown / users < 900

    def test_equal_strings_are_one_object(self):
        source = parse_attribute_records(
            "alice alice@x uid=alice@x group=staff group=ops\nbob bob@x uid=bob@x group=staff\n"
        )
        alice, bob = source.lookup("alice"), source.lookup("bob")
        assert alice.attributes[0].values[0] is alice.name_id
        assert alice.attributes[1].name is bob.attributes[1].name
        assert alice.attributes[1].friendly_name is bob.attributes[1].name
        assert alice.attributes[1].values[0] is bob.attributes[1].values[0]

    def test_records_and_sessions_have_no_instance_dict(self, fed):
        record = fed.source.lookup("the.user")
        session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        for kept in (record, record.attributes[0], session):
            assert not hasattr(kept, "__dict__")

    def test_fresh_sessions_share_the_empty_participant_set(self, fed):
        first = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        second = fed.idp.create_session("j.doe", CLIENT_IP, NOW)
        assert first.participating_sps == frozenset()
        assert first.participating_sps is second.participating_sps


class TestIssueAssertion:
    def test_window_matches_configured_validity(self, fed, session):
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        assertion = decrypt_and_parse(fed, response)
        assert assertion.conditions.not_before == NOW
        assert assertion.conditions.not_on_or_after == NOW.plus(300)
        # five-minute window: 12:28:36 -> 12:33:36
        assert assertion.conditions.not_on_or_after.isoformat() == "2009-04-22T12:33:36Z"

    def test_bearer_outlives_window_by_grace(self, fed, session):
        assertion = decrypt_and_parse(fed, fed.idp.issue_assertion(session, SP_ENTITY, NOW))
        assert assertion.subject.confirmation.not_on_or_after == NOW.plus(900)

    def test_addressing_and_audience(self, fed, session):
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        assertion = decrypt_and_parse(fed, response)
        acs = "https://sp.internal.test/acs"
        assert response.destination == acs
        assert assertion.subject.confirmation.recipient == acs
        assert [a.value for a in assertion.conditions.audiences] == [SP_ENTITY]
        assert assertion.authn_statement.locality_address == CLIENT_IP

    def test_signed_and_encrypted_per_policy(self, fed, session):
        # encrypt, then sign: the one signature is the Response's, over the sealed bytes
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        assert isinstance(response.assertion, EncryptedAssertion)
        assert response.signature is not None
        idp_partner = fed.sp.registry.partner(fed.idp.entity_id.value)
        verdict = cryptoseal.verify_message(
            response,
            xmlcodec.emit_response,
            idp_partner.entity_id,
            idp_partner.signing_cert_ders,
            fed.sp.store,
        )
        assert verdict.accepted, verdict.reason
        plain = decrypt_assertion(response.assertion, fed.sp.registry.encryption_alias, fed.sp.store)
        assert b"<ds:Signature " not in plain
        assertion = xmlcodec.parse_assertion(plain)
        assert [(a.name, a.values[0]) for a in assertion.attributes] == [
            ("clientId", "1234"),
            ("uid", "the.user@mycompany.com"),
        ]

    def test_unknown_partner(self, fed, session):
        with pytest.raises(UnknownPartner):
            fed.idp.issue_assertion(session, "ghost:saml2.0", NOW)

    def test_unknown_user(self, fed):
        with pytest.raises(UnknownUser):
            fed.idp.create_session("ghost", CLIENT_IP, NOW)

    def test_engines_refuse_a_registry_without_signing_alias(self, fed):
        # every message an engine sends is signed, so each needs its key from the start
        idp_registry = dataclasses.replace(fed.idp.registry, signing_alias=None)
        with pytest.raises(ValueError, match="^IdpEngine needs a registry with a signing alias$"):
            IdpEngine(idp_registry, fed.idp.store, fed.source)
        sp_registry = dataclasses.replace(fed.sp.registry, signing_alias=None)
        with pytest.raises(ValueError, match="^SpEngine needs a registry with a signing alias$"):
            SpEngine(sp_registry, fed.sp.store, landing_url=f"{SP_BASE}/app")

    def test_fresh_ids_have_128_bits(self, fed, session):
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        assert len(response.id) >= 33  # "_" + 32 hex chars

    def test_id_uniqueness_over_a_million_draws(self):
        seen = {new_message_id() for _ in range(1_000_000)}
        assert len(seen) == 1_000_000

    def test_idp_initiated_post_parses_nothing(self, fed, session, monkeypatch):
        # Signing renders ds:Signature straight to bytes; no tree is parsed
        # back on the issuing side.
        parsed: list[bytes] = []
        real_parse = xmlcodec.parse_xml

        def counting(data):
            parsed.append(data)
            return real_parse(data)

        monkeypatch.setattr(xmlcodec, "parse_xml", counting)
        monkeypatch.setattr(bindings, "parse_xml", counting)
        fed.idp.idp_initiated_post(session, SP_ENTITY, NOW)
        assert parsed == []


class TestHandleAuthnRequest:
    def test_signed_request_with_relay_state(self, fed, session):
        redirect, token = fed.sp.build_authn_request("https://sp.internal.test/app/x", NOW)
        form = fed.idp.handle_authn_request(redirect.url, session, NOW)
        assert form.relay_state == token
        assert form.saml_field == "SAMLResponse"

    def test_unsigned_request_rejected_when_metadata_promises_signing(self, fed, session):
        from samlforge.core import AuthnRequest

        request = AuthnRequest(
            id=new_message_id(),
            issue_instant=NOW,
            issuer=EntityId(SP_ENTITY),
            acs_url="https://sp.internal.test/acs",
        )
        body = _post_body(xmlcodec.emit_authn_request(request))
        with pytest.raises(SignatureRequired):
            fed.idp.handle_authn_request(body, session, NOW)

    def test_replayed_request_id_rejected(self, fed, session):
        redirect, _ = fed.sp.build_authn_request("https://sp.internal.test/app", NOW)
        fed.idp.handle_authn_request(redirect.url, session, NOW)
        with pytest.raises(ReplayedRequestId):
            fed.idp.handle_authn_request(redirect.url, session, NOW)

    def test_unknown_issuer(self, fed, session):
        from samlforge.core import AuthnRequest

        request = AuthnRequest(
            id=new_message_id(),
            issue_instant=NOW,
            issuer=EntityId("stranger:saml2.0"),
            acs_url="https://x/acs",
        )
        body = _post_body(xmlcodec.emit_authn_request(request))
        with pytest.raises(UnknownIssuer):
            fed.idp.handle_authn_request(body, session, NOW)

    def test_bad_signature_rejected(self, fed, session, rogue_key):
        from samlforge.core import AuthnRequest
        from samlforge import cryptoseal

        rogue_store = cryptoseal.make_keystore({"k": rogue_key})
        request = AuthnRequest(
            id=new_message_id(),
            issue_instant=NOW,
            issuer=EntityId(SP_ENTITY),
            acs_url="https://sp.internal.test/acs",
        )
        payload = xmlcodec.emit_authn_request(request)
        signature = cryptoseal.sign_element(payload, request.id, "k", rogue_store)
        signed = dataclasses.replace(request, signature=signature)
        body = _post_body(xmlcodec.emit_authn_request(signed))
        with pytest.raises(InvalidRequestSignature):
            fed.idp.handle_authn_request(body, session, NOW)


    def test_bad_signature_rejected_when_signing_is_not_promised(self, fed, session, rogue_key):
        sp_desc = build_sp_descriptor(
            SP_ENTITY,
            SP_BASE,
            fed.keys["sp-signing"].cert_b64,
            fed.keys["sp-encryption"].cert_b64,
        )
        role = dataclasses.replace(sp_desc.role, authn_requests_signed=False)
        sp_desc = dataclasses.replace(sp_desc, role=role)
        fed.idp.register_partner(xmlcodec.emit_metadata(sp_desc))
        request = AuthnRequest(
            id=new_message_id(),
            issue_instant=NOW,
            issuer=EntityId(SP_ENTITY),
            acs_url="https://sp.internal.test/acs",
        )
        body = _post_body(_signed_by(rogue_key, request, xmlcodec.emit_authn_request))
        with pytest.raises(InvalidRequestSignature):
            fed.idp.handle_authn_request(body, session, NOW)

    def test_signed_redirect_request_is_parsed_once(self, fed, session, monkeypatch):
        redirect, _ = fed.sp.build_authn_request("https://sp.internal.test/app", NOW)
        parsed: list[bytes] = []
        real_parse = xmlcodec.parse_xml

        def counting(data):
            parsed.append(data)
            return real_parse(data)

        monkeypatch.setattr(xmlcodec, "parse_xml", counting)
        fed.idp.handle_authn_request(redirect.url, session, NOW)
        assert parsed == [bindings.decode_redirect(redirect.url).message]

    @pytest.mark.parametrize("binding", ["redirect", "post"])
    def test_a_response_field_is_missing_field(self, fed, session, binding):
        redirect, _ = fed.sp.build_authn_request("https://sp.internal.test/app", NOW)
        message = bindings.decode_redirect(redirect.url).message
        sso = f"{IDP_BASE}/sso"
        if binding == "redirect":
            request_input = redirect.url.replace("SAMLRequest=", "SAMLResponse=")
        else:
            form = bindings.encode_post(message, "response", sso)
            request_input = bindings.serialize_post_body(form)
        with pytest.raises(bindings.MissingField, match="^SAMLRequest$"):
            fed.idp.handle_authn_request(request_input, session, NOW)

    def test_signature_over_another_id_is_wrong_reference(self, fed, session):
        redirect, _ = fed.sp.build_authn_request("https://sp.internal.test/app", NOW)
        message = bindings.decode_redirect(redirect.url).message
        request_id = xmlcodec.authn_request_from_element(xmlcodec.parse_xml(message)).id
        moved = message.replace(f'ID="{request_id}"'.encode(), b'ID="_elsewhere"', 1)
        with pytest.raises(InvalidRequestSignature, match="^WrongReference$"):
            fed.idp.handle_authn_request(_post_body(moved), session, NOW)


class TestArtifacts:
    def test_single_use(self, fed, session):
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        artifact = fed.idp.issue_artifact(response, SP_ENTITY)
        payload = _resolve(fed, NOW.plus(1), artifact.encode())
        assert payload == xmlcodec.emit_response(response)
        with pytest.raises(AlreadyConsumed):
            _resolve(fed, NOW.plus(2), artifact.encode())

    def test_expiry_after_retention(self, fed, session):
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        artifact = fed.idp.issue_artifact(response, SP_ENTITY)
        _resolve(fed, NOW.plus(299), artifact.encode())
        later = fed.idp.issue_artifact(response, SP_ENTITY)
        with pytest.raises(ArtifactExpired):
            _resolve(fed, NOW.plus(301), later.encode())

    def test_artifacts_name_the_local_resolution_endpoint(self, fed, session):
        endpoint = IndexedEndpoint(3, BINDING_SOAP, f"{IDP_BASE}/resolve-3", True)
        local = fed.idp.registry.local
        local = dataclasses.replace(
            local,
            role=dataclasses.replace(local.role, artifact_resolution_endpoints=(endpoint,)),
        )
        fed.idp.registry = dataclasses.replace(fed.idp.registry, local=local)
        fed.sp.register_partner(xmlcodec.emit_metadata(local))
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        first, second = fed.idp.issue_artifact_pair(response, SP_ENTITY)
        assert first.endpoint_index == second.endpoint_index == 3
        result = fed.sp.fetch_via_artifact([first.encode(), second.encode()], CLIENT_IP, NOW)
        assert result.ok, result.report.render()
        sent = [e for e in fed.trace if e.kind == "artifact_resolve"]
        assert [e.summary for e in sent] == [f"to {IDP_BASE}/resolve-3"]

    def test_no_local_resolution_endpoint_is_a_policy_violation(self, fed, session):
        local = fed.idp.registry.local
        local = dataclasses.replace(
            local, role=dataclasses.replace(local.role, artifact_resolution_endpoints=())
        )
        fed.idp.registry = dataclasses.replace(fed.idp.registry, local=local)
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        with pytest.raises(PolicyViolation, match="no artifact resolution endpoint"):
            fed.idp.issue_artifact(response, SP_ENTITY)
        assert len(fed.idp.artifacts) == 0

    def test_unknown_artifact(self, fed):
        stray = bindings.new_artifact(EntityId("mycompany:saml2.0"))
        with pytest.raises(UnknownArtifact):
            _resolve(fed, NOW, stray.encode())

    def test_wrong_source_id(self, fed, session):
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        artifact = fed.idp.issue_artifact(response, SP_ENTITY)
        foreign = dataclasses.replace(
            artifact, source_id=bindings.source_id_for(EntityId("someone:else"))
        )
        with pytest.raises(WrongSourceId):
            _resolve(fed, NOW, foreign.encode())

    def test_resolve_request_wire_shape(self, fed, session):
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        artifact = fed.idp.issue_artifact(response, SP_ENTITY)
        request = xmlcodec.emit_artifact_resolve(
            new_message_id(), NOW, EntityId(SP_ENTITY), (artifact.encode(),)
        )
        assert fed.idp.resolve_artifact(request, NOW.plus(1)) == xmlcodec.emit_response(response)

    def test_pair_contract(self, fed, session):
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        first, second = fed.idp.issue_artifact_pair(response, SP_ENTITY)
        with pytest.raises(IncompletePair):
            _resolve(fed, NOW, first.encode())
        other = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        third, fourth = fed.idp.issue_artifact_pair(other, SP_ENTITY)
        with pytest.raises(MismatchedPair):
            _resolve(fed, NOW, first.encode(), third.encode())
        assert _resolve(fed, NOW.plus(1), first.encode(), second.encode())
        with pytest.raises(AlreadyConsumed):
            _resolve(fed, NOW.plus(2), first.encode(), second.encode())

    @pytest.mark.parametrize("pair", [False, True], ids=["one", "pair"])
    def test_only_the_sp_it_was_issued_to_resolves(self, shared_keys, fed, session, pair):
        other = build_sp_descriptor("otherpartner:saml2.0", "https://other.internal.test",
                                    shared_keys["sp-signing"].cert_b64)
        fed.idp.register_partner(xmlcodec.emit_metadata(other))
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        if pair:
            artifacts = fed.idp.issue_artifact_pair(response, SP_ENTITY)
        else:
            artifacts = (fed.idp.issue_artifact(response, SP_ENTITY),)
        values = [a.encode() for a in artifacts]
        # an unregistered requester and another registered SP learn nothing,
        # and neither burns the artifact for the SP it was issued to
        for requester in ("someone:else", "otherpartner:saml2.0"):
            with pytest.raises(UnknownArtifact):
                _resolve(fed, NOW.plus(1), *values, issuer=requester)
        assert _resolve(fed, NOW.plus(2), *values) == xmlcodec.emit_response(response)

    def test_concurrent_resolution_is_exactly_once(self, fed, session):
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        artifact = fed.idp.issue_artifact(response, SP_ENTITY)
        outcomes: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(16)

        def attempt():
            barrier.wait()
            try:
                _resolve(fed, NOW.plus(1), artifact.encode())
                result = "ok"
            except AlreadyConsumed:
                result = "consumed"
            with lock:
                outcomes.append(result)

        threads = [threading.Thread(target=attempt) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("ok") == 1
        assert outcomes.count("consumed") == 15


class TestArtifactRetention:
    def test_artifact_issued_a_retention_earlier_is_dropped(self, fed, session):
        retention = fed.idp.registry.validity
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        old = fed.idp.issue_artifact(response, SP_ENTITY)
        first, second = fed.idp.issue_artifact_pair(response, SP_ENTITY)
        kept_response = fed.idp.issue_assertion(session, SP_ENTITY, NOW.plus(1))
        kept = fed.idp.issue_artifact(kept_response, SP_ENTITY)
        later = NOW.plus(retention)
        fresh = fed.idp.issue_artifact(fed.idp.issue_assertion(session, SP_ENTITY, later), SP_ENTITY)
        assert len(fed.idp.artifacts) == 2
        with pytest.raises(UnknownArtifact):
            _resolve(fed, later, old.encode())
        with pytest.raises(UnknownArtifact):
            _resolve(fed, later, first.encode(), second.encode())
        assert _resolve(fed, later, kept.encode()) == xmlcodec.emit_response(
            kept_response
        )
        assert _resolve(fed, later.plus(1), fresh.encode())

    def test_an_artifact_lives_as_long_as_its_assertion(self, fed, session):
        fed.idp.registry = dataclasses.replace(fed.idp.registry, validity=600)
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        first = fed.idp.issue_artifact(response, SP_ENTITY)
        second = fed.idp.issue_artifact(response, SP_ENTITY)
        assert _resolve(fed, NOW.plus(400), first.encode()) == xmlcodec.emit_response(response)
        with pytest.raises(ArtifactExpired):
            _resolve(fed, NOW.plus(600), second.encode())


class TestSingleLogout:
    def test_one_request_per_participating_sp(self, shared_keys, fed, session):
        # register a second service provider and issue to both
        other_desc = build_sp_descriptor(
            "otherpartner:saml2.0",
            "https://other.internal.test",
            shared_keys["sp-signing"].cert_b64,
            None,
            want_assertions_signed=False,
        )
        fed.idp.register_partner(xmlcodec.emit_metadata(other_desc))
        fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        participants = session.participating_sps
        # a repeat sign-on at the same SP leaves the participants as they are
        fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        assert session.participating_sps is participants
        fed.idp.issue_assertion(session, "otherpartner:saml2.0", NOW)
        assert session.participating_sps == {SP_ENTITY, "otherpartner:saml2.0"}

        forms = fed.idp.initiate_single_logout(session.session_index, NOW.plus(1))
        assert len(forms) == 2
        for form in forms:
            message = bindings.decode_post(bindings.serialize_post_body(form)).message
            request = xmlcodec.logout_request_from_element(xmlcodec.parse_xml(message))
            assert request.session_index == session.session_index

    def test_no_participants_terminates_immediately(self, fed):
        session = fed.idp.create_session("j.doe", CLIENT_IP, NOW)
        assert fed.idp.initiate_single_logout(session.session_index, NOW) == []
        assert session.session_index not in fed.idp.sessions
        # an ended session is unknown, like one that never existed
        with pytest.raises(UnknownSession):
            fed.idp.initiate_single_logout(session.session_index, NOW)

    def test_an_sp_without_single_logout_service_is_skipped(self, fed, session):
        sp_desc = fed.sp.registry.local
        sp_desc = dataclasses.replace(
            sp_desc, role=dataclasses.replace(sp_desc.role, single_logout_endpoints=())
        )
        fed.idp.register_partner(xmlcodec.emit_metadata(sp_desc))
        fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        assert fed.idp.initiate_single_logout(session.session_index, NOW.plus(1)) == []
        assert session.session_index not in fed.idp.sessions
        assert fed.idp.session_for_user("the.user") is None

    def test_session_for_user_is_the_oldest_live_one(self, fed):
        assert fed.idp.session_for_user("the.user") is None
        first = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        other = fed.idp.create_session("j.doe", CLIENT_IP, NOW)
        second = fed.idp.create_session("the.user", CLIENT_IP, NOW.plus(1))
        assert fed.idp.session_for_user("the.user") is first
        assert fed.idp.initiate_single_logout(first.session_index, NOW.plus(2)) == []
        assert fed.idp.session_for_user("the.user") is second
        assert fed.idp.session_for_user("j.doe") is other
        third = fed.idp.create_session("the.user", CLIENT_IP, NOW.plus(3))
        assert fed.idp.initiate_single_logout(second.session_index, NOW.plus(4)) == []
        assert fed.idp.session_for_user("the.user") is third
        assert fed.idp.initiate_single_logout(third.session_index, NOW.plus(6)) == []
        assert fed.idp.session_for_user("the.user") is None
        assert list(fed.idp.sessions) == [other.session_index]

    def test_unknown_session(self, fed):
        with pytest.raises(UnknownSession):
            fed.idp.initiate_single_logout("never-existed", NOW)

    def test_session_removed_after_all_responses(self, fed, session):
        fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        forms = fed.idp.initiate_single_logout(session.session_index, NOW.plus(1))
        assert session.session_index in fed.idp.sessions
        for form in forms:
            message = bindings.decode_post(bindings.serialize_post_body(form)).message
            response_bytes = fed.sp.handle_logout_request(message, NOW.plus(2))
            counted = fed.idp.handle_logout_response(response_bytes, NOW.plus(3))
            assert counted == session.session_index
        assert session.session_index not in fed.idp.sessions
        # a response already counted counts toward no session
        assert fed.idp.handle_logout_response(response_bytes, NOW.plus(4)) is None

    @staticmethod
    def _logout_request(fed, session):
        """Start logout of a session held at SP_ENTITY; its one LogoutRequest."""
        fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        (form,) = fed.idp.initiate_single_logout(session.session_index, NOW.plus(1))
        return bindings.decode_post(bindings.serialize_post_body(form)).message

    @staticmethod
    def _answer(issuer, message):
        request = xmlcodec.logout_request_from_element(xmlcodec.parse_xml(message))
        return LogoutResponse(
            id=new_message_id(),
            issue_instant=NOW.plus(2),
            issuer=EntityId(issuer),
            status=STATUS_SUCCESS,
            in_response_to=request.id,
        )

    def test_unsigned_response_in_a_signing_sps_name_is_refused(self, fed, session):
        message = self._logout_request(fed, session)
        forged = xmlcodec.emit_logout_response(self._answer(SP_ENTITY, message))
        with pytest.raises(SignatureRequired):
            fed.idp.handle_logout_response(forged, NOW.plus(2))
        assert session.session_index in fed.idp.sessions
        genuine = fed.sp.handle_logout_request(message, NOW.plus(3))
        assert fed.idp.handle_logout_response(genuine, NOW.plus(4)) == session.session_index
        assert session.session_index not in fed.idp.sessions

    def test_signed_response_from_another_sp_is_not_counted(self, fed, session, rogue_key):
        other = build_sp_descriptor("otherpartner:saml2.0", "https://other.internal.test",
                                    rogue_key.cert_b64)
        fed.idp.register_partner(xmlcodec.emit_metadata(other))
        message = self._logout_request(fed, session)
        answer = self._answer("otherpartner:saml2.0", message)
        wrong_sp = _signed_by(rogue_key, answer, xmlcodec.emit_logout_response)
        assert fed.idp.handle_logout_response(wrong_sp, NOW.plus(2)) is None
        assert session.session_index in fed.idp.sessions
        # the request is still pending: the SP it went to still ends the session
        genuine = fed.sp.handle_logout_request(message, NOW.plus(3))
        assert fed.idp.handle_logout_response(genuine, NOW.plus(4)) == session.session_index
        assert session.session_index not in fed.idp.sessions

    def test_a_new_round_replaces_the_last(self, fed, session):
        first = self._logout_request(fed, session)
        (form,) = fed.idp.initiate_single_logout(session.session_index, NOW.plus(2))
        second = bindings.decode_post(bindings.serialize_post_body(form)).message
        old = fed.sp.handle_logout_request(first, NOW.plus(3))
        new = fed.sp.handle_logout_request(second, NOW.plus(3))
        assert fed.idp.handle_logout_response(old, NOW.plus(4)) is None
        assert session.session_index in fed.idp.sessions
        assert fed.idp.handle_logout_response(new, NOW.plus(4)) == session.session_index
        assert session.session_index not in fed.idp.sessions
        assert fed.idp._pending_logouts == {}
        # a later answer to the first round counts toward nothing
        assert fed.idp.handle_logout_response(old, NOW.plus(5)) is None


def decrypt_and_parse(fed, response):
    if isinstance(response.assertion, EncryptedAssertion):
        alias = fed.sp.registry.encryption_alias
        return xmlcodec.parse_assertion(decrypt_assertion(response.assertion, alias, fed.sp.store))
    return response.assertion


class TestIssuedWindowsProperty:
    @pytest.mark.parametrize("validity", [60, 300, 1200])
    def test_duration_equals_configured_validity(self, shared_keys, validity):
        fed = SimulatedFederation(keys=shared_keys)
        fed.idp.registry = dataclasses.replace(fed.idp.registry, validity=validity)
        session = fed.idp.create_session("the.user", CLIENT_IP, NOW)
        response = fed.idp.issue_assertion(session, SP_ENTITY, NOW)
        assertion = decrypt_and_parse(fed, response)
        window = assertion.conditions
        assert window.not_before < window.not_on_or_after
        assert window.not_on_or_after.epoch - window.not_before.epoch == validity
