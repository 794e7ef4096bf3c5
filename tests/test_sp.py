import sys
import threading

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from samlforge import bindings
from samlforge.core import Instant
from samlforge.harness.scenarios import (
    CLIENT_IP,
    IDP_BASE,
    IDP_ENTITY,
    LANDING_URL,
    SIM_EPOCH,
    SP_ENTITY,
    SimulatedFederation,
)
from samlforge.sp import PIPELINE_STEPS, ReplayCache, NoIdpRegistered

NOW = SIM_EPOCH


@pytest.fixture
def fed(shared_keys):
    return SimulatedFederation(encrypt=True, keys=shared_keys)


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
        import re

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

    def test_mangled_signature_namespace_cannot_strip_the_signature(self, fed):
        # One bit flipped inside the xmldsig namespace URI turns the response
        # signature into preserved-opaque foreign content; the consumer must
        # not treat that as "legitimately unsigned".
        body = issue_body(fed)
        decoded = bindings.decode_post(body)
        mangled = decoded.message.replace(
            b"http://www.w3.org/2000/09/xmldsig#", b"http://www.w3.org/r000/09/xmldsig#", 1
        )
        assert mangled != decoded.message
        tampered = bindings.serialize_post_body(
            bindings.encode_post(mangled, "response", fed.sp.acs_url)
        )
        result = fed.sp.consume(tampered, CLIENT_IP, NOW.plus(1))
        assert result.report.failed_step == "signature"
        assert "unauthenticated" in result.report.checks[-1].detail

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


class TestRelayState:
    def test_issued_token_resolves_once(self, fed):
        _, token = fed.sp.build_authn_request("https://sp.internal.test/deep", NOW)
        assert fed.sp.resolve_relay_state(token) == "https://sp.internal.test/deep"
        # single use: the second resolution downgrades to the landing page
        assert fed.sp.resolve_relay_state(token) == LANDING_URL

    def test_absent_token_lands_home(self, fed):
        assert fed.sp.resolve_relay_state(None) == LANDING_URL

    def test_unissued_token_never_redirects(self, fed):
        assert fed.sp.resolve_relay_state("../../evil") == LANDING_URL
        assert fed.sp.resolve_relay_state("https://evil.example") == LANDING_URL

    def test_only_configured_or_issued_urls_are_returned(self, fed):
        issued = {}
        for i in range(20):
            url = f"https://sp.internal.test/page/{i}"
            _, token = fed.sp.build_authn_request(url, NOW)
            issued[token] = url
        for token, url in issued.items():
            assert fed.sp.resolve_relay_state(token) in (url, LANDING_URL)


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
        from samlforge.xmlcodec import parse_authn_request

        assert parse_authn_request(m1).id != parse_authn_request(m2).id

    def test_request_is_signed_per_local_metadata(self, fed):
        redirect, _ = fed.sp.build_authn_request("https://sp.internal.test/app", NOW)
        from samlforge.xmlcodec import parse_authn_request

        request = parse_authn_request(bindings.decode_redirect(redirect.url).message)
        assert request.signature is not None
        assert request.signature.certificate == b""  # resolved from metadata

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
