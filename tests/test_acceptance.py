"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).
Budgets are asserted, not aspirational.
"""

import dataclasses
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import oracles
from samlforge import bindings, cryptoseal, xmlcodec
from samlforge.core import (
    ATTRNAME_FORMAT_BASIC,
    BEARER_METHOD,
    Assertion,
    Attribute,
    AuthnStatement,
    Conditions,
    EncryptedAssertion,
    EntityId,
    Instant,
    Outcome,
    Subject,
    SubjectConfirmation,
    evaluate_window,
)
from samlforge.federation import register_partner
from samlforge.harness.scenarios import (
    CLIENT_IP,
    SIM_EPOCH,
    SP_ENTITY,
    Scenario,
    SimulatedFederation,
    run_scenario,
)
from samlforge.idp import AlreadyConsumed, IncompletePair, MismatchedPair
from samlforge.sp import SpEngine


def _timed(budget_seconds):
    """Context manager asserting the block stays inside its runtime budget."""

    class Timer:
        def __enter__(self):
            self.started = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            self.elapsed = time.monotonic() - self.started
            if exc_type is None:
                assert self.elapsed < budget_seconds, (
                    f"runtime {self.elapsed:.2f}s exceeds the {budget_seconds}s budget"
                )

    return Timer()


def test_criterion_1_metadata_fidelity(idp_metadata_bytes, sp_metadata_bytes):
    with _timed(1.0) as timer:
        idp_entity = xmlcodec.parse_metadata(idp_metadata_bytes)
        assert idp_entity.role.want_authn_requests_signed is False

        sp_entity = xmlcodec.parse_metadata(sp_metadata_bytes)
        role = sp_entity.role
        assert role.authn_requests_signed is True
        assert role.want_assertions_signed is True
        assert len(role.acs_endpoints) == 2
        assert role.encryption_keys[0].key_size == 128

        for first in (idp_entity, sp_entity):
            assert xmlcodec.parse_metadata(xmlcodec.emit_metadata(first)) == first
    print(f"\nACCEPTANCE 1 PASS: metadata fidelity ({timer.elapsed:.2f}s)")


def test_criterion_2_assertion_fidelity(sample_response_bytes):
    with _timed(1.0) as timer:
        response = xmlcodec.parse_response(sample_response_bytes)
        assertion = response.assertion
        assert [(a.name, a.values[0]) for a in assertion.attributes] == [
            ("clientId", "1234"),
            ("uid", "the.user@mycompany.com"),
        ]
        assert assertion.authn_statement.locality_address == "192.168.0.189"
        stamps = {
            response.issue_instant.isoformat(),
            assertion.issue_instant.isoformat(),
            assertion.conditions.not_before.isoformat(),
            assertion.conditions.not_on_or_after.isoformat(),
            assertion.subject.confirmation.not_on_or_after.isoformat(),
            assertion.authn_statement.authn_instant.isoformat(),
        }
        assert stamps == {
            "2009-04-22T12:33:36Z",
            "2009-04-22T12:28:36Z",
            "2009-04-22T12:43:36Z",
            "2009-04-22T12:33:20Z",
        }

        # field-for-field round trip
        assert xmlcodec.parse_response(xmlcodec.emit_response(response)) == response

        window = assertion.conditions
        inside = evaluate_window(
            window.not_before, window.not_on_or_after, Instant.parse("2009-04-22T12:30:00Z"), 0
        )
        at_bound = evaluate_window(
            window.not_before, window.not_on_or_after, Instant.parse("2009-04-22T12:33:36Z"), 0
        )
        assert inside.outcome is Outcome.VALID
        assert at_bound.outcome is Outcome.EXPIRED
    print(f"\nACCEPTANCE 2 PASS: assertion fidelity ({timer.elapsed:.2f}s)")


def test_criterion_3_end_to_end_flows(shared_keys, idp_metadata_bytes, sp_metadata_bytes):
    with _timed(5.0) as timer:
        # the sample SP metadata asks for signed and sealed assertions
        fed = SimulatedFederation(encrypt=True, keys=shared_keys)
        probe = register_partner(
            dataclasses.replace(fed.idp.registry, partners={}), sp_metadata_bytes
        )
        sample_role = probe.partner("mypartner:saml2.0").descriptor.role
        assert sample_role.want_assertions_signed and sample_role.encryption_keys
        live_role = fed.idp.registry.partner(SP_ENTITY).descriptor.role
        assert live_role.want_assertions_signed and live_role.encryption_keys

        record = fed.source.lookup("the.user")

        idp_result = run_scenario(
            Scenario(name="idp", flow="idp_initiated", encrypt=True), keys=shared_keys
        )
        sp_result = run_scenario(
            Scenario(name="sp", flow="sp_initiated", encrypt=True), keys=shared_keys
        )
        assert idp_result.actual == "success", idp_result.actual
        assert sp_result.actual == "success", sp_result.actual

        # on the wire the assertion is sealed and the Response, signed over
        # the sealed bytes, carries the one signature
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        response = fed.idp.issue_assertion(session, SP_ENTITY, SIM_EPOCH)
        assert response.signature is not None
        assert isinstance(response.assertion, EncryptedAssertion)
        assert len(re.findall(rb"<ds:Signature[ >]", xmlcodec.emit_response(response))) == 1
        plain = cryptoseal.decrypt_assertion(
            response.assertion, fed.sp.registry.encryption_alias, fed.sp.store
        )
        assert b"<ds:Signature " not in plain
        unsealed = xmlcodec.parse_assertion(plain)
        assert unsealed.subject.name_id == record.name_id
        assert unsealed.attributes == record.attributes
    print(f"\nACCEPTANCE 3 PASS: end-to-end flows ({timer.elapsed:.2f}s)")


FAULT_MATRIX = [
    ("tamper_signature", "signature"),
    ("strip_signature", "signature"),
    ("expire_window", "window"),
    ("not_yet_valid", "window"),
    ("wrong_audience", "audience"),
    ("wrong_recipient", "bearer"),
    ("wrong_destination", "destination"),
    ("replay_assertion", "replay"),
    ("wrong_locality", "locality"),
]


def test_criterion_4_security_fault_matrix(shared_keys):
    with _timed(30.0) as timer:
        # every fault lands on exactly its designated step, never earlier
        for fault, step in FAULT_MATRIX:
            result = run_scenario(
                Scenario(
                    name=fault,
                    flow="idp_initiated",
                    faults=(fault,),
                    expect=f"fail:{step}",
                ),
                keys=shared_keys,
            )
            assert result.actual == f"fail:{step}", (fault, result.actual)
            report = result.report
            assert report is not None and report.failed_step == step
            assert all(c.ok for c in report.checks[:-1]), fault

        # randomized single-byte mutations: zero false acceptances
        rng = random.Random(20090422)
        trials = 1000
        false_acceptances = 0
        plain_fed = SimulatedFederation(keys=shared_keys)
        sealed_fed = SimulatedFederation(encrypt=True, keys=shared_keys)
        bodies = []
        for fed in (plain_fed, sealed_fed):
            session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
            response = fed.idp.issue_assertion(session, SP_ENTITY, SIM_EPOCH)
            bodies.append((fed, xmlcodec.emit_response(response)))

        for trial in range(trials):
            fed, original = bodies[trial % 2]
            mutated = bytearray(original)
            position = rng.randrange(len(mutated))
            flip = 1 << rng.randrange(8)
            mutated[position] ^= flip
            if bytes(mutated) == original:
                continue
            body = bindings.serialize_post_body(
                bindings.encode_post(bytes(mutated), "response", fed.sp.acs_url)
            )
            # a fresh consumer so the replay cache cannot mask the mutation
            consumer = SpEngine(
                fed.sp.registry,
                fed.sp.store,
                landing_url=fed.sp.landing_url,
                locality_check=True,
            )
            result = consumer.consume(body, CLIENT_IP, SIM_EPOCH.plus(1))
            if result.ok:
                # only acceptable if the flip was semantically invisible
                reparsed = xmlcodec.emit_response(xmlcodec.parse_response(bytes(mutated)))
                if reparsed != original:
                    false_acceptances += 1
        assert false_acceptances == 0
    print(
        f"\nACCEPTANCE 4 PASS: fault matrix + {trials} mutation trials, "
        f"0 false acceptances ({timer.elapsed:.2f}s)"
    )


def test_criterion_5_replay_window_boundaries(shared_keys):
    with _timed(5.0) as timer:
        fed = SimulatedFederation(keys=shared_keys)  # validity 300, skew 0
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH)
        body = bindings.serialize_post_body(form)

        accepted = fed.sp.consume(body, CLIENT_IP, SIM_EPOCH.plus(1))
        assert accepted.ok

        inside = fed.sp.consume(body, CLIENT_IP, SIM_EPOCH.plus(299))
        assert inside.report.failed_step == "replay"

        outside = fed.sp.consume(body, CLIENT_IP, SIM_EPOCH.plus(301))
        assert outside.report.failed_step == "window"
    print(f"\nACCEPTANCE 5 PASS: replay window boundaries ({timer.elapsed:.2f}s)")


def _resolve(fed, now, *values):
    """Resolve artifact values through an ArtifactResolve from the SP."""
    request = xmlcodec.emit_artifact_resolve("_resolver", now, EntityId(SP_ENTITY), values)
    return fed.idp.resolve_artifact(request, now)


def test_criterion_6_artifact_profile(shared_keys):
    with _timed(10.0) as timer:
        fed = SimulatedFederation(keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)

        # exactly-once under 100 concurrent resolution attempts
        response = fed.idp.issue_assertion(session, SP_ENTITY, SIM_EPOCH)
        artifact = fed.idp.issue_artifact(response, SP_ENTITY)
        request = xmlcodec.emit_artifact_resolve(
            "_resolver", SIM_EPOCH, EntityId(SP_ENTITY), (artifact.encode(),)
        )

        def resolve(_):
            try:
                fed.idp.resolve_artifact(request, SIM_EPOCH.plus(1))
                return "ok"
            except AlreadyConsumed:
                return "consumed"

        with ThreadPoolExecutor(max_workers=100) as pool:
            outcomes = list(pool.map(resolve, range(100)))
        assert outcomes.count("ok") == 1
        assert outcomes.count("consumed") == 99

        # pair mode: no single token and no cross-pair combination resolves
        first_response = fed.idp.issue_assertion(session, SP_ENTITY, SIM_EPOCH)
        second_response = fed.idp.issue_assertion(session, SP_ENTITY, SIM_EPOCH)
        a1, a2 = fed.idp.issue_artifact_pair(first_response, SP_ENTITY)
        b1, b2 = fed.idp.issue_artifact_pair(second_response, SP_ENTITY)

        for lone in (a1, a2, b1, b2):
            with pytest.raises(IncompletePair):
                _resolve(fed, SIM_EPOCH.plus(1), lone.encode())
        for left, right in [(a1, b1), (a1, b2), (a2, b1), (a2, b2)]:
            with pytest.raises(MismatchedPair):
                _resolve(fed, SIM_EPOCH.plus(1), left.encode(), right.encode())

        assert _resolve(fed, SIM_EPOCH.plus(1), a1.encode(), a2.encode())
        with pytest.raises(AlreadyConsumed):
            _resolve(fed, SIM_EPOCH.plus(2), a1.encode(), a2.encode())
    print(f"\nACCEPTANCE 6 PASS: artifact profile ({timer.elapsed:.2f}s)")


def test_criterion_7_single_logout(shared_keys):
    with _timed(2.0) as timer:
        fed = SimulatedFederation(keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH)
        consumed = fed.sp.consume(
            bindings.serialize_post_body(form), CLIENT_IP, SIM_EPOCH.plus(1)
        )
        assert consumed.ok
        session_index = consumed.session.session_index
        assert fed.sp.live_sessions(session_index)

        forms = fed.idp.initiate_single_logout(session_index, SIM_EPOCH.plus(2))
        assert len(forms) == 1
        message = bindings.decode_post(bindings.serialize_post_body(forms[0])).message
        response_bytes = fed.sp.handle_logout_request(message, SIM_EPOCH.plus(3))
        fed.idp.handle_logout_response(response_bytes, SIM_EPOCH.plus(4))

        assert fed.sp.live_sessions(session_index) == ()
        assert session_index not in fed.idp.sessions

        # replaying the logout request is a Success no-op
        replayed = fed.sp.handle_logout_request(message, SIM_EPOCH.plus(5))
        assert xmlcodec.parse_logout_response(replayed).status.endswith(":Success")
    print(f"\nACCEPTANCE 7 PASS: single logout ({timer.elapsed:.2f}s)")


def test_criterion_8_codec_robustness(
    shared_keys, sample_response_bytes, idp_metadata_bytes, sp_metadata_bytes
):
    from samlforge.core import SamlError

    with _timed(60.0) as timer:
        rng = random.Random(0xFEDE)
        fed = SimulatedFederation(keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH)
        valid_body = bindings.serialize_post_body(form)
        valid_redirect, _ = fed.sp.build_authn_request("https://sp.internal.test/x", SIM_EPOCH)
        valid_artifact = bindings.new_artifact(EntityId("mycompany:saml2.0")).encode()
        seeds = [
            sample_response_bytes,
            idp_metadata_bytes,
            sp_metadata_bytes,
            valid_body,
            valid_redirect.url.encode(),
            valid_artifact.encode(),
        ]

        def scramble() -> bytes:
            choice = rng.randrange(3)
            if choice == 0:
                return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            base = bytearray(rng.choice(seeds))
            if choice == 1 and base:
                for _ in range(rng.randrange(1, 6)):
                    base[rng.randrange(len(base))] = rng.randrange(256)
                return bytes(base)
            cut = rng.randrange(len(base) + 1)
            return bytes(base[:cut])

        iterations = 10_000
        for _ in range(iterations):
            blob = scramble()
            text = blob.decode("utf-8", errors="replace")
            for target in (
                xmlcodec.parse_response,
                xmlcodec.parse_metadata,
                bindings.decode_post,
            ):
                try:
                    target(blob)
                except SamlError:
                    pass
            try:
                bindings.decode_redirect(text)
            except SamlError:
                pass
            try:
                bindings.parse_artifact(text)
            except SamlError:
                pass
    print(
        f"\nACCEPTANCE 8 PASS: {iterations} fuzz iterations over five parsers, "
        f"no crashes ({timer.elapsed:.2f}s)"
    )


def test_criterion_9_signature_cross_check(shared_keys):
    with _timed(30.0) as timer:
        rng = random.Random(0x51)
        store = cryptoseal.make_keystore({"signing": shared_keys["idp-signing"]})
        trusting = store.with_trust_anchors(
            EntityId("mycompany:saml2.0"), signing=(shared_keys["idp-signing"].cert_der,)
        )
        numbers = shared_keys["idp-signing"].private_key.private_numbers()
        point = (numbers.public_numbers.x, numbers.public_numbers.y)

        for i in range(50):
            token = "%032x" % rng.getrandbits(128)
            assertion = Assertion(
                id="_" + token,
                issue_instant=SIM_EPOCH,
                issuer="mycompany:saml2.0",
                subject=Subject(
                    name_id=f"user{i}@mycompany.com",
                    confirmation=SubjectConfirmation(
                        BEARER_METHOD, SIM_EPOCH.plus(900), "https://sp.internal.test/acs"
                    ),
                ),
                conditions=Conditions(SIM_EPOCH, SIM_EPOCH.plus(300), (EntityId(SP_ENTITY),)),
                authn_statement=AuthnStatement(SIM_EPOCH, session_index=token[:12]),
                attributes=(
                    Attribute("seq", (str(i),), "seq", ATTRNAME_FORMAT_BASIC),
                ),
            )
            payload = xmlcodec.emit_assertion(assertion)

            # produced here, verified by arithmetic
            signature = cryptoseal.sign_element(payload, assertion.id, "signing", store)
            message = cryptoseal.signed_info_bytes(
                signature.reference_id, signature.digest_value
            )
            assert oracles.ecdsa_verify(message, signature.signature_value, point), i

            # produced by arithmetic, verified here; RFC 6979 makes both the same bytes
            independent = dataclasses.replace(
                signature, signature_value=oracles.ecdsa_sign(message, numbers.private_value)
            )
            assert independent == signature, i
            result = cryptoseal.verify_signature(
                payload, independent, EntityId("mycompany:saml2.0"), trusting
            )
            assert result.accepted, (i, result.reason)
    print(f"\nACCEPTANCE 9 PASS: 50-document signature cross-check ({timer.elapsed:.2f}s)")
