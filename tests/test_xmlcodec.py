import dataclasses
import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracles
import strategies as strat
from samlforge.core import (
    AuthnRequest,
    EntityId,
    Instant,
    LogoutRequest,
    LogoutResponse,
    Response,
    SamlError,
    STATUS_RESPONDER,
    STATUS_SUCCESS,
)
from samlforge.harness.scenarios import SimulatedFederation
from samlforge.xmlcodec import (
    BINDING_HTTP_ARTIFACT,
    BINDING_HTTP_POST,
    NS_ASSERTION,
    NS_PROTOCOL,
    BadTimestamp,
    DuplicateDefaultAcs,
    IdpSsoDescriptor,
    MAX_DEPTH,
    MalformedXml,
    MissingRequiredElement,
    NOT_EMITTED_BYTES,
    SpSsoDescriptor,
    UnknownRole,
    XmlElement,
    authn_request_from_element,
    canonicalize,
    emit_assertion,
    emit_artifact_resolve,
    emit_authn_request,
    emit_logout_request,
    emit_logout_response,
    emit_metadata,
    emit_response,
    parse_artifact_resolve,
    parse_assertion,
    logout_request_from_element,
    parse_logout_response,
    parse_metadata,
    parse_response,
    parse_xml,
    pretty,
)

CORPUS = Path(__file__).parent / "corpus"


class TestCanonicalForm:
    def test_attribute_order_is_normalized(self):
        one = oracles.element(NS_ASSERTION, "Thing", {"b": "2", "a": "1"})
        other = oracles.element(NS_ASSERTION, "Thing", {"a": "1", "b": "2"})
        assert canonicalize(one) == canonicalize(other)

    def test_namespace_declared_on_first_use(self):
        inner = oracles.element("urn:other", "Inner")
        outer = oracles.element(NS_ASSERTION, "Outer", children=[inner])
        raw = canonicalize(outer)
        assert b'<saml:Outer xmlns:saml="urn:oasis:names:tc:SAML:2.0:assertion">' in raw
        assert b'<ns0:Inner xmlns:ns0="urn:other"/>' in raw

    def test_text_is_escaped(self):
        raw = canonicalize(oracles.element(NS_ASSERTION, "T", text='x & <y> "q"'))
        assert b"&amp;" in raw and b"&lt;" in raw and b'"q"' in raw

    def test_attr_newlines_are_preserved_via_char_refs(self):
        raw = canonicalize(oracles.element(NS_ASSERTION, "T", {"a": "line1\nline2"}))
        parsed = parse_xml(raw)
        assert parsed.attr("a") == "line1\nline2"

    def test_doctype_rejected(self):
        with pytest.raises(MalformedXml):
            parse_xml(b'<!DOCTYPE foo [<!ENTITY a "b">]><x xmlns="urn:x">&a;</x>')

    @pytest.mark.parametrize(
        "raw",
        [
            (
                '<?xml version="1.0" encoding="UTF-16"?><!DOCTYPE r [<!ENTITY x "INJECTED">]>'
                f'<saml:Issuer xmlns:saml="{NS_ASSERTION}">&x;</saml:Issuer>'
            ).encode("utf-16"),
            f'<saml:Issuer xmlns:saml="{NS_ASSERTION}">x</saml:Issuer>'.encode("utf-16-le"),
            f'<saml:Issuer xmlns:saml="{NS_ASSERTION}">x</saml:Issuer>'.encode("utf-16-be"),
            (
                '<?xml version="1.0" encoding="ISO-8859-1"?>'
                f'<saml:Issuer xmlns:saml="{NS_ASSERTION}">\xe9</saml:Issuer>'
            ).encode("latin-1"),
        ],
        ids=["utf16-dtd", "utf16le-no-bom", "utf16be-no-bom", "latin1"],
    )
    def test_non_utf8_document_rejected(self, raw):
        with pytest.raises(MalformedXml, match="not UTF-8"):
            parse_xml(raw)

    def test_pretty_rejects_what_canonicalize_rejects(self):
        with pytest.raises(MalformedXml):
            pretty(parse_xml(b"<a><b>t</b></a>"))

    def test_nesting_is_bounded(self):
        def nested(levels):
            return b'<f:x xmlns:f="urn:x">' * levels + b"</f:x>" * levels

        assert parse_xml(nested(MAX_DEPTH)).local == "x"
        for levels in (MAX_DEPTH + 1, 2_000):
            with pytest.raises(MalformedXml, match="nest deeper"):
                parse_xml(nested(levels))

    def test_mixed_content_rejected(self):
        with pytest.raises(MalformedXml):
            parse_xml(b'<a xmlns="urn:x">text<b/></a>')

    def test_unprefixed_element_rejected_at_emit(self):
        with pytest.raises(MalformedXml):
            canonicalize(oracles.element("", "Bare"))

    @given(st.binary(max_size=400))
    def test_parse_total_over_arbitrary_bytes(self, raw):
        try:
            parse_xml(raw)
        except MalformedXml:
            pass

    @given(strat.assertions)
    @settings(max_examples=100)
    def test_canonical_fixed_point(self, assertion):
        first = emit_assertion(assertion)
        assert canonicalize(parse_xml(first)) == first


class TestAssertionCodec:
    @given(strat.assertions)
    @settings(max_examples=200)
    def test_round_trip_field_equality(self, assertion):
        assert parse_assertion(emit_assertion(assertion)) == assertion

    @given(strat.assertions)
    @settings(max_examples=50)
    def test_byte_determinism(self, assertion):
        assert emit_assertion(assertion) == emit_assertion(assertion)

    def test_attribute_order_matches_input(self, sample_response_bytes):
        assertion = parse_response(sample_response_bytes).assertion
        raw = emit_assertion(assertion)
        assert raw.index(b'Name="clientId"') < raw.index(b'Name="uid"')

    def test_empty_attribute_list_omits_statement(self, sample_response_bytes):
        assertion = parse_response(sample_response_bytes).assertion
        import dataclasses

        bare = dataclasses.replace(assertion, attributes=())
        assert b"AttributeStatement" not in emit_assertion(bare)

    def test_missing_subject_reported_by_name(self, sample_response_bytes):
        assertion = parse_response(sample_response_bytes).assertion
        elem = parse_xml(emit_assertion(assertion))
        pruned = XmlElement(
            elem.ns,
            elem.local,
            elem.attrs,
            tuple(c for c in elem.children if c.local != "Subject"),
            elem.text,
        )
        with pytest.raises(MissingRequiredElement) as excinfo:
            parse_assertion(canonicalize(pruned))
        assert excinfo.value.name == "Subject"

    def test_timestamp_without_utc_marker_rejected(self, sample_response_bytes):
        mangled = sample_response_bytes.replace(
            b'IssueInstant="2009-04-22T12:33:36Z"', b'IssueInstant="2009-04-22T12:33:36"'
        )
        with pytest.raises(BadTimestamp):
            parse_response(mangled)

    def test_unknown_saml_element_rejected(self):
        raw = (
            b'<saml:Assertion xmlns:saml="urn:oasis:names:tc:SAML:2.0:assertion" '
            b'ID="x" IssueInstant="2009-04-22T12:33:36Z" Version="2.0">'
            b"<saml:Surprise/></saml:Assertion>"
        )
        with pytest.raises(MalformedXml):
            parse_assertion(raw)

    def test_foreign_element_is_refused(self, sample_response_bytes):
        # The children of an assertion are a closed set: an element in any
        # other namespace is refused, not kept where a wrapped copy could hide.
        raw = sample_response_bytes.replace(
            b"<saml:AttributeStatement>",
            b'<x:Extra xmlns:x="urn:elsewhere">ok</x:Extra><saml:AttributeStatement>',
        )
        assert parse_xml(raw).find("Assertion", NS_ASSERTION).find("Extra", "urn:elsewhere")
        with pytest.raises(MalformedXml, match=r"^unexpected element <Extra> inside <Assertion>$"):
            parse_response(raw)


class TestResponseCodec:
    def test_sample_document_fields(self, sample_response_bytes):
        response = parse_response(sample_response_bytes)
        assert response.id == "ad58514ea9365e51c382218fea"
        assert response.destination == "https://mypartner.com/metaAlias/sp"
        assert response.status.endswith(":Success")
        assert response.issuer == "http://login.mycompany.com/mypartner"
        assertion = response.assertion
        assert assertion.id == "1234"
        assert [a.name for a in assertion.attributes] == ["clientId", "uid"]
        assert assertion.attributes[0].values == ("1234",)
        assert assertion.attributes[1].values == ("the.user@mycompany.com",)
        assert assertion.authn_statement.locality_address == "192.168.0.189"
        assert assertion.authn_statement.locality_dns == "myserver.mycompany.com"
        assert assertion.authn_statement.session_index == "ccda16bc322adf4f74d556bd"

    def test_sample_document_timestamps(self, sample_response_bytes):
        response = parse_response(sample_response_bytes)
        assertion = response.assertion
        assert response.issue_instant == Instant.parse("2009-04-22T12:33:36Z")
        assert assertion.issue_instant == Instant.parse("2009-04-22T12:33:36Z")
        assert assertion.conditions.not_before == Instant.parse("2009-04-22T12:28:36Z")
        assert assertion.conditions.not_on_or_after == Instant.parse("2009-04-22T12:33:36Z")
        assert assertion.subject.confirmation.not_on_or_after == Instant.parse(
            "2009-04-22T12:43:36Z"
        )
        assert assertion.authn_statement.authn_instant == Instant.parse("2009-04-22T12:33:20Z")

    def test_failure_response_without_assertion_round_trips(self):
        response = Response(
            id="_f00",
            issue_instant=Instant.parse("2009-04-22T12:33:36Z"),
            issuer="mycompany:saml2.0",
            destination="https://mypartner.com/metaAlias/sp",
            status=STATUS_RESPONDER,
        )
        assert parse_response(emit_response(response)) == response

    @given(strat.responses)
    @settings(max_examples=200)
    def test_round_trip_field_equality(self, response):
        assert parse_response(emit_response(response)) == response

    @given(strat.responses)
    @settings(max_examples=50)
    def test_emit_parse_emit_is_byte_stable(self, response):
        first = emit_response(response)
        assert emit_response(parse_response(first)) == first


class TestRequestAndLogoutCodec:
    @given(strat.authn_requests)
    @settings(max_examples=200)
    def test_authn_request_round_trip(self, request):
        assert authn_request_from_element(parse_xml(emit_authn_request(request))) == request

    @given(strat.logout_requests)
    @settings(max_examples=100)
    def test_logout_request_round_trip(self, request):
        assert logout_request_from_element(parse_xml(emit_logout_request(request))) == request

    @given(strat.logout_responses)
    @settings(max_examples=100)
    def test_logout_response_round_trip(self, response):
        assert parse_logout_response(emit_logout_response(response)) == response

    def test_session_index_value_round_trips(self):
        from samlforge.core import EntityId, LogoutRequest

        request = LogoutRequest(
            id="_1",
            issue_instant=Instant.parse("2009-04-22T12:33:36Z"),
            issuer=EntityId("mycompany:saml2.0"),
            name_id="the.user@mycompany.com",
            session_index="ccda16bc322adf4f74d556bd",
        )
        parsed = logout_request_from_element(parse_xml(emit_logout_request(request)))
        assert parsed.session_index == "ccda16bc322adf4f74d556bd"


class TestMetadataCodec:
    def test_idp_sample_flags(self, idp_metadata_bytes):
        entity = parse_metadata(idp_metadata_bytes)
        assert entity.entity_id.value == "mycompany:saml2.0"
        assert entity.document_id == "MyCompany"
        role = entity.role
        assert isinstance(role, IdpSsoDescriptor)
        assert role.want_authn_requests_signed is False
        assert role.sso_endpoints == (
            __import__("samlforge.xmlcodec", fromlist=["Endpoint"]).Endpoint(
                BINDING_HTTP_POST, "http://mycompany.com/sso/SSO"
            ),
        )
        # metadata is read as written; the sealing algorithm is fixed
        assert role.encryption_keys[0].algorithm == "http://www.w3.org/2001/04/xmlenc#aes128-cbc"
        assert role.signing_certs == ("CERTIFICATE",)
        assert entity.organization.url_lang == "en-s"  # tolerated as-is

    def test_sp_sample_flags(self, sp_metadata_bytes):
        entity = parse_metadata(sp_metadata_bytes)
        assert entity.entity_id.value == "mypartner:saml2.0"
        role = entity.role
        assert isinstance(role, SpSsoDescriptor)
        assert role.authn_requests_signed is True
        assert role.want_assertions_signed is True
        assert len(role.acs_endpoints) == 2
        default = role.default_acs()
        assert default.index == 0 and default.binding == BINDING_HTTP_POST
        assert role.acs_endpoints[1].binding == BINDING_HTTP_ARTIFACT
        assert role.encryption_keys[0].key_size == 128
        assert role.name_id_formats == ("urn:oasis:names:tc:SAML:2.0:nameid-format:transient",)

    @pytest.mark.parametrize("corpus", ["idp_metadata.xml", "sp_metadata.xml"])
    def test_parse_emit_parse_is_stable(self, corpus_dir, corpus):
        first = parse_metadata((corpus_dir / corpus).read_bytes())
        again = parse_metadata(emit_metadata(first))
        assert first == again

    @pytest.mark.parametrize("corpus", ["idp_metadata.xml", "sp_metadata.xml"])
    def test_canonicalization_is_idempotent_on_corpus(self, corpus_dir, corpus):
        elem = parse_xml((corpus_dir / corpus).read_bytes())
        once = canonicalize(elem)
        assert canonicalize(parse_xml(once)) == once

    def test_two_default_acs_rejected(self, sp_metadata_bytes):
        doubled = sp_metadata_bytes.replace(b'index="1"', b'index="1"\n  isDefault="true"')
        with pytest.raises(DuplicateDefaultAcs):
            parse_metadata(doubled)

    def test_missing_role_rejected(self):
        raw = b'<md:EntityDescriptor xmlns:md="urn:oasis:names:tc:SAML:2.0:metadata" entityID="x"/>'
        with pytest.raises(UnknownRole):
            parse_metadata(raw)

    def test_unknown_binding_rejected(self, idp_metadata_bytes):
        bad = idp_metadata_bytes.replace(b"bindings:HTTP-POST", b"bindings:HTTP-CARRIER-PIGEON")
        with pytest.raises(MalformedXml):
            parse_metadata(bad)

    @given(strat.entity_descriptors)
    @settings(max_examples=150)
    def test_round_trip_field_equality(self, entity):
        assert parse_metadata(emit_metadata(entity)) == entity

    def test_urn_constants_survive_verbatim(self, sp_metadata_bytes, idp_metadata_bytes):
        for raw in (sp_metadata_bytes, idp_metadata_bytes):
            emitted = emit_metadata(parse_metadata(raw))
            reparsed = parse_metadata(emitted)
            assert parse_metadata(raw) == reparsed
        emitted = emit_metadata(parse_metadata(sp_metadata_bytes))
        assert b"urn:oasis:names:tc:SAML:2.0:bindings:HTTP-Artifact" in emitted
        assert b"urn:oasis:names:tc:SAML:2.0:nameid-format:transient" in emitted


# SHA-256 of canonicalize and pretty output for each corpus file. Signing
# and verification operate on these bytes, so they must never move.
CORPUS_PINS = {
    "idp_metadata.xml": (
        "f5eb21adb0087bc06e01ce58d79235706d7479bdf31c2f4bfca6ddc55e5e5079",
        "dd4030ee26b915d1b76e353c7ca4c379157fc832ff961d107fc4ac54d70a3693",
    ),
    "sample_response.xml": (
        "37b8f9a30fce219a5edb701cd480766f76d770c87528f2a2825072c9eaa5d8f3",
        "c80e1a1b2e71f9b677cb94769aeb4ea667ef168fdf6ecc0f8705bba9ce1e8c36",
    ),
    "sp_metadata.xml": (
        "cac7f31f4614ae2675f28fe0ca5f2e795bdf9dc3a9e7fc9809369c66989cbf9d",
        "3b79e03b6b0488d94ae464fdd3921148055f85556ecbacc9c19fd4058f10be0a",
    ),
}


@pytest.mark.parametrize("corpus", sorted(CORPUS_PINS))
def test_corpus_output_is_pinned(corpus):
    elem = parse_xml((CORPUS / corpus).read_bytes())
    canonical_pin, pretty_pin = CORPUS_PINS[corpus]
    assert hashlib.sha256(canonicalize(elem)).hexdigest() == canonical_pin
    assert hashlib.sha256(pretty(elem).encode("utf-8")).hexdigest() == pretty_pin


# SHA-256 of emit_metadata for the corpus descriptors and for the simulated
# federation's own, plain and sealed. Keys are generated per process, so each
# certificate's base64 is replaced by its key alias before hashing.
METADATA_PINS = {
    "idp_metadata.xml": "85b0c6bd1bd74751564981e949ea87d7ee373429122fbcc82bd8fa0de4721995",
    "sp_metadata.xml": "cac7f31f4614ae2675f28fe0ca5f2e795bdf9dc3a9e7fc9809369c66989cbf9d",
    ("idp", False): "c3cf3f484968a7b608da79f5a9e6ad8f9a7054c106f209e523b21912c78fc15a",
    ("sp", False): "569c344a7a8cebabd5545f1de43af20516278609fd501b97e21a8f037adcaaab",
    ("idp", True): "c3cf3f484968a7b608da79f5a9e6ad8f9a7054c106f209e523b21912c78fc15a",
    ("sp", True): "da63f838352180a040cf92cdd19f0298be48b8b3ce5273e599c55ee336e22bfc",
}


@pytest.mark.parametrize("corpus", ["idp_metadata.xml", "sp_metadata.xml"])
def test_corpus_metadata_emission_is_pinned(corpus):
    emitted = emit_metadata(parse_metadata((CORPUS / corpus).read_bytes()))
    assert hashlib.sha256(emitted).hexdigest() == METADATA_PINS[corpus]


@pytest.mark.parametrize("encrypt", [False, True])
def test_federation_metadata_emission_is_pinned(shared_keys, encrypt):
    fed = SimulatedFederation(encrypt=encrypt, keys=shared_keys)
    for role, engine in (("idp", fed.idp), ("sp", fed.sp)):
        emitted = emit_metadata(engine.registry.local)
        for alias, key in shared_keys.items():
            emitted = emitted.replace(key.cert_b64.encode(), alias.encode())
        assert hashlib.sha256(emitted).hexdigest() == METADATA_PINS[role, encrypt]


# ---------------------------------------------------------------------------
# Protocol-message prologue: root tag, Version, unknown children, Issuer
# ---------------------------------------------------------------------------

_AT = Instant.parse("2009-04-22T12:33:36Z")
_FROM = EntityId("mypartner:saml2.0")
_SAMPLE = parse_response((CORPUS / "sample_response.xml").read_bytes())

# root local name -> (bytes parser, a valid message of that kind)
PROTOCOL_MESSAGES = {
    "Assertion": (parse_assertion, emit_assertion(_SAMPLE.assertion)),
    "Response": (parse_response, emit_response(_SAMPLE)),
    "AuthnRequest": (
        lambda raw: authn_request_from_element(parse_xml(raw)),
        emit_authn_request(AuthnRequest("_a1", _AT, _FROM, "https://sp.example/acs")),
    ),
    "LogoutRequest": (
        lambda raw: logout_request_from_element(parse_xml(raw)),
        emit_logout_request(LogoutRequest("_l1", _AT, _FROM, "someone", "s1")),
    ),
    "LogoutResponse": (
        parse_logout_response,
        emit_logout_response(LogoutResponse("_l2", _AT, _FROM, STATUS_SUCCESS, "_l1")),
    ),
    "ArtifactResolve": (
        parse_artifact_resolve,
        emit_artifact_resolve("_r1", _AT, _FROM, ("AAQAAA",)),
    ),
}


def _without_version(elem: XmlElement) -> XmlElement:
    return dataclasses.replace(elem, attrs=tuple(a for a in elem.attrs if a[0] != ("", "Version")))


def _with_issuer_text(elem: XmlElement, text: str) -> XmlElement:
    children = tuple(
        dataclasses.replace(c, text=text) if c.local == "Issuer" else c for c in elem.children
    )
    return dataclasses.replace(elem, children=children)


def _without_child(elem: XmlElement, local: str) -> XmlElement:
    return dataclasses.replace(elem, children=tuple(c for c in elem.children if c.local != local))


def _with_unknown_child(elem: XmlElement) -> XmlElement:
    surprise = oracles.element(NS_PROTOCOL, "Surprise")
    return dataclasses.replace(elem, children=elem.children + (surprise,))


# Each case also carries the faults checked after it, so the expected error
# pins the order of the checks: root tag, Version, unknown child, Issuer.
_PROLOGUE_CASES = {
    "wrong_root": (
        lambda e: dataclasses.replace(_without_version(_with_unknown_child(e)), local="Bogus"),
        lambda local: (MalformedXml, f"expected <{local}>, got <Bogus>"),
    ),
    "missing_version": (
        lambda e: _without_version(_with_unknown_child(e)),
        lambda local: (MalformedXml, f'<{local}> must declare Version="2.0"'),
    ),
    "unknown_saml_child": (
        lambda e: _with_unknown_child(_without_child(e, "Issuer")),
        lambda local: (MalformedXml, f"unexpected element <Surprise> inside <{local}>"),
    ),
    "missing_issuer": (
        lambda e: _without_child(e, "Issuer"),
        lambda local: (MissingRequiredElement, "Issuer"),
    ),
    "empty_issuer": (
        lambda e: _with_issuer_text(e, ""),
        lambda local: (MalformedXml, "issuer must be a non-empty entity id"),
    ),
}


@pytest.mark.parametrize("case", sorted(_PROLOGUE_CASES))
@pytest.mark.parametrize("kind", sorted(PROTOCOL_MESSAGES))
def test_protocol_prologue(kind, case):
    parse, valid = PROTOCOL_MESSAGES[kind]
    mutate, expect = _PROLOGUE_CASES[case]
    raw = canonicalize(mutate(parse_xml(valid)))
    error, message = expect(kind)
    with pytest.raises(SamlError) as excinfo:
        parse(raw)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_an_empty_artifact_is_refused_not_dropped():
    raw = emit_artifact_resolve("_r1", _AT, _FROM, ("AAQAAA", ""))
    assert b"<samlp:Artifact/>" in raw
    with pytest.raises(MalformedXml, match=f"^{NOT_EMITTED_BYTES}$"):
        parse_artifact_resolve(raw)
    assert parse_artifact_resolve(emit_artifact_resolve("_r1", _AT, _FROM, ("AAQAAA",))) == (
        _FROM,
        ("AAQAAA",),
    )


# The Issuer's entity id is checked only after the children listed here,
# so a message with both faults names the missing child.
@pytest.mark.parametrize(
    "kind, missing",
    [
        ("Assertion", "AuthnStatement"),
        ("Response", "Status"),
        ("LogoutRequest", "SessionIndex"),
        ("LogoutResponse", "Status"),
        ("ArtifactResolve", "Artifact"),
    ],
)
def test_issuer_entity_id_checked_after_required_children(kind, missing):
    parse, valid = PROTOCOL_MESSAGES[kind]
    raw = canonicalize(_without_child(_with_issuer_text(parse_xml(valid), ""), missing))
    with pytest.raises(MissingRequiredElement) as excinfo:
        parse(raw)
    assert excinfo.value.name == missing


# ---------------------------------------------------------------------------
# EncryptedAssertion: every key-side algorithm is fixed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixed, other",
    [
        ("http://www.w3.org/2001/04/xmlenc#kw-aes128", "http://www.w3.org/2001/04/xmlenc#rsa-oaep-mgf1p"),
        ("http://www.w3.org/2009/xmlenc11#ECDH-ES", "http://www.w3.org/2009/xmlenc11#dh-es"),
        ("http://www.w3.org/2009/xmlenc11#ConcatKDF", "http://www.w3.org/2009/xmlenc11#pbkdf2"),
        ('<xenc11:ConcatKDFParams><ds:DigestMethod Algorithm="http://www.w3.org/2001/04/xmlenc#sha256"/>',
         '<xenc11:ConcatKDFParams><ds:DigestMethod Algorithm="http://www.w3.org/2000/09/xmldsig#sha1"/>'),
        ("urn:oid:1.2.840.10045.3.1.7", "urn:oid:1.3.132.0.34"),
    ],
)
def test_sealed_assertion_names_only_the_fixed_key_algorithms(shared_keys, fixed, other):
    fed = SimulatedFederation(encrypt=True, keys=shared_keys)
    session = fed.idp.create_session("the.user", "192.168.0.189", _AT)
    sealed = emit_response(fed.idp.issue_assertion(session, "mypartner:saml2.0", _AT))
    assert parse_response(sealed).assertion.ephemeral_key
    assert sealed.count(fixed.encode()) == 1
    with pytest.raises(MalformedXml, match="must be"):
        parse_response(sealed.replace(fixed.encode(), other.encode()))
