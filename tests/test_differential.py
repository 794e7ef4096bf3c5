"""xmlcodec's writer, parser and message renderers, ``Instant`` and the
attribute-records parser against the reference implementations in
``oracles``: the same bytes, tree or records for every input, or the same
exception with the same message."""

import copy
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import oracles
from samlforge import bindings, idp, xmlcodec
from samlforge.core import (
    Assertion,
    Attribute,
    AuthnRequest,
    AuthnStatement,
    Conditions,
    EncryptedAssertion,
    EntityId,
    Instant,
    LogoutRequest,
    LogoutResponse,
    Response,
    Signature,
    Subject,
    SubjectConfirmation,
)
from samlforge.harness.scenarios import CLIENT_IP, SIM_EPOCH, SP_ENTITY, SimulatedFederation
from samlforge.xmlcodec import (
    NS_ASSERTION,
    NS_DSIG,
    NS_ENVELOPE,
    NS_METADATA,
    NS_PROTOCOL,
    NS_XML,
    NS_XMLENC,
    EncryptionKey,
    Endpoint,
    EntityDescriptor,
    IdpSsoDescriptor,
    IndexedEndpoint,
    MalformedXml,
    Organization,
    SpSsoDescriptor,
)

CORPUS = Path(__file__).parent / "corpus"


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except MalformedXml as exc:
        return "error", type(exc).__name__, str(exc)


def test_the_requested_hypothesis_profile_is_active(request):
    """``--hypothesis-profile`` must win over the profile conftest loads."""
    wanted = request.config.getoption("hypothesis_profile") or "default"
    assert settings.default.max_examples == settings.get_profile(wanted).max_examples


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

# Preferred namespaces, the implicit xml one, and URIs that get an nsN
# prefix, one of them needing escapes in its declaration.
_NAMESPACES = [
    NS_ASSERTION,
    NS_PROTOCOL,
    NS_METADATA,
    NS_DSIG,
    NS_XMLENC,
    NS_ENVELOPE,
    NS_XML,
    "urn:a",
    "urn:b",
    'urn:q"&<\t',
]
_CHARS = list('ab =#/&<>"\'\t\n\r\x85\xa0é€\U0001f600') + ["\x00", "\x1f", "\ud800", "\ufffe", "\uffff"]
_values = st.text(alphabet=st.sampled_from(_CHARS), max_size=6)
_locals = st.sampled_from(["a", "b", "Issuer", "ns0", "xmlns"])
# Plain names, the same local name in several namespaces, and a plain key
# next to its ("", name) twin.
_attr_keys = st.one_of(
    _locals,
    st.tuples(st.sampled_from(["", "urn:a", "urn:b", NS_ASSERTION]), _locals),
    st.tuples(st.sampled_from(_NAMESPACES), _locals),
)
_attrs = st.dictionaries(_attr_keys, _values, max_size=4)


@st.composite
def _trees(draw, depth=3):
    # Mostly a few shared namespaces, so that children reuse, and attributes
    # add to, what an ancestor declared.
    pick = draw(st.integers(0, 19))
    if pick == 0:
        ns = ""
    elif pick < 12:
        ns = draw(st.sampled_from([NS_ASSERTION, "urn:a"]))
    else:
        ns = draw(st.sampled_from(_NAMESPACES))
    local, attrs = draw(_locals), draw(_attrs)
    children = ()
    text = ""
    if depth and draw(st.booleans()):
        children = tuple(draw(st.lists(_trees(depth=depth - 1), max_size=3)))
    else:
        text = draw(_values)
    return oracles.element(ns, local, attrs, children, text)


_SIBLINGS_SHARE_AN_ATTRIBUTE_NAMESPACE = oracles.element(
    NS_ASSERTION,
    "a",
    children=[
        oracles.element(NS_ASSERTION, "b", {("urn:b", "x"): "1"}),
        oracles.element(NS_ASSERTION, "c", {("urn:b", "y"): "2"}),
    ],
)


@given(_trees())
@example(_SIBLINGS_SHARE_AN_ATTRIBUTE_NAMESPACE)
@example(oracles.element("urn:a", "a", {("urn:b", "x"): "1", ("urn:a", "x"): "2", "x": "3"}))
@example(oracles.element(NS_ASSERTION, "a", children=[oracles.element("", "Bare")]))
@example(oracles.element(NS_ASSERTION, "a", {("urn:a", "x"): "\x00"}, text="<\r"))
def test_canonicalize_matches_the_reference_writer(tree):
    assert outcome(xmlcodec.canonicalize, tree) == outcome(oracles.canonicalize, tree)


# ---------------------------------------------------------------------------
# parse_xml
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def documents(shared_keys):
    """Genuine plain and sealed Responses, a signed AuthnRequest and the corpus."""
    docs = [path.read_bytes() for path in sorted(CORPUS.glob("*.xml"))]
    for encrypt in (False, True):
        fed = SimulatedFederation(encrypt=encrypt, keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH)
        docs.append(bindings.decode_post(bindings.serialize_post_body(form)).message)
    redirect, _ = fed.sp.build_authn_request("https://sp.internal.test/app", SIM_EPOCH)
    docs.append(bindings.decode_redirect(redirect.url).message)
    return docs


_SNIPPETS = [
    b"&undefined;",
    b"&amp;",
    b"&#0;",
    b"&#x41;",
    b"<!--c-->",
    b"<?pi x?>",
    b"<![CDATA[x<]]>",
    b"<!DOCTYPE r>",
    b'<!DOCTYPE r [<!ENTITY e "x">]>',
    b"\xef\xbb\xbf",
    b"<Ext/>",
    b'<Ext xmlns="">t</Ext>',
    b"<x:Ext/>",
    b'<ns:E xmlns:ns="urn:e"/>',
    b"</Ext>",
    b"x",
    b" \r\n\t",
    b"\xc2\xa0",
    b"\xff",
    b"\x00",
    b"<",
    b">",
    b'"',
    b"=",
]
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "delete", "insert"]),
        st.integers(-8000, 8000),
        st.integers(0, 7),
        st.sampled_from(_SNIPPETS),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, position, bit, snippet in edits:
        if not out:
            out.extend(snippet)
            continue
        position = max(-len(out), min(position, len(out) - 1))
        if op == "flip":
            out[position] ^= 1 << bit
        elif op == "delete":
            del out[position]
        else:
            out[position:position] = snippet
    return bytes(out)


@given(which=st.integers(0, 99), edits=_EDITS)
def test_parse_matches_the_reference_parser_on_mutated_messages(documents, which, edits):
    data = _mutate(documents[which % len(documents)], edits)
    assert outcome(xmlcodec.parse_xml, data) == outcome(oracles.parse_xml, data)


@given(st.binary(max_size=200))
def test_parse_matches_the_reference_parser_on_arbitrary_bytes(data):
    assert outcome(xmlcodec.parse_xml, data) == outcome(oracles.parse_xml, data)


@given(_trees())
def test_parse_of_canonical_bytes_matches_the_reference_parser(tree):
    result = outcome(oracles.canonicalize, tree)
    if result[0] == "ok":
        assert outcome(xmlcodec.parse_xml, result[1]) == outcome(oracles.parse_xml, result[1])


# Tags with their declarations: a default namespace, a prefixed one, an
# element that inherits the default (or has none at the root), and one that
# undeclares it.
_TAGS = [
    ("a", ' xmlns="urn:a"'),
    ("saml:Issuer", f' xmlns:saml="{NS_ASSERTION}"'),
    ("n", ""),
    ("n", ' xmlns=""'),
]
_ATTRIBUTES = [' x="1"', ' saml:x="2"', ' y="&amp;&#9; &#xA;"', ' z="a&#xD;b\tc"']
_CONTENT = ["t", " ", "\r\n", "&amp;", "&#x20;", "&undefined;", "é", "<!--c-->", "<?pi x?>",
            "<![CDATA[ <x> ]]>"]


@st.composite
def _markup(draw, depth=3):
    """One element, well-formed or not, with text, comments, PIs, CDATA and
    child elements mixed in any order."""
    tag, declaration = draw(st.sampled_from(_TAGS))
    attrs = "".join(draw(st.lists(st.sampled_from(_ATTRIBUTES), max_size=2, unique=True)))
    items = draw(
        st.lists(
            st.one_of(st.sampled_from(_CONTENT), _markup(depth=depth - 1))
            if depth
            else st.sampled_from(_CONTENT),
            max_size=4,
        )
    )
    return f"<{tag}{declaration}{attrs}>{''.join(items)}</{tag}>"


@given(
    prologue=st.sampled_from(["", "\ufeff", '<?xml version="1.0"?>', "<!DOCTYPE a>", "<!--c-->"]),
    body=_markup(),
    epilogue=st.sampled_from(["", " ", "<!--c-->", "x", "<b/>", "</a>"]),
)
def test_parse_matches_the_reference_parser_on_generated_documents(prologue, body, epilogue):
    data = (prologue + body + epilogue).encode()
    assert outcome(xmlcodec.parse_xml, data) == outcome(oracles.parse_xml, data)


_X = f'xmlns="{NS_ASSERTION}"'


@pytest.mark.parametrize(
    "data",
    [
        f"<a {_X}>&undefined;</a>".encode(),
        f"<a {_X}>user@user.com<!---->.evil.com</a>".encode(),
        f"<a {_X}>a<?pi x?>b</a>".encode(),
        f"<a {_X}><![CDATA[<x> & y]]></a>".encode(),
        f"<a {_X}>x<!--c--><b/></a>".encode(),
        f"<a {_X}><b/> <!--c--> <c/></a>".encode(),
        f"<a {_X}><b/>t</a>".encode(),
        f"<a {_X}><b/><c/>t<d/></a>".encode(),
        f'<!DOCTYPE a [<!ENTITY e "x">]><a {_X}>&e;</a>'.encode(),
        f"<!DOCTYPE a><a {_X}/>".encode(),
        f"\xef\xbb\xbf<a {_X}>t</a>".encode("latin-1"),
        f"\ufeff<a {_X}>t</a>".encode(),
        f'<?xml version="1.0" encoding="ISO-8859-1"?><a {_X}>é</a>'.encode(),
        f'<a {_X}><Ext xmlns=""/><b></a>'.encode(),
        b"<a><b></a>",
        f'<a {_X}><Ext xmlns=""/></a><junk/>'.encode(),
        f'<a {_X}><b>t<Ext xmlns=""/></b></a>'.encode(),
        f'<a {_X}><b>t<c/></b><Ext xmlns=""/></a>'.encode(),
        f'<a {_X}><Ext xmlns=""/>t<b/></a>'.encode(),
        f'<a {_X} b="1" xmlns:p="urn:p" p:b="2" c="&#9;&#xA;&#xD; x"/>'.encode(),
        f'<p:a xmlns:p="urn:p}}q" p:b="1"/>'.encode(),
        f"<a {_X}>\r\n  t \t</a>".encode(),
        f"<a {_X}>&#xD800;</a>".encode(),
        b"",
        b"<a/>",
        b"<a>",
        b"<x:a/>",
        f"<a {_X}/>trailing".encode(),
    ],
)
def test_parse_matches_the_reference_parser_on_edge_cases(data):
    assert outcome(xmlcodec.parse_xml, data) == outcome(oracles.parse_xml, data)


def test_corpus_parses_to_the_reference_tree(documents):
    for data in documents:
        assert xmlcodec.parse_xml(data) == oracles.parse_xml(data)


# ---------------------------------------------------------------------------
# signature_bytes / signed_info_bytes
# ---------------------------------------------------------------------------

_ids = st.text(alphabet=st.sampled_from(list('_a9" &<>\t\n\r\x85') + ["\x00", "\ufffe"]), max_size=8)
_signatures = st.builds(
    Signature,
    digest_algorithm=st.sampled_from([xmlcodec.ALG_SHA256, 'urn:"&<', ""]),
    signature_algorithm=st.sampled_from([xmlcodec.ALG_ECDSA_SHA256, "urn:x\ty", ""]),
    reference_id=_ids,
    digest_value=st.binary(max_size=33),
    signature_value=st.binary(max_size=40),
)


@given(_signatures)
@example(Signature(xmlcodec.ALG_SHA256, xmlcodec.ALG_ECDSA_SHA256, '"&<\t\n\r', b"d", b""))
@example(Signature(xmlcodec.ALG_SHA256, xmlcodec.ALG_ECDSA_SHA256, "_id", b"", b"s"))
@example(Signature(xmlcodec.ALG_SHA256, xmlcodec.ALG_ECDSA_SHA256, "_id", b"d", b"s"))
def test_signature_renderers_match_the_reference_trees(sig):
    signature = outcome(xmlcodec.signature_bytes, sig)
    assert signature == outcome(oracles.canonicalize, oracles.signature_element(sig))
    signed_info = (sig.signature_algorithm, sig.digest_algorithm, sig.reference_id, sig.digest_value)
    assert outcome(xmlcodec.signed_info_bytes, *signed_info) == outcome(
        oracles.canonicalize, oracles.signed_info_element(*signed_info)
    )
    if signature[0] == "ok":
        assert xmlcodec.parse_xml(signature[1]) == oracles.signature_element(sig)


# ---------------------------------------------------------------------------
# emit_*: the protocol messages
# ---------------------------------------------------------------------------

_instants = st.sampled_from([Instant(0), Instant(1240403616), Instant(4102444800)])
_signatures_or_none = st.none() | _signatures


def _messages(chars):
    """(renderer, reference builder, arguments) per message kind, with free
    text drawn from ``chars``: empty, needing escapes, non-BMP, and, when
    ``chars`` has them, characters XML 1.0 cannot hold."""
    values = st.text(alphabet=st.sampled_from(chars), max_size=6)
    some = st.text(alphabet=st.sampled_from(chars), min_size=1, max_size=6)
    optional = st.none() | values
    entity_ids = some.filter(lambda t: t == t.strip(" \t\n\r")).map(EntityId)
    assertions = st.builds(
        Assertion,
        id=values,
        issue_instant=_instants,
        issuer=values,
        subject=st.builds(
            Subject,
            name_id=some,
            confirmation=st.builds(
                SubjectConfirmation, method=values, not_on_or_after=_instants, recipient=values
            ),
            name_id_format=optional,
        ),
        conditions=st.builds(
            Conditions,
            not_before=_instants,
            not_on_or_after=_instants,
            audiences=st.lists(entity_ids, max_size=2).map(tuple),
        ),
        authn_statement=st.builds(
            AuthnStatement,
            authn_instant=_instants,
            session_index=some,
            locality_address=optional,
            locality_dns=optional,
        ),
        attributes=st.lists(
            st.builds(
                Attribute,
                name=some,
                values=st.lists(values, min_size=1, max_size=2).map(tuple),
                friendly_name=optional,
                name_format=optional,
            ),
            max_size=2,
        ).map(tuple),
    )
    encrypted = st.builds(
        EncryptedAssertion,
        algorithm=values,
        ephemeral_key=st.binary(max_size=8),
        encrypted_key=st.binary(max_size=8),
        iv=st.binary(min_size=12, max_size=12),
        ciphertext=st.binary(max_size=8),
    )
    return {
        "Assertion": (xmlcodec.emit_assertion, oracles.assertion_element, st.tuples(assertions)),
        "Response": (
            xmlcodec.emit_response,
            oracles.response_element,
            st.tuples(
                st.builds(
                    Response,
                    id=values,
                    issue_instant=_instants,
                    issuer=values,
                    destination=values,
                    status=values,
                    assertion=st.none() | assertions | encrypted,
                    signature=_signatures_or_none,
                    consent=optional,
                )
            ),
        ),
        "AuthnRequest": (
            xmlcodec.emit_authn_request,
            oracles.authn_request_element,
            st.tuples(
                st.builds(
                    AuthnRequest,
                    id=values,
                    issue_instant=_instants,
                    issuer=entity_ids,
                    acs_url=values,
                    signature=_signatures_or_none,
                )
            ),
        ),
        "LogoutRequest": (
            xmlcodec.emit_logout_request,
            oracles.logout_request_element,
            st.tuples(
                st.builds(
                    LogoutRequest,
                    id=values,
                    issue_instant=_instants,
                    issuer=entity_ids,
                    name_id=values,
                    session_index=values,
                    signature=_signatures_or_none,
                )
            ),
        ),
        "LogoutResponse": (
            xmlcodec.emit_logout_response,
            oracles.logout_response_element,
            st.tuples(
                st.builds(
                    LogoutResponse,
                    id=values,
                    issue_instant=_instants,
                    issuer=entity_ids,
                    status=values,
                    in_response_to=optional,
                    signature=_signatures_or_none,
                )
            ),
        ),
        "ArtifactResolve": (
            xmlcodec.emit_artifact_resolve,
            oracles.artifact_resolve_element,
            st.tuples(values, _instants, entity_ids, st.lists(values, max_size=2).map(tuple)),
        ),
    }


# Most free text of a message is legal, so a mismatch in the rendered
# bytes shows; the other half of the messages exercise the shared error.
_LEGAL_MESSAGES = _messages([c for c in _CHARS if not oracles._ILLEGAL_CHARS.match(c)])
_ANY_MESSAGES = _messages(_CHARS)

_T0 = Instant(1240403616)
_PLAIN = Assertion(
    id="_a",
    issue_instant=_T0,
    issuer="",
    subject=Subject("\U0001f600 <&>", SubjectConfirmation("bearer", _T0, 'a"b\tc'), ""),
    conditions=Conditions(_T0, _T0),
    authn_statement=AuthnStatement(_T0, "s", locality_address=""),
)
_EXAMPLES = {
    "Assertion": [
        (_PLAIN,),
        (replace(_PLAIN, issuer="x", subject=replace(_PLAIN.subject, name_id_format="f&")),),
        (replace(_PLAIN, attributes=(Attribute("n", ("", "v\x00"), "F", "N"),)),),
        (replace(_PLAIN, conditions=Conditions(_T0, _T0, (EntityId("sp"), EntityId("a<b"))),
                 authn_statement=AuthnStatement(_T0, "s", None, "dns")),),
    ],
    "Response": [
        (Response("_r", _T0, "", "", "", consent="c\r"),),
        (Response("_r", _T0, "i", "d", "s", assertion=_PLAIN),),
        (Response("_r", _T0, "i", "d", "s", assertion=EncryptedAssertion("", b"", b"", b"v" * 12, b"")),),
        (Response("_r", _T0, "\ufffe", "d", "s"),),
    ],
    "AuthnRequest": [(AuthnRequest("_q", _T0, EntityId("sp"), "https://sp/acs?a=1&b=2"),)],
    "LogoutRequest": [(LogoutRequest("_l", _T0, EntityId("idp"), "", ""),)],
    "LogoutResponse": [
        (LogoutResponse("_l", _T0, EntityId("sp"), "s"),),
        (LogoutResponse("_l", _T0, EntityId("sp"), "s", in_response_to=""),),
    ],
    "ArtifactResolve": [("_x", _T0, EntityId("sp"), ()), ("_x", _T0, EntityId("sp"), ("", "\x1f"))],
}


def _reference(build, *args):
    return oracles.canonicalize(build(*args))


@pytest.mark.parametrize("kind", sorted(_LEGAL_MESSAGES))
@given(data=st.data())
def test_renderers_match_the_reference_trees(kind, data):
    emit, build, legal = _LEGAL_MESSAGES[kind]
    drawn = data.draw(legal | _ANY_MESSAGES[kind][2])
    for args in _EXAMPLES[kind] + [drawn]:
        # a fresh copy of each message, so no kept bytes answer for it
        args = tuple(copy.deepcopy(arg) for arg in args)
        assert outcome(emit, *args) == outcome(_reference, build, *args)


def test_issuing_a_post_form_canonicalizes_nothing(shared_keys, monkeypatch):
    feds = [SimulatedFederation(encrypt=encrypt, keys=shared_keys) for encrypt in (False, True)]
    sessions = [fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH) for fed in feds]
    calls = []
    canonicalize = xmlcodec.canonicalize

    def counting(elem):
        calls.append(elem)
        return canonicalize(elem)

    monkeypatch.setattr(xmlcodec, "canonicalize", counting)
    for fed, session in zip(feds, sessions):
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH)
        assert form.saml_value
    assert calls == []


# ---------------------------------------------------------------------------
# emit_metadata
# ---------------------------------------------------------------------------


def _descriptors(chars):
    """Entity descriptors of both roles with free text drawn from ``chars``,
    every optional part present or not."""
    values = st.text(alphabet=st.sampled_from(chars), max_size=6)
    entity_ids = (
        st.text(alphabet=st.sampled_from(chars), min_size=1, max_size=6)
        .filter(lambda t: t == t.strip(" \t\n\r"))
        .map(EntityId)
    )
    endpoint = st.builds(Endpoint, binding=values, location=values)
    endpoints = st.lists(endpoint, max_size=2).map(tuple)
    indexed = st.builds(
        IndexedEndpoint,
        index=st.integers(0, 1000),
        binding=values,
        location=values,
        is_default=st.booleans(),
    )
    keys = st.lists(
        st.builds(EncryptionKey, certificate=values, algorithm=st.none(), key_size=st.none())
        | st.builds(
            EncryptionKey, certificate=values, algorithm=values, key_size=st.none() | st.integers(0, 4096)
        ),
        max_size=2,
    ).map(tuple)
    certs = st.lists(values, max_size=2).map(tuple)
    idp_roles = st.builds(
        IdpSsoDescriptor,
        want_authn_requests_signed=st.booleans(),
        protocol_support=values,
        sso_endpoints=st.lists(endpoint, min_size=1, max_size=2).map(tuple),
        signing_certs=certs,
        encryption_keys=keys,
        single_logout_endpoints=endpoints,
        artifact_resolution_endpoints=st.lists(indexed, max_size=2).map(tuple),
    )
    sp_roles = st.builds(
        SpSsoDescriptor,
        authn_requests_signed=st.booleans(),
        want_assertions_signed=st.booleans(),
        protocol_support=values,
        acs_endpoints=st.lists(indexed, min_size=1, max_size=2, unique_by=lambda e: e.index).map(tuple),
        name_id_formats=st.lists(values, max_size=2).map(tuple),
        signing_certs=certs,
        encryption_keys=keys,
        single_logout_endpoints=endpoints,
    )
    organizations = st.builds(
        Organization,
        name=values,
        display_name=values,
        url=values,
        name_lang=values,
        display_name_lang=values,
        url_lang=values,
    )
    return st.builds(
        EntityDescriptor,
        entity_id=entity_ids,
        role=idp_roles | sp_roles,
        document_id=st.none() | values,
        organization=st.none() | organizations,
    )


_URL = "https://idp.example/sso"
_IDP_ROLE = IdpSsoDescriptor(False, NS_PROTOCOL, (Endpoint(xmlcodec.BINDING_HTTP_POST, _URL),))
_SP_ROLE = SpSsoDescriptor(True, False, NS_PROTOCOL, (IndexedEndpoint(0, xmlcodec.BINDING_HTTP_POST, _URL),))
_ORG = Organization("Org", "The Org", "https://org.example")
_HOSTILE = '& < > " \t \n \r'


def _entity(role, **fields):
    return EntityDescriptor(EntityId("urn:entity"), role, **fields)


@given(_descriptors([c for c in _CHARS if not oracles._ILLEGAL_CHARS.match(c)]) | _descriptors(_CHARS))
@example(_entity(_IDP_ROLE))
@example(_entity(_SP_ROLE, document_id="_doc", organization=_ORG))
@example(_entity(_SP_ROLE, document_id=""))
# text and attribute values that need escapes, or that XML 1.0 cannot hold
@example(_entity(replace(_IDP_ROLE, signing_certs=(_HOSTILE, "MII\x00"))))
@example(_entity(replace(_IDP_ROLE, encryption_keys=(EncryptionKey("\ufffe"),))))
@example(_entity(replace(_IDP_ROLE, sso_endpoints=(Endpoint(xmlcodec.BINDING_HTTP_POST, _HOSTILE),))))
@example(_entity(replace(_IDP_ROLE, sso_endpoints=(Endpoint(xmlcodec.BINDING_HTTP_POST, "a\x1fb"),))))
@example(_entity(_SP_ROLE, organization=replace(_ORG, name=_HOSTILE, display_name=_HOSTILE)))
@example(_entity(_SP_ROLE, organization=replace(_ORG, display_name="\x00")))
@example(_entity(replace(_SP_ROLE, name_id_formats=(_HOSTILE, "urn:format"))))
@example(_entity(replace(_SP_ROLE, name_id_formats=("\uffff",))))
# empty texts close themselves
@example(_entity(replace(_SP_ROLE, name_id_formats=("",), signing_certs=("",))))
@example(_entity(_IDP_ROLE, organization=Organization("", "", "")))
# EncryptionMethod with and without KeySize, and no EncryptionMethod
@example(
    _entity(
        replace(
            _SP_ROLE,
            encryption_keys=(
                EncryptionKey("MIIC", xmlcodec.ALG_AES128_GCM, 128),
                EncryptionKey("MIIC", xmlcodec.ALG_AES128_GCM),
                EncryptionKey("MIIC"),
            ),
        )
    )
)
# a non-default xml:lang
@example(_entity(_IDP_ROLE, organization=replace(_ORG, name_lang="de", url_lang='x"y')))
# ArtifactResolutionService and AssertionConsumerService, isDefault both ways
@example(
    _entity(
        replace(
            _IDP_ROLE,
            artifact_resolution_endpoints=(
                IndexedEndpoint(0, xmlcodec.BINDING_SOAP, "https://idp.example/ars", True),
                IndexedEndpoint(1, xmlcodec.BINDING_SOAP, "https://idp.example/ars"),
            ),
        )
    )
)
@example(
    _entity(
        replace(
            _SP_ROLE,
            acs_endpoints=(
                IndexedEndpoint(2, xmlcodec.BINDING_HTTP_ARTIFACT, _URL),
                IndexedEndpoint(1, xmlcodec.BINDING_HTTP_POST, _URL, True),
            ),
        )
    )
)
def test_metadata_renderer_matches_the_reference_tree(entity):
    assert outcome(xmlcodec.emit_metadata, entity) == outcome(
        _reference, oracles.metadata_element, entity
    )


# ---------------------------------------------------------------------------
# Instant.parse and Instant.isoformat
# ---------------------------------------------------------------------------

_DIGITS = st.sampled_from(list("0123456789") + ["٣", "３", "߁", " "])
_JUNK = st.text(alphabet=st.sampled_from(list("0123456789 -:TtZz+.") + ["٣", "３"]), max_size=5)


def _number(low: int, high: int, width: int):
    """A value in range, zero-padded, unpadded or (day) space-padded."""
    return st.tuples(st.integers(low, high), st.sampled_from(["0", "", " "])).map(
        lambda pair: str(pair[0]).rjust(width, pair[1]) if pair[1] else str(pair[0])
    )


@st.composite
def _instant_texts(draw):
    """Mostly in-range timestamps in every spelling strptime allows, with
    at most two parts replaced by junk."""
    parts = [
        draw(st.integers(0, 9999).map(lambda n: str(n).zfill(4))),
        "-",
        draw(_number(1, 12, 2)),
        "-",
        draw(_number(1, 31, 2)),
        draw(st.sampled_from(["T", "t"])),
        draw(_number(0, 23, 2)),
        ":",
        draw(_number(0, 59, 2)),
        ":",
        draw(_number(0, 61, 2)),
        draw(st.sampled_from(["Z", "z"])),
    ]
    for _ in range(draw(st.integers(0, 2))):
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.one_of(_JUNK, st.text(_DIGITS, max_size=3)))
    return "".join(parts) + draw(st.sampled_from(["", "", "", "Z", " ", "\n", "0"]))


def _strptime_epoch(text: str):
    try:
        parsed = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        return None
    return int(parsed.replace(tzinfo=timezone.utc).timestamp())


def _instant_epoch(text: str):
    try:
        return Instant.parse(text).epoch
    except ValueError:
        return None


@given(_instant_texts())
@example("2024-02-29T23:59:59Z")
@example("2023-02-29T00:00:00Z")
@example("2024-12-31T23:59:60Z")
@example("2024-12-31T23:59:61Z")
@example("0000-01-01T00:00:00Z")
@example("0001-01-01T00:00:00Z")
@example("9999-12-31T23:59:59Z")
@example("2009-4-2t1:2:3z")
@example("2009-04- 2T01:02:03Z")
@example("２００９-04-22T12:33:36Z")
@example("2009-04-22T12:33:36Z\n")
def test_instant_parse_accepts_what_strptime_accepts(text):
    assert _instant_epoch(text) == _strptime_epoch(text)


# The epochs Instant.parse accepts: years 1 to 9999.
_FIRST_EPOCH = Instant.parse("0001-01-01T00:00:00Z").epoch
_LAST_EPOCH = Instant.parse("9999-12-31T23:59:59Z").epoch


@given(st.integers(_FIRST_EPOCH, _LAST_EPOCH))
@example(_FIRST_EPOCH)
@example(_LAST_EPOCH)
@example(-1)
@example(0)
@example(Instant.parse("1000-01-01T00:00:00Z").epoch - 1)
@example(Instant.parse("1900-03-01T00:00:00Z").epoch - 1)
@example(Instant.parse("2038-01-19T03:14:08Z").epoch)
def test_instant_isoformat_matches_the_datetime_formatter(epoch):
    assert Instant(epoch).isoformat() == oracles.isoformat(Instant(epoch))


# ---------------------------------------------------------------------------
# parse_attribute_records
# ---------------------------------------------------------------------------

_RECORD_SPACE = st.text(st.sampled_from(" \t\xa0\u2003\u3000"), min_size=1, max_size=2)
_RECORD_NEWLINE = st.sampled_from(["\n", "\r\n", "\r", "\u2028"])
_FILLER_LINE = st.sampled_from(["", " \t", "# comment", "\u3000 # indented comment"])
# few names and values, so that names repeat within a line (a=1 b=2 a=3)
# and values, group names above all, repeat across users
_ATTRIBUTE_TOKEN = st.builds(
    "{}={}".format,
    st.sampled_from(["group", "uid", "a", "b", "é"]),
    st.sampled_from(["staff", "ops", "1", "x@y", "", "=", "a=b"]),
)
_BAD_TOKEN = st.sampled_from(["=v", "novalue", "="])


@st.composite
def _records_texts(draw):
    """Records under distinct user keys, among blank and comment lines,
    with any line ending and Unicode spaces; now and then a line that is
    too short or carries a bad token."""
    key = st.from_regex(r"[a-z][a-z0-9.#]{0,5}", fullmatch=True)
    keys = draw(st.lists(key, unique=True, max_size=6))
    lines = []
    for key in keys:
        lines += draw(st.lists(_FILLER_LINE, max_size=2))
        name_id = draw(st.sampled_from(["x@y", "staff", f"{key}@x"]))
        tokens = [key, name_id] + draw(st.lists(_ATTRIBUTE_TOKEN, max_size=6))
        broken = draw(st.sampled_from([None] * 8 + ["short", "bad"]))
        if broken == "short":
            tokens = tokens[:1]
        elif broken == "bad":
            tokens.insert(draw(st.integers(2, len(tokens))), draw(_BAD_TOKEN))
        indent = draw(st.sampled_from(["", " ", "\t\xa0"]))
        line = "".join(token + draw(_RECORD_SPACE) for token in tokens[:-1]) + tokens[-1]
        lines.append(indent + line + draw(st.sampled_from(["", " "])))
    return "".join(line + draw(_RECORD_NEWLINE) for line in lines)


def _records_outcome(parse, text):
    try:
        return "ok", list(parse(text).records.items())
    except ValueError as exc:
        return "error", str(exc)


@given(_records_texts())
@example("u x@y a=1 b=2 a=3\r\n  # note\r\n\r\nv staff group=staff group=ops group=staff\n")
@example("\u3000u\tx@y\xa0uid=x@y\u2028w x@y group=staff\r")
@example("u\n")
@example("u x@y =v\n")
@example("u x@y novalue\n")
def test_records_parse_like_the_reference_parser(text):
    assert _records_outcome(idp.parse_attribute_records, text) == _records_outcome(
        oracles.parse_attribute_records, text
    )
