"""Hypothesis strategies for randomly generated federation documents."""

from __future__ import annotations

import hypothesis.strategies as st

from samlforge.core import (
    ATTRNAME_FORMAT_BASIC,
    BEARER_METHOD,
    STATUS_RESPONDER,
    STATUS_SUCCESS,
    Assertion,
    Attribute,
    AuthnRequest,
    AuthnStatement,
    Conditions,
    EntityId,
    Instant,
    LogoutRequest,
    LogoutResponse,
    Response,
    Subject,
    SubjectConfirmation,
)
from samlforge.xmlcodec import (
    ALG_AES128_GCM,
    BINDING_HTTP_ARTIFACT,
    BINDING_HTTP_POST,
    BINDING_HTTP_REDIRECT,
    BINDING_SOAP,
    NS_PROTOCOL,
    EncryptionKey,
    Endpoint,
    EntityDescriptor,
    IdpSsoDescriptor,
    IndexedEndpoint,
    Organization,
    SpSsoDescriptor,
)

# Text that survives the codec's whitespace-trimming canonical form:
# XML-legal, no surrounding whitespace. Mixed ASCII and a slab of Latin-1+.
_inner = st.characters(min_codepoint=0x21, max_codepoint=0x2FF)


def trimmed_text(min_size: int = 1, max_size: int = 24):
    return st.text(alphabet=_inner, min_size=min_size, max_size=max_size)


instants = st.integers(min_value=0, max_value=4102444800).map(Instant)
entity_ids = trimmed_text(1, 20).map(EntityId)
urls = st.tuples(st.sampled_from(["http", "https"]), trimmed_text(3, 12)).map(
    lambda pair: f"{pair[0]}://{pair[1]}.example/acs"
)
ids = st.text(alphabet="abcdef0123456789", min_size=8, max_size=32).map(lambda s: "_" + s)

attributes = st.builds(
    Attribute,
    name=trimmed_text(1, 12),
    values=st.lists(trimmed_text(0, 16), min_size=1, max_size=3).map(tuple),
    friendly_name=st.none() | trimmed_text(1, 12),
    name_format=st.none() | st.just(ATTRNAME_FORMAT_BASIC),
)

confirmations = st.builds(
    SubjectConfirmation,
    method=st.just(BEARER_METHOD),
    not_on_or_after=instants,
    recipient=urls,
)

subjects = st.builds(
    Subject,
    name_id=trimmed_text(1, 24),
    confirmation=confirmations,
    name_id_format=st.none() | trimmed_text(4, 24),
)

conditions = st.builds(
    Conditions,
    not_before=instants,
    not_on_or_after=instants,
    audiences=st.lists(entity_ids, max_size=3).map(tuple),
)

authn_statements = st.builds(
    AuthnStatement,
    authn_instant=instants,
    session_index=trimmed_text(1, 24),
    locality_address=st.none() | st.just("192.168.0.189"),
    locality_dns=st.none() | trimmed_text(3, 20),
)

assertions = st.builds(
    Assertion,
    id=ids,
    issue_instant=instants,
    issuer=trimmed_text(1, 30),
    subject=subjects,
    conditions=conditions,
    authn_statement=authn_statements,
    attributes=st.lists(attributes, max_size=4).map(tuple),
)

responses = st.builds(
    Response,
    id=ids,
    issue_instant=instants,
    issuer=trimmed_text(1, 30),
    destination=urls,
    status=st.sampled_from([STATUS_SUCCESS, STATUS_RESPONDER]),
    assertion=st.none() | assertions,
    signature=st.none(),
    consent=st.none() | trimmed_text(4, 30),
)

authn_requests = st.builds(
    AuthnRequest,
    id=ids,
    issue_instant=instants,
    issuer=entity_ids,
    acs_url=urls,
    signature=st.none(),
)

logout_requests = st.builds(
    LogoutRequest,
    id=ids,
    issue_instant=instants,
    issuer=entity_ids,
    name_id=trimmed_text(1, 24),
    session_index=trimmed_text(1, 24),
    signature=st.none(),
)

logout_responses = st.builds(
    LogoutResponse,
    id=ids,
    issue_instant=instants,
    issuer=entity_ids,
    status=st.sampled_from([STATUS_SUCCESS, STATUS_RESPONDER]),
    in_response_to=st.none() | ids,
    signature=st.none(),
)

_cert_text = st.binary(min_size=16, max_size=64).map(
    lambda raw: __import__("base64").b64encode(raw).decode()
)

encryption_keys = st.one_of(
    st.builds(EncryptionKey, certificate=_cert_text, algorithm=st.none(), key_size=st.none()),
    st.builds(
        EncryptionKey,
        certificate=_cert_text,
        algorithm=st.just(ALG_AES128_GCM),
        key_size=st.none() | st.just(128),
    ),
)

endpoints = st.builds(
    Endpoint, binding=st.sampled_from([BINDING_HTTP_POST, BINDING_HTTP_REDIRECT]), location=urls
)

organizations = st.builds(
    Organization,
    name=trimmed_text(1, 16),
    display_name=trimmed_text(1, 16),
    url=urls,
    name_lang=st.sampled_from(["en-us", "en-s", "de"]),
    display_name_lang=st.just("en-us"),
    url_lang=st.just("en-us"),
)


def _acs_lists(locations):
    return st.lists(locations, min_size=1, max_size=3).map(
        lambda locs: tuple(
            IndexedEndpoint(
                index=i,
                binding=BINDING_HTTP_POST if i == 0 else BINDING_HTTP_ARTIFACT,
                location=loc,
                is_default=(i == 0),
            )
            for i, loc in enumerate(locs)
        )
    )


idp_roles = st.builds(
    IdpSsoDescriptor,
    want_authn_requests_signed=st.booleans(),
    protocol_support=st.just(NS_PROTOCOL),
    sso_endpoints=st.lists(endpoints, min_size=1, max_size=2).map(tuple),
    signing_certs=st.lists(_cert_text, max_size=2).map(tuple),
    encryption_keys=st.lists(encryption_keys, max_size=2).map(tuple),
    single_logout_endpoints=st.lists(endpoints, max_size=1).map(tuple),
    artifact_resolution_endpoints=st.lists(
        st.builds(
            IndexedEndpoint,
            index=st.integers(0, 3),
            binding=st.just(BINDING_SOAP),
            location=urls,
            is_default=st.booleans(),
        ),
        max_size=2,
    ).map(tuple),
)

sp_roles = st.builds(
    SpSsoDescriptor,
    authn_requests_signed=st.booleans(),
    want_assertions_signed=st.booleans(),
    protocol_support=st.just(NS_PROTOCOL),
    acs_endpoints=_acs_lists(urls),
    name_id_formats=st.lists(trimmed_text(4, 30), max_size=2).map(tuple),
    signing_certs=st.lists(_cert_text, max_size=2).map(tuple),
    encryption_keys=st.lists(encryption_keys, max_size=2).map(tuple),
    single_logout_endpoints=st.lists(endpoints, max_size=1).map(tuple),
)

entity_descriptors = st.builds(
    EntityDescriptor,
    entity_id=entity_ids,
    role=idp_roles | sp_roles,
    document_id=st.none() | trimmed_text(1, 12),
    organization=st.none() | organizations,
)
