"""SAML 2.0 web single sign-on federation toolkit.

Identity-provider and service-provider engines, POST/redirect/artifact
bindings, metadata exchange, enveloped signing and assertion encryption,
replay defenses, single logout, and an in-process harness for exercising
full flows with fault injection.
"""

from .core import (
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
    Outcome,
    Response,
    SamlError,
    Signature,
    Subject,
    SubjectConfirmation,
    ValidityVerdict,
    check_audience,
    check_bearer,
    check_locality,
    evaluate_window,
)
from .federation import (
    FederationRegistry,
    Partner,
    export_metadata,
    load_registry,
    register_partner,
    save_registry,
)
from .idp import AttributeSource, IdpEngine, IdpSession, load_attribute_source
from .sp import ConsumeResult, ReplayCache, SpEngine, SsoSession, ValidationReport
from .xmlcodec import (
    EntityDescriptor,
    IdpSsoDescriptor,
    SpSsoDescriptor,
    emit_assertion,
    emit_metadata,
    emit_response,
    parse_assertion,
    parse_metadata,
    parse_response,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
