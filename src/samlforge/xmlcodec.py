"""Deterministic canonical XML plus strict parsers for federation documents.

The canonical form is this toolkit's own: attributes sorted by
(namespace URI, local name), namespace declarations emitted on first use,
no insignificant whitespace, UTF-8, no XML declaration. Identical logical
documents always serialize to identical bytes, which is what signing and
verification operate on. Interop with W3C exclusive C14N is a non-goal.

Parsing is strict for SAML-namespace content (unknown elements rejected)
and preserves foreign-namespace elements opaquely so signature coverage
survives. DTDs and external entities are rejected outright.
"""

from __future__ import annotations

import base64
import binascii
import functools
import re
from dataclasses import dataclass
from xml.parsers import expat

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
    Response,
    SamlError,
    Signature,
    Subject,
    SubjectConfirmation,
)

NS_ASSERTION = "urn:oasis:names:tc:SAML:2.0:assertion"
NS_PROTOCOL = "urn:oasis:names:tc:SAML:2.0:protocol"
NS_METADATA = "urn:oasis:names:tc:SAML:2.0:metadata"
NS_DSIG = "http://www.w3.org/2000/09/xmldsig#"
NS_XMLENC = "http://www.w3.org/2001/04/xmlenc#"
NS_XML = "http://www.w3.org/XML/1998/namespace"
NS_ENVELOPE = "http://schemas.xmlsoap.org/soap/envelope/"

_SAML_NAMESPACES = {NS_ASSERTION, NS_PROTOCOL, NS_METADATA}

PREFERRED_PREFIXES = {
    NS_ASSERTION: "saml",
    NS_PROTOCOL: "samlp",
    NS_METADATA: "md",
    NS_DSIG: "ds",
    NS_XMLENC: "xenc",
    NS_ENVELOPE: "env",
}

BINDING_HTTP_POST = "urn:oasis:names:tc:SAML:2.0:bindings:HTTP-POST"
BINDING_HTTP_REDIRECT = "urn:oasis:names:tc:SAML:2.0:bindings:HTTP-Redirect"
BINDING_HTTP_ARTIFACT = "urn:oasis:names:tc:SAML:2.0:bindings:HTTP-Artifact"
BINDING_SOAP = "urn:oasis:names:tc:SAML:2.0:bindings:SOAP"
KNOWN_BINDINGS = frozenset(
    [BINDING_HTTP_POST, BINDING_HTTP_REDIRECT, BINDING_HTTP_ARTIFACT, BINDING_SOAP]
)

ALG_AES128_CBC = "http://www.w3.org/2001/04/xmlenc#aes128-cbc"
ALG_RSA_SHA256 = "http://www.w3.org/2001/04/xmldsig-more#rsa-sha256"
ALG_SHA256 = "http://www.w3.org/2001/04/xmlenc#sha256"


class MalformedXml(SamlError):
    pass


class MissingRequiredElement(SamlError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class BadTimestamp(SamlError):
    pass


class UnknownRole(SamlError):
    pass


class DuplicateDefaultAcs(SamlError):
    pass


# ---------------------------------------------------------------------------
# Element model and canonical serialization
# ---------------------------------------------------------------------------

AttrKey = tuple[str, str]  # (namespace URI, local name); "" = no namespace


@dataclass(frozen=True)
class XmlElement:
    """Namespace-resolved element: sorted attributes, ordered children.

    ``text`` and ``children`` are mutually exclusive; mixed content is not
    representable and is rejected at parse time.
    """

    ns: str
    local: str
    attrs: tuple[tuple[AttrKey, str], ...] = ()
    children: tuple[XmlElement, ...] = ()
    text: str = ""

    def attr(self, name: str, ns: str = "") -> str | None:
        for key, value in self.attrs:
            if key == (ns, name):
                return value
        return None

    def find(self, local: str, ns: str) -> XmlElement | None:
        for child in self.children:
            if child.local == local and child.ns == ns:
                return child
        return None

    def find_all(self, local: str, ns: str) -> tuple[XmlElement, ...]:
        return tuple(c for c in self.children if c.local == local and c.ns == ns)

    def require(self, local: str, ns: str) -> XmlElement:
        found = self.find(local, ns)
        if found is None:
            raise MissingRequiredElement(local)
        return found


_ILLEGAL = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_ILLEGAL_CHARS = re.compile(f"[{_ILLEGAL}]")
# One search per value finds any character that must be escaped or
# rejected; values without one (base64, IDs, URIs) are written as they are.
_TEXT_HIT = re.compile(f"[&<>\r{_ILLEGAL}]")
_ATTR_HIT = re.compile(f'[&<"\t\n\r{_ILLEGAL}]')


def _check_legal(value: str) -> str:
    if _ILLEGAL_CHARS.search(value):
        raise MalformedXml("string contains characters not representable in XML 1.0")
    return value


def _escape_text(value: str) -> str:
    if _TEXT_HIT.search(value) is None:
        return value
    return (
        _check_legal(value)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#xD;")
    )


def _escape_attr(value: str) -> str:
    if _ATTR_HIT.search(value) is None:
        return value
    return (
        _check_legal(value)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\t", "&#x9;")
        .replace("\n", "&#xA;")
        .replace("\r", "&#xD;")
    )


def canonicalize(elem: XmlElement) -> bytes:
    """Serialize to this toolkit's canonical bytes (deterministic, UTF-8)."""
    out: list[str] = []
    _write(elem, {NS_XML: "xml"}, [0], out)
    return "".join(out).encode("utf-8")


def _declare(ns: str, scope: dict[str, str], counter: list[int]) -> str:
    """Bind ``ns`` in ``scope``: its preferred prefix, else the next free nsN."""
    prefix = PREFERRED_PREFIXES.get(ns)
    taken = scope.values()
    if prefix is None or prefix in taken:
        while True:
            prefix = f"ns{counter[0]}"
            counter[0] += 1
            if prefix not in taken:
                break
    scope[ns] = prefix
    return prefix


def _write(elem: XmlElement, scope: dict[str, str], counter: list[int], out: list[str]) -> None:
    ns, attrs, text = elem.ns, elem.attrs, elem.text
    if not ns:
        raise MalformedXml(f"element {elem.local!r} has no namespace")
    # ``scope`` is shared with the parent until this element declares a
    # namespace; only then is it copied.
    declared = None
    if ns not in scope:
        scope = dict(scope)
        declared = [(_declare(ns, scope, counter), ns)]
    for (ans, _), _ in attrs:
        if ans and ans not in scope:
            if declared is None:
                scope = dict(scope)
                declared = []
            declared.append((_declare(ans, scope, counter), ans))
    tag = f"{scope[ns]}:{elem.local}"
    out.append(f"<{tag}")
    if declared:
        for prefix, uri in sorted(declared):
            out.append(f' xmlns:{prefix}="{_escape_attr(uri)}"')
    for (ans, name), value in attrs:
        if _ATTR_HIT.search(value):  # the escapers' own test, inlined on this hot path
            value = _escape_attr(value)
        out.append(f' {scope[ans]}:{name}="{value}"' if ans else f' {name}="{value}"')
    if not elem.children and not text:
        out.append("/>")
        return
    out.append(">")
    if text:
        out.append(_escape_text(text) if _TEXT_HIT.search(text) else text)
    for child in elem.children:
        _write(child, scope, counter, out)
    out.append(f"</{tag}>")


# Canonical output has no whitespace between tags, attribute values never
# hold '"' and text never holds "<": an element with text is one token and
# every other tag is a token of its own.
_PRETTY_TOKENS = re.compile(r'<[^/](?:[^>"]|"[^"]*")*>[^<]+</[^>]*>|<(?:[^>"]|"[^"]*")*>')


def pretty(elem: XmlElement, indent: int = 2) -> str:
    """The canonical bytes with one element per line, for CLI inspection."""
    lines: list[str] = []
    depth = 0
    for token in _PRETTY_TOKENS.findall(canonicalize(elem).decode("utf-8")):
        if token.startswith("</"):
            depth -= 1
        lines.append(" " * (depth * indent) + token)
        if not token.endswith("/>") and "</" not in token:
            depth += 1  # an opening tag whose children follow
    return "\n".join(lines)


# XML whitespace is the four ASCII characters only; Unicode spacing such as
# NBSP is significant content and must survive round-trips.
_XML_WS = " \t\n\r"

# Deepest nesting parse_xml accepts: the toolkit writes about ten levels, and
# the canonical writer recurses once per level.
MAX_DEPTH = 64


def _reject_doctype(name: str, sysid: str | None, pubid: str | None, has_internal: int) -> None:
    # Raised at the doctype's start event, before any entity it declares can
    # be defined or expanded.
    raise MalformedXml("document type declarations are not accepted")


_new_object = object.__new__


@functools.lru_cache(maxsize=256)
def _split_name(name: str) -> tuple[str, str]:
    # Expat joins namespace URI and local name with "}"; a name without one
    # is in no namespace.
    ns, sep, local = name.partition("}")
    return (ns, local) if sep else ("", name)


class _TreeBuilder:
    """Expat handlers that build XmlElement nodes as the parse goes.

    A node's text is every character-data event between its tags, comments
    and processing instructions dropped. The first semantic error in
    document order (an element in no namespace at its start tag, mixed
    content at its end tag) is only remembered, as text: it is raised after
    expat has accepted the whole document, so a syntax error anywhere wins.
    (A kept exception would hold, through its traceback, the frame that
    holds this builder: a cycle only the collector frees.)
    Nesting deeper than ``MAX_DEPTH`` is raised at once and ends the parse.
    """

    def __init__(self) -> None:
        # Open elements as [ns, local, attrs, children, text chunks], under
        # a frame whose one child is the root.
        self.stack: list[list] = [["", "", (), [], []]]
        self.error: str | None = None

    def start(self, name: str, attributes: list[str]) -> None:
        if len(self.stack) > MAX_DEPTH:
            raise MalformedXml(f"elements nest deeper than {MAX_DEPTH} levels")
        ns, local = _split_name(name)
        if not ns and self.error is None:
            # canonicalize could never write it, so reject it at parse
            self.error = f"element {local!r} has no namespace"
        attrs = ()
        if attributes:
            # expat rejects a repeated (namespace, name), so the sort never
            # compares two values
            attrs = tuple(sorted(zip(map(_split_name, attributes[::2]), attributes[1::2])))
        self.stack.append([ns, local, attrs, [], []])

    def end(self, name: str) -> None:
        stack = self.stack
        ns, local, attrs, children, chunks = stack.pop()
        text = "".join(chunks).strip(_XML_WS) if chunks else ""
        if children:
            if text and self.error is None:
                self.error = f"mixed content inside <{local}> is not accepted"
            children, text = tuple(children), ""
        else:
            children = ()
        # XmlElement(...) without the frozen dataclass's five
        # object.__setattr__ calls, which cost a sixth of the parse.
        node = _new_object(XmlElement)
        node.__dict__.update(ns=ns, local=local, attrs=attrs, children=children, text=text)
        stack[-1][3].append(node)

    def data(self, text: str) -> None:
        self.stack[-1][4].append(text)


def parse_xml(data: bytes | str) -> XmlElement:
    """Parse UTF-8 XML into the element model; rejects other encodings,
    DTDs, mixed content and nesting deeper than ``MAX_DEPTH``."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    if not isinstance(raw, (bytes, bytearray)):
        raise MalformedXml(f"expected bytes, got {type(raw).__name__}")
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedXml(f"document is not UTF-8: {exc.reason} at byte {exc.start}") from None
    if b"\x00" in raw:
        # XML forbids NUL, and expat reads NUL-interleaved bytes as UTF-16
        # whatever encoding it is told.
        raise MalformedXml("document is not UTF-8: NUL byte")
    builder = _TreeBuilder()
    parser = expat.ParserCreate("utf-8", "}")
    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.StartDoctypeDeclHandler = _reject_doctype
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.data
    try:
        parser.Parse(raw, True)
    except expat.ExpatError as exc:
        raise MalformedXml(str(exc)) from None
    if builder.error is not None:
        raise MalformedXml(builder.error)
    return builder.stack[0][3][0]


# ---------------------------------------------------------------------------
# Shared low-level helpers
# ---------------------------------------------------------------------------


def _parse_instant(value: str | None, where: str) -> Instant:
    if value is None:
        raise MissingRequiredElement(where)
    try:
        return Instant.parse(value)
    except ValueError:
        raise BadTimestamp(f"{where}: {value!r} is not an ISO-8601 UTC timestamp ending in Z") from None


def _require_attr(elem: XmlElement, name: str) -> str:
    value = elem.attr(name)
    if value is None:
        raise MissingRequiredElement(f"{elem.local}@{name}")
    return value


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str, where: str) -> bytes:
    """Decode canonical base64 only: base64 whose unused trailing bits are
    not zero decodes to the same bytes as another text, and nothing would
    cover the difference."""
    try:
        encoded = text.encode("ascii")
        decoded = base64.b64decode(encoded, validate=True)
        if base64.b64encode(decoded) == encoded:
            return decoded
    except (binascii.Error, ValueError, UnicodeEncodeError):
        pass
    raise MalformedXml(f"{where}: invalid base64 content")


def _open(elem: XmlElement, ns: str, local: str, allowed: set[tuple[str, str]]) -> None:
    """Protocol-message prologue: root tag, then Version, then children."""
    if (elem.ns, elem.local) != (ns, local):
        raise MalformedXml(f"expected <{local}>, got <{elem.local}>")
    if elem.attr("Version") != "2.0":
        raise MalformedXml(f"<{elem.local}> must declare Version=\"2.0\"")
    _reject_unknown(elem, allowed)


def _issuer_id(issuer: XmlElement) -> EntityId:
    try:
        return EntityId(issuer.text or "")
    except ValueError:
        raise MalformedXml("issuer must be a non-empty entity id") from None


def _signature_of(elem: XmlElement) -> Signature | None:
    sig = elem.find("Signature", NS_DSIG)
    return signature_from_element(sig) if sig is not None else None


def _reject_unknown(elem: XmlElement, allowed: set[tuple[str, str]]) -> None:
    """Strict-parse rule: SAML-namespace children must be known; foreign
    namespaces are preserved opaquely in the element tree but ignored here."""
    for child in elem.children:
        if child.ns in _SAML_NAMESPACES and (child.ns, child.local) not in allowed:
            raise MalformedXml(f"unexpected element <{child.local}> inside <{elem.local}>")


# ---------------------------------------------------------------------------
# Signature and encrypted-assertion fragments
# ---------------------------------------------------------------------------


# ds:SignedInfo and ds:Signature have one fixed shape, so they are rendered
# straight to their canonical bytes: every element is in the ds namespace,
# which the outermost one declares, and no element has two attributes.
_DS_OPEN = f'xmlns:ds="{NS_DSIG}"'


def _text(tag: str, text: str, attrs: str = "") -> str:
    """An element that holds only ``text``; without text it closes itself."""
    if not text:
        return f"<{tag}{attrs}/>"
    return f"<{tag}{attrs}>{_escape_text(text)}</{tag}>"


def _keyinfo(cert_text: str, declare: str = "") -> str:
    """A ds:KeyInfo holding one certificate as base64 ``cert_text``."""
    return (
        f"<ds:KeyInfo{declare}><ds:X509Data>{_text('ds:X509Certificate', cert_text)}"
        "</ds:X509Data></ds:KeyInfo>"
    )


def _signed_info(sig_alg: str, digest_alg: str, ref_id: str, digest: bytes, declare: str) -> str:
    return (
        f'<ds:SignedInfo{declare}><ds:SignatureMethod Algorithm="{_escape_attr(sig_alg)}"/>'
        f'<ds:Reference URI="{_escape_attr("#" + ref_id)}">'
        f'<ds:DigestMethod Algorithm="{_escape_attr(digest_alg)}"/>'
        f'{_text("ds:DigestValue", _b64(digest))}</ds:Reference></ds:SignedInfo>'
    )


def signed_info_bytes(sig_alg: str, digest_alg: str, ref_id: str, digest: bytes) -> bytes:
    """Canonical bytes of the SignedInfo that the signature value covers."""
    return _signed_info(sig_alg, digest_alg, ref_id, digest, " " + _DS_OPEN).encode("utf-8")


def _signature(sig: Signature | None) -> str:
    if sig is None:
        return ""
    parts = [
        f"<ds:Signature {_DS_OPEN}>",
        _signed_info(
            sig.signature_algorithm, sig.digest_algorithm, sig.reference_id, sig.digest_value, ""
        ),
        _text("ds:SignatureValue", _b64(sig.signature_value)),
    ]
    if sig.certificate:
        # KeyInfo is optional; redirect-bound messages omit it to fit the URL
        # budget and the verifier falls back to metadata-pinned certificates.
        parts.append(_keyinfo(_b64(sig.certificate)))
    parts.append("</ds:Signature>")
    return "".join(parts)


def signature_bytes(sig: Signature) -> bytes:
    """Canonical bytes of ``sig`` as a ds:Signature element."""
    return _signature(sig).encode("utf-8")


def signature_from_element(elem: XmlElement) -> Signature:
    signed_info = elem.require("SignedInfo", NS_DSIG)
    method = signed_info.require("SignatureMethod", NS_DSIG)
    reference = signed_info.require("Reference", NS_DSIG)
    digest_method = reference.require("DigestMethod", NS_DSIG)
    digest_value = reference.require("DigestValue", NS_DSIG)
    uri = _require_attr(reference, "URI")
    if not uri.startswith("#"):
        raise MalformedXml(f"signature reference URI must be a fragment, got {uri!r}")
    sig_value = elem.require("SignatureValue", NS_DSIG)
    key_info = elem.find("KeyInfo", NS_DSIG)
    certificate = b""
    if key_info is not None:
        cert = key_info.require("X509Data", NS_DSIG).require("X509Certificate", NS_DSIG)
        certificate = _unb64(cert.text, "X509Certificate")
    return Signature(
        digest_algorithm=_require_attr(digest_method, "Algorithm"),
        signature_algorithm=_require_attr(method, "Algorithm"),
        reference_id=uri[1:],
        digest_value=_unb64(digest_value.text, "DigestValue"),
        signature_value=_unb64(sig_value.text, "SignatureValue"),
        certificate=certificate,
    )


def strip_signature(elem: XmlElement) -> tuple[XmlElement, XmlElement | None]:
    """Remove the enveloped ds:Signature child, returning (stripped, signature)."""
    sig = elem.find("Signature", NS_DSIG)
    if sig is None:
        return elem, None
    remaining = tuple(c for c in elem.children if c is not sig)
    return XmlElement(elem.ns, elem.local, elem.attrs, remaining, elem.text), sig


def signed_payload_bytes(elem: XmlElement) -> bytes:
    """Canonical bytes an enveloped signature over ``elem`` covers."""
    stripped, _ = strip_signature(elem)
    return canonicalize(stripped)


def insert_signature(unsigned: bytes, signature: Signature) -> bytes:
    """The canonical bytes of a signed protocol message, from the bytes of
    the same message without its signature.

    Every element declares the namespaces it uses that its ancestors did
    not, so ds:Signature renders alone exactly as it does in place, right
    after the leading Issuer. Canonical bytes hold no unescaped "<" in text
    or attribute values, so the root's first child tag is the first "<"
    after offset 0, and the Issuer ends at its own "/>" or at the "</"
    that follows its text.
    """
    start = unsigned.find(b"<", 1)
    if not unsigned.startswith(b"<saml:Issuer", start):
        raise ValueError("message does not start with an Issuer")
    end = unsigned.index(b">", start) + 1
    if unsigned[end - 2] != ord("/"):
        end = unsigned.index(b">", unsigned.index(b"<", end)) + 1
    return unsigned[:end] + signature_bytes(signature) + unsigned[end:]


# The emitters of signable messages keep the bytes they render on the
# frozen instance, under this key of its __dict__: outside the dataclass
# fields, so never compared, hashed or shown. ``dataclasses.replace``
# builds a new instance, so kept bytes never outlive the fields they were
# rendered from; two threads keeping the same bytes at once is harmless.
_EMITTED = "_emitted_bytes"


def keep_emitted(message: object, data: bytes) -> None:
    """Record ``data`` as what the emitter of ``message``'s kind renders."""
    message.__dict__[_EMITTED] = data


def _emit_once(message, render) -> bytes:
    data = message.__dict__.get(_EMITTED)
    if data is None:
        data = render(message)
        keep_emitted(message, data)
    return data


# The protocol messages are rendered straight to the bytes canonicalize
# writes for their element trees: attributes in (namespace, local name)
# order, which for these unqualified attributes is name order; an element
# with neither text nor children closed in its start tag; and each
# namespace declared on every element that uses it below an ancestor that
# did not. A protocol root declares only samlp, so each saml child of it
# declares saml again.
_SAML_NS = f' xmlns:saml="{NS_ASSERTION}"'
_SAMLP_NS = f' xmlns:samlp="{NS_PROTOCOL}"'


def _attr(name: str, value: str) -> str:
    return f' {name}="{_escape_attr(value)}"'


def _opt(name: str, value: str | None) -> str:
    """An optional attribute: nothing when it is absent."""
    return "" if value is None else _attr(name, value)


def _parent(tag: str, attrs: str, children: str) -> str:
    """An element that holds only ``children``; without them it closes itself."""
    if not children:
        return f"<{tag}{attrs}/>"
    return f"<{tag}{attrs}>{children}</{tag}>"


def _protocol(local: str, attrs: str, instant: Instant, issuer: str,
              signature: Signature | None, body: str = "") -> bytes:
    """A samlp message: the root with ``attrs`` (every attribute that sorts
    before IssueInstant), IssueInstant and Version; then its Issuer, its
    signature if any, and ``body``."""
    return (
        f'<samlp:{local}{_SAMLP_NS}{attrs} IssueInstant="{instant.isoformat()}" Version="2.0">'
        f"{_text('saml:Issuer', issuer, _SAML_NS)}{_signature(signature)}{body}</samlp:{local}>"
    ).encode("utf-8")


def _status(value: str) -> str:
    return f"<samlp:Status><samlp:StatusCode{_attr('Value', value)}/></samlp:Status>"


def _encrypted_assertion(enc: EncryptedAssertion) -> str:
    return (
        f'<saml:EncryptedAssertion{_SAML_NS}><xenc:EncryptedData xmlns:xenc="{NS_XMLENC}">'
        f"<xenc:EncryptionMethod{_attr('Algorithm', enc.algorithm)}/>"
        f"<ds:KeyInfo {_DS_OPEN}><xenc:EncryptedKey><xenc:CipherData>"
        f"{_text('xenc:CipherValue', _b64(enc.encrypted_key))}"
        "</xenc:CipherData></xenc:EncryptedKey></ds:KeyInfo><xenc:CipherData>"
        f"{_text('xenc:CipherValue', _b64(enc.iv + enc.ciphertext))}"
        "</xenc:CipherData></xenc:EncryptedData></saml:EncryptedAssertion>"
    )


def encrypted_assertion_from_element(elem: XmlElement) -> EncryptedAssertion:
    data = elem.require("EncryptedData", NS_XMLENC)
    method = data.require("EncryptionMethod", NS_XMLENC)
    key_info = data.require("KeyInfo", NS_DSIG)
    enc_key = key_info.require("EncryptedKey", NS_XMLENC)
    wrapped = _unb64(
        enc_key.require("CipherData", NS_XMLENC).require("CipherValue", NS_XMLENC).text,
        "EncryptedKey CipherValue",
    )
    cipher = _unb64(
        data.require("CipherData", NS_XMLENC).require("CipherValue", NS_XMLENC).text,
        "CipherValue",
    )
    if len(cipher) < 32:
        raise MalformedXml("cipher value shorter than IV plus one block")
    return EncryptedAssertion(
        algorithm=_require_attr(method, "Algorithm"),
        encrypted_key=wrapped,
        iv=cipher[:16],
        ciphertext=cipher[16:],
    )


# ---------------------------------------------------------------------------
# Assertion
# ---------------------------------------------------------------------------


def _render_assertion(assertion: Assertion) -> bytes:
    subject, stmt = assertion.subject, assertion.authn_statement
    confirmation, conditions = subject.confirmation, assertion.conditions
    audiences = "".join(_text("saml:Audience", a.value) for a in conditions.audiences)
    locality = ""
    if stmt.locality_address is not None or stmt.locality_dns is not None:
        locality = (
            f"<saml:SubjectLocality{_opt('Address', stmt.locality_address)}"
            f"{_opt('DNSName', stmt.locality_dns)}/>"
        )
    parts = [
        f"<saml:Assertion{_SAML_NS}{_attr('ID', assertion.id)}"
        f' IssueInstant="{assertion.issue_instant.isoformat()}" Version="2.0">',
        _text("saml:Issuer", assertion.issuer),
        _signature(assertion.signature),
        "<saml:Subject>",
        _text("saml:NameID", subject.name_id, _opt("Format", subject.name_id_format or None)),
        f"<saml:SubjectConfirmation{_attr('Method', confirmation.method)}>"
        "<saml:SubjectConfirmationData"
        f' NotOnOrAfter="{confirmation.not_on_or_after.isoformat()}"'
        f"{_attr('Recipient', confirmation.recipient)}/></saml:SubjectConfirmation></saml:Subject>",
        _parent(
            "saml:Conditions",
            f' NotBefore="{conditions.not_before.isoformat()}"'
            f' NotOnOrAfter="{conditions.not_on_or_after.isoformat()}"',
            f"<saml:AudienceRestriction>{audiences}</saml:AudienceRestriction>" if audiences else "",
        ),
        _parent(
            "saml:AuthnStatement",
            f' AuthnInstant="{stmt.authn_instant.isoformat()}"'
            f"{_attr('SessionIndex', stmt.session_index)}",
            locality,
        ),
    ]
    if assertion.attributes:
        parts.append("<saml:AttributeStatement>")
        for attr in assertion.attributes:
            parts.append(
                _parent(
                    "saml:Attribute",
                    f"{_opt('FriendlyName', attr.friendly_name)}{_attr('Name', attr.name)}"
                    f"{_opt('NameFormat', attr.name_format)}",
                    "".join(_text("saml:AttributeValue", v) for v in attr.values),
                )
            )
        parts.append("</saml:AttributeStatement>")
    parts.append("</saml:Assertion>")
    return "".join(parts).encode("utf-8")


def emit_assertion(assertion: Assertion) -> bytes:
    return _emit_once(assertion, _render_assertion)


_ASSERTION_CHILDREN = {
    (NS_ASSERTION, "Issuer"),
    (NS_ASSERTION, "Subject"),
    (NS_ASSERTION, "Conditions"),
    (NS_ASSERTION, "AuthnStatement"),
    (NS_ASSERTION, "AttributeStatement"),
    (NS_ASSERTION, "AuthzDecisionStatement"),  # parsed-and-ignored
}


def assertion_from_element(elem: XmlElement) -> Assertion:
    _open(elem, NS_ASSERTION, "Assertion", _ASSERTION_CHILDREN)

    issuer = elem.require("Issuer", NS_ASSERTION)
    subject_elem = elem.require("Subject", NS_ASSERTION)
    name_id = subject_elem.require("NameID", NS_ASSERTION)
    confirmation_elem = subject_elem.require("SubjectConfirmation", NS_ASSERTION)
    data = confirmation_elem.require("SubjectConfirmationData", NS_ASSERTION)
    confirmation = SubjectConfirmation(
        method=_require_attr(confirmation_elem, "Method"),
        not_on_or_after=_parse_instant(data.attr("NotOnOrAfter"), "SubjectConfirmationData@NotOnOrAfter"),
        recipient=_require_attr(data, "Recipient"),
    )
    subject = Subject(
        name_id=name_id.text or "",
        confirmation=confirmation,
        name_id_format=name_id.attr("Format"),
    )

    cond_elem = elem.require("Conditions", NS_ASSERTION)
    audiences: list[EntityId] = []
    for restriction in cond_elem.find_all("AudienceRestriction", NS_ASSERTION):
        for audience in restriction.find_all("Audience", NS_ASSERTION):
            if audience.text:
                audiences.append(EntityId(audience.text))
    conditions = Conditions(
        not_before=_parse_instant(cond_elem.attr("NotBefore"), "Conditions@NotBefore"),
        not_on_or_after=_parse_instant(cond_elem.attr("NotOnOrAfter"), "Conditions@NotOnOrAfter"),
        audiences=tuple(audiences),
    )

    stmt_elem = elem.require("AuthnStatement", NS_ASSERTION)
    locality = stmt_elem.find("SubjectLocality", NS_ASSERTION)
    statement = AuthnStatement(
        authn_instant=_parse_instant(stmt_elem.attr("AuthnInstant"), "AuthnStatement@AuthnInstant"),
        session_index=_require_attr(stmt_elem, "SessionIndex"),
        locality_address=locality.attr("Address") if locality is not None else None,
        locality_dns=locality.attr("DNSName") if locality is not None else None,
    )

    attributes: list[Attribute] = []
    attr_stmt = elem.find("AttributeStatement", NS_ASSERTION)
    if attr_stmt is not None:
        for attr_elem in attr_stmt.find_all("Attribute", NS_ASSERTION):
            values = tuple(
                v.text or "" for v in attr_elem.find_all("AttributeValue", NS_ASSERTION)
            )
            attributes.append(
                Attribute(
                    name=_require_attr(attr_elem, "Name"),
                    values=values,
                    friendly_name=attr_elem.attr("FriendlyName"),
                    name_format=attr_elem.attr("NameFormat"),
                )
            )

    issuer_id = _issuer_id(issuer)
    try:
        return Assertion(
            id=_require_attr(elem, "ID"),
            issue_instant=_parse_instant(elem.attr("IssueInstant"), "Assertion@IssueInstant"),
            issuer=issuer_id.value,
            subject=subject,
            conditions=conditions,
            authn_statement=statement,
            attributes=tuple(attributes),
            signature=_signature_of(elem),
        )
    except ValueError as exc:
        raise MalformedXml(str(exc)) from None


def parse_assertion(data: bytes | str) -> Assertion:
    return assertion_from_element(parse_xml(data))


# ---------------------------------------------------------------------------
# Response
# ---------------------------------------------------------------------------


_RESPONSE_END = b"</samlp:Response>"


def _render_response(response: Response) -> bytes:
    inner = response.assertion
    body = _encrypted_assertion(inner) if isinstance(inner, EncryptedAssertion) else ""
    data = _protocol(
        "Response",
        f"{_opt('Consent', response.consent)}{_attr('Destination', response.destination)}"
        f"{_attr('ID', response.id)}",
        response.issue_instant,
        response.issuer,
        response.signature,
        _status(response.status) + body,
    )
    if not isinstance(inner, Assertion):
        return data
    # The assertion declares its own namespace, so its kept bytes are its
    # bytes in place: they go in as the Response's last child.
    return data[: -len(_RESPONSE_END)] + emit_assertion(inner) + _RESPONSE_END


def emit_response(response: Response) -> bytes:
    return _emit_once(response, _render_response)


_RESPONSE_CHILDREN = {
    (NS_ASSERTION, "Issuer"),
    (NS_PROTOCOL, "Status"),
    (NS_ASSERTION, "Assertion"),
    (NS_ASSERTION, "EncryptedAssertion"),
}


def response_from_element(elem: XmlElement) -> Response:
    _open(elem, NS_PROTOCOL, "Response", _RESPONSE_CHILDREN)

    issuer = elem.require("Issuer", NS_ASSERTION)
    status = elem.require("Status", NS_PROTOCOL).require("StatusCode", NS_PROTOCOL)
    issuer_id = _issuer_id(issuer)
    plain = elem.find_all("Assertion", NS_ASSERTION)
    encrypted = elem.find_all("EncryptedAssertion", NS_ASSERTION)
    if plain and encrypted:
        raise MalformedXml("response carries both a plain and an encrypted assertion")
    if len(plain) + len(encrypted) > 1:
        raise MalformedXml("response carries more than one assertion")
    assertion: Assertion | EncryptedAssertion | None = None
    if plain:
        assertion = assertion_from_element(plain[0])
    elif encrypted:
        assertion = encrypted_assertion_from_element(encrypted[0])

    return Response(
        id=_require_attr(elem, "ID"),
        issue_instant=_parse_instant(elem.attr("IssueInstant"), "Response@IssueInstant"),
        issuer=issuer_id.value,
        destination=_require_attr(elem, "Destination"),
        status=_require_attr(status, "Value"),
        assertion=assertion,
        signature=_signature_of(elem),
        consent=elem.attr("Consent"),
    )


def parse_response(data: bytes | str) -> Response:
    return response_from_element(parse_xml(data))


# ---------------------------------------------------------------------------
# AuthnRequest / Logout messages / ArtifactResolve
# ---------------------------------------------------------------------------


def _render_authn_request(request: AuthnRequest) -> bytes:
    return _protocol(
        "AuthnRequest",
        f"{_attr('AssertionConsumerServiceURL', request.acs_url)}{_attr('ID', request.id)}",
        request.issue_instant,
        request.issuer.value,
        request.signature,
    )


def emit_authn_request(request: AuthnRequest) -> bytes:
    return _emit_once(request, _render_authn_request)


def authn_request_from_element(elem: XmlElement) -> AuthnRequest:
    _open(elem, NS_PROTOCOL, "AuthnRequest", {(NS_ASSERTION, "Issuer")})
    issuer_id = _issuer_id(elem.require("Issuer", NS_ASSERTION))
    return AuthnRequest(
        id=_require_attr(elem, "ID"),
        issue_instant=_parse_instant(elem.attr("IssueInstant"), "AuthnRequest@IssueInstant"),
        issuer=issuer_id,
        acs_url=_require_attr(elem, "AssertionConsumerServiceURL"),
        signature=_signature_of(elem),
    )


def _render_logout_request(request: LogoutRequest) -> bytes:
    return _protocol(
        "LogoutRequest",
        _attr("ID", request.id),
        request.issue_instant,
        request.issuer.value,
        request.signature,
        _text("saml:NameID", request.name_id, _SAML_NS)
        + _text("samlp:SessionIndex", request.session_index),
    )


def emit_logout_request(request: LogoutRequest) -> bytes:
    return _emit_once(request, _render_logout_request)


def logout_request_from_element(elem: XmlElement) -> LogoutRequest:
    _open(
        elem,
        NS_PROTOCOL,
        "LogoutRequest",
        {(NS_ASSERTION, "Issuer"), (NS_ASSERTION, "NameID"), (NS_PROTOCOL, "SessionIndex")},
    )
    issuer = elem.require("Issuer", NS_ASSERTION)
    name_id = elem.require("NameID", NS_ASSERTION)
    session_index = elem.require("SessionIndex", NS_PROTOCOL)
    issuer_id = _issuer_id(issuer)
    return LogoutRequest(
        id=_require_attr(elem, "ID"),
        issue_instant=_parse_instant(elem.attr("IssueInstant"), "LogoutRequest@IssueInstant"),
        issuer=issuer_id,
        name_id=name_id.text or "",
        session_index=session_index.text or "",
        signature=_signature_of(elem),
    )


def _render_logout_response(response: LogoutResponse) -> bytes:
    return _protocol(
        "LogoutResponse",
        f"{_attr('ID', response.id)}{_opt('InResponseTo', response.in_response_to)}",
        response.issue_instant,
        response.issuer.value,
        response.signature,
        _status(response.status),
    )


def emit_logout_response(response: LogoutResponse) -> bytes:
    return _emit_once(response, _render_logout_response)


def logout_response_from_element(elem: XmlElement) -> LogoutResponse:
    _open(
        elem, NS_PROTOCOL, "LogoutResponse", {(NS_ASSERTION, "Issuer"), (NS_PROTOCOL, "Status")}
    )
    issuer = elem.require("Issuer", NS_ASSERTION)
    status = elem.require("Status", NS_PROTOCOL).require("StatusCode", NS_PROTOCOL)
    issuer_id = _issuer_id(issuer)
    return LogoutResponse(
        id=_require_attr(elem, "ID"),
        issue_instant=_parse_instant(elem.attr("IssueInstant"), "LogoutResponse@IssueInstant"),
        issuer=issuer_id,
        status=_require_attr(status, "Value"),
        in_response_to=elem.attr("InResponseTo"),
        signature=_signature_of(elem),
    )


def parse_logout_response(data: bytes | str) -> LogoutResponse:
    return logout_response_from_element(parse_xml(data))


def emit_artifact_resolve(request_id: str, issue_instant: Instant, issuer: EntityId,
                          artifacts: tuple[str, ...]) -> bytes:
    return _protocol(
        "ArtifactResolve",
        _attr("ID", request_id),
        issue_instant,
        issuer.value,
        None,
        "".join(_text("samlp:Artifact", a) for a in artifacts),
    )


def parse_artifact_resolve(data: bytes | str) -> tuple[EntityId, tuple[str, ...]]:
    elem = parse_xml(data)
    _open(
        elem, NS_PROTOCOL, "ArtifactResolve", {(NS_ASSERTION, "Issuer"), (NS_PROTOCOL, "Artifact")}
    )
    issuer = elem.require("Issuer", NS_ASSERTION)
    artifacts = tuple(a.text for a in elem.find_all("Artifact", NS_PROTOCOL) if a.text)
    if not artifacts:
        raise MissingRequiredElement("Artifact")
    return _issuer_id(issuer), artifacts


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    binding: str
    location: str


@dataclass(frozen=True)
class IndexedEndpoint:
    index: int
    binding: str
    location: str
    is_default: bool = False


@dataclass(frozen=True)
class EncryptionKey:
    """Encryption key descriptor; the certificate stays opaque base64 text
    until crypto actually needs it (sample metadata may carry placeholders)."""

    certificate: str
    algorithm: str | None = None
    key_size: int | None = None

    def __post_init__(self) -> None:
        # KeySize is carried inside EncryptionMethod and cannot stand alone.
        if self.key_size is not None and self.algorithm is None:
            raise ValueError("key_size requires an encryption algorithm")


@dataclass(frozen=True)
class IdpSsoDescriptor:
    want_authn_requests_signed: bool
    protocol_support: str
    sso_endpoints: tuple[Endpoint, ...]
    signing_certs: tuple[str, ...] = ()
    encryption_keys: tuple[EncryptionKey, ...] = ()
    single_logout_endpoints: tuple[Endpoint, ...] = ()
    artifact_resolution_endpoints: tuple[IndexedEndpoint, ...] = ()

    def __post_init__(self) -> None:
        if not self.sso_endpoints:
            raise ValueError("IdP descriptor needs at least one single-sign-on endpoint")


@dataclass(frozen=True)
class SpSsoDescriptor:
    authn_requests_signed: bool
    want_assertions_signed: bool
    protocol_support: str
    acs_endpoints: tuple[IndexedEndpoint, ...]
    name_id_formats: tuple[str, ...] = ()
    signing_certs: tuple[str, ...] = ()
    encryption_keys: tuple[EncryptionKey, ...] = ()
    single_logout_endpoints: tuple[Endpoint, ...] = ()

    def __post_init__(self) -> None:
        if not self.acs_endpoints:
            raise ValueError("SP descriptor needs at least one assertion consumer endpoint")
        indices = [e.index for e in self.acs_endpoints]
        if len(set(indices)) != len(indices):
            raise ValueError("assertion consumer endpoint indices must be unique")

    def default_acs(self) -> IndexedEndpoint:
        marked = [e for e in self.acs_endpoints if e.is_default]
        if marked:
            return marked[0]
        return min(self.acs_endpoints, key=lambda e: e.index)


@dataclass(frozen=True)
class Organization:
    name: str
    display_name: str
    url: str
    name_lang: str = "en-us"
    display_name_lang: str = "en-us"
    url_lang: str = "en-us"


@dataclass(frozen=True)
class EntityDescriptor:
    entity_id: EntityId
    role: IdpSsoDescriptor | SpSsoDescriptor
    document_id: str | None = None
    organization: Organization | None = None

    @property
    def is_idp(self) -> bool:
        return isinstance(self.role, IdpSsoDescriptor)


# Metadata is rendered straight to the bytes canonicalize writes for its
# element tree, as the protocol messages are: the root declares md, each
# ds:KeyInfo and xenc:KeySize declares its own namespace (siblings share no
# scope), and xml:lang is bound without a declaration.
_MD_NS = f' xmlns:md="{NS_METADATA}"'


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _key_descriptors(
    signing_certs: tuple[str, ...], encryption_keys: tuple[EncryptionKey, ...]
) -> str:
    parts = [
        f'<md:KeyDescriptor use="signing">{_keyinfo(cert, " " + _DS_OPEN)}</md:KeyDescriptor>'
        for cert in signing_certs
    ]
    for key in encryption_keys:
        method = ""
        if key.algorithm is not None:
            size = ""
            if key.key_size is not None:
                size = _text("xenc:KeySize", str(key.key_size), f' xmlns:xenc="{NS_XMLENC}"')
            method = _parent("md:EncryptionMethod", _attr("Algorithm", key.algorithm), size)
        parts.append(
            f'<md:KeyDescriptor use="encryption">{_keyinfo(key.certificate, " " + _DS_OPEN)}'
            f"{method}</md:KeyDescriptor>"
        )
    return "".join(parts)


def _endpoints(tag: str, endpoints: tuple[Endpoint, ...] | tuple[IndexedEndpoint, ...]) -> str:
    parts = []
    for ep in endpoints:
        attrs = f"{_attr('Binding', ep.binding)}{_attr('Location', ep.location)}"
        if isinstance(ep, IndexedEndpoint):
            attrs += _attr("index", str(ep.index)) + (' isDefault="true"' if ep.is_default else "")
        parts.append(f"<md:{tag}{attrs}/>")
    return "".join(parts)


def _role(role: IdpSsoDescriptor | SpSsoDescriptor) -> str:
    keys = _key_descriptors(role.signing_certs, role.encryption_keys)
    if isinstance(role, IdpSsoDescriptor):
        return _parent(
            "md:IDPSSODescriptor",
            f' WantAuthnRequestsSigned="{_flag(role.want_authn_requests_signed)}"'
            f"{_attr('protocolSupportEnumeration', role.protocol_support)}",
            keys
            + _endpoints("ArtifactResolutionService", role.artifact_resolution_endpoints)
            + _endpoints("SingleLogoutService", role.single_logout_endpoints)
            + _endpoints("SingleSignOnService", role.sso_endpoints),
        )
    return _parent(
        "md:SPSSODescriptor",
        f' AuthnRequestsSigned="{_flag(role.authn_requests_signed)}"'
        f' WantAssertionsSigned="{_flag(role.want_assertions_signed)}"'
        f"{_attr('protocolSupportEnumeration', role.protocol_support)}",
        keys
        + _endpoints("SingleLogoutService", role.single_logout_endpoints)
        + "".join(_text("md:NameIDFormat", fmt) for fmt in role.name_id_formats)
        + _endpoints("AssertionConsumerService", role.acs_endpoints),
    )


def emit_metadata(entity: EntityDescriptor) -> bytes:
    body = _role(entity.role)
    org = entity.organization
    if org is not None:
        body += (
            "<md:Organization>"
            + _text("md:OrganizationName", org.name, _attr("xml:lang", org.name_lang))
            + _text("md:OrganizationDisplayName", org.display_name, _attr("xml:lang", org.display_name_lang))
            + _text("md:OrganizationURL", org.url, _attr("xml:lang", org.url_lang))
            + "</md:Organization>"
        )
    return _parent(
        "md:EntityDescriptor",
        f"{_MD_NS}{_opt('ID', entity.document_id)}{_attr('entityID', entity.entity_id.value)}",
        body,
    ).encode("utf-8")


def _parse_bool(value: str | None, default: bool = False) -> bool:
    if value is None:
        return default
    if value in ("true", "1"):
        return True
    if value in ("false", "0"):
        return False
    raise MalformedXml(f"expected boolean attribute value, got {value!r}")


def _parse_key_descriptors(
    role_elem: XmlElement,
) -> tuple[tuple[str, ...], tuple[EncryptionKey, ...]]:
    signing: list[str] = []
    encryption: list[EncryptionKey] = []
    for kd in role_elem.find_all("KeyDescriptor", NS_METADATA):
        cert_elem = (
            kd.require("KeyInfo", NS_DSIG)
            .require("X509Data", NS_DSIG)
            .require("X509Certificate", NS_DSIG)
        )
        cert_text = cert_elem.text
        method = kd.find("EncryptionMethod", NS_METADATA)
        algorithm = None
        key_size = None
        if method is not None:
            algorithm = _require_attr(method, "Algorithm")
            size_elem = method.find("KeySize", NS_XMLENC)
            if size_elem is not None:
                try:
                    key_size = int(size_elem.text)
                except ValueError:
                    raise MalformedXml(f"KeySize must be an integer, got {size_elem.text!r}") from None
        use = kd.attr("use")
        if use not in (None, "signing", "encryption"):
            raise MalformedXml(f"unknown key descriptor use {use!r}")
        # Absent "use" means the key serves both purposes.
        if use in (None, "signing"):
            signing.append(cert_text)
        if use in (None, "encryption"):
            encryption.append(EncryptionKey(cert_text, algorithm, key_size))
    return tuple(signing), tuple(encryption)


def _parse_endpoint(elem: XmlElement) -> Endpoint:
    binding = _require_attr(elem, "Binding")
    if binding not in KNOWN_BINDINGS:
        raise MalformedXml(f"unrecognized binding {binding!r}")
    return Endpoint(binding, _require_attr(elem, "Location"))


def _parse_indexed_endpoint(elem: XmlElement) -> IndexedEndpoint:
    plain = _parse_endpoint(elem)
    try:
        index = int(_require_attr(elem, "index"))
    except ValueError:
        raise MalformedXml(f"endpoint index must be an integer, got {elem.attr('index')!r}") from None
    return IndexedEndpoint(
        index=index,
        binding=plain.binding,
        location=plain.location,
        is_default=_parse_bool(elem.attr("isDefault"), default=False),
    )


_IDP_ROLE_CHILDREN = {
    (NS_METADATA, "KeyDescriptor"),
    (NS_METADATA, "SingleSignOnService"),
    (NS_METADATA, "SingleLogoutService"),
    (NS_METADATA, "ArtifactResolutionService"),
    (NS_METADATA, "NameIDFormat"),
}

_SP_ROLE_CHILDREN = {
    (NS_METADATA, "KeyDescriptor"),
    (NS_METADATA, "AssertionConsumerService"),
    (NS_METADATA, "SingleLogoutService"),
    (NS_METADATA, "NameIDFormat"),
}


def metadata_from_element(elem: XmlElement) -> EntityDescriptor:
    if (elem.ns, elem.local) != (NS_METADATA, "EntityDescriptor"):
        raise MalformedXml(f"expected <EntityDescriptor>, got <{elem.local}>")
    _reject_unknown(
        elem,
        {
            (NS_METADATA, "IDPSSODescriptor"),
            (NS_METADATA, "SPSSODescriptor"),
            (NS_METADATA, "Organization"),
        },
    )
    idp_elem = elem.find("IDPSSODescriptor", NS_METADATA)
    sp_elem = elem.find("SPSSODescriptor", NS_METADATA)
    if (idp_elem is None) == (sp_elem is None):
        raise UnknownRole("exactly one of IDPSSODescriptor or SPSSODescriptor is required")

    role: IdpSsoDescriptor | SpSsoDescriptor
    if idp_elem is not None:
        _reject_unknown(idp_elem, _IDP_ROLE_CHILDREN)
        signing, encryption = _parse_key_descriptors(idp_elem)
        sso = tuple(
            _parse_endpoint(e) for e in idp_elem.find_all("SingleSignOnService", NS_METADATA)
        )
        slo = tuple(
            _parse_endpoint(e) for e in idp_elem.find_all("SingleLogoutService", NS_METADATA)
        )
        ars = tuple(
            _parse_indexed_endpoint(e)
            for e in idp_elem.find_all("ArtifactResolutionService", NS_METADATA)
        )
        if not sso:
            raise MissingRequiredElement("SingleSignOnService")
        role = IdpSsoDescriptor(
            want_authn_requests_signed=_parse_bool(idp_elem.attr("WantAuthnRequestsSigned")),
            protocol_support=_require_attr(idp_elem, "protocolSupportEnumeration"),
            sso_endpoints=sso,
            signing_certs=signing,
            encryption_keys=encryption,
            single_logout_endpoints=slo,
            artifact_resolution_endpoints=ars,
        )
    else:
        _reject_unknown(sp_elem, _SP_ROLE_CHILDREN)
        signing, encryption = _parse_key_descriptors(sp_elem)
        acs = tuple(
            _parse_indexed_endpoint(e)
            for e in sp_elem.find_all("AssertionConsumerService", NS_METADATA)
        )
        if not acs:
            raise MissingRequiredElement("AssertionConsumerService")
        if sum(1 for e in acs if e.is_default) > 1:
            raise DuplicateDefaultAcs("more than one assertion consumer endpoint marked default")
        slo = tuple(
            _parse_endpoint(e) for e in sp_elem.find_all("SingleLogoutService", NS_METADATA)
        )
        formats = tuple(
            f.text for f in sp_elem.find_all("NameIDFormat", NS_METADATA) if f.text
        )
        try:
            role = SpSsoDescriptor(
                authn_requests_signed=_parse_bool(sp_elem.attr("AuthnRequestsSigned")),
                want_assertions_signed=_parse_bool(sp_elem.attr("WantAssertionsSigned")),
                protocol_support=_require_attr(sp_elem, "protocolSupportEnumeration"),
                acs_endpoints=acs,
                name_id_formats=formats,
                signing_certs=signing,
                encryption_keys=encryption,
                single_logout_endpoints=slo,
            )
        except ValueError as exc:
            raise MalformedXml(str(exc)) from None

    organization = None
    org_elem = elem.find("Organization", NS_METADATA)
    if org_elem is not None:
        name = org_elem.require("OrganizationName", NS_METADATA)
        display = org_elem.require("OrganizationDisplayName", NS_METADATA)
        url = org_elem.require("OrganizationURL", NS_METADATA)
        for lang_holder in (name, display, url):
            lang = lang_holder.attr("lang", NS_XML)
            if not lang:
                raise MalformedXml(f"<{lang_holder.local}> must carry a non-empty xml:lang")
        organization = Organization(
            name=name.text,
            display_name=display.text,
            url=url.text,
            name_lang=name.attr("lang", NS_XML),
            display_name_lang=display.attr("lang", NS_XML),
            url_lang=url.attr("lang", NS_XML),
        )

    entity_id_text = _require_attr(elem, "entityID")
    try:
        entity_id = EntityId(entity_id_text)
    except ValueError as exc:
        raise MalformedXml(str(exc)) from None
    return EntityDescriptor(
        entity_id=entity_id,
        role=role,
        document_id=elem.attr("ID"),
        organization=organization,
    )


def parse_metadata(data: bytes | str) -> EntityDescriptor:
    return metadata_from_element(parse_xml(data))
