"""Independent oracles used to cross-check production code paths.

These deliberately avoid the libraries the package itself uses for the
same operation: SHA-1 and base64 are implemented from scratch, and P-256
ECDSA signing (RFC 6979 nonces) and verification use plain modular
arithmetic over the curve's points.
The XML oracles are the straightforward forms of xmlcodec's writer,
parser (ElementTree, then a tree walk), signature fragments, protocol
messages and metadata (element trees), which xmlcodec replaced with
faster equivalents. The timestamp oracle is the ``datetime`` form of
``Instant.isoformat``; the attribute-records oracle is the parser before it
shared equal strings and refused a repeated user key.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import re
import struct
import xml.etree.ElementTree as ET
from datetime import datetime, timezone

from samlforge.core import (
    ATTRNAME_FORMAT_BASIC,
    Assertion,
    Attribute,
    EncryptedAssertion,
    Instant,
    Signature,
)
from samlforge.idp import AttributeSource, UserRecord
from samlforge.xmlcodec import (
    ALG_CONCAT_KDF,
    ALG_ECDH_ES,
    ALG_KW_AES128,
    ALG_SHA256,
    CURVE_P256,
    NS_ASSERTION,
    NS_DSIG,
    NS_DSIG11,
    NS_METADATA,
    NS_PROTOCOL,
    NS_XML,
    NS_XMLENC,
    NS_XMLENC11,
    PREFERRED_PREFIXES,
    AttrKey,
    EncryptionKey,
    EntityDescriptor,
    IdpSsoDescriptor,
    MalformedXml,
    XmlElement,
)

# ---------------------------------------------------------------------------
# SHA-1 (pure Python)
# ---------------------------------------------------------------------------


def _rol(value: int, bits: int) -> int:
    return ((value << bits) | (value >> (32 - bits))) & 0xFFFFFFFF


def sha1(message: bytes) -> bytes:
    h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    length = len(message) * 8
    message += b"\x80"
    message += b"\x00" * ((56 - len(message) % 64) % 64)
    message += struct.pack(">Q", length)
    for chunk_start in range(0, len(message), 64):
        w = list(struct.unpack(">16I", message[chunk_start : chunk_start + 64]))
        for i in range(16, 80):
            w.append(_rol(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
        a, b, c, d, e = h
        for i in range(80):
            if i < 20:
                f, k = (b & c) | (~b & d), 0x5A827999
            elif i < 40:
                f, k = b ^ c ^ d, 0x6ED9EBA1
            elif i < 60:
                f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
            else:
                f, k = b ^ c ^ d, 0xCA62C1D6
            a, b, c, d, e = (
                (_rol(a, 5) + f + e + k + w[i]) & 0xFFFFFFFF,
                a,
                _rol(b, 30),
                c,
                d,
            )
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, (a, b, c, d, e))]
    return struct.pack(">5I", *h)


# ---------------------------------------------------------------------------
# Base64 (table-driven)
# ---------------------------------------------------------------------------

_B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_REVERSE = {c: i for i, c in enumerate(_B64_ALPHABET)}


def b64encode(data: bytes) -> str:
    out = []
    for i in range(0, len(data), 3):
        block = data[i : i + 3]
        bits = int.from_bytes(block + b"\x00" * (3 - len(block)), "big")
        chars = [
            _B64_ALPHABET[(bits >> 18) & 63],
            _B64_ALPHABET[(bits >> 12) & 63],
            _B64_ALPHABET[(bits >> 6) & 63],
            _B64_ALPHABET[bits & 63],
        ]
        if len(block) == 1:
            chars[2] = chars[3] = "="
        elif len(block) == 2:
            chars[3] = "="
        out.append("".join(chars))
    return "".join(out)


def b64decode(text: str) -> bytes:
    if len(text) % 4:
        raise ValueError("length not a multiple of four")
    out = bytearray()
    for i in range(0, len(text), 4):
        block = text[i : i + 4]
        pad = block.count("=")
        if pad and i + 4 != len(text):
            raise ValueError("padding before the final block")
        bits = 0
        for char in block.rstrip("="):
            bits = (bits << 6) | _B64_REVERSE[char]
        bits <<= 6 * pad
        raw = bits.to_bytes(3, "big")
        out.extend(raw[: 3 - pad])
    return bytes(out)


# ---------------------------------------------------------------------------
# Percent decoding (form-urlencoded values)
# ---------------------------------------------------------------------------


def percent_decode(text: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(text):
        char = text[i]
        if char == "+":
            out.append(0x20)
            i += 1
        elif char == "%":
            out.append(int(text[i + 1 : i + 3], 16))
            i += 3
        else:
            out.extend(char.encode("utf-8"))
            i += 1
    return bytes(out)


# ---------------------------------------------------------------------------
# P-256 ECDSA with SHA-256 and RFC 6979 nonces (affine point arithmetic)
# ---------------------------------------------------------------------------

P256_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
P256_A = P256_P - 3
P256_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
P256_G = (
    0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
)


def point_double(point):
    """2 * ``point``; None is the point at infinity."""
    if point is None or point[1] == 0:
        return None
    x, y = point
    slope = (3 * x * x + P256_A) * pow(2 * y, -1, P256_P) % P256_P
    x3 = (slope * slope - 2 * x) % P256_P
    return x3, (slope * (x - x3) - y) % P256_P


def point_add(one, two):
    if one is None:
        return two
    if two is None:
        return one
    (x1, y1), (x2, y2) = one, two
    if x1 == x2:
        return point_double(one) if y1 == y2 else None
    slope = (y2 - y1) * pow(x2 - x1, -1, P256_P) % P256_P
    x3 = (slope * slope - x1 - x2) % P256_P
    return x3, (slope * (x1 - x3) - y1) % P256_P


def scalar_mult(k: int, point):
    result = None
    for bit in bin(k)[2:]:
        result = point_double(result)
        if bit == "1":
            result = point_add(result, point)
    return result


def _hash_int(message: bytes) -> int:
    # SHA-256 output is exactly as long as the P-256 order: no truncation
    return int.from_bytes(hashlib.sha256(message).digest(), "big")


def rfc6979_nonce(message: bytes, private: int) -> int:
    """The deterministic nonce of RFC 6979 section 3.2 (HMAC-DRBG, SHA-256)."""
    x = private.to_bytes(32, "big")
    h = (_hash_int(message) % P256_N).to_bytes(32, "big")
    v, k = b"\x01" * 32, b"\x00" * 32
    for tag in (b"\x00", b"\x01"):
        k = hmac.new(k, v + tag + x + h, "sha256").digest()
        v = hmac.new(k, v, "sha256").digest()
    while True:
        v = hmac.new(k, v, "sha256").digest()
        nonce = int.from_bytes(v, "big")
        if 1 <= nonce < P256_N:
            return nonce
        k = hmac.new(k, v + b"\x00", "sha256").digest()
        v = hmac.new(k, v, "sha256").digest()


def ecdsa_sign(message: bytes, private: int) -> bytes:
    """r || s, each 32 bytes, as XML Signature 1.1 carries it."""
    nonce = rfc6979_nonce(message, private)
    r = scalar_mult(nonce, P256_G)[0] % P256_N
    s = pow(nonce, -1, P256_N) * (_hash_int(message) + r * private) % P256_N
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def ecdsa_verify(message: bytes, signature: bytes, public) -> bool:
    """``public`` is the signer's point (x, y)."""
    if len(signature) != 64:
        return False
    r, s = int.from_bytes(signature[:32], "big"), int.from_bytes(signature[32:], "big")
    if not (0 < r < P256_N and 0 < s < P256_N):
        return False
    w = pow(s, -1, P256_N)
    point = point_add(
        scalar_mult(_hash_int(message) * w % P256_N, P256_G),
        scalar_mult(r * w % P256_N, public),
    )
    return point is not None and point[0] % P256_N == r


# ---------------------------------------------------------------------------
# Timestamps: the datetime form of Instant.isoformat
# ---------------------------------------------------------------------------


def isoformat(instant: Instant) -> str:
    return datetime.fromtimestamp(instant.epoch, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# Attribute records: the parser as it was before it shared equal strings
# ---------------------------------------------------------------------------


def parse_attribute_records(text: str) -> AttributeSource:
    records: dict[str, UserRecord] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: expected '<user-key> <name-id> [name=value ...]'")
        user_key, name_id = tokens[0], tokens[1]
        values: dict[str, list[str]] = {}
        order: list[str] = []
        for token in tokens[2:]:
            name, sep, value = token.partition("=")
            if not sep or not name:
                raise ValueError(f"line {lineno}: bad attribute token {token!r}")
            if name not in values:
                values[name] = []
                order.append(name)
            values[name].append(value)
        attributes = tuple(
            Attribute(
                name=name,
                values=tuple(values[name]),
                friendly_name=name,
                name_format=ATTRNAME_FORMAT_BASIC,
            )
            for name in order
        )
        records[user_key] = UserRecord(name_id, attributes)
    return AttributeSource(records)


# ---------------------------------------------------------------------------
# XML: the element-tree reference implementations of xmlcodec's writer,
# parser and signature fragments, kept as they were before those became
# direct renderers and an expat-driven builder
# ---------------------------------------------------------------------------

def element(ns, local, attrs=None, children=(), text=""):
    normalized = []
    for key, value in (attrs or {}).items():
        if isinstance(key, str):
            key = ("", key)
        normalized.append((key, value))
    normalized.sort(key=lambda item: item[0])
    if text and children:
        raise ValueError("element cannot carry both text and children")
    return XmlElement(ns, local, tuple(normalized), tuple(children), text)


_ILLEGAL_CHARS = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_legal(value):
    if _ILLEGAL_CHARS.search(value):
        raise MalformedXml("string contains characters not representable in XML 1.0")
    return value


def _escape_text(value):
    return (
        _check_legal(value)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#xD;")
    )


def _escape_attr(value):
    return (
        _check_legal(value)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\t", "&#x9;")
        .replace("\n", "&#xA;")
        .replace("\r", "&#xD;")
    )


def canonicalize(elem):
    out = []
    _write(elem, {NS_XML: "xml"}, [0], out)
    return "".join(out).encode("utf-8")


def _write(elem, scope, counter, out):
    scope = dict(scope)
    declarations = []

    def ensure(ns):
        if ns in scope:
            return scope[ns]
        prefix = PREFERRED_PREFIXES.get(ns)
        if prefix is None or prefix in scope.values():
            while True:
                prefix = f"ns{counter[0]}"
                counter[0] += 1
                if prefix not in scope.values():
                    break
        scope[ns] = prefix
        declarations.append((prefix, ns))
        return prefix

    if not elem.ns:
        raise MalformedXml(f"element {elem.local!r} has no namespace")
    tag = f"{ensure(elem.ns)}:{elem.local}"
    rendered_attrs = []
    for (ans, aname), value in elem.attrs:
        shown = aname if not ans else f"{ensure(ans)}:{aname}"
        rendered_attrs.append(((ans, aname), shown, value))

    out.append(f"<{tag}")
    for prefix, uri in sorted(declarations):
        out.append(f' xmlns:{prefix}="{_escape_attr(uri)}"')
    for _, shown, value in rendered_attrs:
        out.append(f' {shown}="{_escape_attr(value)}"')
    if not elem.children and not elem.text:
        out.append("/>")
        return
    out.append(">")
    if elem.text:
        out.append(_escape_text(elem.text))
    for child in elem.children:
        _write(child, scope, counter, out)
    out.append(f"</{tag}>")


class _NoDtdBuilder(ET.TreeBuilder):
    def doctype(self, name, pubid, system):
        raise MalformedXml("document type declarations are not accepted")


def parse_xml(data):
    raw = data.encode("utf-8") if isinstance(data, str) else data
    if not isinstance(raw, (bytes, bytearray)):
        raise MalformedXml(f"expected bytes, got {type(raw).__name__}")
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedXml(f"document is not UTF-8: {exc.reason} at byte {exc.start}") from None
    if b"\x00" in raw:
        raise MalformedXml("document is not UTF-8: NUL byte")
    parser = ET.XMLParser(target=_NoDtdBuilder(), encoding="utf-8")
    try:
        parser.feed(raw)
        root = parser.close()
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None
    except ValueError as exc:
        raise MalformedXml(str(exc)) from None
    return _convert(root)


def _split_tag(tag):
    if tag.startswith("{"):
        ns, _, local = tag[1:].partition("}")
        return ns, local
    return "", tag


_XML_WS = " \t\n\r"


def _convert(node):
    ns, local = _split_tag(node.tag)
    if not ns:
        raise MalformedXml(f"element {local!r} has no namespace")
    attrs = {}
    for key, value in node.attrib.items():
        attrs[_split_tag(key)] = value
    children = tuple(_convert(child) for child in node)
    text = (node.text or "").strip(_XML_WS)
    if children:
        if text:
            raise MalformedXml(f"mixed content inside <{local}> is not accepted")
        for child in node:
            if (child.tail or "").strip(_XML_WS):
                raise MalformedXml(f"mixed content inside <{local}> is not accepted")
        return element(ns, local, attrs, children)
    return element(ns, local, attrs, (), text)


def _b64(data):
    return base64.b64encode(data).decode("ascii")


def signed_info_element(sig_alg, digest_alg, ref_id, digest):
    return element(
        NS_DSIG,
        "SignedInfo",
        children=[
            element(NS_DSIG, "SignatureMethod", {"Algorithm": sig_alg}),
            element(
                NS_DSIG,
                "Reference",
                {"URI": "#" + ref_id},
                children=[
                    element(NS_DSIG, "DigestMethod", {"Algorithm": digest_alg}),
                    element(NS_DSIG, "DigestValue", text=_b64(digest)),
                ],
            ),
        ],
    )


def signature_element(sig: Signature):
    signed_info = signed_info_element(
        sig.signature_algorithm, sig.digest_algorithm, sig.reference_id, sig.digest_value
    )
    value = element(NS_DSIG, "SignatureValue", text=_b64(sig.signature_value))
    return element(NS_DSIG, "Signature", children=[signed_info, value])


# ---------------------------------------------------------------------------
# Protocol messages: the element-tree builders whose canonical bytes the
# direct renderers in xmlcodec (emit_*) write
# ---------------------------------------------------------------------------


def _cipher_data(data: bytes):
    return element(NS_XMLENC, "CipherData", children=[element(NS_XMLENC, "CipherValue", text=_b64(data))])


def encrypted_assertion_element(enc):
    kdf = element(
        NS_XMLENC11,
        "KeyDerivationMethod",
        {"Algorithm": ALG_CONCAT_KDF},
        children=[
            element(
                NS_XMLENC11,
                "ConcatKDFParams",
                children=[element(NS_DSIG, "DigestMethod", {"Algorithm": ALG_SHA256})],
            )
        ],
    )
    originator = element(
        NS_XMLENC,
        "OriginatorKeyInfo",
        children=[
            element(
                NS_DSIG,
                "KeyValue",
                children=[
                    element(
                        NS_DSIG11,
                        "ECKeyValue",
                        children=[
                            element(NS_DSIG11, "NamedCurve", {"URI": CURVE_P256}),
                            element(NS_DSIG11, "PublicKey", text=_b64(enc.ephemeral_key)),
                        ],
                    )
                ],
            )
        ],
    )
    agreement = element(
        NS_XMLENC, "AgreementMethod", {"Algorithm": ALG_ECDH_ES}, children=[kdf, originator]
    )
    encrypted_key = element(
        NS_XMLENC,
        "EncryptedKey",
        children=[
            element(NS_XMLENC, "EncryptionMethod", {"Algorithm": ALG_KW_AES128}),
            element(NS_DSIG, "KeyInfo", children=[agreement]),
            _cipher_data(enc.encrypted_key),
        ],
    )
    data = element(
        NS_XMLENC,
        "EncryptedData",
        children=[
            element(NS_XMLENC, "EncryptionMethod", {"Algorithm": enc.algorithm}),
            element(NS_DSIG, "KeyInfo", children=[encrypted_key]),
            _cipher_data(enc.iv + enc.ciphertext),
        ],
    )
    return element(NS_ASSERTION, "EncryptedAssertion", children=[data])


def assertion_element(assertion):
    children = [element(NS_ASSERTION, "Issuer", text=assertion.issuer)]

    subject = assertion.subject
    name_attrs = {}
    if subject.name_id_format:
        name_attrs["Format"] = subject.name_id_format
    children.append(
        element(
            NS_ASSERTION,
            "Subject",
            children=[
                element(NS_ASSERTION, "NameID", name_attrs, text=subject.name_id),
                element(
                    NS_ASSERTION,
                    "SubjectConfirmation",
                    {"Method": subject.confirmation.method},
                    children=[
                        element(
                            NS_ASSERTION,
                            "SubjectConfirmationData",
                            {
                                "NotOnOrAfter": isoformat(subject.confirmation.not_on_or_after),
                                "Recipient": subject.confirmation.recipient,
                            },
                        )
                    ],
                ),
            ],
        )
    )

    cond_children = []
    if assertion.conditions.audiences:
        cond_children.append(
            element(
                NS_ASSERTION,
                "AudienceRestriction",
                children=[
                    element(NS_ASSERTION, "Audience", text=a.value)
                    for a in assertion.conditions.audiences
                ],
            )
        )
    children.append(
        element(
            NS_ASSERTION,
            "Conditions",
            {
                "NotBefore": isoformat(assertion.conditions.not_before),
                "NotOnOrAfter": isoformat(assertion.conditions.not_on_or_after),
            },
            children=cond_children,
        )
    )

    stmt = assertion.authn_statement
    locality_attrs = {}
    if stmt.locality_address is not None:
        locality_attrs["Address"] = stmt.locality_address
    if stmt.locality_dns is not None:
        locality_attrs["DNSName"] = stmt.locality_dns
    children.append(
        element(
            NS_ASSERTION,
            "AuthnStatement",
            {"AuthnInstant": isoformat(stmt.authn_instant), "SessionIndex": stmt.session_index},
            children=[element(NS_ASSERTION, "SubjectLocality", locality_attrs)]
            if locality_attrs
            else [],
        )
    )

    if assertion.attributes:
        children.append(
            element(
                NS_ASSERTION,
                "AttributeStatement",
                children=[_attribute_element(attr) for attr in assertion.attributes],
            )
        )

    return element(
        NS_ASSERTION,
        "Assertion",
        {
            "ID": assertion.id,
            "IssueInstant": isoformat(assertion.issue_instant),
            "Version": "2.0",
        },
        children=children,
    )


def _attribute_element(attr):
    attrs = {"Name": attr.name}
    if attr.friendly_name is not None:
        attrs["FriendlyName"] = attr.friendly_name
    if attr.name_format is not None:
        attrs["NameFormat"] = attr.name_format
    return element(
        NS_ASSERTION,
        "Attribute",
        attrs,
        children=[element(NS_ASSERTION, "AttributeValue", text=v) for v in attr.values],
    )


def response_element(response):
    attrs = {
        "ID": response.id,
        "IssueInstant": isoformat(response.issue_instant),
        "Version": "2.0",
        "Destination": response.destination,
    }
    if response.consent is not None:
        attrs["Consent"] = response.consent
    children = [element(NS_ASSERTION, "Issuer", text=response.issuer)]
    if response.signature is not None:
        children.append(signature_element(response.signature))
    children.append(
        element(
            NS_PROTOCOL,
            "Status",
            children=[element(NS_PROTOCOL, "StatusCode", {"Value": response.status})],
        )
    )
    if isinstance(response.assertion, Assertion):
        children.append(assertion_element(response.assertion))
    elif isinstance(response.assertion, EncryptedAssertion):
        children.append(encrypted_assertion_element(response.assertion))
    return element(NS_PROTOCOL, "Response", attrs, children=children)


def authn_request_element(request):
    children = [element(NS_ASSERTION, "Issuer", text=request.issuer.value)]
    if request.signature is not None:
        children.append(signature_element(request.signature))
    return element(
        NS_PROTOCOL,
        "AuthnRequest",
        {
            "ID": request.id,
            "IssueInstant": isoformat(request.issue_instant),
            "Version": "2.0",
            "AssertionConsumerServiceURL": request.acs_url,
        },
        children=children,
    )


def logout_request_element(request):
    children = [element(NS_ASSERTION, "Issuer", text=request.issuer.value)]
    if request.signature is not None:
        children.append(signature_element(request.signature))
    children.append(element(NS_ASSERTION, "NameID", text=request.name_id))
    children.append(element(NS_PROTOCOL, "SessionIndex", text=request.session_index))
    return element(
        NS_PROTOCOL,
        "LogoutRequest",
        {"ID": request.id, "IssueInstant": isoformat(request.issue_instant), "Version": "2.0"},
        children=children,
    )


def logout_response_element(response):
    attrs = {
        "ID": response.id,
        "IssueInstant": isoformat(response.issue_instant),
        "Version": "2.0",
    }
    if response.in_response_to is not None:
        attrs["InResponseTo"] = response.in_response_to
    children = [element(NS_ASSERTION, "Issuer", text=response.issuer.value)]
    if response.signature is not None:
        children.append(signature_element(response.signature))
    children.append(
        element(
            NS_PROTOCOL,
            "Status",
            children=[element(NS_PROTOCOL, "StatusCode", {"Value": response.status})],
        )
    )
    return element(NS_PROTOCOL, "LogoutResponse", attrs, children=children)


def artifact_resolve_element(request_id, issue_instant, issuer, artifacts):
    children = [element(NS_ASSERTION, "Issuer", text=issuer.value)]
    children.extend(element(NS_PROTOCOL, "Artifact", text=a) for a in artifacts)
    return element(
        NS_PROTOCOL,
        "ArtifactResolve",
        {"ID": request_id, "IssueInstant": isoformat(issue_instant), "Version": "2.0"},
        children=children,
    )


def _key_descriptor_elements(
    signing_certs: tuple[str, ...], encryption_keys: tuple[EncryptionKey, ...]
) -> list[XmlElement]:
    out: list[XmlElement] = []
    for cert in signing_certs:
        out.append(
            element(
                NS_METADATA,
                "KeyDescriptor",
                {"use": "signing"},
                children=[_key_info(cert)],
            )
        )
    for key in encryption_keys:
        children = [_key_info(key.certificate)]
        if key.algorithm is not None:
            method_children = []
            if key.key_size is not None:
                method_children.append(element(NS_XMLENC, "KeySize", text=str(key.key_size)))
            children.append(
                element(
                    NS_METADATA,
                    "EncryptionMethod",
                    {"Algorithm": key.algorithm},
                    children=method_children,
                )
            )
        out.append(
            element(NS_METADATA, "KeyDescriptor", {"use": "encryption"}, children=children)
        )
    return out


def _key_info(cert_text: str) -> XmlElement:
    return element(
        NS_DSIG,
        "KeyInfo",
        children=[
            element(
                NS_DSIG,
                "X509Data",
                children=[element(NS_DSIG, "X509Certificate", text=cert_text)],
            )
        ],
    )


def metadata_element(entity: EntityDescriptor) -> XmlElement:
    role = entity.role
    if isinstance(role, IdpSsoDescriptor):
        role_children = _key_descriptor_elements(role.signing_certs, role.encryption_keys)
        for ep in role.artifact_resolution_endpoints:
            attrs: dict[str | AttrKey, str] = {
                "index": str(ep.index),
                "Binding": ep.binding,
                "Location": ep.location,
            }
            if ep.is_default:
                attrs["isDefault"] = "true"
            role_children.append(element(NS_METADATA, "ArtifactResolutionService", attrs))
        for ep in role.single_logout_endpoints:
            role_children.append(
                element(
                    NS_METADATA,
                    "SingleLogoutService",
                    {"Binding": ep.binding, "Location": ep.location},
                )
            )
        for ep in role.sso_endpoints:
            role_children.append(
                element(
                    NS_METADATA,
                    "SingleSignOnService",
                    {"Binding": ep.binding, "Location": ep.location},
                )
            )
        role_elem = element(
            NS_METADATA,
            "IDPSSODescriptor",
            {
                "WantAuthnRequestsSigned": "true" if role.want_authn_requests_signed else "false",
                "protocolSupportEnumeration": role.protocol_support,
            },
            children=role_children,
        )
    else:
        role_children = _key_descriptor_elements(role.signing_certs, role.encryption_keys)
        for ep in role.single_logout_endpoints:
            role_children.append(
                element(
                    NS_METADATA,
                    "SingleLogoutService",
                    {"Binding": ep.binding, "Location": ep.location},
                )
            )
        for fmt in role.name_id_formats:
            role_children.append(element(NS_METADATA, "NameIDFormat", text=fmt))
        for ep in role.acs_endpoints:
            attrs = {"index": str(ep.index), "Binding": ep.binding, "Location": ep.location}
            if ep.is_default:
                attrs["isDefault"] = "true"
            role_children.append(element(NS_METADATA, "AssertionConsumerService", attrs))
        role_elem = element(
            NS_METADATA,
            "SPSSODescriptor",
            {
                "AuthnRequestsSigned": "true" if role.authn_requests_signed else "false",
                "WantAssertionsSigned": "true" if role.want_assertions_signed else "false",
                "protocolSupportEnumeration": role.protocol_support,
            },
            children=role_children,
        )

    attrs = {"entityID": entity.entity_id.value}
    if entity.document_id is not None:
        attrs["ID"] = entity.document_id
    children = [role_elem]
    if entity.organization is not None:
        org = entity.organization
        children.append(
            element(
                NS_METADATA,
                "Organization",
                children=[
                    element(
                        NS_METADATA,
                        "OrganizationName",
                        {(NS_XML, "lang"): org.name_lang},
                        text=org.name,
                    ),
                    element(
                        NS_METADATA,
                        "OrganizationDisplayName",
                        {(NS_XML, "lang"): org.display_name_lang},
                        text=org.display_name,
                    ),
                    element(
                        NS_METADATA,
                        "OrganizationURL",
                        {(NS_XML, "lang"): org.url_lang},
                        text=org.url,
                    ),
                ],
            )
        )
    return element(NS_METADATA, "EntityDescriptor", attrs, children=children)
