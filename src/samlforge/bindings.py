"""Transport encodings: POST form, redirect URL, artifact, back channel.

Wire contracts (bit-exact):
  * POST body: application/x-www-form-urlencoded with fields
    ``SAMLResponse`` or ``SAMLRequest`` (base64 of canonical XML) and
    optional ``RelayState``.
  * Redirect query: same parameter names; the message value is
    raw-DEFLATE compressed, then base64, then percent-encoded.
  * Artifact: base64 of 44 bytes = 0x0004 | index_be16 | sha1(entity id) |
    20 random bytes.
  * Back channel: HTTP POST of a minimal SOAP-1.1-shaped envelope; faults
    carry ``faultcode``/``faultstring``.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import html
import re
import secrets
import socket
import string
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable
from urllib.parse import quote_plus, unquote_to_bytes, urlsplit

from .core import EntityId, SamlError, TokenSource
from .xmlcodec import NS_ENVELOPE, MalformedXml, XmlElement, canonicalize, parse_xml

MAX_RELAY_STATE_BYTES = 80
MAX_REDIRECT_URL_BYTES = 2048
# Largest message decode_redirect inflates. A redirect URL of at most
# MAX_REDIRECT_URL_BYTES holds a message of a few KiB; without a cap a
# 64 KiB query inflates to about 66 MB.
MAX_INFLATED_BYTES = 65536
ARTIFACT_TYPE_CODE = 0x0004
ARTIFACT_LENGTH = 44

FIELD_RESPONSE = "SAMLResponse"
FIELD_REQUEST = "SAMLRequest"
FIELD_RELAY_STATE = "RelayState"
FIELD_ARTIFACT = "SAMLart"


class RelayStateTooLong(SamlError):
    pass


class MissingField(SamlError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class BadBase64(SamlError):
    pass


class BadUrlEncoding(SamlError):
    pass


class UrlTooLong(SamlError):
    pass


class BadDeflate(SamlError):
    pass


class InflatedTooLarge(SamlError):
    pass


class BadLength(SamlError):
    pass


class BadTypeCode(SamlError):
    pass


class ConnectFailed(SamlError):
    pass


class BackChannelTimeout(SamlError):
    pass


class FaultResponse(SamlError):
    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


def _check_relay_state(relay_state: str | None) -> str | None:
    if not relay_state:
        return None
    if len(relay_state.encode("utf-8")) > MAX_RELAY_STATE_BYTES:
        raise RelayStateTooLong(f"{len(relay_state.encode('utf-8'))} bytes > {MAX_RELAY_STATE_BYTES}")
    return relay_state


# ---------------------------------------------------------------------------
# HTTP-POST binding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PostForm:
    action_url: str
    saml_field: str  # "SAMLResponse" or "SAMLRequest"
    saml_value: str  # base64 of the message bytes
    relay_state: str | None = None

    def __post_init__(self) -> None:
        if self.saml_field not in (FIELD_RESPONSE, FIELD_REQUEST):
            raise ValueError(f"saml_field must be SAMLResponse or SAMLRequest, got {self.saml_field!r}")
        _check_relay_state(self.relay_state)


def encode_post(
    message_bytes: bytes,
    kind: str,
    action_url: str,
    relay_state: str | None = None,
) -> PostForm:
    """Wrap canonical message bytes for the POST binding.

    ``kind`` is "request" or "response"; form-urlencoding happens only at
    HTTP serialization time (``serialize_post_body``).
    """
    field = {"request": FIELD_REQUEST, "response": FIELD_RESPONSE}.get(kind)
    if field is None:
        raise ValueError(f"kind must be 'request' or 'response', got {kind!r}")
    return PostForm(
        action_url=action_url,
        saml_field=field,
        saml_value=base64.b64encode(message_bytes).decode("ascii"),
        relay_state=_check_relay_state(relay_state),
    )


def render_post_html(form: PostForm) -> str:
    """Auto-submitting HTML page; every attribute value is HTML-escaped."""
    inputs = [
        f'<input type="hidden" name="{html.escape(form.saml_field, quote=True)}" '
        f'value="{html.escape(form.saml_value, quote=True)}"/>'
    ]
    if form.relay_state is not None:
        inputs.append(
            f'<input type="hidden" name="RelayState" '
            f'value="{html.escape(form.relay_state, quote=True)}"/>'
        )
    body = "\n".join(inputs)
    return (
        "<!DOCTYPE html>\n"
        "<html><head><title>Continue sign-on</title></head>\n"
        '<body onload="document.forms[0].submit()">\n'
        f'<form method="post" action="{html.escape(form.action_url, quote=True)}">\n'
        f"{body}\n"
        '<noscript><input type="submit" value="Continue"/></noscript>\n'
        "</form></body></html>\n"
    )


# Bytes that ``quote_plus`` passes through unescaped.
_UNRESERVED = (string.ascii_letters + string.digits + "_.-~").encode("ascii")
# "%" is replaced before anything else adds one, "+" before " " becomes one.
_REPLACE_ORDER = {"%": 0, " ": 2}


def _form_urlencode(pairs: Iterable[tuple[str, str]]) -> str:
    """``name=value`` pairs joined by "&", each value exactly as
    ``quote_plus`` writes it. Each distinct character that needs escaping
    is replaced in one ``str.replace`` pass, so the cost is the value's
    length times that count: at most 3 for base64, at most 80 characters of
    RelayState. Dropping the unreserved ASCII bytes from UTF-8 leaves whole
    multi-byte sequences, so the remainder decodes to those characters."""
    encoded = []
    for name, value in pairs:
        escaped = value.encode("utf-8").translate(None, _UNRESERVED).decode("utf-8")
        for char in sorted(set(escaped), key=lambda c: _REPLACE_ORDER.get(c, 1)):
            value = value.replace(char, quote_plus(char))
        encoded.append(f"{name}={value}")
    return "&".join(encoded)


def serialize_post_body(form: PostForm) -> bytes:
    """Form-urlencode the POST fields (what a browser submits)."""
    pairs = [(form.saml_field, form.saml_value)]
    if form.relay_state is not None:
        pairs.append((FIELD_RELAY_STATE, form.relay_state))
    return _form_urlencode(pairs).encode("ascii")


_BAD_ESCAPE = re.compile("%(?![0-9A-Fa-f]{2})")


def _percent_decode(raw: str) -> str:
    """Strict application/x-www-form-urlencoded value decoding."""
    bad = _BAD_ESCAPE.search(raw)
    if bad is not None:
        pair = raw[bad.end() : bad.end() + 2].encode("utf-8")[:2]
        raise BadUrlEncoding(f"invalid percent escape %{pair.decode('ascii', errors='replace')}")
    try:
        return unquote_to_bytes(raw.replace("+", " ")).decode("utf-8")
    except UnicodeDecodeError:
        raise BadUrlEncoding("decoded value is not UTF-8") from None


def _parse_form_fields(body: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for chunk in body.split("&"):
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        name = _percent_decode(name)
        fields[name] = _percent_decode(value) if sep else ""
    return fields


@dataclass(frozen=True)
class DecodedMessage:
    message: bytes
    relay_state: str | None
    field: str  # which SAML field carried the message


def _decode_fields(fields: dict[str, str]) -> DecodedMessage:
    field = FIELD_RESPONSE if FIELD_RESPONSE in fields else FIELD_REQUEST
    if field not in fields:
        raise MissingField(FIELD_RESPONSE)
    try:
        message = base64.b64decode(fields[field].encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError):
        raise BadBase64(f"{field} is not valid base64") from None
    relay = fields.get(FIELD_RELAY_STATE) or None
    return DecodedMessage(message, relay, field)


def decode_post(form_body: bytes | str) -> DecodedMessage:
    """Invert ``serialize_post_body``: urldecode the field, then base64-decode."""
    if isinstance(form_body, bytes):
        try:
            form_body = form_body.decode("utf-8")
        except UnicodeDecodeError:
            raise BadUrlEncoding("form body is not UTF-8") from None
    return _decode_fields(_parse_form_fields(form_body))


# ---------------------------------------------------------------------------
# HTTP-Redirect binding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RedirectUrl:
    base: str
    query: tuple[tuple[str, str], ...]  # already-encoded values excluded; raw pairs

    @property
    def url(self) -> str:
        joiner = "&" if urlsplit(self.base).query else "?"
        return f"{self.base}{joiner}{_form_urlencode(self.query)}"


def encode_redirect(
    message_bytes: bytes,
    base_url: str,
    relay_state: str | None = None,
    kind: str = "request",
) -> RedirectUrl:
    """Redirect binding pipeline: raw DEFLATE, base64, percent-encode."""
    field = {"request": FIELD_REQUEST, "response": FIELD_RESPONSE}.get(kind)
    if field is None:
        raise ValueError(f"kind must be 'request' or 'response', got {kind!r}")
    compressor = zlib.compressobj(9, zlib.DEFLATED, -15)
    deflated = compressor.compress(message_bytes) + compressor.flush()
    value = base64.b64encode(deflated).decode("ascii")
    query: list[tuple[str, str]] = [(field, value)]
    relay = _check_relay_state(relay_state)
    if relay is not None:
        query.append((FIELD_RELAY_STATE, relay))
    result = RedirectUrl(base_url, tuple(query))
    if len(result.url.encode("utf-8")) > MAX_REDIRECT_URL_BYTES:
        raise UrlTooLong(f"redirect URL exceeds {MAX_REDIRECT_URL_BYTES} bytes")
    return result


def decode_redirect(url: str) -> DecodedMessage:
    """Invert ``encode_redirect`` from a full URL or a bare query string."""
    query = urlsplit(url).query if "?" in url or "://" in url else url
    fields = _parse_form_fields(query)
    field = FIELD_RESPONSE if FIELD_RESPONSE in fields else FIELD_REQUEST
    if field not in fields:
        raise MissingField(FIELD_REQUEST)
    try:
        deflated = base64.b64decode(fields[field].encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError):
        raise BadBase64(f"{field} is not valid base64") from None
    inflater = zlib.decompressobj(-15)
    try:
        message = inflater.decompress(deflated, MAX_INFLATED_BYTES + 1)
    except zlib.error:
        raise BadDeflate(f"{field} does not inflate") from None
    if len(message) > MAX_INFLATED_BYTES:
        raise InflatedTooLarge(f"{field} inflates to more than {MAX_INFLATED_BYTES} bytes")
    if not inflater.eof:
        raise BadDeflate(f"{field} does not inflate")
    relay = fields.get(FIELD_RELAY_STATE) or None
    return DecodedMessage(message, relay, field)


# ---------------------------------------------------------------------------
# Artifact value
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Artifact:
    endpoint_index: int
    source_id: bytes  # sha1 of the issuer entity id, 20 bytes
    message_handle: bytes  # 20 random bytes
    type_code: int = ARTIFACT_TYPE_CODE

    def __post_init__(self) -> None:
        if len(self.source_id) != 20 or len(self.message_handle) != 20:
            raise ValueError("source_id and message_handle must be 20 bytes each")
        if not 0 <= self.endpoint_index < 65536:
            raise ValueError("endpoint_index must fit in two bytes")

    def to_bytes(self) -> bytes:
        return (
            self.type_code.to_bytes(2, "big")
            + self.endpoint_index.to_bytes(2, "big")
            + self.source_id
            + self.message_handle
        )

    def encode(self) -> str:
        return base64.b64encode(self.to_bytes()).decode("ascii")


def source_id_for(issuer: EntityId) -> bytes:
    return hashlib.sha1(issuer.value.encode("utf-8")).digest()


def new_artifact(
    issuer: EntityId,
    endpoint_index: int = 0,
    token_source: TokenSource = secrets.token_bytes,
) -> Artifact:
    if not 0 <= endpoint_index < 65536:
        raise ValueError("endpoint_index must fit in two bytes")
    return Artifact(
        endpoint_index=endpoint_index,
        source_id=source_id_for(issuer),
        message_handle=token_source(20),
    )


def parse_artifact(encoded: str) -> Artifact:
    try:
        raw = base64.b64decode(encoded.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError):
        raise BadBase64("artifact is not valid base64") from None
    if len(raw) != ARTIFACT_LENGTH:
        raise BadLength(f"artifact must decode to {ARTIFACT_LENGTH} bytes, got {len(raw)}")
    type_code = int.from_bytes(raw[0:2], "big")
    if type_code != ARTIFACT_TYPE_CODE:
        raise BadTypeCode(f"expected type 0x{ARTIFACT_TYPE_CODE:04x}, got 0x{type_code:04x}")
    return Artifact(
        endpoint_index=int.from_bytes(raw[2:4], "big"),
        source_id=raw[4:24],
        message_handle=raw[24:44],
    )


# ---------------------------------------------------------------------------
# Back channel envelope
# ---------------------------------------------------------------------------


def _envelope(inner: XmlElement) -> bytes:
    body = XmlElement(NS_ENVELOPE, "Body", children=(inner,))
    return canonicalize(XmlElement(NS_ENVELOPE, "Envelope", children=(body,)))


def wrap_envelope(payload: bytes) -> bytes:
    return _envelope(parse_xml(payload))


def make_fault(code: str, detail: str = "") -> bytes:
    code_elem = XmlElement(NS_ENVELOPE, "Code", text=code)
    detail_elem = XmlElement(NS_ENVELOPE, "Detail", text=detail)
    return _envelope(XmlElement(NS_ENVELOPE, "Fault", children=(code_elem, detail_elem)))


def unwrap_envelope(data: bytes) -> bytes:
    """Extract the payload; protocol faults surface as FaultResponse."""
    root = parse_xml(data)
    if (root.ns, root.local) != (NS_ENVELOPE, "Envelope"):
        raise MalformedXml(f"expected <Envelope>, got <{root.local}>")
    body = root.require("Body", NS_ENVELOPE)
    if len(body.children) != 1:
        raise MalformedXml("envelope body must contain exactly one element")
    inner = body.children[0]
    if (inner.ns, inner.local) == (NS_ENVELOPE, "Fault"):
        code = inner.find("Code", NS_ENVELOPE)
        detail = inner.find("Detail", NS_ENVELOPE)
        raise FaultResponse(
            code.text if code is not None else "Fault",
            detail.text if detail is not None else "",
        )
    return canonicalize(inner)


Transport = Callable[[str, bytes, float], tuple[int, bytes]]


def _http_transport(endpoint: str, body: bytes, timeout: float) -> tuple[int, bytes]:
    # Imported here, its only use: the HTTP client loads ssl, and most
    # processes never open a back channel.
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        endpoint, data=body, headers={"Content-Type": "text/xml; charset=utf-8"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (socket.timeout, TimeoutError):
        raise BackChannelTimeout(endpoint) from None
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, (socket.timeout, TimeoutError)):
            raise BackChannelTimeout(endpoint) from None
        raise ConnectFailed(f"{endpoint}: {exc.reason}") from None
    except OSError as exc:
        raise ConnectFailed(f"{endpoint}: {exc}") from None


def back_channel_exchange(
    endpoint: str,
    request_bytes: bytes,
    timeout: float = 10.0,
    transport: Transport | None = None,
) -> bytes:
    """Synchronous enveloped request/response over the back channel.

    Transport failures raise ConnectFailed/BackChannelTimeout; a fault
    envelope from the peer raises FaultResponse.
    """
    send = transport or _http_transport
    _, body = send(endpoint, wrap_envelope(request_bytes), timeout)
    return unwrap_envelope(body)
