"""Embedded HTTP service hosting both federation roles in one process.

The endpoints are the keys of ``_ROUTES``; README "HTTP service endpoints"
describes each one. Failures never leak stack traces: protocol errors
become HTTP 400 with the validation report summary, back-channel errors
become enveloped faults.
"""

from __future__ import annotations

import logging
import threading
import time
import weakref
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qsl, urlsplit

from .. import bindings, cryptoseal, xmlcodec
from ..core import Instant, SamlError
from ..federation import FederationRegistry, register_partner
from ..idp import IdpEngine, load_attribute_source
from ..sp import SpEngine
from .config import BadConfig, HarnessConfig, build_idp_descriptor, build_sp_descriptor

logger = logging.getLogger(__name__)


class BadContentLength(SamlError):
    pass


class BodyTooLarge(SamlError):
    pass


# The largest request body read: four times the largest inflated redirect
# message, far above a real form (about 10 KB sealed).
MAX_BODY_BYTES = 4 * bindings.MAX_INFLATED_BYTES


Clock = Callable[[], Instant]


class HarnessService:
    """Both engines plus the HTTP surface; start/shutdown are thread-safe."""

    def __init__(
        self,
        idp: IdpEngine,
        sp: SpEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Clock | None = None,
        default_partner: str | None = None,
    ) -> None:
        self.idp = idp
        self.sp = sp
        self.clock: Clock = clock or Instant.now
        self.default_partner = default_partner or next(iter(idp.registry.partners), None)
        self._lock = threading.Lock()
        self.last_acs_report: str = ""
        # session index -> the logout forms still to send
        self._logout_forms: dict[str, list[bindings.PostForm]] = {}
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        # weak, so the service and its server form no cycle and a dropped
        # service is freed at once
        self._server.service = weakref.ref(self)  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._serving = False

    @classmethod
    def from_config(cls, config: HarnessConfig, clock: Clock | None = None) -> HarnessService:
        try:
            idp_store = cryptoseal.load_keystore(config.idp.keystore, config.idp.passphrase)
            sp_store = cryptoseal.load_keystore(config.sp.keystore, config.sp.passphrase)
            source = load_attribute_source(config.idp.source)
        except (OSError, SamlError, ValueError) as exc:
            raise BadConfig(f"{type(exc).__name__}: {exc}") from exc

        idp_desc = build_idp_descriptor(
            config.idp.entity_id,
            config.idp.base_url,
            idp_store.get(config.idp.signing_alias).cert_b64,
        )
        encryption_cert = None
        if config.sp.encrypt_assertions:
            encryption_cert = sp_store.get(config.sp.encryption_alias).cert_b64
        sp_desc = build_sp_descriptor(
            config.sp.entity_id,
            config.sp.base_url,
            sp_store.get(config.sp.signing_alias).cert_b64,
            encryption_cert,
            want_assertions_signed=config.sp.want_assertions_signed,
        )

        idp_registry = FederationRegistry(local=idp_desc, signing_alias=config.idp.signing_alias)
        sp_registry = FederationRegistry(
            local=sp_desc,
            signing_alias=config.sp.signing_alias,
            encryption_alias=config.sp.encryption_alias,
        )
        policy = dict(
            clock_skew=config.skew, validity=config.validity, artifact_mode=config.artifact_mode
        )
        idp_registry = register_partner(idp_registry, xmlcodec.emit_metadata(sp_desc), **policy)
        sp_registry = register_partner(sp_registry, xmlcodec.emit_metadata(idp_desc), **policy)

        idp = IdpEngine(idp_registry, idp_store, source)
        sp = SpEngine(
            sp_registry,
            sp_store,
            landing_url=config.sp.landing_url,
            locality_check=config.locality_check,
        )
        return cls(
            idp,
            sp,
            host=config.host,
            port=config.port,
            clock=clock,
            default_partner=config.sp.entity_id,
        )

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> None:
        self._serving = True
        # The target holds the service, so a running service outlives its
        # last reference; the thread lets go of it once serving stops.
        self._thread = threading.Thread(target=lambda: self._server.serve_forever(), daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        self._serving = True
        self._server.serve_forever()

    def shutdown(self) -> None:
        if self._serving:
            self._server.shutdown()
            self._serving = False
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> HarnessService:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- shared state -------------------------------------------------------

    def set_last_report(self, text: str) -> None:
        with self._lock:
            self.last_acs_report = text

    def get_last_report(self) -> str:
        with self._lock:
            return self.last_acs_report

    def queue_logout_forms(
        self, session_index: str, forms: list[bindings.PostForm]
    ) -> bindings.PostForm | None:
        """Keep the session's logout forms; returns the first, to send now."""
        with self._lock:
            self._logout_forms[session_index] = list(forms)
        return self.next_logout_form(session_index)

    def next_logout_form(self, session_index: str | None) -> bindings.PostForm | None:
        with self._lock:
            forms = self._logout_forms.pop(session_index, [])
            if len(forms) > 1:
                self._logout_forms[session_index] = forms[1:]
            return forms[0] if forms else None


@dataclass(frozen=True)
class _Reply:
    status: int
    body: bytes | str = ""
    content_type: str = "text/plain; charset=utf-8"
    location: str | None = None


def _form(form: bindings.PostForm) -> _Reply:
    return _Reply(200, bindings.render_post_html(form), "text/html; charset=utf-8")


class _Handler(BaseHTTPRequestHandler):
    """HTTP adapter: finds the route, turns exceptions into replies, writes
    the one reply and logs the request line."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a reply goes out as headers, then body; without it the
    # body waits for a keep-alive client's delayed ACK of the headers.
    disable_nagle_algorithm = True

    # stdlib logging goes through our logger instead of stderr
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("http " + format, *args)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        started = time.monotonic()
        path = self.path
        self._body_read = False
        try:
            self.target = urlsplit(self.path)
            path = self.target.path
            route = _ROUTES.get((method, path.rstrip("/") or "/"), _not_found)
            reply = route(self.server.service(), self)  # type: ignore[attr-defined]
        except SamlError as exc:
            status = 413 if isinstance(exc, BodyTooLarge) else 400
            reply = _Reply(status, f"{type(exc).__name__}: {exc}\n")
        except Exception:
            logger.exception("unhandled error path=%s", self.path)
            reply = _Reply(500, "internal error\n")
        if self._leaves_body_unread():
            # The unread body would be read as the next request.
            self.close_connection = True
        try:
            self._reply(reply)
        finally:
            logger.info(
                "request method=%s path=%s status=%d duration_ms=%.1f peer=%s",
                method,
                path,
                reply.status,
                (time.monotonic() - started) * 1000,
                self.client_address[0],
            )

    def _reply(self, reply: _Reply) -> None:
        raw = reply.body.encode("utf-8") if isinstance(reply.body, str) else reply.body
        self.send_response(reply.status)
        self.send_header("Content-Type", reply.content_type)
        self.send_header("Content-Length", str(len(raw)))
        if reply.location is not None:
            self.send_header("Location", reply.location)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(raw)

    def _leaves_body_unread(self) -> bool:
        if "Transfer-Encoding" in self.headers:
            return True  # chunked bodies are never read
        declared = (self.headers.get("Content-Length") or "0").strip(" \t")
        return not self._body_read and declared.lstrip("0") != ""

    # -- what the routes read -------------------------------------------------

    def query(self) -> list[tuple[str, str]]:
        return parse_qsl(self.target.query, keep_blank_values=True)

    def body(self) -> bytes:
        declared = (self.headers.get("Content-Length") or "0").strip(" \t")
        if not (declared.isascii() and declared.isdigit()):
            # The body's end is unknown, so the connection cannot carry on.
            self.close_connection = True
            raise BadContentLength(f"Content-Length {declared!r} is not a byte count")
        digits = declared.lstrip("0") or "0"
        # The length decides first: int() refuses thousands of digits.
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            # Refused before reading: a buffered read allocates what is claimed.
            self.close_connection = True
            raise BodyTooLarge(f"Content-Length exceeds {MAX_BODY_BYTES} bytes")
        self._body_read = True
        return self.rfile.read(int(digits))


# -- routes: each takes the service and the request and returns the reply ----


def _not_found(service: HarnessService, request: _Handler) -> _Reply:
    return _Reply(404, "not found\n")


def _metadata(descriptor: xmlcodec.EntityDescriptor) -> _Reply:
    return _Reply(200, xmlcodec.emit_metadata(descriptor), "application/samlmetadata+xml")


# -- IdP routes ---------------------------------------------------------------


def _session_for(service: HarnessService, request: _Handler, user: str):
    session = service.idp.session_for_user(user)
    if session is None:
        session = service.idp.create_session(user, request.client_address[0], service.clock())
    return session


def _sso_get(service: HarnessService, request: _Handler) -> _Reply:
    query = dict(request.query())
    if bindings.FIELD_REQUEST in query:
        session = _session_for(service, request, query.get("user", "the.user"))
        form = service.idp.handle_authn_request(request.target.query, session, service.clock())
        return _form(form)
    user = query.get("user")
    partner = query.get("partner") or service.default_partner
    if not user or not partner:
        return _Reply(400, "expected ?user= and ?partner= (or a SAMLRequest)\n")
    session = _session_for(service, request, user)
    now = service.clock()
    if query.get("binding") == "artifact":
        response = service.idp.issue_assertion(session, partner, now)
        policy = service.idp.registry.partner(partner).policy
        if policy.artifact_mode == "pair":
            pair = service.idp.issue_artifact_pair(response, partner, endpoint_index=0)
            artifacts = [a.encode() for a in pair]
        else:
            artifacts = [service.idp.issue_artifact(response, partner, endpoint_index=0).encode()]
        pairs = [(bindings.FIELD_ARTIFACT, a) for a in artifacts]
        relay = query.get(bindings.FIELD_RELAY_STATE)
        if relay:
            pairs.append((bindings.FIELD_RELAY_STATE, relay))
        return _Reply(303, location=bindings.RedirectUrl(response.destination, tuple(pairs)).url)
    return _form(
        service.idp.idp_initiated_post(
            session, partner, now, relay_state=query.get(bindings.FIELD_RELAY_STATE)
        )
    )


def _sso_post(service: HarnessService, request: _Handler) -> _Reply:
    body = request.body()
    session = _session_for(service, request, "the.user")
    return _form(service.idp.handle_authn_request(body, session, service.clock()))


def _artifact_resolve(service: HarnessService, request: _Handler) -> _Reply:
    try:
        payload = bindings.unwrap_envelope(request.body())
        response_bytes = service.idp.resolve_artifact(payload, service.clock())
    except SamlError as exc:
        return _Reply(500, bindings.make_fault(type(exc).__name__, str(exc)), "text/xml")
    return _Reply(200, bindings.wrap_envelope(response_bytes), "text/xml")


# -- SP routes ----------------------------------------------------------------


def _finish_consume(service: HarnessService, result) -> _Reply:
    service.set_last_report(result.report.render())
    if result.ok:
        return _Reply(303, location=result.redirect_url)
    return _Reply(400, result.report.render() + "\n")


def _acs_post(service: HarnessService, request: _Handler) -> _Reply:
    result = service.sp.consume(request.body(), request.client_address[0], service.clock())
    return _finish_consume(service, result)


def _acs_artifact(service: HarnessService, request: _Handler) -> _Reply:
    artifacts = [v for k, v in request.query() if k == bindings.FIELD_ARTIFACT]
    if not artifacts:
        return _Reply(400, "expected one or two SAMLart parameters\n")
    result = service.sp.fetch_via_artifact(artifacts, request.client_address[0], service.clock())
    return _finish_consume(service, result)


def _login(service: HarnessService, request: _Handler) -> _Reply:
    target = dict(request.query()).get("target", service.sp.landing_url)
    redirect, _token = service.sp.build_authn_request(target, service.clock())
    return _Reply(303, location=redirect.url)


# -- logout -------------------------------------------------------------------


def _slo_kickoff(service: HarnessService, request: _Handler) -> _Reply:
    user = dict(request.query()).get("user")
    if not user:
        return _Reply(400, "expected ?user=\n")
    session = service.idp.session_for_user(user)
    if session is None:
        return _Reply(200, "no live session\n")
    forms = service.idp.initiate_single_logout(session.session_index, service.clock())
    first = service.queue_logout_forms(session.session_index, forms)
    if first is None:
        return _Reply(200, "signed out (no participating services)\n")
    return _form(first)


def _slo_post(service: HarnessService, request: _Handler) -> _Reply:
    decoded = bindings.decode_post(request.body())
    now = service.clock()
    if decoded.field == bindings.FIELD_REQUEST:
        response_bytes = service.sp.handle_logout_request(decoded.message, now)
        idp_slo = service.idp.registry.local.role.single_logout_endpoints[0].location
        return _form(bindings.encode_post(response_bytes, "response", idp_slo))
    session_index = service.idp.handle_logout_response(decoded.message, now)
    next_form = service.next_logout_form(session_index)
    if next_form is None:
        return _Reply(200, "signed out everywhere\n")
    return _form(next_form)


_ROUTES: dict[tuple[str, str], Callable[[HarnessService, _Handler], _Reply]] = {
    ("GET", "/metadata/idp"): lambda service, request: _metadata(service.idp.registry.local),
    ("GET", "/metadata/sp"): lambda service, request: _metadata(service.sp.registry.local),
    ("GET", "/sso"): _sso_get,
    ("POST", "/sso"): _sso_post,
    ("POST", "/artifact-resolve"): _artifact_resolve,
    ("POST", "/acs"): _acs_post,
    ("GET", "/acs"): _acs_artifact,
    ("GET", "/login"): _login,
    ("GET", "/app"): lambda service, request: _Reply(200, "application stub: signed in\n"),
    ("GET", "/last-report"): lambda service, request: _Reply(200, service.get_last_report() + "\n"),
    ("GET", "/slo"): _slo_kickoff,
    ("POST", "/slo"): _slo_post,
}
