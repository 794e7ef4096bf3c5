"""Embedded HTTP service hosting both federation roles in one process.

Endpoints
---------
    GET  /sso?user=U[&partner=E][&binding=artifact][&RelayState=R]
                          identity-provider-initiated kick-off
    GET  /sso?SAMLRequest=...      service-provider-initiated arrival (redirect)
    POST /sso                      same, POST binding
    POST /acs                      assertion consumer service (form body)
    GET  /acs?SAMLart=...          artifact binding arrival (repeat param for pairs)
    POST /artifact-resolve         back-channel resolution (enveloped)
    POST /slo                      logout: SAMLRequest -> SP, SAMLResponse -> IdP
    GET  /slo?user=U               start single logout for the user's session
    GET  /metadata/idp, /metadata/sp
    GET  /login?target=URL         protected-resource entry, redirects to the IdP
    GET  /app                      stub application page (redirect target)
    GET  /last-report              most recent ACS validation report (text)

Failures never leak stack traces: protocol errors become HTTP 400 with the
validation report summary, back-channel errors become enveloped faults.
"""

from __future__ import annotations

import logging
import threading
import time
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
        self._report_lock = threading.Lock()
        self.last_acs_report: str = ""
        self._slo_queue: list[bindings.PostForm] = []
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.service = self  # type: ignore[attr-defined]
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
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
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
        with self._report_lock:
            self.last_acs_report = text

    def get_last_report(self) -> str:
        with self._report_lock:
            return self.last_acs_report

    def queue_logout_forms(self, forms: list[bindings.PostForm]) -> bindings.PostForm | None:
        with self._report_lock:
            self._slo_queue = list(forms)
            return self._slo_queue.pop(0) if self._slo_queue else None

    def next_logout_form(self) -> bindings.PostForm | None:
        with self._report_lock:
            return self._slo_queue.pop(0) if self._slo_queue else None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a reply goes out as headers, then body; without it the
    # body waits for a keep-alive client's delayed ACK of the headers.
    disable_nagle_algorithm = True

    @property
    def service(self) -> HarnessService:
        return self.server.service  # type: ignore[attr-defined]

    # stdlib logging goes through our logger instead of stderr
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("http " + format, *args)

    def _reply(
        self,
        status: int,
        body: bytes | str,
        content_type: str = "text/plain; charset=utf-8",
        location: str | None = None,
    ) -> None:
        raw = body.encode("utf-8") if isinstance(body, str) else body
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        if location is not None:
            self.send_header("Location", location)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(raw)

    def _observed_ip(self) -> str:
        return self.client_address[0]

    def _query(self) -> list[tuple[str, str]]:
        return parse_qsl(urlsplit(self.path).query, keep_blank_values=True)

    def _body(self) -> bytes:
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
        return self.rfile.read(int(digits))

    def _route(self) -> str:
        return urlsplit(self.path).path.rstrip("/") or "/"

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        started = time.monotonic()
        status = 500
        try:
            status = self._handle(method)
        except SamlError as exc:
            status = 413 if isinstance(exc, BodyTooLarge) else 400
            self._reply(status, f"{type(exc).__name__}: {exc}\n")
        except Exception:
            logger.exception("unhandled error path=%s", self.path)
            status = 500
            self._reply(500, "internal error\n")
        finally:
            logger.info(
                "request method=%s path=%s status=%d duration_ms=%.1f peer=%s",
                method,
                urlsplit(self.path).path,
                status,
                (time.monotonic() - started) * 1000,
                self.client_address[0],
            )

    def _handle(self, method: str) -> int:
        service = self.service
        route = self._route()
        if method == "GET":
            if route == "/metadata/idp":
                self._reply(
                    200,
                    xmlcodec.emit_metadata(service.idp.registry.local),
                    "application/samlmetadata+xml",
                )
                return 200
            if route == "/metadata/sp":
                self._reply(
                    200,
                    xmlcodec.emit_metadata(service.sp.registry.local),
                    "application/samlmetadata+xml",
                )
                return 200
            if route == "/sso":
                return self._handle_sso_get()
            if route == "/acs":
                return self._handle_acs_artifact()
            if route == "/slo":
                return self._handle_slo_kickoff()
            if route == "/login":
                return self._handle_login()
            if route == "/app":
                self._reply(200, "application stub: signed in\n")
                return 200
            if route == "/last-report":
                self._reply(200, service.get_last_report() + "\n")
                return 200
            self._reply(404, "not found\n")
            return 404

        if route == "/sso":
            return self._handle_sso_post()
        if route == "/acs":
            return self._handle_acs_post()
        if route == "/artifact-resolve":
            return self._handle_artifact_resolve()
        if route == "/slo":
            return self._handle_slo_post()
        self._reply(404, "not found\n")
        return 404

    # -- IdP endpoints ------------------------------------------------------

    def _session_for(self, user: str):
        service = self.service
        session = service.idp.session_for_user(user)
        if session is None:
            session = service.idp.create_session(user, self._observed_ip(), service.clock())
        return session

    def _handle_sso_get(self) -> int:
        service = self.service
        query = dict(self._query())
        if bindings.FIELD_REQUEST in query:
            session = self._session_for(query.get("user", "the.user"))
            form = service.idp.handle_authn_request(
                urlsplit(self.path).query, session, service.clock()
            )
            self._reply(200, bindings.render_post_html(form), "text/html; charset=utf-8")
            return 200
        user = query.get("user")
        partner = query.get("partner") or service.default_partner
        if not user or not partner:
            self._reply(400, "expected ?user= and ?partner= (or a SAMLRequest)\n")
            return 400
        session = self._session_for(user)
        now = service.clock()
        if query.get("binding") == "artifact":
            response = service.idp.issue_assertion(session, partner, now)
            policy = service.idp.registry.partner(partner).policy
            if policy.artifact_mode == "pair":
                pair = service.idp.issue_artifact_pair(response, partner, endpoint_index=0)
                artifacts = [a.encode() for a in pair]
            else:
                artifacts = [service.idp.issue_artifact(response, partner, endpoint_index=0).encode()]
            acs = response.destination
            pairs = [(bindings.FIELD_ARTIFACT, a) for a in artifacts]
            relay = query.get(bindings.FIELD_RELAY_STATE)
            if relay:
                pairs.append((bindings.FIELD_RELAY_STATE, relay))
            location = bindings.RedirectUrl(acs, tuple(pairs)).url
            self._reply(303, "", location=location)
            return 303
        form = service.idp.idp_initiated_post(
            session, partner, now, relay_state=query.get(bindings.FIELD_RELAY_STATE)
        )
        self._reply(200, bindings.render_post_html(form), "text/html; charset=utf-8")
        return 200

    def _handle_sso_post(self) -> int:
        service = self.service
        body = self._body()
        decoded = bindings.decode_post(body)
        if decoded.field != bindings.FIELD_REQUEST:
            self._reply(400, "expected a SAMLRequest form\n")
            return 400
        session = self._session_for("the.user")
        form = service.idp.handle_authn_request(body, session, service.clock())
        self._reply(200, bindings.render_post_html(form), "text/html; charset=utf-8")
        return 200

    def _handle_artifact_resolve(self) -> int:
        service = self.service
        try:
            payload = bindings.unwrap_envelope(self._body())
            response_bytes = service.idp.resolve_artifact(payload, service.clock())
        except SamlError as exc:
            self._reply(500, bindings.make_fault(type(exc).__name__, str(exc)), "text/xml")
            return 500
        self._reply(200, bindings.wrap_envelope(response_bytes), "text/xml")
        return 200

    # -- SP endpoints ---------------------------------------------------------

    def _finish_consume(self, result) -> int:
        service = self.service
        service.set_last_report(result.report.render())
        if result.ok:
            self._reply(303, "", location=result.redirect_url)
            return 303
        self._reply(400, result.report.render() + "\n")
        return 400

    def _handle_acs_post(self) -> int:
        service = self.service
        result = service.sp.consume(self._body(), self._observed_ip(), service.clock())
        return self._finish_consume(result)

    def _handle_acs_artifact(self) -> int:
        service = self.service
        artifacts = [v for k, v in self._query() if k == bindings.FIELD_ARTIFACT]
        if not artifacts:
            self._reply(400, "expected one or two SAMLart parameters\n")
            return 400
        result = service.sp.fetch_via_artifact(artifacts, self._observed_ip(), service.clock())
        return self._finish_consume(result)

    def _handle_login(self) -> int:
        service = self.service
        query = dict(self._query())
        target = query.get("target", service.sp.landing_url)
        redirect, _token = service.sp.build_authn_request(target, service.clock())
        self._reply(303, "", location=redirect.url)
        return 303

    # -- logout --------------------------------------------------------------

    def _handle_slo_kickoff(self) -> int:
        service = self.service
        query = dict(self._query())
        user = query.get("user")
        if not user:
            self._reply(400, "expected ?user=\n")
            return 400
        session = service.idp.session_for_user(user)
        if session is None:
            self._reply(200, "no live session\n")
            return 200
        forms = service.idp.initiate_single_logout(session.session_index, service.clock())
        first = service.queue_logout_forms(forms)
        if first is None:
            self._reply(200, "signed out (no participating services)\n")
            return 200
        self._reply(200, bindings.render_post_html(first), "text/html; charset=utf-8")
        return 200

    def _handle_slo_post(self) -> int:
        service = self.service
        body = self._body()
        decoded = bindings.decode_post(body)
        now = service.clock()
        if decoded.field == bindings.FIELD_REQUEST:
            response_bytes = service.sp.handle_logout_request(decoded.message, now)
            idp_slo = service.idp.registry.local.role.single_logout_endpoints[0].location
            form = bindings.encode_post(response_bytes, "response", idp_slo)
            self._reply(200, bindings.render_post_html(form), "text/html; charset=utf-8")
            return 200
        service.idp.handle_logout_response(decoded.message, now)
        next_form = service.next_logout_form()
        if next_form is not None:
            self._reply(200, bindings.render_post_html(next_form), "text/html; charset=utf-8")
            return 200
        self._reply(200, "signed out everywhere\n")
        return 200
