import re
import socket
import string
import threading

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracles
import strategies as strat
from samlforge.bindings import (
    Artifact,
    BackChannelTimeout,
    BadBase64,
    BadDeflate,
    BadLength,
    BadTypeCode,
    BadUrlEncoding,
    ConnectFailed,
    FaultResponse,
    MissingField,
    PostForm,
    RelayStateTooLong,
    UrlTooLong,
    _percent_decode,
    back_channel_exchange,
    decode_post,
    decode_redirect,
    encode_post,
    encode_redirect,
    make_fault,
    new_artifact,
    parse_artifact,
    render_post_html,
    serialize_post_body,
    unwrap_envelope,
    wrap_envelope,
)
from samlforge.core import EntityId
from samlforge.xmlcodec import emit_authn_request

# precomputed with the table-driven oracle; also checked live below
A_TAG_B64 = "PGEvPg=="


class TestPostBinding:
    def test_known_value_matches_oracle(self):
        form = encode_post(b"<a/>", "response", "https://mypartner.com/metaAlias/sp")
        assert form.saml_value == oracles.b64encode(b"<a/>") == A_TAG_B64

    def test_relay_state_absent_means_no_input(self):
        form = encode_post(b"<a/>", "response", "https://x/acs")
        assert form.relay_state is None
        assert "RelayState" not in render_post_html(form)

    def test_serialize_decode_inverse(self):
        form = encode_post(b"<a/>", "response", "https://x/acs", relay_state="R42")
        decoded = decode_post(serialize_post_body(form))
        assert decoded.message == b"<a/>"
        assert decoded.relay_state == "R42"
        assert decoded.field == "SAMLResponse"

    def test_decode_known_body(self):
        decoded = decode_post(b"SAMLResponse=PGEvPg%3D%3D")
        via_oracle = oracles.b64decode(oracles.percent_decode("PGEvPg%3D%3D").decode())
        assert decoded.message == via_oracle == b"<a/>"
        assert decoded.relay_state is None

    def test_bad_base64(self):
        with pytest.raises(BadBase64):
            decode_post(b"SAMLResponse=!!!")

    def test_relay_state_alone_is_missing_field(self):
        with pytest.raises(MissingField):
            decode_post(b"RelayState=abc")

    def test_bad_percent_escape(self):
        with pytest.raises(BadUrlEncoding):
            decode_post(b"SAMLResponse=PGEvPg%Z")

    def test_relay_state_budget(self):
        with pytest.raises(RelayStateTooLong):
            encode_post(b"<a/>", "response", "https://x/acs", relay_state="r" * 81)
        encode_post(b"<a/>", "response", "https://x/acs", relay_state="r" * 80)

    def test_request_kind_uses_samlrequest_field(self):
        form = encode_post(b"<a/>", "request", "https://x/sso")
        assert form.saml_field == "SAMLRequest"

    @given(payload=st.binary(min_size=0, max_size=200), relay=st.none() | st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_round_trip_property(self, payload, relay):
        form = encode_post(payload, "response", "https://x/acs", relay_state=relay)
        decoded = decode_post(serialize_post_body(form))
        assert decoded.message == payload
        assert decoded.relay_state == relay

    @given(
        raw=st.lists(
            st.sampled_from(["%", "+", "%FF", "%C3", "%2", "%e9", "%20", "%2B", "%%"])
            | st.sampled_from(list("0123456789abcdefABCDEFghxyzGZ =&"))
            | st.characters(min_codepoint=0x80, max_codepoint=0x2FFF),
            max_size=12,
        ).map("".join)
    )
    @settings(max_examples=500)
    def test_percent_decode_matches_oracle(self, raw):
        def well_formed(i):
            pair = raw[i + 1 : i + 3]
            return len(pair) == 2 and set(pair) <= set(string.hexdigits)

        bad = [i for i, c in enumerate(raw) if c == "%" and not well_formed(i)]
        if bad:
            # the message shows the two bytes after the first bad '%'
            shown = raw[bad[0] + 1 :].encode("utf-8")[:2].decode("ascii", errors="replace")
            message = f"invalid percent escape %{shown}"
            with pytest.raises(BadUrlEncoding, match=re.escape(message) + "$"):
                _percent_decode(raw)
            return
        expected = oracles.percent_decode(raw)
        try:
            text = expected.decode("utf-8")
        except UnicodeDecodeError:
            with pytest.raises(BadUrlEncoding, match="not UTF-8"):
                _percent_decode(raw)
            return
        assert _percent_decode(raw) == text

    @given(
        action=st.text(min_size=1, max_size=30),
        relay=st.text(min_size=1, max_size=40),
    )
    @settings(max_examples=150)
    def test_html_rendering_escapes_everything(self, action, relay):
        try:
            form = PostForm("https://x/" + action, "SAMLResponse", A_TAG_B64, relay)
        except (ValueError, RelayStateTooLong):
            return
        html_page = render_post_html(form)
        for chunk in html_page.split('"')[1::2]:  # attribute values only
            assert "<" not in chunk and ">" not in chunk and '"' not in chunk
            assert "&" not in chunk.replace("&amp;", "").replace("&lt;", "").replace(
                "&gt;", ""
            ).replace("&quot;", "").replace("&#x27;", "")

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_decode_total_over_arbitrary_bytes(self, blob):
        try:
            decode_post(blob)
        except (MissingField, BadBase64, BadUrlEncoding):
            pass


class TestRedirectBinding:
    @given(strat.authn_requests)
    @settings(max_examples=500)
    def test_round_trip_over_random_requests(self, request):
        payload = emit_authn_request(request)
        redirect = encode_redirect(payload, "http://mycompany.com/sso/SSO", relay_state="tok")
        decoded = decode_redirect(redirect.url)
        assert decoded.message == payload
        assert decoded.relay_state == "tok"

    def test_empty_relay_state_treated_as_absent(self):
        redirect = encode_redirect(b"<a/>", "http://x/sso", relay_state="")
        assert all(name != "RelayState" for name, _ in redirect.query)
        decoded = decode_redirect(redirect.url + "&RelayState=")
        assert decoded.relay_state is None

    def test_oversized_message_rejected(self):
        import os

        with pytest.raises(UrlTooLong):
            encode_redirect(os.urandom(4096), "http://x/sso")

    def test_bad_deflate(self):
        value = oracles.b64encode(b"this was never deflated")
        from urllib.parse import quote_plus

        with pytest.raises(BadDeflate):
            decode_redirect(f"http://x/sso?SAMLRequest={quote_plus(value)}")

    def test_missing_parameter(self):
        with pytest.raises(MissingField):
            decode_redirect("http://x/sso?RelayState=abc")

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_decode_total_over_arbitrary_queries(self, query):
        try:
            decode_redirect("http://x/sso?" + query)
        except (MissingField, BadBase64, BadDeflate, BadUrlEncoding):
            pass


class TestArtifact:
    ISSUER = EntityId("mycompany:saml2.0")

    def test_source_id_matches_sha1_oracle(self):
        artifact = new_artifact(self.ISSUER)
        expected = oracles.sha1(b"mycompany:saml2.0")
        assert artifact.source_id == expected
        # frozen value, independently computed once by the oracle
        assert expected.hex() == "961fdd985935ef00dc789e50c218a2123b3cb722"

    def test_round_trip(self):
        artifact = new_artifact(self.ISSUER, endpoint_index=7)
        parsed = parse_artifact(artifact.encode())
        assert parsed == artifact

    def test_serialized_length_is_exactly_44_bytes(self):
        artifact = new_artifact(self.ISSUER, endpoint_index=65535)
        assert len(artifact.to_bytes()) == 44
        assert len(oracles.b64decode(artifact.encode())) == 44

    def test_distinct_handles(self):
        assert new_artifact(self.ISSUER).message_handle != new_artifact(self.ISSUER).message_handle

    def test_wrong_type_code(self):
        raw = (3).to_bytes(2, "big") + (0).to_bytes(2, "big") + b"\x00" * 40
        with pytest.raises(BadTypeCode):
            parse_artifact(oracles.b64encode(raw))

    def test_wrong_length(self):
        with pytest.raises(BadLength):
            parse_artifact(oracles.b64encode(b"\x00\x04" + b"\x00" * 10))

    def test_garbage_is_bad_base64(self):
        with pytest.raises(BadBase64):
            parse_artifact("@@@@")

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            new_artifact(self.ISSUER, endpoint_index=65536)

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_parse_total(self, text):
        try:
            parse_artifact(text)
        except (BadBase64, BadLength, BadTypeCode):
            pass


class TestBackChannel:
    PAYLOAD = b'<samlp:ArtifactResolve xmlns:samlp="urn:oasis:names:tc:SAML:2.0:protocol" ID="_1" IssueInstant="2009-04-22T12:33:36Z" Version="2.0"><saml:Issuer xmlns:saml="urn:oasis:names:tc:SAML:2.0:assertion">sp</saml:Issuer><samlp:Artifact>AAQ=</samlp:Artifact></samlp:ArtifactResolve>'

    def test_envelope_round_trip(self):
        assert unwrap_envelope(wrap_envelope(self.PAYLOAD)) == self.PAYLOAD

    def test_loopback_echo(self):
        response = back_channel_exchange(
            "http://loop.test/resolve",
            self.PAYLOAD,
            transport=lambda url, body, timeout: (200, body),
        )
        assert response == self.PAYLOAD

    def test_fault_envelope_raises(self):
        fault = make_fault("AlreadyConsumed", "second presentation")
        with pytest.raises(FaultResponse) as excinfo:
            back_channel_exchange(
                "http://loop.test/resolve",
                self.PAYLOAD,
                transport=lambda url, body, timeout: (500, fault),
            )
        assert excinfo.value.code == "AlreadyConsumed"

    def test_unreachable_endpoint(self):
        # grab a port and close it again so nothing listens there
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectFailed):
            back_channel_exchange(f"http://127.0.0.1:{port}/resolve", self.PAYLOAD, timeout=2)

    def test_slow_endpoint_times_out(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]
        release = threading.Event()

        def sit_on_connection():
            conn, _ = server.accept()
            release.wait(5)
            conn.close()

        thread = threading.Thread(target=sit_on_connection, daemon=True)
        thread.start()
        try:
            with pytest.raises(BackChannelTimeout):
                back_channel_exchange(
                    f"http://127.0.0.1:{port}/resolve", self.PAYLOAD, timeout=0.3
                )
        finally:
            release.set()
            server.close()
