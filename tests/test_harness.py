import http.client
import re
import socket
import statistics
import time
import urllib.error
import urllib.parse
import urllib.request
from html import unescape
from pathlib import Path

import pytest

from samlforge import bindings, cryptoseal
from samlforge.harness.cli import main
from samlforge.harness.scenarios import (
    BadScenario,
    CLIENT_IP,
    SIM_EPOCH,
    SP_ENTITY,
    Scenario,
    SimulatedFederation,
    expected_outcome,
    parse_scenarios,
    run_scenario,
    run_scenarios,
)
from samlforge.harness.service import HarnessService

MATRIX_FILE = Path(__file__).parent.parent / "scripts" / "matrix.scenarios"


class TestScenarioGrammar:
    def test_matrix_file_parses(self):
        scenarios = parse_scenarios(MATRIX_FILE.read_text())
        assert len(scenarios) >= 30
        names = {s.name for s in scenarios}
        assert "idp-replay" in names and "pair-single-token" in names

    def test_inconsistent_expectation_rejected(self):
        text = "[scenario x]\nflow = idp_initiated\nfaults = wrong_audience\nexpect = success\n"
        with pytest.raises(BadScenario):
            parse_scenarios(text)

    def test_no_fault_must_expect_success(self):
        text = "[scenario x]\nflow = idp_initiated\nexpect = fail:signature\n"
        with pytest.raises(BadScenario):
            parse_scenarios(text)

    def test_unknown_fault_rejected(self):
        text = "[scenario x]\nflow = idp_initiated\nfaults = gremlins\nexpect = fail:decode\n"
        with pytest.raises(BadScenario):
            parse_scenarios(text)

    def test_content_before_stanza_rejected(self):
        with pytest.raises(BadScenario):
            parse_scenarios("flow = idp_initiated\n")

    def test_pair_fault_needs_pair_flow(self):
        text = "[scenario x]\nflow = artifact\nfaults = single_token_of_pair\nexpect = fail:fetch\n"
        with pytest.raises(BadScenario):
            parse_scenarios(text)

    def test_expected_outcome_picks_earliest_step(self):
        assert expected_outcome(()) == "success"
        assert expected_outcome(("wrong_locality",)) == "fail:locality"
        assert expected_outcome(("wrong_locality", "wrong_destination")) == "fail:destination"


class TestSimulator:
    def test_full_matrix_matches(self, shared_keys):
        import time

        scenarios = parse_scenarios(MATRIX_FILE.read_text())
        started = time.monotonic()
        results = run_scenarios(scenarios, seed=3)
        elapsed = time.monotonic() - started
        mismatched = [r for r in results if not r.ok]
        assert mismatched == []
        assert len(results) >= 30
        assert elapsed < 60

    def test_same_seed_reproduces_digests(self, shared_keys):
        scenario = Scenario(name="s", flow="idp_initiated")
        one = run_scenario(scenario, seed=11, keys=shared_keys)
        two = run_scenario(scenario, seed=11, keys=shared_keys)
        assert [e.digest for e in one.trace] == [e.digest for e in two.trace]
        assert [e.kind for e in one.trace] == [e.kind for e in two.trace]

    def test_trace_events_are_ordered(self, shared_keys):
        result = run_scenario(
            Scenario(name="s", flow="sp_initiated"), seed=1, keys=shared_keys
        )
        stamps = [e.timestamp.epoch for e in result.trace]
        assert stamps == sorted(stamps)

    def test_engine_error_becomes_mismatch(self, shared_keys):
        result = run_scenario(
            Scenario(name="s", flow="idp_initiated", user="ghost"), seed=1, keys=shared_keys
        )
        assert not result.ok
        assert result.actual == "error:UnknownUser"

    def test_combined_faults_fail_at_earliest_step(self, shared_keys):
        scenario = Scenario(
            name="s",
            flow="idp_initiated",
            faults=("wrong_locality", "wrong_audience"),
            expect="fail:audience",
        )
        result = run_scenario(scenario, seed=2, keys=shared_keys)
        assert result.ok


class TestCli:
    def test_decode_lists_attributes(self, capsys, tmp_path, shared_keys):
        fed = SimulatedFederation(keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH, relay_state="R42")
        capture = tmp_path / "capture.txt"
        capture.write_bytes(bindings.serialize_post_body(form))
        code = main(["decode", str(capture), "--expect-attributes", "clientId,uid"])
        out = capsys.readouterr().out
        assert code == 0
        assert "attribute clientId = 1234" in out
        assert "attribute uid = the.user@mycompany.com" in out
        assert "relay-state: R42" in out
        assert "attributes missing: none" in out

    def test_decode_garbage_exits_2(self, capsys, tmp_path):
        capture = tmp_path / "garbage.txt"
        capture.write_text("SAMLResponse=!!!")
        code = main(["decode", str(capture)])
        assert code == 2
        assert "BadBase64" in capsys.readouterr().err

    def test_decode_validates_against_metadata(self, capsys, tmp_path, shared_keys, corpus_dir):
        fed = SimulatedFederation(keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH)
        capture = tmp_path / "capture.txt"
        capture.write_bytes(bindings.serialize_post_body(form))
        code = main(["decode", str(capture), "--metadata", str(corpus_dir / "sp_metadata.xml")])
        out = capsys.readouterr().out
        assert code == 0
        assert "signature required: yes; present: yes" in out

    def test_simulate_matrix_exits_0(self, capsys):
        code = main(["simulate", str(MATRIX_FILE), "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenarios matched" in out

    def test_simulate_mismatch_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.scenarios"
        bad.write_text("[scenario ghost]\nflow = idp_initiated\nuser = ghost\nexpect = success\n")
        code = main(["simulate", str(bad)])
        out = capsys.readouterr().out
        assert code == 3
        assert "expected outcome : success" in out
        assert "actual outcome   : error:UnknownUser" in out

    def test_serve_with_bad_config_exits_4(self, capsys, tmp_path):
        config = tmp_path / "broken.conf"
        config.write_text("host = 127.0.0.1\n")  # everything else missing
        code = main(["serve", "--config", str(config)])
        assert code == 4
        assert "bad config" in capsys.readouterr().err

    def test_metadata_import_export_list(self, capsys, tmp_path, shared_keys, corpus_dir):
        from samlforge.federation import FederationRegistry, save_registry
        from samlforge.harness.config import build_idp_descriptor

        registry_dir = tmp_path / "registry"
        descriptor = build_idp_descriptor(
            "mycompany:saml2.0", "http://idp.internal.test", shared_keys["idp-signing"].cert_b64
        )
        save_registry(
            FederationRegistry(local=descriptor, signing_alias="idp-signing"), registry_dir
        )

        code = main(
            [
                "metadata",
                "import",
                str(corpus_dir / "sp_metadata.xml"),
                "--registry-dir",
                str(registry_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sign=true encrypt=true acs=2 endpoints" in out

        code = main(["metadata", "list", "--registry-dir", str(registry_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "mypartner:saml2.0" in out

        exported = tmp_path / "out.xml"
        code = main(
            ["metadata", "export", "--registry-dir", str(registry_dir), "-o", str(exported)]
        )
        assert code == 0
        assert b"IDPSSODescriptor" in exported.read_bytes()

    def test_metadata_export_without_local_config_exits_2(self, capsys, tmp_path):
        code = main(["metadata", "export", "--registry-dir", str(tmp_path / "none")])
        assert code == 2
        assert "IncompleteLocalConfig" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# HTTP service
# ---------------------------------------------------------------------------


class _Browser:
    """Tiny redirect-following, form-submitting client for the harness."""

    def __init__(self):
        handler = type(
            "NoRedirect",
            (urllib.request.HTTPRedirectHandler,),
            {"redirect_request": staticmethod(lambda *a, **k: None)},
        )
        self.opener = urllib.request.build_opener(handler)

    def get(self, url):
        try:
            response = self.opener.open(url, timeout=10)
            return response.status, response.headers.get("Location"), response.read().decode()
        except urllib.error.HTTPError as error:
            return error.code, error.headers.get("Location"), error.read().decode()

    def post(self, url, fields):
        body = urllib.parse.urlencode(fields).encode()
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/x-www-form-urlencoded"}
        )
        try:
            response = self.opener.open(request, timeout=10)
            return response.status, response.headers.get("Location"), response.read().decode()
        except urllib.error.HTTPError as error:
            return error.code, error.headers.get("Location"), error.read().decode()

    def submit_form(self, page):
        action = unescape(re.search(r'action="([^"]+)"', page).group(1))
        fields = {
            unescape(m.group(1)): unescape(m.group(2))
            for m in re.finditer(r'name="([^"]+)" value="([^"]+)"', page)
        }
        return self.post(action, fields)


def _service_workspace(tmp_path, shared_keys, port):
    cryptoseal.save_keystore(
        cryptoseal.make_keystore({"idp-signing": shared_keys["idp-signing"]}),
        tmp_path / "idp.keystore",
        "pw",
    )
    cryptoseal.save_keystore(
        cryptoseal.make_keystore(
            {
                "sp-signing": shared_keys["sp-signing"],
                "sp-encryption": shared_keys["sp-encryption"],
            }
        ),
        tmp_path / "sp.keystore",
        "pw",
    )
    (tmp_path / "users.records").write_text(
        "the.user the.user@mycompany.com clientId=1234 uid=the.user@mycompany.com\n"
    )
    base = f"http://127.0.0.1:{port}"
    (tmp_path / "service.conf").write_text(
        f"""
host = 127.0.0.1
port = {port}
skew = 0
idp.entity_id = mycompany:saml2.0
idp.base_url = {base}
idp.keystore = idp.keystore
idp.passphrase = pw
idp.source = users.records
sp.entity_id = mypartner:saml2.0
sp.base_url = {base}
sp.keystore = sp.keystore
sp.passphrase = pw
sp.landing_url = {base}/app
"""
    )
    return base


@pytest.fixture
def live_service(tmp_path, shared_keys):
    from samlforge.harness.config import load_config

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    base = _service_workspace(tmp_path, shared_keys, port)
    clock = {"now": SIM_EPOCH}
    service = HarnessService.from_config(
        load_config(tmp_path / "service.conf"), clock=lambda: clock["now"]
    )
    with service:
        yield service, base, clock


class TestHttpService:
    def test_metadata_endpoints(self, live_service):
        _, base, _ = live_service
        browser = _Browser()
        _, _, idp_doc = browser.get(f"{base}/metadata/idp")
        _, _, sp_doc = browser.get(f"{base}/metadata/sp")
        assert "IDPSSODescriptor" in idp_doc and "SingleSignOnService" in idp_doc
        assert "SPSSODescriptor" in sp_doc and "AssertionConsumerService" in sp_doc

    def test_post_flow_and_replay_over_http(self, live_service):
        service, base, clock = live_service
        browser = _Browser()
        _, _, page = browser.get(f"{base}/sso?user=the.user&partner=mypartner:saml2.0")
        clock["now"] = clock["now"].plus(1)
        status, location, _ = browser.submit_form(page)
        assert status == 303 and location == f"{base}/app"
        status, _, body = browser.submit_form(page)
        assert status == 400
        assert "fail:replay" in body

    def test_expired_assertion_names_the_window_step(self, live_service):
        service, base, clock = live_service
        browser = _Browser()
        _, _, page = browser.get(f"{base}/sso?user=the.user&partner=mypartner:saml2.0")
        clock["now"] = clock["now"].plus(301)
        status, _, body = browser.submit_form(page)
        assert status == 400
        assert "window fail" in body
        assert "outcome fail:window" in body

    def test_artifact_binding_over_http(self, live_service):
        service, base, clock = live_service
        browser = _Browser()
        status, location, _ = browser.get(
            f"{base}/sso?user=the.user&partner=mypartner:saml2.0&binding=artifact"
        )
        assert status == 303 and "SAMLart=" in location
        clock["now"] = clock["now"].plus(1)
        status, app_location, _ = browser.get(location)
        assert status == 303 and app_location == f"{base}/app"
        # replayed artifact resolution fails on the back channel
        status, _, body = browser.get(location)
        assert status == 400
        assert "AlreadyConsumed" in body

    def test_sp_initiated_over_http(self, live_service):
        service, base, clock = live_service
        browser = _Browser()
        status, location, _ = browser.get(f"{base}/login?target={base}/app")
        assert status == 303
        _, _, page = browser.get(location)
        clock["now"] = clock["now"].plus(1)
        status, app_location, _ = browser.submit_form(page)
        assert status == 303 and app_location == f"{base}/app"

    def test_single_logout_over_http(self, live_service):
        service, base, clock = live_service
        browser = _Browser()
        _, _, page = browser.get(f"{base}/sso?user=the.user&partner=mypartner:saml2.0")
        clock["now"] = clock["now"].plus(1)
        browser.submit_form(page)
        _, _, logout_page = browser.get(f"{base}/slo?user=the.user")
        _, _, response_page = browser.submit_form(logout_page)
        _, _, final = browser.submit_form(response_page)
        assert "signed out everywhere" in final
        assert service.sp.live_sessions() == ()

    def test_service_and_simulator_reports_are_identical(self, live_service, shared_keys):
        service, base, clock = live_service
        browser = _Browser()

        # run the same no-fault POST flow through both transports
        _, _, page = browser.get(f"{base}/sso?user=the.user&partner=mypartner:saml2.0")
        clock["now"] = clock["now"].plus(1)
        browser.submit_form(page)
        _, _, http_report = browser.get(f"{base}/last-report")

        fed = SimulatedFederation(encrypt=True, keys=shared_keys)
        session = fed.idp.create_session("the.user", "127.0.0.1", SIM_EPOCH)
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH)
        result = fed.sp.consume(
            bindings.serialize_post_body(form), "127.0.0.1", SIM_EPOCH.plus(1)
        )
        assert http_report.strip() == result.report.render().strip()

    def test_keep_alive_replies_do_not_wait_on_delayed_ack(self, live_service):
        service, _, _ = live_service
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        round_trips = []
        try:
            for _ in range(10):
                started = time.perf_counter()
                conn.request("GET", "/metadata/idp")
                response = conn.getresponse()
                body = response.read()
                round_trips.append((time.perf_counter() - started) * 1000)
                assert response.status == 200 and b"IDPSSODescriptor" in body
        finally:
            conn.close()
        # with Nagle on, the body waits ~40 ms for the client's delayed ACK
        assert statistics.median(round_trips) < 20, round_trips
