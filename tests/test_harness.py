import base64
import dataclasses
import hashlib
import http.client
import re
import signal
import socket
import statistics
import time
import urllib.error
import urllib.parse
import urllib.request
import zlib
from html import unescape
from pathlib import Path

import pytest

from samlforge import bindings, cryptoseal, xmlcodec
from samlforge.core import STATUS_SUCCESS, LogoutResponse, new_message_id
from samlforge.federation import FederationRegistry, register_partner
from samlforge.harness.cli import main
from samlforge.harness.config import BadConfig, build_sp_descriptor, load_config
from samlforge.harness.faults import FAULT_STEP, FAULTS
from samlforge.harness.scenarios import (
    BadScenario,
    CLIENT_IP,
    FLOWS,
    SIM_EPOCH,
    SP_ENTITY,
    Scenario,
    SimulatedFederation,
    expected_outcome,
    parse_scenarios,
    run_scenario,
    run_scenarios,
)
from samlforge.harness.service import _ROUTES, HarnessService
from samlforge.sp import SpEngine

MATRIX_FILE = Path(__file__).parent.parent / "scripts" / "matrix.scenarios"
README = Path(__file__).parent.parent / "README.md"

MATRIX_REPORT_SHA256 = {
    "idp-clean": "11b338c14da150bfd92c220542a36099241533b7b87496586c352cbb2fea6f25",
    "idp-tamper-signature": "2ec96d66ecf0fdea829973e79cf0168db0ab477389ac6d4ce300711ff94e8339",
    "idp-strip-signature": "8adcf7641243176b47e31fcc88483c106fcb16c47310f2a728ecaacba76f4aaf",
    "idp-expired": "9296fc71183163d3ad1496174e6472ed498988acfb62dfca64ebefa7f6f499d5",
    "idp-not-yet-valid": "9b3090a7d2169d12c9255887e2733f1a74465355273fef7418f2a2e98523c4c7",
    "idp-wrong-audience": "0def2a4d4be77ead227680c61e57ffca31629f087d13089175110b7cbd4eeda2",
    "idp-wrong-recipient": "6462f2c2d32b5e8b65b25b3419fd60a2bae92967abcaa5719f018b080a55ee7b",
    "idp-wrong-destination": "8e681c032830cf1459cefbd00a73def4fa45d0cbd4c3dcab211bbab78e165297",
    "idp-replay": "fa73d768e0dbeb9655cc2a8a051fdfab028d9d2144b409f19e8d33d096b45f0c",
    "idp-wrong-locality": "1a5c2e3a3bc5ed326788e92573ee2de21517fa313730f7bfdff5c7c7084c3b67",
    "sp-clean": "a6604f1f94113c0a690c5c58e4ca09a3de8c372bd4e14a68fd964a71e71a716e",
    "sp-tamper-signature": "2ec96d66ecf0fdea829973e79cf0168db0ab477389ac6d4ce300711ff94e8339",
    "sp-strip-signature": "8adcf7641243176b47e31fcc88483c106fcb16c47310f2a728ecaacba76f4aaf",
    "sp-expired": "6f376bc29eaa3d989d1c7bcdc7ea3fbc12d1c787663c7e0d391470b99d5ff758",
    "sp-not-yet-valid": "a03772b42f26e6a3ce4d821df5d40b94af63624865878df80c29cbf27afcd811",
    "sp-wrong-audience": "0def2a4d4be77ead227680c61e57ffca31629f087d13089175110b7cbd4eeda2",
    "sp-wrong-recipient": "6462f2c2d32b5e8b65b25b3419fd60a2bae92967abcaa5719f018b080a55ee7b",
    "sp-wrong-destination": "8e681c032830cf1459cefbd00a73def4fa45d0cbd4c3dcab211bbab78e165297",
    "sp-replay": "92e44f62ea040de3052cfa2740ab178f8365e47809173e4ada4ce9bd67e5a5ea",
    "sp-wrong-locality": "1a5c2e3a3bc5ed326788e92573ee2de21517fa313730f7bfdff5c7c7084c3b67",
    "idp-clean-encrypted": "11b338c14da150bfd92c220542a36099241533b7b87496586c352cbb2fea6f25",
    "sp-clean-encrypted": "a6604f1f94113c0a690c5c58e4ca09a3de8c372bd4e14a68fd964a71e71a716e",
    "idp-tamper-encrypted": "2ec96d66ecf0fdea829973e79cf0168db0ab477389ac6d4ce300711ff94e8339",
    "idp-replay-encrypted": "fa73d768e0dbeb9655cc2a8a051fdfab028d9d2144b409f19e8d33d096b45f0c",
    "artifact-clean": "15434d60f1eaa316618795c8e6232f1ce97dba22a4b2caec35bd7ed788c15572",
    "artifact-replay": "c47115d5f39120af431e68f305c87dabab6f6f7b66e5d8f48cf6198ec8d7ec0a",
    "artifact-tamper": "27ffdf950c72dbb1453de492b33eacbf68b43fa1e327ca4de89099fc7f78b5f1",
    "artifact-not-yet-valid": "93601b9591cd13851c95504741c1f8655ee4d0f3d7360fed9fc7b2e60dfb044a",
    "pair-clean": "15434d60f1eaa316618795c8e6232f1ce97dba22a4b2caec35bd7ed788c15572",
    "pair-single-token": "660fca8783d244c368938bb20ec3c9c6d5f06c36ca9d5d003ca5fccf461e8ee5",
    "pair-cross-tokens": "fc81d524a927817774b2f1b25ed257a1bb0e69f9db0b91153db92dc586c4ad02",
    "pair-replay": "c47115d5f39120af431e68f305c87dabab6f6f7b66e5d8f48cf6198ec8d7ec0a",
    "logout-clean": "11b338c14da150bfd92c220542a36099241533b7b87496586c352cbb2fea6f25",
    "logout-second-user": "11b338c14da150bfd92c220542a36099241533b7b87496586c352cbb2fea6f25",
}

# SHA-256 of every matrix trace event at seed 0, rendered with its digest
# column blank: the digests hash messages signed with per-process keys.
MATRIX_TRACE_SHA256 = "3b7e2c5b0c9425402c3b39fce5a36d95fa8128ed4827e199110a4e37f7bd6100"

# Each (fault, flow) pair that parse_scenarios accepts for the fault alone.
ACCEPTED_FAULT_FLOWS = {
    (fault, flow)
    for fault, flows in {
        "tamper_signature": "idp_initiated sp_initiated artifact artifact_pair",
        "strip_signature": "idp_initiated sp_initiated artifact artifact_pair",
        "expire_window": "idp_initiated sp_initiated",
        "not_yet_valid": "idp_initiated sp_initiated artifact artifact_pair",
        "wrong_audience": "idp_initiated sp_initiated artifact artifact_pair",
        "wrong_recipient": "idp_initiated sp_initiated artifact artifact_pair",
        "wrong_destination": "idp_initiated sp_initiated artifact artifact_pair",
        "replay_assertion": "idp_initiated sp_initiated",
        "wrong_locality": "idp_initiated sp_initiated artifact artifact_pair",
        "replay_artifact": "artifact artifact_pair",
        "single_token_of_pair": "artifact_pair",
        "cross_pair_tokens": "artifact_pair",
    }.items()
    for flow in flows.split()
}


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

    def test_accepted_fault_flow_pairs_are_pinned(self):
        assert len(FAULT_STEP) * len(FLOWS) == 12 * 5
        accepted = set()
        for fault, step in FAULT_STEP.items():
            for flow in FLOWS:
                text = f"[scenario x]\nflow = {flow}\nfaults = {fault}\nexpect = fail:{step}\n"
                try:
                    parse_scenarios(text)
                except BadScenario:
                    continue
                accepted.add((fault, flow))
        assert accepted == ACCEPTED_FAULT_FLOWS


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

    def test_matrix_reports_are_pinned(self, shared_keys):
        # SHA-256 of each scenario's rendered ValidationReport at seed 0, as
        # the hand-written pipeline produced them before the step table; the
        # signature faults' since the Response carries the one signature.
        results = run_scenarios(parse_scenarios(MATRIX_FILE.read_text()), seed=0)
        digests = {
            r.scenario.name: hashlib.sha256(r.report.render().encode()).hexdigest()
            for r in results
        }
        assert digests == MATRIX_REPORT_SHA256

    def test_matrix_traces_are_pinned(self, shared_keys):
        results = run_scenarios(parse_scenarios(MATRIX_FILE.read_text()), seed=0)
        text = "".join(
            dataclasses.replace(event, digest="").render() + "\n"
            for result in results
            for event in result.trace
        )
        assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_TRACE_SHA256

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

    def test_decode_reads_the_bare_value_of_a_captured_form(self, capsys, tmp_path, shared_keys):
        fed = SimulatedFederation(encrypt=True, keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH)
        outputs = []
        for name, data in [
            ("value.txt", form.saml_value.encode() + b"\n"),
            ("body.txt", bindings.serialize_post_body(form)),
        ]:
            (tmp_path / name).write_bytes(data)
            assert main(["decode", str(tmp_path / name)]) == 0
            outputs.append(capsys.readouterr().out)
        value, body = outputs
        assert value.startswith("transport: POST form value (base64)\nfield: SAMLResponse\n")
        assert body.startswith("transport: POST form body (base64)\nfield: SAMLResponse\n")
        assert value.split("\n")[1:] == body.split("\n")[1:]
        # encrypt, then sign: the sealed Response carries one signature, its own
        assert len(re.findall(r"<ds:Signature[ >]", value)) == 1
        assert "assertion: encrypted\nsigned: yes\n" in value

    def test_decode_garbage_exits_2(self, capsys, tmp_path):
        capture = tmp_path / "garbage.txt"
        capture.write_text("SAMLResponse=!!!")
        code = main(["decode", str(capture)])
        assert code == 2
        assert "BadBase64" in capsys.readouterr().err

    def test_decode_document_without_namespace_exits_2(self, capsys, tmp_path):
        capture = tmp_path / "bare.txt"
        capture.write_bytes(
            bindings.serialize_post_body(
                bindings.encode_post(b"<a><b>t</b></a>", "response", "https://sp.example/acs")
            )
        )
        code = main(["decode", str(capture)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("decode failed: MalformedXml: element 'a' has no namespace")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_decode_response_without_issuer_exits_2(self, capsys, tmp_path):
        response = (
            b'<samlp:Response xmlns:samlp="urn:oasis:names:tc:SAML:2.0:protocol" ID="_1" '
            b'Version="2.0" IssueInstant="2009-04-22T12:33:36Z" Destination="x"/>'
        )
        capture = tmp_path / "no-issuer.txt"
        capture.write_bytes(
            bindings.serialize_post_body(
                bindings.encode_post(response, "response", "https://sp.example/acs")
            )
        )
        code = main(["decode", str(capture)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "decode failed: MissingRequiredElement: Issuer\n"
        assert captured.out == ""

    def test_decode_assertion_with_empty_nameid_exits_2(self, capsys, tmp_path, shared_keys):
        fed = SimulatedFederation(keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH)
        genuine = base64.b64decode(form.saml_value)
        message = re.sub(rb"<saml:NameID>[^<]+<", b"<saml:NameID><", genuine)
        assert message != genuine
        capture = tmp_path / "empty-nameid.txt"
        capture.write_bytes(
            bindings.serialize_post_body(bindings.encode_post(message, "response", form.action_url))
        )
        code = main(["decode", str(capture)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "decode failed: MalformedXml: subject name_id must be non-empty\n"

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

    def test_serve_refuses_an_unknown_artifact_mode(self, capsys, tmp_path, shared_keys, monkeypatch):
        _service_workspace(tmp_path, shared_keys, 0)
        conf = tmp_path / "service.conf"
        conf.write_text(conf.read_text() + "artifact_mode = paired\n")

        def serve_forever(service):
            service.shutdown()
            pytest.fail("serve accepted artifact_mode = paired")

        monkeypatch.setattr(HarnessService, "serve_forever", serve_forever)
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        assert main(["serve", "--config", str(conf)]) == 4
        err = capsys.readouterr().err
        assert "bad config: artifact_mode must be single or pair, got 'paired'" in err

    def test_metadata_refuses_an_unknown_artifact_mode(self, capsys, tmp_path, shared_keys):
        from samlforge.federation import save_registry
        from samlforge.harness.config import build_idp_descriptor

        descriptor = build_idp_descriptor(
            "mycompany:saml2.0", "http://idp.internal.test", shared_keys["idp-signing"].cert_b64
        )
        save_registry(FederationRegistry(local=descriptor, signing_alias="idp-signing"), tmp_path)
        policy = tmp_path / "local.policy"
        policy.write_text(policy.read_text().replace("artifact_mode = single", "artifact_mode = paired"))
        assert main(["metadata", "list", "--registry-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "ValueError: artifact_mode must be single or pair, got 'paired'" in err

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

    @staticmethod
    def form(page):
        """The action and fields of the form on ``page``."""
        action = unescape(re.search(r'action="([^"]+)"', page).group(1))
        fields = {
            unescape(m.group(1)): unescape(m.group(2))
            for m in re.finditer(r'name="([^"]+)" value="([^"]+)"', page)
        }
        return action, fields

    def submit_form(self, page):
        return self.post(*self.form(page))


def _follow_logout(browser, page, elsewhere):
    """Submit logout forms until a page carries none; returns that page and
    the SessionIndex of each LogoutRequest submitted on the way. A form whose
    action is a key of ``elsewhere`` goes to that function instead, which
    takes the form's fields and returns the page the site there would."""
    indexes = []
    for _ in range(10):
        if "<form" not in page:
            return page, indexes
        request = re.search(r'name="SAMLRequest" value="([^"]+)"', page)
        if request:
            message = base64.b64decode(unescape(request.group(1)))
            parsed = xmlcodec.logout_request_from_element(xmlcodec.parse_xml(message))
            indexes.append(parsed.session_index)
        action, fields = browser.form(page)
        if action in elsewhere:
            page = elsewhere[action](fields)
        else:
            _, _, page = browser.post(action, fields)
    raise AssertionError(f"logout did not end: {page}")


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
        "j.doe jane.doe@mycompany.com clientId=1234 uid=jane.doe@mycompany.com\n"
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


def test_a_repeated_user_key_is_bad_config(tmp_path, shared_keys):
    _service_workspace(tmp_path, shared_keys, 8880)
    records = tmp_path / "users.records"
    records.write_text(records.read_text() + "the.user stale@mycompany.com uid=stale\n")
    with pytest.raises(BadConfig, match="line 3: user key 'the.user' already given on line 1"):
        HarnessService.from_config(load_config(tmp_path / "service.conf"))


def test_configured_validity_applies_to_a_partner_registered_later(
    tmp_path, shared_keys, rogue_key
):
    _service_workspace(tmp_path, shared_keys, 0)
    conf = tmp_path / "service.conf"
    conf.write_text(conf.read_text() + "validity = 120\n")
    service = HarnessService.from_config(load_config(conf), clock=lambda: SIM_EPOCH)
    try:
        other_sp = build_sp_descriptor("second:sp", "https://second.sp.test", rogue_key.cert_b64)
        service.idp.register_partner(xmlcodec.emit_metadata(other_sp))
        session = service.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        window = service.idp.issue_assertion(session, "second:sp", SIM_EPOCH).assertion.conditions
        assert window.not_on_or_after.epoch - window.not_before.epoch == 120
    finally:
        service.shutdown()


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

    def test_a_bent_artifact_resolve_is_answered_with_an_enveloped_fault(self, live_service):
        service, base, clock = live_service
        session = service.idp.create_session("the.user", CLIENT_IP, clock["now"])
        response = service.idp.issue_assertion(session, SP_ENTITY, clock["now"])
        artifact = service.idp.issue_artifact(response, SP_ENTITY).encode()
        resolve = xmlcodec.emit_artifact_resolve(
            new_message_id(), clock["now"], service.sp.entity_id, (artifact,)
        )
        bent = resolve.replace(b"<saml:Issuer", b"<!----><saml:Issuer", 1)
        endpoint = f"{base}/artifact-resolve"
        status, body = bindings._http_transport(endpoint, bindings.wrap_envelope(bent), 10)
        assert status == 500
        with pytest.raises(bindings.FaultResponse) as fault:
            bindings.unwrap_envelope(body)
        assert (fault.value.code, fault.value.detail) == ("MalformedXml", xmlcodec.NOT_EMITTED_BYTES)
        # the artifact is still there for the genuine request
        resolved = bindings.back_channel_exchange(endpoint, resolve)
        assert resolved == xmlcodec.emit_response(response)

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

    def test_logout_started_twice_ends_with_the_second_round(self, live_service):
        service, base, clock = live_service
        browser = _Browser()
        _, _, page = browser.get(f"{base}/sso?user=the.user&partner=mypartner:saml2.0")
        clock["now"] = clock["now"].plus(1)
        browser.submit_form(page)
        browser.get(f"{base}/slo?user=the.user")
        _, _, logout_page = browser.get(f"{base}/slo?user=the.user")
        final, _ = _follow_logout(browser, logout_page, {})
        assert "signed out everywhere" in final
        assert service.idp.session_for_user("the.user") is None
        assert service.idp._pending_logouts == {}

    @pytest.mark.parametrize(
        "order", [("the.user", "j.doe"), ("j.doe", "the.user")], ids=["A-ends-first", "B-ends-first"]
    )
    def test_single_logout_forms_are_kept_per_session(self, live_service, rogue_key, order):
        service, base, clock = live_service
        # second:sp is a real second SP engine with a key of its own, at an
        # address the service does not host
        other_sp = build_sp_descriptor("second:sp", "https://second.sp.test", rogue_key.cert_b64)
        second = SpEngine(
            register_partner(
                FederationRegistry(local=other_sp, signing_alias="second-signing"),
                xmlcodec.emit_metadata(service.idp.registry.local),
            ),
            cryptoseal.make_keystore({"second-signing": rogue_key}),
            landing_url="https://second.sp.test/app",
        )
        service.idp.register_partner(xmlcodec.emit_metadata(other_sp))
        idp_slo = service.idp.registry.local.role.single_logout_endpoints[0].location

        def second_slo(fields):
            """second:sp answers its LogoutRequest with a form back to the IdP."""
            message = base64.b64decode(fields[bindings.FIELD_REQUEST])
            answer = second.handle_logout_request(message, clock["now"])
            return bindings.render_post_html(bindings.encode_post(answer, "response", idp_slo))

        browsers = {"the.user": _Browser(), "j.doe": _Browser()}
        for user, browser in browsers.items():
            for partner in ("mypartner:saml2.0", "second:sp"):
                status, _, _ = browser.get(f"{base}/sso?user={user}&partner={partner}")
                assert status == 200
        index = {user: service.idp.session_for_user(user).session_index for user in browsers}
        # A starts logout (A1 sent, A2 kept), then B does (B1 sent, B2 kept)
        pages = {user: b.get(f"{base}/slo?user={user}")[2] for user, b in browsers.items()}
        # each user's LogoutResponse is answered with that user's next form
        for user in order:
            final, indexes = _follow_logout(
                browsers[user], pages[user], {"https://second.sp.test/slo": second_slo}
            )
            assert "signed out everywhere" in final
            assert indexes == [index[user]] * 2
            assert service.idp.session_for_user(user) is None
        assert service._logout_forms == {}

    def test_logout_response_answering_nothing_is_answered_400(self, live_service):
        service, base, clock = live_service
        answer = LogoutResponse(
            id=new_message_id(),
            issue_instant=clock["now"],
            issuer=service.sp.entity_id,
            status=STATUS_SUCCESS,
            in_response_to="_never_sent",
        )
        signed = cryptoseal.sign_message(
            answer, xmlcodec.emit_logout_response, service.sp.registry.signing_alias, service.sp.store
        )
        message = base64.b64encode(xmlcodec.emit_logout_response(signed)).decode()
        status, _, body = _Browser().post(f"{base}/slo", {bindings.FIELD_RESPONSE: message})
        assert (status, body) == (400, "LogoutResponse answers no pending logout request\n")

    def test_post_with_empty_nameid_is_answered_400(self, live_service, shared_keys):
        # parse runs before any signature check, so this needs no key at all
        _, base, _ = live_service
        fed = SimulatedFederation(keys=shared_keys)
        session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
        form = fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH)
        genuine = base64.b64decode(form.saml_value)
        message = re.sub(rb"<saml:NameID>[^<]+<", b"<saml:NameID><", genuine)
        assert message != genuine
        status, _, body = _Browser().post(
            f"{base}/acs", {bindings.FIELD_RESPONSE: base64.b64encode(message).decode()}
        )
        assert status == 400
        assert "outcome fail:parse" in body
        assert "subject name_id must be non-empty" in body

    def test_post_sso_with_a_response_form_is_missing_field(self, live_service):
        service, base, clock = live_service
        redirect, _ = service.sp.build_authn_request(f"{base}/app", clock["now"])
        message = bindings.decode_redirect(redirect.url).message
        status, _, body = _Browser().post(
            f"{base}/sso", {bindings.FIELD_RESPONSE: base64.b64encode(message).decode()}
        )
        assert (status, body) == (400, "MissingField: SAMLRequest\n")

    @pytest.mark.parametrize(
        "method, path",
        [("GET", "/nope"), ("GET", "/artifact-resolve"), ("POST", "/metadata/idp"), ("POST", "/")],
    )
    def test_unrouted_request_is_not_found(self, live_service, method, path):
        service, _, _ = live_service
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert (response.status, body) == (404, b"not found\n")

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

    def test_oversized_redirect_message_is_answered_400(self, live_service):
        service, _, _ = live_service
        compressor = zlib.compressobj(9, zlib.DEFLATED, -15)
        bomb = b"".join(compressor.compress(bytes(1 << 20)) for _ in range(4)) + compressor.flush()
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        try:
            conn.request("GET", "/sso?" + urllib.parse.urlencode({"SAMLRequest": base64.b64encode(bomb)}))
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 400
        assert body.startswith(b"InflatedTooLarge")

    @pytest.mark.parametrize("declared", ["-1", "abc"])
    def test_bad_content_length_is_answered_400(self, live_service, declared):
        service, _, _ = live_service
        with socket.create_connection(("127.0.0.1", service.port), timeout=5) as conn:
            conn.sendall(
                f"POST /acs HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {declared}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := conn.recv(4096):  # the server closes after replying
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"400", reply
        assert b"BadContentLength" in rest

    @pytest.mark.parametrize(
        "request_head",
        [
            "POST /nope HTTP/1.1\r\nContent-Length: 30\r\n",
            "GET /app HTTP/1.1\r\nContent-Length: 30\r\n",
            "GET /metadata/idp HTTP/1.1\r\nContent-Length: 30\r\n",
            "POST /acs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n",
        ],
        ids=["not-found", "app", "metadata", "chunked"],
    )
    def test_unread_body_is_not_read_as_the_next_request(self, live_service, request_head):
        service, _, _ = live_service
        smuggled = b"GET /app HTTP/1.1\r\nHost: x\r\n\r\n"
        body = smuggled if "chunked" not in request_head else b"1e\r\n" + smuggled + b"\r\n0\r\n\r\n"
        with socket.create_connection(("127.0.0.1", service.port), timeout=5) as conn:
            conn.sendall(f"{request_head}Host: 127.0.0.1\r\n\r\n".encode() + body)
            reply = b""
            while chunk := conn.recv(4096):  # the server closes after one reply
                reply += chunk
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        assert b"\r\nConnection: close\r\n" in reply

    @pytest.mark.parametrize("declared", ["1000000000", "9" * 5000], ids=["1GB", "5000-digits"])
    def test_oversized_content_length_is_answered_413_unread(self, live_service, declared):
        service, _, _ = live_service
        with socket.create_connection(("127.0.0.1", service.port), timeout=5) as conn:
            conn.sendall(
                f"POST /acs HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {declared}\r\n\r\n".encode()
                + b"SAMLRespon"
            )
            reply = b""
            while chunk := conn.recv(4096):  # the server closes after replying
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"413", reply
        assert b"Connection: close" in rest
        assert b"BodyTooLarge" in rest


def test_readme_endpoint_table_is_the_route_table():
    text = README.read_text(encoding="utf-8")
    section = text.split("## HTTP service endpoints", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    listed = {route for row in rows for route in re.findall(r"`(GET|POST) (/[^`?\s]*)", row)}
    assert listed == set(_ROUTES)


def test_readme_fault_table_is_the_fault_table():
    text = README.read_text(encoding="utf-8")
    section = text.split("**Scenario files**", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, step, flows, combines = (cell.strip() for cell in line.strip("|").split("|"))
            listed[name.strip("`")] = (
                step.strip("`"),
                tuple(re.findall(r"`(\w+)`", flows)),
                combines == "yes",
            )
    assert listed == {name: (row.step, row.flows, row.combinable) for name, row in FAULTS.items()}
