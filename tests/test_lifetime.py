"""Lifetimes: what the toolkit builds is freed by reference counting alone.

Each test runs with the cyclic collector off, so an object graph with a
cycle shows up as garbage that only ``gc.collect()`` finds. The last test
checks that importing the package leaves the HTTP client unloaded.
"""

import contextlib
import gc
import http.client
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import samlforge
from samlforge import bindings
from samlforge.harness.scenarios import (
    CLIENT_IP,
    SIM_EPOCH,
    SP_ENTITY,
    SimulatedFederation,
    parse_scenarios,
    run_scenario,
)
from samlforge.harness.service import HarnessService

MATRIX = Path(__file__).resolve().parent.parent / "scripts" / "matrix.scenarios"
SCENARIOS = parse_scenarios(MATRIX.read_text(encoding="utf-8"))


@contextlib.contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.name for s in SCENARIOS])
def test_scenario_leaves_no_garbage(scenario, shared_keys):
    with collector_off():
        result = run_scenario(scenario, keys=shared_keys)
        assert result.ok, (result.expected, result.actual)
        del result
        assert gc.collect() == 0


def test_dropped_federation_is_freed_at_del(shared_keys):
    with collector_off():
        fed = SimulatedFederation(keys=shared_keys)
        alive = weakref.ref(fed)
        del fed
        assert alive() is None
        assert gc.collect() == 0


def test_back_channel_of_a_dropped_federation_fails_its_fetch_step(shared_keys):
    fed = SimulatedFederation(keys=shared_keys)
    session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
    response = fed.idp.issue_assertion(session, SP_ENTITY, SIM_EPOCH)
    artifact = fed.idp.issue_artifact(response, SP_ENTITY, endpoint_index=0).encode()
    sp = fed.sp
    del fed
    result = sp.fetch_via_artifact([artifact], CLIENT_IP, SIM_EPOCH.plus(1))
    assert result.report.failed_step == "fetch"
    assert "federation is gone" in result.report.checks[-1].detail


def test_shut_down_service_is_freed_at_del(shared_keys):
    fed = SimulatedFederation(keys=shared_keys)
    with collector_off():
        service = HarnessService(fed.idp, fed.sp, clock=lambda: SIM_EPOCH)
        with service:
            conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
            try:
                conn.request("GET", "/metadata/idp")
                response = conn.getresponse()
                assert response.status == 200 and b"IDPSSODescriptor" in response.read()
            finally:
                conn.close()
        alive = weakref.ref(service)
        del service, response, conn
        assert alive() is None
        assert gc.collect() == 0


def test_running_service_outlives_its_last_reference(shared_keys):
    fed = SimulatedFederation(keys=shared_keys)
    service = HarnessService(fed.idp, fed.sp, clock=lambda: SIM_EPOCH)
    service.start()
    alive = weakref.ref(service)
    del service
    try:
        conn = http.client.HTTPConnection("127.0.0.1", alive().port, timeout=10)
        try:
            conn.request("GET", "/metadata/idp")
            response = conn.getresponse()
            assert response.status == 200 and b"IDPSSODescriptor" in response.read()
        finally:
            conn.close()
    finally:
        alive().shutdown()


@pytest.mark.parametrize(
    "anchor, insert, detail",
    [
        (b"</samlp:Response>", b"<Ext/>", "MalformedXml: element 'Ext' has no namespace"),
        (
            b"<saml:Issuer",
            b"stray text",
            "MalformedXml: mixed content inside <Response> is not accepted",
        ),
    ],
    ids=["no-namespace", "mixed-content"],
)
def test_rejected_parse_leaves_no_garbage(shared_keys, anchor, insert, detail):
    fed = SimulatedFederation(keys=shared_keys)
    session = fed.idp.create_session("the.user", CLIENT_IP, SIM_EPOCH)
    message = bindings.decode_post(
        bindings.serialize_post_body(fed.idp.idp_initiated_post(session, SP_ENTITY, SIM_EPOCH))
    ).message
    at = message.index(anchor)
    body = bindings.serialize_post_body(
        bindings.encode_post(message[:at] + insert + message[at:], "response", fed.sp.acs_url)
    )
    with collector_off():
        result = fed.sp.consume(body, CLIENT_IP, SIM_EPOCH.plus(1))
        assert result.report.failed_step == "parse"
        assert result.report.checks[-1].detail == detail
        del result
        assert gc.collect() == 0


def test_package_import_loads_no_http_client():
    src = Path(samlforge.__file__).resolve().parent.parent
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, samlforge; "
            "print(' '.join(m for m in ('urllib.request', 'ssl', 'http.client') if m in sys.modules))",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.split() == []
