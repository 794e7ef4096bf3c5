import ast
import dataclasses
import logging
from pathlib import Path

import pytest

from samlforge import federation
from samlforge.core import EntityId
from samlforge.federation import (
    FederationRegistry,
    IncompleteLocalConfig,
    MalformedMetadata,
    SelfRegistration,
    UnknownIssuer,
    export_metadata,
    load_registry,
    register_partner,
    save_registry,
)
from samlforge.harness.config import build_idp_descriptor, build_sp_descriptor
from samlforge.xmlcodec import (
    BINDING_HTTP_POST,
    IdpSsoDescriptor,
    emit_metadata,
    parse_metadata,
)


@pytest.fixture
def idp_registry(shared_keys):
    descriptor = build_idp_descriptor(
        "mycompany:saml2.0", "http://idp.internal.test", shared_keys["idp-signing"].cert_b64
    )
    return FederationRegistry(local=descriptor, signing_alias="idp-signing")


@pytest.fixture
def sp_registry(shared_keys):
    descriptor = build_sp_descriptor(
        "mypartner:saml2.0",
        "https://sp.internal.test",
        shared_keys["sp-signing"].cert_b64,
        shared_keys["sp-encryption"].cert_b64,
    )
    return FederationRegistry(local=descriptor, signing_alias="sp-signing")


class TestRegisterPartner:
    def test_sp_sample_derives_sign_and_encrypt(self, idp_registry, sp_metadata_bytes):
        registry = register_partner(idp_registry, sp_metadata_bytes)
        role = registry.partner("mypartner:saml2.0").descriptor.role
        assert role.want_assertions_signed is True
        assert bool(role.encryption_keys) is True

    def test_idp_sample_registers_at_sp(self, sp_registry, idp_metadata_bytes):
        registry = register_partner(sp_registry, idp_metadata_bytes)
        partner = registry.partner("mycompany:saml2.0")
        role = partner.descriptor.role
        assert isinstance(role, IdpSsoDescriptor)
        assert role.sso_endpoints[0].binding == BINDING_HTTP_POST
        assert role.sso_endpoints[0].location == "http://mycompany.com/sso/SSO"

    def test_self_registration_rejected(self, idp_registry):
        with pytest.raises(SelfRegistration):
            register_partner(idp_registry, emit_metadata(idp_registry.local))

    def test_malformed_metadata(self, idp_registry):
        with pytest.raises(MalformedMetadata):
            register_partner(idp_registry, b"<not-metadata/>")

    def test_duplicate_replaces_with_audit_line(self, idp_registry, sp_metadata_bytes, caplog):
        registry = register_partner(idp_registry, sp_metadata_bytes)
        with caplog.at_level(logging.INFO, logger="samlforge.federation"):
            registry = register_partner(registry, sp_metadata_bytes)
        assert len(registry.partners) == 1
        assert any("replacing existing partner" in r.message for r in caplog.records)

    def test_unknown_partner_lookup(self, idp_registry):
        with pytest.raises(UnknownIssuer):
            idp_registry.partner("nobody:saml2.0")

    def test_placeholder_certificates_stay_opaque(self, idp_registry, sp_metadata_bytes):
        # Sample documents carry the literal text CERTIFICATE; registration
        # succeeds and the unusable cert is simply not a pinnable DER.
        registry = register_partner(idp_registry, sp_metadata_bytes)
        partner = registry.partner("mypartner:saml2.0")
        assert partner.descriptor.role.signing_certs == ("CERTIFICATE",)
        assert partner.signing_cert_ders == ()


class TestExportMetadata:
    def test_round_trips_through_codec(self, idp_registry):
        assert parse_metadata(export_metadata(idp_registry)) == idp_registry.local

    def test_contains_role_and_endpoint(self, idp_registry):
        raw = export_metadata(idp_registry)
        assert b"IDPSSODescriptor" in raw
        assert b"http://idp.internal.test/sso" in raw

    def test_missing_signing_cert_is_incomplete(self, idp_registry):
        import dataclasses

        bare_role = dataclasses.replace(idp_registry.local.role, signing_certs=())
        bare = dataclasses.replace(
            idp_registry, local=dataclasses.replace(idp_registry.local, role=bare_role)
        )
        with pytest.raises(IncompleteLocalConfig):
            export_metadata(bare)


class TestRegistryPersistence:
    def test_save_load_round_trip(self, tmp_path, idp_registry, sp_metadata_bytes):
        registry = register_partner(
            dataclasses.replace(idp_registry, clock_skew=30, validity=120, artifact_mode="pair"),
            sp_metadata_bytes,
        )
        save_registry(registry, tmp_path / "registry")
        loaded = load_registry(tmp_path / "registry")
        assert (loaded.clock_skew, loaded.validity, loaded.artifact_mode) == (30, 120, "pair")
        assert loaded == registry
        assert sorted(p.name for p in (tmp_path / "registry").iterdir()) == [
            "local.policy", "local.xml", "partner-0.xml"
        ]

    def test_policy_file_with_dropped_default_binding_key_loads(
        self, tmp_path, idp_registry, sp_metadata_bytes
    ):
        registry = register_partner(idp_registry, sp_metadata_bytes)
        save_registry(registry, tmp_path / "registry")
        policy_path = tmp_path / "registry" / "local.policy"
        text = policy_path.read_text()
        assert "default_binding" not in text
        policy_path.write_text(
            text + "default_binding = urn:oasis:names:tc:SAML:2.0:bindings:HTTP-POST\n"
        )
        assert load_registry(tmp_path / "registry") == registry

    def test_old_partner_policy_file_is_ignored_then_deleted(
        self, tmp_path, idp_registry, sp_metadata_bytes
    ):
        registry = register_partner(idp_registry, sp_metadata_bytes)
        save_registry(registry, tmp_path / "registry")
        # a per-partner policy file of the old layout, disagreeing with the
        # metadata and the local settings (and naming another entity)
        leftover = tmp_path / "registry" / "partner-0.policy"
        leftover.write_text(
            "entity_id = someone:else\nsign_assertion = false\nencrypt_assertion = false\n"
            "clock_skew = 99\nvalidity = 5\nartifact_mode = pair\n"
        )
        loaded = load_registry(tmp_path / "registry")
        assert loaded == registry
        save_registry(loaded, tmp_path / "registry")
        assert not leftover.exists()

    def test_missing_directory_is_incomplete(self, tmp_path):
        with pytest.raises(IncompleteLocalConfig):
            load_registry(tmp_path / "nowhere")

    def test_save_prunes_stale_partner_files(self, tmp_path, idp_registry, sp_metadata_bytes):
        registry = register_partner(idp_registry, sp_metadata_bytes)
        save_registry(registry, tmp_path / "registry")
        save_registry(idp_registry, tmp_path / "registry")  # partner removed
        loaded = load_registry(tmp_path / "registry")
        assert loaded.partners == {}


def test_entity_id_helper(idp_registry, sp_metadata_bytes):
    registry = register_partner(idp_registry, sp_metadata_bytes)
    assert EntityId("mypartner:saml2.0").value in registry.partners
    assert "absent" not in registry.partners
    assert registry.idp_partners() == ()


# Engine methods that may check a sender themselves; every other inbound
# message goes through FederationRegistry.receive.
OWN_SENDER_CHECKS = {
    ("SpEngine", "_issuer"),  # the consume pipeline's issuer step
    ("SpEngine", "_signature"),  # its signature step, which verifies the Response
    # The one known exception: the artifact back channel. Its ArtifactResolve
    # is unsigned, so its sender is not authenticated yet (ROADMAP item 1).
    ("IdpEngine", "resolve_artifact"),
}


def _names_issuer(node: ast.AST) -> bool:
    return any(
        (isinstance(n, ast.Attribute) and n.attr == "issuer")
        or (isinstance(n, ast.Name) and "issuer" in n.id)
        for n in ast.walk(node)
    )


def _is_partners(node: ast.AST) -> bool:
    """``<x>.registry.partners`` or ``<x>.registry.partner``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("partners", "partner")
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "registry"
    )


def _checks_a_sender(method: ast.FunctionDef) -> bool:
    """Whether ``method`` verifies a signature or looks a message's issuer
    up in the registry's partners."""
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if name == "verify_message":
                return True
            lookup = _is_partners(node.func) or (
                isinstance(node.func, ast.Attribute) and _is_partners(node.func.value)
            )
            if lookup and any(_names_issuer(arg) for arg in node.args):
                return True
        elif isinstance(node, ast.Subscript) and _is_partners(node.value):
            if _names_issuer(node.slice):
                return True
        elif isinstance(node, ast.Compare) and any(map(_is_partners, node.comparators)):
            if _names_issuer(node.left):
                return True
    return False


def engine_sender_checks(source_dir: Path) -> set[tuple[str, str]]:
    """(class, method) of each engine method in idp.py and sp.py that checks
    a sender itself."""
    found = set()
    for module in ("idp.py", "sp.py"):
        tree = ast.parse((source_dir / module).read_text(encoding="utf-8"))
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for method in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                if _checks_a_sender(method):
                    found.add((cls.name, method.name))
    return found


def test_engines_receive_through_the_registry():
    found = engine_sender_checks(Path(federation.__file__).parent)
    assert found - OWN_SENDER_CHECKS == set()
    # the scan does see the checks it allows
    assert {("SpEngine", "_issuer"), ("SpEngine", "_signature")} <= found
