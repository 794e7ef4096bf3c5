"""Harness configuration: key=value file grammar and descriptor builders.

Config file grammar: one ``key = value`` pair per line, ``#`` comments,
dotted keys for the per-role sections. Relative paths are resolved
against the config file's own directory. Recognized keys:

    host, port, skew, validity, artifact_mode, locality_check
    idp.entity_id, idp.base_url, idp.keystore, idp.passphrase,
    idp.signing_alias, idp.source
    sp.entity_id, sp.base_url, sp.keystore, sp.passphrase,
    sp.signing_alias, sp.encryption_alias, sp.landing_url,
    sp.want_assertions_signed, sp.encrypt_assertions
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..core import EntityId, SamlError
from ..federation import parse_keyvalues
from ..xmlcodec import (
    ALG_AES128_GCM,
    BINDING_HTTP_POST,
    BINDING_SOAP,
    EncryptionKey,
    Endpoint,
    EntityDescriptor,
    IdpSsoDescriptor,
    IndexedEndpoint,
    NS_PROTOCOL,
    BINDING_HTTP_ARTIFACT,
    SpSsoDescriptor,
)

HARNESS_DEFAULT_SKEW = 30  # deployments need tolerance; library default stays 0


class BadConfig(SamlError):
    pass


@dataclass(frozen=True)
class IdpConfig:
    entity_id: str
    base_url: str
    keystore: Path
    passphrase: str
    signing_alias: str = "idp-signing"
    source: Path = Path("users.records")


@dataclass(frozen=True)
class SpConfig:
    entity_id: str
    base_url: str
    keystore: Path
    passphrase: str
    landing_url: str
    signing_alias: str = "sp-signing"
    encryption_alias: str = "sp-encryption"
    want_assertions_signed: bool = True
    encrypt_assertions: bool = True


@dataclass(frozen=True)
class HarnessConfig:
    idp: IdpConfig
    sp: SpConfig
    host: str = "127.0.0.1"
    port: int = 8880
    skew: int = HARNESS_DEFAULT_SKEW
    validity: int = 300
    artifact_mode: str = "single"
    locality_check: bool = True


def _bool(values: dict[str, str], key: str, default: bool) -> bool:
    raw = values.get(key)
    if raw is None:
        return default
    if raw in ("true", "1"):
        return True
    if raw in ("false", "0"):
        return False
    raise BadConfig(f"{key} must be true or false, got {raw!r}")


def _require(values: dict[str, str], key: str) -> str:
    try:
        return values[key]
    except KeyError:
        raise BadConfig(f"missing required config key {key!r}") from None


def parse_config(text: str, base_dir: Path | None = None) -> HarnessConfig:
    try:
        values = parse_keyvalues(text)
    except ValueError as exc:
        raise BadConfig(str(exc)) from None
    base = base_dir or Path(".")

    def path_of(key: str) -> Path:
        raw = Path(_require(values, key))
        return raw if raw.is_absolute() else base / raw

    try:
        idp = IdpConfig(
            entity_id=_require(values, "idp.entity_id"),
            base_url=_require(values, "idp.base_url").rstrip("/"),
            keystore=path_of("idp.keystore"),
            passphrase=_require(values, "idp.passphrase"),
            signing_alias=values.get("idp.signing_alias", "idp-signing"),
            source=path_of("idp.source"),
        )
        sp = SpConfig(
            entity_id=_require(values, "sp.entity_id"),
            base_url=_require(values, "sp.base_url").rstrip("/"),
            keystore=path_of("sp.keystore"),
            passphrase=_require(values, "sp.passphrase"),
            landing_url=_require(values, "sp.landing_url"),
            signing_alias=values.get("sp.signing_alias", "sp-signing"),
            encryption_alias=values.get("sp.encryption_alias", "sp-encryption"),
            want_assertions_signed=_bool(values, "sp.want_assertions_signed", True),
            encrypt_assertions=_bool(values, "sp.encrypt_assertions", True),
        )
        return HarnessConfig(
            idp=idp,
            sp=sp,
            host=values.get("host", "127.0.0.1"),
            port=int(values.get("port", "8880")),
            skew=int(values.get("skew", str(HARNESS_DEFAULT_SKEW))),
            validity=int(values.get("validity", "300")),
            artifact_mode=values.get("artifact_mode", "single"),
            locality_check=_bool(values, "locality_check", True),
        )
    except ValueError as exc:
        raise BadConfig(str(exc)) from None


def load_config(path: str | Path) -> HarnessConfig:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)


# ---------------------------------------------------------------------------
# Descriptor builders (harness endpoint layout)
# ---------------------------------------------------------------------------


def build_idp_descriptor(
    entity_id: str, base_url: str, signing_cert_b64: str
) -> EntityDescriptor:
    base = base_url.rstrip("/")
    return EntityDescriptor(
        entity_id=EntityId(entity_id),
        role=IdpSsoDescriptor(
            want_authn_requests_signed=False,
            protocol_support=NS_PROTOCOL,
            sso_endpoints=(Endpoint(BINDING_HTTP_POST, f"{base}/sso"),),
            signing_certs=(signing_cert_b64,),
            single_logout_endpoints=(Endpoint(BINDING_HTTP_POST, f"{base}/slo"),),
            artifact_resolution_endpoints=(
                IndexedEndpoint(0, BINDING_SOAP, f"{base}/artifact-resolve", True),
            ),
        ),
    )


def build_sp_descriptor(
    entity_id: str,
    base_url: str,
    signing_cert_b64: str,
    encryption_cert_b64: str | None = None,
    want_assertions_signed: bool = True,
) -> EntityDescriptor:
    base = base_url.rstrip("/")
    encryption_keys = ()
    if encryption_cert_b64 is not None:
        encryption_keys = (EncryptionKey(encryption_cert_b64, ALG_AES128_GCM, 128),)
    return EntityDescriptor(
        entity_id=EntityId(entity_id),
        role=SpSsoDescriptor(
            authn_requests_signed=True,
            want_assertions_signed=want_assertions_signed,
            protocol_support=NS_PROTOCOL,
            acs_endpoints=(
                IndexedEndpoint(0, BINDING_HTTP_POST, f"{base}/acs", True),
                IndexedEndpoint(1, BINDING_HTTP_ARTIFACT, f"{base}/acs"),
            ),
            signing_certs=(signing_cert_b64,),
            encryption_keys=encryption_keys,
            single_logout_endpoints=(Endpoint(BINDING_HTTP_POST, f"{base}/slo"),),
        ),
    )
