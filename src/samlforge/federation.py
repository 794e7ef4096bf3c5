"""Federation registry: local entity, local settings, partner entities.

A federation is a local entity descriptor (with key aliases into a
keystore), the local operator's settings (clock skew, assertion lifetime,
artifact mode), which apply to every partner, and the partner descriptors
learned from metadata exchange. What a partner needs (signed or sealed
assertions) is read from its own metadata. Registries are immutable
values; ``register_partner`` returns an updated copy.

On-disk layout (one directory per registry):

    local.xml            local entity descriptor
    local.policy         key=value: signing_alias, encryption_alias,
                         clock_skew, validity, artifact_mode
    partner-<n>.xml      one metadata document per partner
"""

from __future__ import annotations

import base64
import binascii
import functools
import logging
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

from . import cryptoseal, xmlcodec
from .core import EntityId, SamlError
from .xmlcodec import (
    EntityDescriptor,
    IdpSsoDescriptor,
    XmlElement,
    emit_metadata,
    parse_metadata,
)

logger = logging.getLogger(__name__)

DEFAULT_VALIDITY_SECONDS = 300  # assertion lifetime: keep the window short
BEARER_GRACE_SECONDS = 600  # bearer confirmation outlives the conditions window


class MalformedMetadata(SamlError):
    pass


class SelfRegistration(SamlError):
    pass


class IncompleteLocalConfig(SamlError):
    pass


class UnknownIssuer(SamlError):
    pass


@dataclass(frozen=True)
class Partner:
    descriptor: EntityDescriptor

    @property
    def entity_id(self) -> EntityId:
        return self.descriptor.entity_id

    @functools.cached_property
    def signing_cert_ders(self) -> tuple[bytes, ...]:
        """Pinned signing certificates; undecodable placeholder text is skipped."""
        return _decode_certs(self.descriptor.role.signing_certs)

    @functools.cached_property
    def encryption_cert_ders(self) -> tuple[bytes, ...]:
        return _decode_certs(
            tuple(k.certificate for k in self.descriptor.role.encryption_keys)
        )


def _decode_certs(texts: tuple[str, ...]) -> tuple[bytes, ...]:
    out = []
    for text in texts:
        compact = re.sub(r"\s+", "", text)
        try:
            out.append(base64.b64decode(compact.encode("ascii"), validate=True))
        except (binascii.Error, ValueError, UnicodeEncodeError):
            continue
    return tuple(out)


@dataclass(frozen=True)
class FederationRegistry:
    local: EntityDescriptor
    signing_alias: str | None = None
    encryption_alias: str | None = None
    clock_skew: int = 0
    validity: int = DEFAULT_VALIDITY_SECONDS
    artifact_mode: str = "single"  # or "pair"
    partners: Mapping[str, Partner] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.artifact_mode not in ("single", "pair"):
            raise ValueError(f"artifact_mode must be single or pair, got {self.artifact_mode!r}")

    def partner(self, entity_id: EntityId | str) -> Partner:
        key = entity_id.value if isinstance(entity_id, EntityId) else entity_id
        try:
            return self.partners[key]
        except KeyError:
            raise UnknownIssuer(key) from None

    def idp_partners(self) -> tuple[Partner, ...]:
        return tuple(p for p in self.partners.values() if p.descriptor.is_idp)

    def receive(self, data: bytes, from_element: Callable[[XmlElement], object],
                emit: Callable[[object], bytes], store: cryptoseal.KeyStore,
                must_sign: Callable[[Partner], bool]) -> tuple:
        """Read an inbound message, only as the bytes ``emit`` writes for it
        (``xmlcodec.read_exact``); return it with its sender, the registered
        partner its issuer names, in the other role (an SP receives from IdPs,
        an IdP from SPs). A present signature is verified against the sender's
        pinned certificates; an unsigned message fails if ``must_sign(sender)``."""
        message = xmlcodec.read_exact(data, from_element, emit)
        partner = self.partners.get(message.issuer.value)
        if partner is None or partner.descriptor.is_idp == self.local.is_idp:
            raise UnknownIssuer(message.issuer.value)
        if message.signature is not None:
            result = cryptoseal.verify_message(
                message, emit, partner.entity_id, partner.signing_cert_ders, store
            )
            if not result.accepted:
                raise cryptoseal.InvalidRequestSignature(result.reason)
        elif must_sign(partner):
            raise cryptoseal.SignatureRequired(f"{partner.entity_id} must sign its {type(message).__name__}")
        return message, partner


def register_partner(registry: FederationRegistry, metadata_bytes: bytes | str) -> FederationRegistry:
    """Add (or replace) a partner from its metadata document."""
    try:
        descriptor = parse_metadata(metadata_bytes)
    except SamlError as exc:
        raise MalformedMetadata(str(exc)) from exc
    if descriptor.entity_id == registry.local.entity_id:
        raise SelfRegistration(descriptor.entity_id.value)
    partners = dict(registry.partners)
    if descriptor.entity_id.value in partners:
        logger.info("replacing existing partner registration entity_id=%s", descriptor.entity_id)
    partners[descriptor.entity_id.value] = Partner(descriptor)
    return replace(registry, partners=partners)


def export_metadata(registry: FederationRegistry) -> bytes:
    """Emit the local entity descriptor for exchange with partners."""
    role = registry.local.role
    if isinstance(role, IdpSsoDescriptor):
        if not role.sso_endpoints:
            raise IncompleteLocalConfig("local IdP has no single-sign-on endpoint")
    else:
        if not role.acs_endpoints:
            raise IncompleteLocalConfig("local SP has no assertion consumer endpoint")
    if not role.signing_certs:
        raise IncompleteLocalConfig("local entity has no signing certificate")
    return emit_metadata(registry.local)


# ---------------------------------------------------------------------------
# Directory persistence
# ---------------------------------------------------------------------------


def parse_keyvalues(text: str) -> dict[str, str]:
    """Shared key=value grammar: one pair per line, ``#`` comments."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def save_registry(registry: FederationRegistry, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "local.xml").write_bytes(emit_metadata(registry.local))
    local_lines = [
        f"clock_skew = {registry.clock_skew}",
        f"validity = {registry.validity}",
        f"artifact_mode = {registry.artifact_mode}",
    ]
    if registry.signing_alias:
        local_lines.append(f"signing_alias = {registry.signing_alias}")
    if registry.encryption_alias:
        local_lines.append(f"encryption_alias = {registry.encryption_alias}")
    (directory / "local.policy").write_text("\n".join(local_lines) + "\n", encoding="utf-8")
    for stale in directory.glob("partner-*"):  # also the policy files of the old layout
        stale.unlink()
    for n, (_, partner) in enumerate(sorted(registry.partners.items())):
        (directory / f"partner-{n}.xml").write_bytes(emit_metadata(partner.descriptor))


def load_registry(directory: str | Path) -> FederationRegistry:
    directory = Path(directory)
    local_path = directory / "local.xml"
    if not local_path.exists():
        raise IncompleteLocalConfig(f"{local_path} does not exist")
    local = parse_metadata(local_path.read_bytes())
    values: dict[str, str] = {}
    policy_path = directory / "local.policy"
    if policy_path.exists():
        values = parse_keyvalues(policy_path.read_text(encoding="utf-8"))
    partners: dict[str, Partner] = {}
    for xml_path in sorted(directory.glob("partner-*.xml")):
        descriptor = parse_metadata(xml_path.read_bytes())
        partners[descriptor.entity_id.value] = Partner(descriptor)
    return FederationRegistry(
        local=local,
        signing_alias=values.get("signing_alias"),
        encryption_alias=values.get("encryption_alias"),
        clock_skew=int(values.get("clock_skew", "0")),
        validity=int(values.get("validity", str(DEFAULT_VALIDITY_SECONDS))),
        artifact_mode=values.get("artifact_mode", "single"),
        partners=partners,
    )
