#!/usr/bin/env python3
"""Provision a demo workspace: keystores, user records, service config,
and one registry directory per role for the metadata CLI.

Usage: python scripts/make_demo.py [DIR] [--port 8880] [--passphrase changeit]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from samlforge import cryptoseal
from samlforge.federation import FederationRegistry, register_partner, save_registry
from samlforge.harness.config import build_idp_descriptor, build_sp_descriptor
from samlforge.xmlcodec import emit_metadata

USERS = """\
# user-key  name-id  attribute=value ...
the.user the.user@mycompany.com clientId=1234 uid=the.user@mycompany.com
j.doe jane.doe@mycompany.com clientId=1234 uid=jane.doe@mycompany.com
"""

CONFIG_TEMPLATE = """\
# samlforge service config (key = value)
host = 127.0.0.1
port = {port}
skew = 30
validity = 300
artifact_mode = single
locality_check = true

idp.entity_id = mycompany:saml2.0
idp.base_url = http://127.0.0.1:{port}
idp.keystore = keys/idp.keystore
idp.passphrase = {passphrase}
idp.signing_alias = idp-signing
idp.source = users.records

sp.entity_id = mypartner:saml2.0
sp.base_url = http://127.0.0.1:{port}
sp.keystore = keys/sp.keystore
sp.passphrase = {passphrase}
sp.signing_alias = sp-signing
sp.encryption_alias = sp-encryption
sp.landing_url = http://127.0.0.1:{port}/app
sp.want_assertions_signed = true
sp.encrypt_assertions = true
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir", nargs="?", default="demo", help="target directory")
    parser.add_argument("--port", type=int, default=8880)
    parser.add_argument("--passphrase", default="changeit")
    args = parser.parse_args()

    root = Path(args.dir)
    (root / "keys").mkdir(parents=True, exist_ok=True)

    print("generating P-256 keypairs...")
    idp_signing = cryptoseal.new_keypair("mycompany idp signing")
    sp_signing = cryptoseal.new_keypair("mypartner sp signing")
    sp_encryption = cryptoseal.new_keypair("mypartner sp encryption")

    cryptoseal.save_keystore(
        cryptoseal.make_keystore({"idp-signing": idp_signing}),
        root / "keys" / "idp.keystore",
        args.passphrase,
    )
    cryptoseal.save_keystore(
        cryptoseal.make_keystore(
            {"sp-signing": sp_signing, "sp-encryption": sp_encryption}
        ),
        root / "keys" / "sp.keystore",
        args.passphrase,
    )

    (root / "users.records").write_text(USERS, encoding="utf-8")
    (root / "service.conf").write_text(
        CONFIG_TEMPLATE.format(port=args.port, passphrase=args.passphrase),
        encoding="utf-8",
    )

    base = f"http://127.0.0.1:{args.port}"
    idp_desc = build_idp_descriptor("mycompany:saml2.0", base, idp_signing.cert_b64)
    sp_desc = build_sp_descriptor(
        "mypartner:saml2.0", base, sp_signing.cert_b64, sp_encryption.cert_b64
    )
    idp_registry = FederationRegistry(local=idp_desc, signing_alias="idp-signing", clock_skew=30)
    sp_registry = FederationRegistry(
        local=sp_desc, signing_alias="sp-signing", encryption_alias="sp-encryption", clock_skew=30
    )
    idp_registry = register_partner(idp_registry, emit_metadata(sp_desc))
    sp_registry = register_partner(sp_registry, emit_metadata(idp_desc))
    save_registry(idp_registry, root / "registry-idp")
    save_registry(sp_registry, root / "registry-sp")

    print(f"demo workspace ready in {root}/")
    print(f"  serve:    samlforge serve --config {root}/service.conf")
    print(f"  simulate: samlforge simulate scripts/matrix.scenarios")
    print(f"  metadata: samlforge metadata list --registry-dir {root}/registry-idp")
    print(f"  kick off: curl -c /dev/null '{base}/sso?user=the.user&partner=mypartner:saml2.0'")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
