"""Command-line interface: decode | simulate | serve | metadata.

Exit codes: 0 success; 2 decode/metadata failure; 3 scenario mismatch;
4 bad service config. Log level comes from the SAMLFORGE_LOG environment
variable (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
from pathlib import Path
from urllib.parse import quote_plus

from .. import bindings, xmlcodec
from ..core import Assertion, SamlError
from ..federation import (
    IncompleteLocalConfig,
    MalformedMetadata,
    export_metadata,
    load_registry,
    register_partner,
    save_registry,
)
from ..xmlcodec import SpSsoDescriptor
from .config import BadConfig, load_config
from .scenarios import parse_scenarios, run_scenarios
from .service import HarnessService

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DECODE = 2
EXIT_SCENARIO = 3
EXIT_CONFIG = 4


def _setup_logging() -> None:
    level = os.environ.get("SAMLFORGE_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
    )


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def cmd_decode(args: argparse.Namespace) -> int:
    raw = _read_input(args.input).strip()
    try:
        if raw.startswith(("http://", "https://")):
            decoded = bindings.decode_redirect(raw)
            transport = "redirect URL (deflate + base64)"
        elif "=" in raw.rstrip("="):
            decoded = bindings.decode_post(raw)
            transport = "POST form body (base64)"
        else:
            # the bare value of a captured form's SAMLResponse input, whose
            # base64 holds no "=" but its trailing padding
            decoded = bindings.decode_post(f"{bindings.FIELD_RESPONSE}={quote_plus(raw)}")
            transport = "POST form value (base64)"
        root = xmlcodec.parse_xml(decoded.message)
        rendered = xmlcodec.pretty(root)
        response = None
        if (root.ns, root.local) == (xmlcodec.NS_PROTOCOL, "Response"):
            response = xmlcodec.response_from_element(root)
    except SamlError as exc:
        print(f"decode failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DECODE

    print(f"transport: {transport}")
    print(f"field: {decoded.field}")
    if decoded.relay_state is not None:
        print(f"relay-state: {decoded.relay_state}")
    print(f"document: {root.local}")
    print()
    print(rendered)
    print()

    attributes: dict[str, tuple[str, ...]] = {}
    signed = root.find("Signature", xmlcodec.NS_DSIG) is not None
    summary: list[str] = []
    if response is not None:
        summary.append(f"issuer: {response.issuer}")
        summary.append(f"destination: {response.destination}")
        summary.append(f"status: {response.status}")
        if isinstance(response.assertion, Assertion):
            assertion = response.assertion
            summary.append(f"subject: {assertion.subject.name_id}")
            summary.append(
                "window: "
                f"{assertion.conditions.not_before} .. {assertion.conditions.not_on_or_after}"
            )
            attributes = {a.name: a.values for a in assertion.attributes}
        elif response.assertion is not None:
            summary.append("assertion: encrypted")
    summary.append(f"signed: {'yes' if signed else 'no'}")
    if attributes:
        for name, values in attributes.items():
            summary.append(f"attribute {name} = {', '.join(values)}")
    print("\n".join(summary))

    if args.metadata:
        entity = xmlcodec.parse_metadata(Path(args.metadata).read_bytes())
        print()
        print(f"checked against metadata for {entity.entity_id}:")
        if isinstance(entity.role, SpSsoDescriptor):
            locations = {e.location for e in entity.role.acs_endpoints}
            if response is not None:
                ok = response.destination in locations
                print(f"  destination registered: {'yes' if ok else 'NO'}")
            need = entity.role.want_assertions_signed
            print(f"  signature required: {'yes' if need else 'no'}; present: {'yes' if signed else 'no'}")
    if args.expect_attributes:
        expected = {a.strip() for a in args.expect_attributes.split(",") if a.strip()}
        missing = sorted(expected - set(attributes))
        extra = sorted(set(attributes) - expected)
        print()
        print(f"attributes missing: {', '.join(missing) if missing else 'none'}")
        print(f"attributes extra: {', '.join(extra) if extra else 'none'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        scenarios = parse_scenarios(_read_input(args.scenario_file))
    except SamlError as exc:
        print(f"bad scenario file: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    results = run_scenarios(scenarios, seed=args.seed, skew=args.skew)
    failures = 0
    for result in results:
        flag = "PASS" if result.ok else "FAIL"
        print(f"{flag} {result.scenario.name}: expected={result.expected} actual={result.actual}")
        if not result.ok:
            failures += 1
            print(f"  expected outcome : {result.expected}")
            print(f"  actual outcome   : {result.actual}")
            if result.report is not None:
                for line in result.report.render().splitlines():
                    print(f"  | {line}")
        if args.verbose:
            for event in result.trace:
                print(f"  {event.render()}")
    print(f"{len(results) - failures}/{len(results)} scenarios matched")
    return EXIT_OK if failures == 0 else EXIT_SCENARIO


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        service = HarnessService.from_config(config)
    except (BadConfig, OSError, ValueError, SamlError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def stop(signum, frame) -> None:  # noqa: ARG001
        logger.info("signal %d received, shutting down", signum)
        # shutdown() blocks until serve_forever acknowledges; it must not run
        # on the main thread, which is parked inside serve_forever itself
        import threading

        threading.Thread(target=service.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, stop)
    signal.signal(signal.SIGTERM, stop)
    print(f"serving on {service.base_url} (idp+sp); Ctrl-C to stop")
    service.serve_forever()
    return EXIT_OK


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def _partner_summary(registry, entity_id: str) -> str:
    """What the IdP does for this partner, read from its metadata: only an
    SP asks for signed or sealed assertions."""
    role = registry.partner(entity_id).descriptor.role
    if isinstance(role, SpSsoDescriptor):
        endpoints = f"acs={len(role.acs_endpoints)}"
        sign, encrypt = role.want_assertions_signed, bool(role.encryption_keys)
    else:
        endpoints = f"sso={len(role.sso_endpoints)}"
        sign = encrypt = False
    return f"sign={str(sign).lower()} encrypt={str(encrypt).lower()} {endpoints} endpoints"


def cmd_metadata(args: argparse.Namespace) -> int:
    directory = Path(args.registry_dir)
    try:
        if args.action == "import":
            if not args.file:
                print("import needs a metadata file argument", file=sys.stderr)
                return EXIT_DECODE
            registry = load_registry(directory)
            registry = register_partner(registry, Path(args.file).read_bytes())
            save_registry(registry, directory)
            imported = xmlcodec.parse_metadata(Path(args.file).read_bytes())
            print(f"imported {imported.entity_id}: {_partner_summary(registry, imported.entity_id.value)}")
            return EXIT_OK
        if args.action == "export":
            registry = load_registry(directory)
            payload = export_metadata(registry)
            if args.output:
                Path(args.output).write_bytes(payload)
                print(f"wrote {args.output}")
            else:
                sys.stdout.write(payload.decode("utf-8") + "\n")
            return EXIT_OK
        # list
        registry = load_registry(directory)
        print(f"local: {registry.local.entity_id}")
        for entity_id in sorted(registry.partners):
            print(f"partner: {entity_id} ({_partner_summary(registry, entity_id)})")
        return EXIT_OK
    except (MalformedMetadata, IncompleteLocalConfig) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except (SamlError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DECODE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samlforge",
        description="SAML 2.0 federation toolkit: decode captures, simulate flows, "
        "serve a two-role test federation, manage metadata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="decode a captured POST body or redirect URL")
    p_decode.add_argument("input", nargs="?", default="-", help="file path or - for stdin")
    p_decode.add_argument("--metadata", help="partner metadata XML to validate against")
    p_decode.add_argument(
        "--expect-attributes", help="comma-separated attribute names to check for"
    )
    p_decode.set_defaults(func=cmd_decode)

    p_sim = sub.add_parser("simulate", help="run a scenario file in-process")
    p_sim.add_argument("scenario_file", help="scenario file path or - for stdin")
    p_sim.add_argument("--seed", type=int, default=0, help="token source seed")
    p_sim.add_argument("--skew", type=int, default=0, help="clock skew in seconds")
    p_sim.add_argument("--verbose", action="store_true", help="print per-scenario traces")
    p_sim.set_defaults(func=cmd_simulate)

    p_serve = sub.add_parser("serve", help="run the two-role HTTP federation service")
    p_serve.add_argument("--config", required=True, help="service config file")
    p_serve.set_defaults(func=cmd_serve)

    p_meta = sub.add_parser("metadata", help="import/export/list registry metadata")
    p_meta.add_argument("action", choices=("import", "export", "list"))
    p_meta.add_argument("file", nargs="?", help="metadata file (import)")
    p_meta.add_argument("--registry-dir", required=True, help="registry directory")
    p_meta.add_argument("-o", "--output", help="write exported metadata here")
    p_meta.set_defaults(func=cmd_metadata)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
