"""Span recording around the toolkit's layer boundaries.

Tracing replaces each public function named in ``MODULE_FUNCTIONS`` with a
wrapper that records one span per call, in the module that defines it and
in every ``samlforge`` module that imported it by name. Because the module
attribute itself is replaced, calls made inside a module (for example
``signed_payload_bytes`` calling ``canonicalize``) are recorded too. Engine
methods are wrapped on their classes; the two replay stores are wrapped per
instance so the SP store and the IdP request store stay apart.

A span is ``(name, start_ns, end_ns, parent, signon, size)``: ``parent`` is
the index of the enclosing span on the same thread (or -1), ``signon`` the
sign-on the caller declared (or, when none was declared, the index of the
thread's outermost span), and ``size`` the byte length of a ``bytes``
result. Spans stay in memory for the life of the ``Tracer``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

from common import median_or_zero

MODULE_FUNCTIONS = {
    "samlforge.bindings": (
        "decode_post",
        "decode_redirect",
        "encode_post",
        "serialize_post_body",
        "encode_redirect",
    ),
    "samlforge.xmlcodec": (
        "parse_xml",
        "canonicalize",
        "signed_payload_bytes",
        "response_from_element",
        "assertion_from_element",
        "authn_request_from_element",
        "emit_response",
        "emit_assertion",
        "emit_authn_request",
        "emit_artifact_resolve",
        "parse_artifact_resolve",
    ),
    "samlforge.cryptoseal": (
        "sign_element",
        "verify_signature",
        "encrypt_assertion",
        "decrypt_assertion",
    ),
    "samlforge.core": ("evaluate_window", "check_audience", "check_bearer", "check_locality"),
    "samlforge.federation": ("register_partner",),
}

CLASS_METHODS = {
    ("samlforge.cryptoseal", "KeyStore"): ("with_trust_anchors",),
    ("samlforge.sp", "SpEngine"): ("consume", "fetch_via_artifact", "build_authn_request"),
    ("samlforge.idp", "IdpEngine"): (
        "issue_assertion",
        "idp_initiated_post",
        "handle_authn_request",
        "session_for_user",
        "issue_artifact_pair",
        "resolve_artifact",
    ),
}

CORE_CHECKS = tuple(f"core.{n}" for n in MODULE_FUNCTIONS["samlforge.core"])
SP_ENTRY = ("sp.SpEngine.consume", "sp.SpEngine.fetch_via_artifact")
EMIT = tuple(f"xmlcodec.{n}" for n in MODULE_FUNCTIONS["samlforge.xmlcodec"] if n.startswith("emit_"))
FROM_ELEMENT = tuple(
    f"xmlcodec.{n}" for n in MODULE_FUNCTIONS["samlforge.xmlcodec"] if n.endswith("_from_element")
)
ENCODE = ("bindings.encode_post", "bindings.serialize_post_body", "bindings.encode_redirect")


_MS = "ms"
LAYER_UNITS = {
    "bindings.decode_post.ms": _MS,
    "bindings.decode_redirect.ms": _MS,
    "bindings.encode.ms": _MS,
    "xmlcodec.parse_xml.ms": _MS,
    "xmlcodec.from_element.ms": _MS,
    "xmlcodec.canonicalize.ms": _MS,
    "xmlcodec.canonicalize.calls_per_signon": "calls/signon",
    "xmlcodec.canonicalize.kb_per_signon": "KiB/signon",
    "xmlcodec.emit.ms": _MS,
    "cryptoseal.sign_element.ms": _MS,
    "cryptoseal.sign_element.calls_per_signon": "calls/signon",
    "cryptoseal.verify_signature.ms": _MS,
    "cryptoseal.verify_signature.calls_per_signon": "calls/signon",
    "cryptoseal.encrypt_assertion.ms": _MS,
    "cryptoseal.decrypt_assertion.ms": _MS,
    "cryptoseal.with_trust_anchors.ms": _MS,
    "cryptoseal.with_trust_anchors.calls_per_signon": "calls/signon",
    "core.checks.ms": _MS,
    "federation.register_partner.ms": _MS,
    "sp.consume.self_ms": _MS,
    "sp.replay.insert_ms": _MS,
    "sp.replay.live": "count",
    "sp.sessions.live": "count",
    "sp.build_authn_request.ms": _MS,
    "sp.reject.ms": _MS,
    "sp.reject.replay": "count",
    "sp.reject.signature": "count",
    "idp.issue.self_ms": _MS,
    "idp.handle_authn_request.self_ms": _MS,
    "idp.session_for_user.ms": _MS,
    "idp.sessions.live": "count",
    "idp.request_replay.insert_ms": _MS,
    "idp.request_replay.live": "count",
    "idp.resolve_artifact.ms": _MS,
    **{f"service.handler_ms.{r}": _MS for r in ("login", "sso", "acs")},
    **{f"service.transport_wait_ms.{r}": _MS for r in ("login", "sso", "acs")},
    "trace.overhead_pct": "%",
}


def _short(module: str) -> str:
    return module.rsplit(".", 1)[1]


class Tracer:
    """Holds the spans of one traced phase and the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.signon = -1  # set by a single-threaded caller before each attempt
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        local = self._local
        spans = self.spans
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(spans)
                spans.append(None)  # reserve the slot so parents precede children
            if stack:
                parent, signon = stack[-1]
            else:
                parent, signon = -1, (self.signon if self.signon >= 0 else index)
            stack.append((index, signon))
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                size = len(result) if isinstance(result, bytes) else 0
                spans[index] = (name, start, end, parent, signon, size)

        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the layer functions and engine methods (process-wide)."""
        for module_name, names in MODULE_FUNCTIONS.items():
            module = sys.modules[module_name]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapped = self._wrap(f"{_short(module_name)}.{fn_name}", original)
                for other_name, other in list(sys.modules.items()):
                    if not other_name.startswith("samlforge") or other is None:
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, wrapped)
        for (module_name, class_name), names in CLASS_METHODS.items():
            cls = getattr(sys.modules[module_name], class_name)
            for method in names:
                name = f"{_short(module_name)}.{class_name}.{method}"
                self._patch(cls, method, self._wrap(name, getattr(cls, method)))

    def watch_stores(self, sp_engine, idp_engine) -> None:
        """Wrap the SP replay store and the IdP request-replay store."""
        for engine, name in ((sp_engine, "sp.replay"), (idp_engine, "idp.request_replay")):
            store = getattr(engine, name.split(".", 1)[1])
            store.check_and_record = self._wrap(f"{name}.check_and_record", store.check_and_record)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def mark(self) -> int:
        """Index from which ``snapshot`` should start (call while idle)."""
        with self._lock:
            return len(self.spans)

    def snapshot(self, since: int = 0) -> list[tuple[str, int, int, int, int, int]]:
        """Finished spans recorded since ``since``, with parent indices
        renumbered to positions in the returned list (-1 for none)."""
        with self._lock:
            spans = self.spans[since:]
        keep = [i for i, s in enumerate(spans) if s is not None]
        renumber = {since + old: new for new, old in enumerate(keep)}
        out = []
        for i in keep:
            name, start, end, parent, signon, size = spans[i]
            out.append((name, start, end, renumber.get(parent, -1), signon, size))
        return out


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class SpanTable:
    """Per-name durations and self times over one list of spans."""

    def __init__(self, spans, signons: set[int] | None = None) -> None:
        child_ns = [0] * len(spans)
        for name, start, end, parent, _signon, _size in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.total: dict[str, list[float]] = defaultdict(list)
        self.self_ms: dict[str, list[float]] = defaultdict(list)
        self.sizes: dict[str, int] = defaultdict(int)
        self.per_signon_ms: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _parent, signon, size) in enumerate(spans):
            if signons is not None and signon not in signons:
                continue
            duration = (end - start) / 1e6
            self.total[name].append(duration)
            self.self_ms[name].append(duration - child_ns[i] / 1e6)
            self.sizes[name] += size
            self.per_signon_ms[name][signon] += duration

    def calls(self, *names: str) -> int:
        return sum(len(self.total.get(n, ())) for n in names)

    def p50_self(self, *names: str) -> float:
        return median_or_zero([v for n in names for v in self.self_ms.get(n, ())])

    def p50_total(self, *names: str) -> float:
        return median_or_zero([v for n in names for v in self.total.get(n, ())])

    def p50_sum_per_signon(self, *names: str) -> float:
        sums: dict[int, float] = defaultdict(float)
        for n in names:
            for signon, ms in self.per_signon_ms.get(n, {}).items():
                sums[signon] += ms
        return median_or_zero(list(sums.values()))


def layer_metrics(table: SpanTable, signons: int) -> dict[str, float]:
    """The span-derived per-layer metrics; ``signons`` is the divisor for
    per-sign-on counts."""
    per = max(signons, 1)
    return {
        "bindings.decode_post.ms": table.p50_self("bindings.decode_post"),
        "bindings.decode_redirect.ms": table.p50_self("bindings.decode_redirect"),
        "bindings.encode.ms": table.p50_self(*ENCODE),
        "xmlcodec.parse_xml.ms": table.p50_self("xmlcodec.parse_xml"),
        "xmlcodec.from_element.ms": table.p50_self(*FROM_ELEMENT),
        "xmlcodec.canonicalize.ms": table.p50_self("xmlcodec.canonicalize"),
        "xmlcodec.canonicalize.calls_per_signon": table.calls("xmlcodec.canonicalize") / per,
        "xmlcodec.canonicalize.kb_per_signon": table.sizes.get("xmlcodec.canonicalize", 0) / 1024 / per,
        "xmlcodec.emit.ms": table.p50_self(*EMIT),
        "cryptoseal.sign_element.ms": table.p50_self("cryptoseal.sign_element"),
        "cryptoseal.sign_element.calls_per_signon": table.calls("cryptoseal.sign_element") / per,
        "cryptoseal.verify_signature.ms": table.p50_self("cryptoseal.verify_signature"),
        "cryptoseal.verify_signature.calls_per_signon": table.calls("cryptoseal.verify_signature") / per,
        "cryptoseal.encrypt_assertion.ms": table.p50_self("cryptoseal.encrypt_assertion"),
        "cryptoseal.decrypt_assertion.ms": table.p50_self("cryptoseal.decrypt_assertion"),
        "cryptoseal.with_trust_anchors.ms": table.p50_self("cryptoseal.KeyStore.with_trust_anchors"),
        "cryptoseal.with_trust_anchors.calls_per_signon": table.calls("cryptoseal.KeyStore.with_trust_anchors") / per,
        "core.checks.ms": table.p50_sum_per_signon(*CORE_CHECKS),
        "sp.consume.self_ms": table.p50_self(*SP_ENTRY),
        "sp.replay.insert_ms": table.p50_total("sp.replay.check_and_record"),
        "sp.build_authn_request.ms": table.p50_self("sp.SpEngine.build_authn_request"),
        "idp.issue.self_ms": table.p50_self("idp.IdpEngine.issue_assertion"),
        "idp.handle_authn_request.self_ms": table.p50_self("idp.IdpEngine.handle_authn_request"),
        "idp.session_for_user.ms": table.p50_total("idp.IdpEngine.session_for_user"),
        "idp.request_replay.insert_ms": table.p50_total("idp.request_replay.check_and_record"),
        "idp.resolve_artifact.ms": table.p50_total("idp.IdpEngine.resolve_artifact"),
    }


def register_partner_ms(spans) -> float:
    return SpanTable(spans).p50_total("federation.register_partner")
