import gc
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from samlforge.core import (
    AuthnStatement,
    Conditions,
    EntityId,
    ExpiringMap,
    Instant,
    Outcome,
    ReplayCache,
    Subject,
    SubjectConfirmation,
    UnsupportedConfirmationMethod,
    BEARER_METHOD,
    check_audience,
    check_bearer,
    check_locality,
    evaluate_window,
)

NB = Instant.parse("2009-04-22T12:28:36Z")
NOA = Instant.parse("2009-04-22T12:33:36Z")


def test_instant_round_trips_exactly():
    assert Instant.parse("2009-04-22T12:33:36Z").isoformat() == "2009-04-22T12:33:36Z"


@pytest.mark.parametrize("bad", ["2009-04-22T12:33:36", "2009-04-22 12:33:36Z", "not-a-time"])
def test_instant_rejects_non_utc_shapes(bad):
    with pytest.raises(ValueError):
        Instant.parse(bad)


def test_entity_id_rejects_whitespace():
    with pytest.raises(ValueError):
        EntityId(" padded ")
    with pytest.raises(ValueError):
        EntityId("")


class TestEvaluateWindow:
    def test_inside_window_is_valid(self):
        assert evaluate_window(NB, NOA, Instant.parse("2009-04-22T12:30:00Z"), 0).outcome is Outcome.VALID

    def test_upper_bound_is_exclusive(self):
        # "on or after" fails, so the instant equal to the bound is expired
        assert evaluate_window(NB, NOA, NOA, 0).outcome is Outcome.EXPIRED

    def test_skew_stretches_the_upper_bound(self):
        # 12:33:40 < 12:33:36 + 10s
        now = Instant.parse("2009-04-22T12:33:40Z")
        assert evaluate_window(NB, NOA, now, 10).outcome is Outcome.VALID

    def test_lower_bound_is_inclusive(self):
        assert evaluate_window(NB, NOA, NB, 0).outcome is Outcome.VALID
        assert evaluate_window(NB, NOA, NB.minus(1), 0).outcome is Outcome.NOT_YET_VALID

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError):
            evaluate_window(NB, NOA, NB, -1)

    @given(
        nb=st.integers(0, 10_000),
        duration=st.integers(0, 10_000),
        now=st.integers(-5_000, 20_000),
        skew=st.integers(0, 500),
        extra=st.integers(0, 500),
    )
    def test_valid_is_monotone_in_skew(self, nb, duration, now, skew, extra):
        base = evaluate_window(Instant(nb), Instant(nb + duration), Instant(now), skew)
        wider = evaluate_window(Instant(nb), Instant(nb + duration), Instant(now), skew + extra)
        if base.outcome is Outcome.VALID:
            assert wider.outcome is Outcome.VALID

    @given(
        nb=st.integers(0, 10_000),
        noa=st.integers(0, 10_000),
        now=st.integers(-5_000, 20_000),
        skew=st.integers(0, 500),
    )
    def test_outcomes_partition_the_timeline(self, nb, noa, now, skew):
        verdict = evaluate_window(Instant(nb), Instant(noa), Instant(now), skew)
        assert verdict.outcome in (Outcome.VALID, Outcome.NOT_YET_VALID, Outcome.EXPIRED)
        # the verdict is a function of the inputs alone
        again = evaluate_window(Instant(nb), Instant(noa), Instant(now), skew)
        assert verdict.outcome is again.outcome


class TestCheckAudience:
    def test_listed_audience_is_valid(self):
        conditions = Conditions(NB, NOA, (EntityId("mypartner.com:saml2.0"),))
        assert check_audience(conditions, EntityId("mypartner.com:saml2.0")).ok

    def test_empty_restriction_is_valid(self):
        assert check_audience(Conditions(NB, NOA, ()), EntityId("anything")).ok

    def test_unlisted_audience_mismatches(self):
        conditions = Conditions(NB, NOA, (EntityId("mypartner.com:saml2.0"),))
        verdict = check_audience(conditions, EntityId("other:saml2.0"))
        assert verdict.outcome is Outcome.AUDIENCE_MISMATCH

    @given(
        audiences=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
        local=st.sampled_from("abcdef"),
    )
    def test_order_and_duplication_do_not_matter(self, audiences, local):
        ordered = Conditions(NB, NOA, tuple(EntityId(a) for a in audiences))
        shuffled = Conditions(NB, NOA, tuple(EntityId(a) for a in reversed(audiences)))
        doubled = Conditions(NB, NOA, tuple(EntityId(a) for a in audiences + audiences))
        outcomes = {
            check_audience(c, EntityId(local)).outcome for c in (ordered, shuffled, doubled)
        }
        assert len(outcomes) == 1


class TestCheckBearer:
    ACS = "https://mypartner.com/metaAlias/sp"

    def _confirmation(self, recipient=ACS):
        return SubjectConfirmation(BEARER_METHOD, Instant.parse("2009-04-22T12:43:36Z"), recipient)

    def test_matching_recipient_within_window(self):
        now = Instant.parse("2009-04-22T12:35:00Z")
        assert check_bearer(self._confirmation(), self.ACS, now, 0).ok

    def test_wrong_acs_is_recipient_mismatch(self):
        now = Instant.parse("2009-04-22T12:35:00Z")
        verdict = check_bearer(self._confirmation(), "https://evil.example/acs", now, 0)
        assert verdict.outcome is Outcome.RECIPIENT_MISMATCH

    def test_bound_is_exclusive(self):
        now = Instant.parse("2009-04-22T12:43:36Z")
        assert check_bearer(self._confirmation(), self.ACS, now, 0).outcome is Outcome.EXPIRED

    def test_trailing_slash_is_trimmed(self):
        now = Instant.parse("2009-04-22T12:35:00Z")
        assert check_bearer(self._confirmation(), self.ACS + "/", now, 0).ok

    def test_non_bearer_method_raises(self):
        confirmation = SubjectConfirmation(
            "urn:oasis:names:tc:SAML:2.0:cm:holder-of-key", NOA, self.ACS
        )
        with pytest.raises(UnsupportedConfirmationMethod):
            check_bearer(confirmation, self.ACS, NB, 0)


class TestCheckLocality:
    def _statement(self, address):
        return AuthnStatement(NB, "ccda16bc322adf4f74d556bd", locality_address=address)

    def test_matching_address(self):
        assert check_locality(self._statement("192.168.0.189"), "192.168.0.189").ok

    def test_absent_locality_is_valid(self):
        assert check_locality(self._statement(None), "10.0.0.7").ok

    def test_mismatch(self):
        verdict = check_locality(self._statement("192.168.0.189"), "10.0.0.7")
        assert verdict.outcome is Outcome.LOCALITY_MISMATCH


def test_sample_conditions_expired_at_own_issue_instant():
    # The sample document's window closes exactly at its issue instant; the
    # model represents it verbatim and the exclusive bound judges it expired.
    verdict = evaluate_window(NB, NOA, Instant.parse("2009-04-22T12:33:36Z"), 0)
    assert verdict.outcome is Outcome.EXPIRED


def test_subject_and_statement_invariants():
    with pytest.raises(ValueError):
        Subject(name_id="", confirmation=SubjectConfirmation(BEARER_METHOD, NOA, "https://x/"))
    with pytest.raises(ValueError):
        AuthnStatement(NB, session_index="")


_KEYS = st.sampled_from("abcd")
_INSTANTS = st.integers(0, 40).map(Instant)
_NARROW = st.integers(20, 22).map(Instant)  # so that many keys share an expiry second


class ExpiringMapMachine(RuleBasedStateMachine):
    """ExpiringMap against a plain dict that evicts by full scan. Each rule
    draws its own ``now``, so the clock goes backwards as often as forwards;
    values are bare objects, which do not order."""

    def __init__(self) -> None:
        super().__init__()
        self.store = ExpiringMap()
        self.model: dict[str, tuple[Instant, object]] = {}

    def _evict(self, now: Instant) -> None:
        for key in [k for k, (expiry, _) in self.model.items() if expiry <= now]:
            del self.model[key]

    @rule(key=_KEYS, expiry=_INSTANTS, now=_INSTANTS)
    def put_if_absent(self, key, expiry, now, value=None):
        self._evict(now)
        value = value or object()
        fresh = key not in self.model
        if fresh:
            self.model[key] = (expiry, value)
        assert self.store.put_if_absent(key, value, expiry, now) == fresh

    @rule(key=_KEYS, expiry=_INSTANTS, now=_INSTANTS)
    def put(self, key, expiry, now, value=None):
        self._evict(now)
        value = value or object()
        self.model[key] = (expiry, value)
        self.store.put(key, value, expiry, now)

    @rule(writes=st.lists(st.tuples(_KEYS, _NARROW, st.booleans()), min_size=2, max_size=6),
          now=_INSTANTS)
    def put_shared(self, writes, now):
        """One value object under several keys, as a replay cache stores
        ``True``; with narrow expiries its buckets also hold other values."""
        value = object()
        for key, expiry, if_absent in writes:
            (self.put_if_absent if if_absent else self.put)(key, expiry, now, value)

    @rule(key=_KEYS)
    def take(self, key):
        assert self.store.take(key) is self.model.pop(key, (None, None))[1]

    @rule(key=_KEYS, expiry=_INSTANTS, now=_INSTANTS)
    def take_then_put_again(self, key, expiry, now):
        """Leaves two heap items for one key at one expiry."""
        self.put(key, expiry, now)
        self.take(key)
        self.put(key, expiry, now)

    @rule(key=_KEYS)
    def get(self, key):
        assert self.store.get(key) is self.model.get(key, (None, None))[1]

    @rule(now=_INSTANTS)
    def evict_expired(self, now):
        self._evict(now)
        self.store.evict_expired(now)

    @invariant()
    def same_keys(self):
        assert len(self.store) == len(self.model)
        for key in "abcd":
            assert (key in self.store) == (key in self.model)
            assert self.store.get(key) is self.model.get(key, (None, None))[1]


TestExpiringMapModel = ExpiringMapMachine.TestCase


def test_replay_cache_holds_a_live_id_in_under_64_bytes():
    """10,000 live IDs arriving 100 per second; the IDs themselves are not counted."""
    ids = [f"_{n:040x}" for n in range(10_000)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = ReplayCache()
        for n, message_id in enumerate(ids):
            now = Instant(1_240_000_000 + n // 100)
            assert cache.check_and_record(message_id, now.plus(900), now)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cache) == len(ids)
    assert grown / len(ids) <= 64


def test_expiring_map_admits_and_takes_each_key_once_across_threads():
    store = ExpiringMap()
    keys = [f"_k{n}" for n in range(500)]
    admitted: list[tuple[str, int]] = []
    taken: list[tuple[str, int]] = []
    results_lock = threading.Lock()
    start = threading.Barrier(8)

    def race(me: int) -> None:
        start.wait()
        mine = [(k, me) for k in keys if store.put_if_absent(k, me, Instant(100), Instant(0))]
        start.wait()
        got = [(k, v) for k in keys if (v := store.take(k)) is not None]
        with results_lock:
            admitted.extend(mine)
            taken.extend(got)

    threads = [threading.Thread(target=race, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(k for k, _ in admitted) == sorted(keys)
    # each key is taken once, holding the value of the thread that admitted it
    assert sorted(taken) == sorted(admitted)
    assert len(store) == 0
