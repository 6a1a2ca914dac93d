"""Property-based tests on core data-structure invariants."""

import random
from datetime import datetime, timedelta

from hypothesis import given, settings, strategies as st

from repro.core.clustering import jaccard_distance
from repro.core.economics import simulate_lottery
from repro.core.monitoring import SnapshotFeatures, SnapshotStore
from repro.core.signatures import Signature
from repro.dns.records import RRType, ResourceRecord
from repro.dns.zone import Zone
from repro.net.addresses import IPv4Pool
from repro.web.cookies import Cookie, CookieJar
from repro.web.http import HttpRequest

T0 = datetime(2020, 1, 6)

LABEL = st.text(alphabet="abcdefghij", min_size=1, max_size=6)
DOMAIN_SETS = st.sets(LABEL, max_size=8)


@given(DOMAIN_SETS, DOMAIN_SETS, DOMAIN_SETS)
def test_jaccard_distance_is_a_semimetric(a, b, c):
    """Symmetry, identity, boundedness of the clustering distance."""
    a = {f"{x}.com" for x in a}
    b = {f"{x}.com" for x in b}
    c = {f"{x}.com" for x in c}
    assert jaccard_distance(a, b) == jaccard_distance(b, a)
    assert 0.0 <= jaccard_distance(a, b) <= 1.0
    if a:
        assert jaccard_distance(a, a) == 0.0
    if a and b and not (a & b):
        assert jaccard_distance(a, b) == 1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(LABEL, st.sampled_from(["A", "TXT"])), max_size=20),
       st.data())
def test_zone_add_remove_roundtrip(operations, data):
    """Adding then removing every record leaves an empty zone, and each
    add and each remove bumps its name's journal revision once."""
    zone = Zone("example.com")
    added = []
    for label, rtype_name in operations:
        record = ResourceRecord(
            f"{label}.example.com", RRType[rtype_name], f"value-{len(added)}"
        )
        try:
            zone.add(record, T0)
        except ValueError:
            continue  # duplicate draws are fine
        added.append(record)
    assert len(zone.all_records()) == len(added)
    for record in added:
        zone.remove(record, T0)
    assert zone.all_records() == []
    assert zone.names() == set()
    names = {record.name for record in added}
    assert sum(zone.name_version(name) for name in names) == 2 * len(added)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lottery_simulation_matches_pool_size_order(seed):
    """Winning a specific address out of N takes ~N tries, not ~1."""
    pool = IPv4Pool(["10.0.0.0/26"])  # 64 addresses
    rng = random.Random(seed)
    target = pool.allocate(rng)
    pool.release(target)
    attempts = simulate_lottery(pool, target, rng, max_attempts=5_000)
    assert 1 <= attempts <= 5_000
    # With 64 addresses the win virtually always lands well before the cap.
    assert attempts < 5_000


@given(st.booleans(), st.booleans(), st.sampled_from(["http", "https"]))
def test_cookie_flag_semantics_are_total(secure, http_only, scheme):
    """Every flag combination has well-defined send/JS visibility."""
    cookie = Cookie(name="c", value="v", domain="example.com",
                    secure=secure, http_only=http_only)
    sendable = cookie.sendable("sub.example.com", scheme)
    if secure and scheme == "http":
        assert not sendable
    else:
        assert sendable
    assert cookie.javascript_accessible() == (not http_only)
    jar = CookieJar()
    jar.set(cookie)
    request = HttpRequest(
        host="sub.example.com", scheme=scheme,
        cookie_objects=jar.cookies_for("sub.example.com", scheme),
    )
    js_visible = request.javascript_cookies()
    assert (cookie in js_visible) == (sendable and not http_only)


def _features(fqdn, at, hash_):
    return SnapshotFeatures(
        fqdn=fqdn, at=at, dns_status="NOERROR", cname_chain=(), addresses=("1.1.1.1",),
        fetch_status="ok", http_status=200, html_hash=hash_,
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["h1", "h2", "h3"]), min_size=1, max_size=25))
def test_snapshot_store_state_compression(hashes):
    """State count equals the number of hash *transitions*, and
    observation counts always sum to the number of samples."""
    store = SnapshotStore()
    at = T0
    for hash_ in hashes:
        store.record(_features("a.example.com", at, hash_))
        at += timedelta(weeks=1)
    history = store.history("a.example.com")
    transitions = 1 + sum(1 for x, y in zip(hashes, hashes[1:]) if x != y)
    assert len(history) == transitions
    assert sum(state.observations for state in history) == len(hashes)
    # Windows are contiguous and ordered.
    for earlier, later in zip(history, history[1:]):
        assert earlier.last_seen < later.first_seen


@given(st.sets(st.sampled_from(["slot", "judi", "gacor", "bola", "agen"]),
               min_size=3, max_size=5),
       st.sets(st.sampled_from(["slot", "judi", "gacor", "bola", "agen",
                                "products", "careers"]), max_size=7))
def test_signature_matching_is_monotone_in_page_tokens(sig_keywords, page_tokens_set):
    """Adding tokens to a page can only turn a non-match into a match,
    never the reverse."""
    signature = Signature(
        signature_id="s", created_at=T0, keywords=frozenset(sig_keywords)
    )
    base = SnapshotFeatures(
        fqdn="x.example.com", at=T0, dns_status="NOERROR", cname_chain=(),
        addresses=("1.1.1.1",), fetch_status="ok", http_status=200,
        html_hash="h", keywords=frozenset(page_tokens_set),
    )
    richer = SnapshotFeatures(
        fqdn="x.example.com", at=T0, dns_status="NOERROR", cname_chain=(),
        addresses=("1.1.1.1",), fetch_status="ok", http_status=200,
        html_hash="h", keywords=frozenset(page_tokens_set | sig_keywords),
    )
    if signature.match(base) is not None:
        assert signature.match(richer) is not None
