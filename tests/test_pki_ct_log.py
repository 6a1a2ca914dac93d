"""Tests for the CT log."""

from datetime import datetime, timedelta

from hypothesis import given, settings, strategies as st

from repro.dns.names import normalize_name
from repro.pki.certificate import Certificate
from repro.pki.ct_log import CTLog

T0 = datetime(2020, 1, 6)


def _cert(serial, sans):
    return Certificate(
        serial=serial, sans=tuple(sans), issuer="CA",
        not_before=T0, not_after=T0 + timedelta(days=90),
    )


def test_submit_and_query():
    log = CTLog()
    log.submit(_cert(1, ["a.example.com"]), T0)
    log.submit(_cert(2, ["*.example.com", "example.com"]), T0 + timedelta(days=1))
    assert len(log) == 2
    assert [e.certificate.is_single_san for e in log.entries()] == [True, False]


def test_entries_for_name_and_subdomains():
    log = CTLog()
    log.submit(_cert(1, ["a.example.com"]), T0)
    log.submit(_cert(2, ["b.example.com"]), T0)
    assert len(log.entries_for("a.example.com")) == 1
    assert len(log.entries_for("example.com", include_subdomains=True)) == 2


def test_first_issuance():
    log = CTLog()
    assert log.first_issuance_for("a.example.com") is None
    log.submit(_cert(1, ["a.example.com"]), T0 + timedelta(days=9))
    log.submit(_cert(2, ["a.example.com"]), T0)
    assert log.first_issuance_for("a.example.com") == T0


def test_monitor_fires_on_covered_names_only():
    log = CTLog()
    seen = []
    log.monitor("example.com", seen.append)
    log.submit(_cert(1, ["x.example.com"]), T0)
    log.submit(_cert(2, ["other.com"]), T0)
    log.submit(_cert(3, ["*.example.com"]), T0)
    assert len(seen) == 2


def test_wildcard_entry_covers_apex_monitoring():
    log = CTLog()
    seen = []
    log.monitor("example.com", seen.append)
    log.submit(_cert(1, ["*.sub.example.com"]), T0)
    assert len(seen) == 1


# -- the name index against the linear scan it replaced ---------------------


def _scan_entries_for(log, name):
    """The pre-index ``entries_for``: every entry, confirmed by ``matches``."""
    normalized = normalize_name(name)
    return [e for e in log.entries() if e.certificate.matches(normalized)]


def _scan_first_issuance(log, name):
    matching = _scan_entries_for(log, name)
    return min(e.logged_at for e in matching) if matching else None


def _outcome(fn, *args):
    """A call's value, or the type of the exception it raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return ("raised", type(exc))


_LABELS = st.sampled_from(["a", "b", "A", "B", "cdn", "Www"])
_NAMES = st.builds(
    lambda labels, dot: ".".join(labels) + ("." if dot else ""),
    st.lists(_LABELS, min_size=1, max_size=3),
    st.booleans(),
)
_SANS = st.one_of(_NAMES, _NAMES.map(lambda n: "*." + n))
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.lists(_SANS, min_size=1, max_size=4).map(
                # Repeat a SAN within one certificate now and then.
                lambda sans: sans + sans[:1] if len(sans) == 3 else sans
            ),
            st.integers(min_value=0, max_value=30),
        ),
        st.tuples(st.just("query"), _NAMES),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_name_index_equals_linear_scan(ops):
    log = CTLog()
    queried = []
    for op in ops:
        if op[0] == "submit":
            _, sans, day = op
            log.submit(_cert(len(log) + 1, sans), T0 + timedelta(days=day))
        else:
            queried.append(op[1])
        # Every name seen so far, after every step: the postings grow
        # with the log and must agree with a scan at each length.
        for name in queried:
            assert log.entries_for(name) == _scan_entries_for(log, name)
            assert log.first_issuance_for(name) == _scan_first_issuance(log, name)


def test_name_index_covers_exact_and_wildcard_of_one_host():
    log = CTLog()
    log.submit(_cert(1, ["*.Example.COM.", "x.example.com", "x.example.com"]), T0)
    log.submit(_cert(2, ["x.example.com"]), T0 - timedelta(days=1))
    log.submit(_cert(3, ["*.other.com"]), T0)
    for name in ("x.example.com", "X.Example.com.", "y.example.com", "example.com",
                 "a.x.example.com", "other.com", "q.other.com", "com"):
        assert log.entries_for(name) == _scan_entries_for(log, name)
        assert log.first_issuance_for(name) == _scan_first_issuance(log, name)
    assert [e.certificate.serial for e in log.entries_for("x.example.com")] == [1, 2]
    assert log.first_issuance_for("x.example.com") == T0 - timedelta(days=1)


def test_unnormalizable_wildcard_is_accepted_and_answers_as_the_scan():
    """``*.`` builds a certificate today, so ``submit`` must take it too.

    Its parent cannot be a posting key; it stays a candidate for every
    query and ``matches`` decides it, raising where the scan raised.
    """
    log = CTLog()
    log.submit(_cert(1, ["a.example.com", "*."]), T0)
    log.submit(_cert(2, ["b.example.com"]), T0)
    for name in ("a.example.com", "b.example.com", "com", "c.example.com"):
        assert _outcome(log.entries_for, name) == _outcome(_scan_entries_for, log, name)
        assert _outcome(log.first_issuance_for, name) == _outcome(
            _scan_first_issuance, log, name
        )
    # Subdomain queries keep the scan.
    assert len(log.entries_for("example.com", include_subdomains=True)) == 2
