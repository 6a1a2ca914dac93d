"""Tests for cookie scope rules — the Section 5.5 browser semantics."""

from repro.web.cookies import Cookie, CookieJar
from repro.web.http import HttpRequest


def _request(jar, host, scheme="http"):
    """The request a client sends to ``host`` with ``jar``'s cookies."""
    objects = jar.cookies_for(host, scheme)
    return HttpRequest(
        host=host, scheme=scheme,
        cookies={c.name: c.value for c in objects}, cookie_objects=objects,
    )


def _auth(domain="example.com", secure=False, http_only=False):
    return Cookie(
        name="session", value="tok", domain=domain,
        secure=secure, http_only=http_only, is_authentication=True,
    )


def test_cookie_sent_to_subdomain_of_setting_domain():
    cookie = _auth("example.com")
    assert cookie.applies_to("hijacked.example.com")
    assert cookie.applies_to("example.com")
    assert not cookie.applies_to("other.com")


def test_secure_cookie_requires_https():
    cookie = _auth(secure=True)
    assert not cookie.sendable("a.example.com", "http")
    assert cookie.sendable("a.example.com", "https")


def test_httponly_hides_from_javascript_but_not_headers():
    cookie = _auth(http_only=True)
    assert not cookie.javascript_accessible()
    assert cookie.sendable("a.example.com", "http")


def test_jar_scopes_by_host_and_scheme():
    jar = CookieJar()
    jar.set(_auth("example.com", secure=True))
    jar.set(_auth("other.com"))
    jar.set(Cookie(name="visitor", value="1", domain="example.com"))
    http_cookies = jar.cookies_for("sub.example.com", "http")
    assert [c.name for c in http_cookies] == ["visitor"]
    https_cookies = jar.cookies_for("sub.example.com", "https")
    assert {c.name for c in https_cookies} == {"session", "visitor"}


def test_jar_header_and_js_views():
    jar = CookieJar()
    jar.set(_auth("example.com", http_only=True))
    jar.set(Cookie(name="visitor", value="9", domain="example.com"))
    request = _request(jar, "x.example.com")
    assert request.cookies == {"session": "tok", "visitor": "9"}
    assert [c.name for c in request.javascript_cookies()] == ["visitor"]


def test_jar_overwrites_same_key():
    jar = CookieJar()
    jar.set(Cookie(name="a", value="1", domain="x.com"))
    jar.set(Cookie(name="a", value="2", domain="x.com"))
    assert len(jar) == 1
    assert _request(jar, "x.com").cookies["a"] == "2"


def test_hijacked_subdomain_receives_parent_cookies():
    """The attack premise: parent-scoped auth cookies flow to any
    subdomain, including one serving attacker content."""
    jar = CookieJar()
    jar.set(_auth("victim.com"))
    assert _request(jar, "forgotten.victim.com").cookies == {"session": "tok"}
