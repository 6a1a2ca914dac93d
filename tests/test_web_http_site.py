"""Tests for HTTP messages and static sites."""

import pytest

from repro.web.http import HttpRequest, HttpResponse, not_found, provider_404
from repro.web.site import StaticSite
from repro.web.sitemap import Sitemap
from tests.fakes import CallableSite


def test_request_crawler_detection():
    assert HttpRequest(host="x.com", headers={"User-Agent": "Googlebot/2.1"}).is_crawler
    assert HttpRequest(host="x.com", headers={"User-Agent": "research crawler"}).is_crawler
    assert not HttpRequest(host="x.com", headers={"User-Agent": "Chrome"}).is_crawler


def test_response_ok_and_size():
    assert HttpResponse(status=204).ok
    assert not HttpResponse(status=404).ok
    assert len(HttpResponse(body="abcd").body.encode("utf-8")) == 4


def test_provider_404_fingerprint():
    response = provider_404("Azure", resource_hint="gone.azurewebsites.net")
    assert response.status == 404
    assert "Azure" in response.body
    assert response.headers["X-Provider"] == "Azure"


def test_static_site_serving():
    site = StaticSite()
    site.put_index("<html>hi</html>")
    site.put("/a.html", "<html>a</html>")
    assert site.handle(HttpRequest(host="x.com", path="/")).body == "<html>hi</html>"
    assert site.handle(HttpRequest(host="x.com", path="/a.html")).ok
    assert site.handle(HttpRequest(host="x.com", path="/nope")).status == 404


def test_static_site_paths_and_counts():
    site = StaticSite()
    site.put_index("<html></html>")
    site.put("/x.bin", "MZ...", content_type="application/octet-stream")
    assert site.paths() == ["/", "/x.bin"]
    assert site.page_count() == 1
    assert site.get("/x.bin") == "MZ..."


def test_static_site_put_requires_absolute_path():
    with pytest.raises(ValueError):
        StaticSite().put("relative", "x")


def test_static_site_remove():
    site = StaticSite()
    site.put("/a", "x")
    site.remove("/a")
    assert "/a" not in site.paths()
    with pytest.raises(KeyError):
        site.remove("/a")


def test_put_sitemap():
    site = StaticSite()
    sitemap = Sitemap()
    sitemap.add("http://x.com/a")
    site.put_sitemap(sitemap)
    response = site.handle(HttpRequest(host="x.com", path="/sitemap.xml"))
    assert response.content_type == "application/xml"
    assert "http://x.com/a" in response.body


def test_default_headers_applied():
    site = StaticSite(default_headers={"Strict-Transport-Security": "max-age=1"})
    site.put_index("x")
    response = site.handle(HttpRequest(host="x.com"))
    assert response.headers["Strict-Transport-Security"] == "max-age=1"


def test_callable_site():
    site = CallableSite(lambda request: HttpResponse(body=request.path))
    assert site.handle(HttpRequest(host="x", path="/echo")).body == "/echo"


def test_not_found_helper():
    assert not_found().status == 404
