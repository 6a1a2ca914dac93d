"""Minimal HTTP message types for the simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.web.cookies import Cookie


@dataclass
class HttpRequest:
    """One request as it arrives at a (virtual-hosting) server.

    ``host`` is the value of the ``Host`` header — the routing key for
    virtual hosting; ``scheme`` records whether the connection came in
    over TLS, which gates Secure-cookie transmission.
    """

    host: str
    path: str = "/"
    method: str = "GET"
    scheme: str = "http"
    headers: Dict[str, str] = field(default_factory=dict)
    cookies: Dict[str, str] = field(default_factory=dict)
    #: The cookie objects behind the Cookie header, kept so servers can
    #: distinguish JS-visible cookies (simulating document.cookie).
    cookie_objects: List[Cookie] = field(default_factory=list)

    def javascript_cookies(self) -> List[Cookie]:
        """The subset of sent cookies that page JavaScript could read."""
        return [c for c in self.cookie_objects if c.javascript_accessible()]

    @property
    def user_agent(self) -> str:
        return self.headers.get("User-Agent", "")

    @property
    def is_crawler(self) -> bool:
        """Whether the UA looks like a search-engine spider.

        The cloaking abuse (Section 5.2.1) branches on exactly this.
        """
        agent = self.user_agent.lower()
        return any(token in agent for token in ("bot", "spider", "crawler"))


@dataclass
class HttpResponse:
    """One response, carrying body, headers and any Set-Cookie values."""

    status: int = 200
    body: str = ""
    content_type: str = "text/html"
    headers: Dict[str, str] = field(default_factory=dict)
    set_cookies: List[Cookie] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def not_found(message: str = "Not Found") -> HttpResponse:
    """A plain 404 response."""
    return HttpResponse(status=404, body=message, content_type="text/plain")


def provider_404(provider_name: str, resource_hint: str = "") -> HttpResponse:
    """The characteristic provider error page for a missing resource.

    Real platforms return recognisable bodies for unclaimed names
    ("The specified bucket does not exist", Azure's 404 page, ...),
    which is precisely the fingerprint takeover scanners look for.
    """
    detail = f" ({resource_hint})" if resource_hint else ""
    body = (
        f"<html><head><title>404 Web Site not found</title></head>"
        f"<body><h1>404 - Web app not found.</h1>"
        f"<p>The resource you are looking for is not provisioned on "
        f"{provider_name}{detail}.</p></body></html>"
    )
    return HttpResponse(status=404, body=body, headers={"X-Provider": provider_name})
