"""Cookie-harvesting sites.

Section 5.5: what an attacker can read depends on their control level —
full-webserver hijacks see every cookie in request headers; content-only
hijacks (static hosting, CMS) see only what ``document.cookie`` exposes,
i.e. non-HttpOnly cookies.  Secure cookies arrive only over HTTPS, which
is enforced upstream by the browser/cookie-jar model, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cloud.capabilities import AccessLevel
from repro.web.cookies import Cookie
from repro.web.http import HttpRequest, HttpResponse
from repro.web.site import StaticSite


@dataclass(frozen=True)
class CapturedCookie:
    """One cookie harvested from a visiting client."""

    cookie: Cookie
    host: str
    client_ip: str
    captured_at_week: str  # ISO date of the serving request (from header)


class CookieStealingSite(StaticSite):
    """A content store that also harvests visitor cookies."""

    def __init__(self, access: AccessLevel):
        super().__init__()
        self.access = access
        self.captured: List[CapturedCookie] = []

    def handle(self, request: HttpRequest) -> HttpResponse:
        self._harvest(request)
        return super().handle(request)

    def _harvest(self, request: HttpRequest) -> None:
        if self.access == AccessLevel.FULL_WEBSERVER:
            visible = request.cookie_objects
        else:
            visible = request.javascript_cookies()
        client_ip = request.headers.get("X-Client-IP", "0.0.0.0")
        when = request.headers.get("X-Sim-Date", "")
        for cookie in visible:
            self.captured.append(
                CapturedCookie(
                    cookie=cookie, host=request.host,
                    client_ip=client_ip, captured_at_week=when,
                )
            )

    def drain(self) -> List[CapturedCookie]:
        """Return and clear everything captured so far."""
        out = self.captured
        self.captured = []
        return out
