"""Simulated end users with cookie jars.

Section 5.5's cookie-theft findings need victims: users who hold
authentication cookies scoped to an organization's parent domain and
keep visiting its subdomains after a hijack.  Each simulated user
carries a :class:`~repro.web.cookies.CookieJar`; weekly they browse a
few of their organization's assets, so a hijacked asset receives
exactly the cookies browser policy would send it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List, Optional

from repro.web.client import FetchStatus, HttpClient
from repro.web.cookies import Cookie, CookieJar
from repro.web.html import parse_html
from repro.world.organizations import Organization


@dataclass
class SimUser:
    """One browsing user affiliated with an organization."""

    user_id: str
    org_key: str
    source_ip: str
    jar: CookieJar = field(default_factory=CookieJar)


class UserPopulation:
    """Users, their cookies, and their weekly browsing.

    When a ``monetization`` ecosystem is attached, users occasionally
    click the referral links on the (possibly hijacked) pages they
    visit — which is what turns hijacks into revenue (Section 5.3).
    """

    def __init__(
        self,
        client: HttpClient,
        rng: random.Random,
        monetization=None,
        click_rate: float = 0.3,
    ):
        self._client = client
        self._rng = rng
        self._users: List[SimUser] = []
        self._orgs: Dict[str, Organization] = {}
        self._monetization = monetization
        self.click_rate = click_rate
        #: page body -> its first ``?ref=``/``&ref=`` href, or ``None``.
        #: Users load the same pages week after week, so each distinct
        #: body is parsed once.
        self._referral_hrefs: Dict[str, Optional[str]] = {}

    def add_users_for_org(self, org: Organization, count: int, at: datetime) -> None:
        """Create ``count`` logged-in users for ``org``.

        Each receives an authentication cookie for the *parent* domain
        with realistic flag mixes (HttpOnly ~60%, Secure ~50%) plus a
        non-sensitive tracking cookie.
        """
        self._orgs[org.key] = org
        for index in range(count):
            ip = f"203.0.{self._rng.randrange(256)}.{self._rng.randrange(1, 255)}"
            user = SimUser(
                user_id=f"{org.key}-user{len(self._users)}-{index}",
                org_key=org.key,
                source_ip=ip,
            )
            user.jar.set(
                Cookie(
                    name="session_token",
                    value=f"auth-{user.user_id}-{self._rng.randrange(10**9)}",
                    domain=org.domain,
                    secure=self._rng.random() < 0.5,
                    http_only=self._rng.random() < 0.6,
                    is_authentication=True,
                )
            )
            user.jar.set(
                Cookie(
                    name="visitor_id",
                    value=f"v-{self._rng.randrange(10**9)}",
                    domain=org.domain,
                )
            )
            self._users.append(user)

    def users(self) -> List[SimUser]:
        return list(self._users)

    def weekly_browse(self, at: datetime, visits_per_user: int = 2) -> int:
        """Every user visits a few of their org's subdomains.

        Returns the number of successful page loads.  Visits use HTTPS
        when the asset advertises a certificate, HTTP otherwise —
        deciding whether Secure cookies travel.
        """
        loads = 0
        for user in self._users:
            org = self._orgs.get(user.org_key)
            if org is None or not org.assets:
                continue
            count = min(visits_per_user, len(org.assets))
            for asset in self._rng.sample(org.assets, count):
                scheme = "https" if asset.has_certificate else "http"
                outcome = self._client.fetch(
                    asset.fqdn, scheme=scheme, at=at,
                    headers={"User-Agent": "SimBrowser/1.0", "X-Client-IP": user.source_ip},
                    cookie_jar=user.jar,
                )
                if outcome.status == FetchStatus.TLS_ERROR:
                    # A share of users click through the warning (or the
                    # site is bookmarked over plain HTTP): retry without
                    # TLS, so Secure cookies stay home but others travel.
                    if self._rng.random() < 0.5:
                        outcome = self._client.fetch(
                            asset.fqdn, scheme="http", at=at,
                            headers={
                                "User-Agent": "SimBrowser/1.0",
                                "X-Client-IP": user.source_ip,
                            },
                            cookie_jar=user.jar,
                        )
                if outcome.ok:
                    loads += 1
                    self._maybe_click_through(outcome.response.body, asset.fqdn, at)
        return loads

    def _maybe_click_through(self, body: str, fqdn: str, at: datetime) -> None:
        """Click a referral link on the loaded page, sometimes.

        The cheap substring guard keeps the common (benign-page) path
        free of HTML parsing.
        """
        if self._monetization is None or "ref=" not in body:
            return
        if self._rng.random() >= self.click_rate:
            return
        try:
            href = self._referral_hrefs[body]
        except KeyError:
            href = self._referral_hrefs[body] = _first_referral_href(body)
        if href is not None:
            self._monetization.handle_click(href, at, source_fqdn=fqdn)


def _first_referral_href(body: str) -> Optional[str]:
    """The first link on the page carrying a ``ref`` query parameter."""
    for link in parse_html(body).links:
        if "?ref=" in link.href or "&ref=" in link.href:
            return link.href
    return None
