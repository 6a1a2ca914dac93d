"""Tests for the simulated user population."""

import random
from datetime import datetime

from repro.attacker.monetization import MonetizationEcosystem
from repro.core.scenario import ScenarioConfig, run_scenario
from repro.sim.rng import RngStreams
from repro.web.html import HtmlDocument, Link, parse_html
from repro.world.internet import Internet
from repro.world.population import PopulationBuilder, PopulationConfig
from repro.world.users import UserPopulation

T0 = datetime(2020, 1, 6)
T1 = datetime(2020, 1, 13)


def _world():
    internet = Internet(RngStreams(41))
    builder = PopulationBuilder(internet)
    orgs = builder.build(
        PopulationConfig(n_enterprises=5, n_universities=0, n_government=0, n_popular=0),
        T0,
    )
    return internet, orgs


def test_users_get_parent_scoped_auth_cookies():
    internet, orgs = _world()
    users = UserPopulation(internet.client, internet.streams.get("users"))
    users.add_users_for_org(orgs[0], 3, T0)
    assert len(users.users()) == 3
    for user in users.users():
        cookies = user.jar.all()
        auth = [c for c in cookies if c.is_authentication]
        assert len(auth) == 1
        assert auth[0].domain == orgs[0].domain


def test_weekly_browse_loads_pages():
    internet, orgs = _world()
    users = UserPopulation(internet.client, internet.streams.get("users"))
    for org in orgs:
        users.add_users_for_org(org, 2, T0)
    loads = users.weekly_browse(T0)
    assert loads > 0


def test_cookie_flag_mix_is_varied():
    internet, orgs = _world()
    users = UserPopulation(internet.client, internet.streams.get("users"))
    users.add_users_for_org(orgs[0], 40, T0)
    auth = [
        c for u in users.users() for c in u.jar.all() if c.is_authentication
    ]
    assert any(c.secure for c in auth) and any(not c.secure for c in auth)
    assert any(c.http_only for c in auth) and any(not c.http_only for c in auth)


# -- the referral-link memo against the parse it replaced -------------------


def _parsed_referral_href(body):
    """The pre-memo lookup: parse the page, take its first ref link."""
    for link in parse_html(body).links:
        if "?ref=" in link.href or "&ref=" in link.href:
            return link.href
    return None


class _ClickLog:
    def __init__(self):
        self.clicks = []

    def handle_click(self, url, at, source_fqdn=""):
        self.clicks.append(url)
        return True


def _always_clicking_users():
    log = _ClickLog()
    users = UserPopulation(None, random.Random(3), monetization=log, click_rate=1.0)
    return users, log


def _page(*hrefs):
    return HtmlDocument(title="t", links=[Link(href=h, text="x") for h in hrefs]).render()


def test_same_hijacked_page_twice_clicks_the_same_href_twice():
    users, log = _always_clicking_users()
    body = _page("/home", "https://pay.example/?ref=abc")
    users._maybe_click_through(body, "shop.victim.com", T0)
    users._maybe_click_through(body, "shop.victim.com", T1)
    assert len(users._referral_hrefs) == 1
    assert log.clicks == [_parsed_referral_href(body)] * 2
    assert log.clicks == ["https://pay.example/?ref=abc"] * 2


def test_amp_ref_link_after_a_plain_link_is_found():
    users, log = _always_clicking_users()
    body = _page("/about", "https://pay.example/go?src=x&ref=zz", "https://b/?ref=later")
    users._maybe_click_through(body, "shop.victim.com", T0)
    assert log.clicks == [_parsed_referral_href(body)]
    assert log.clicks == ["https://pay.example/go?src=x&ref=zz"]


def test_page_without_a_referral_link_never_clicks():
    users, log = _always_clicking_users()
    # Every href= attribute contains "ref=", so this page passes the
    # substring guard and reaches the lookup, twice.
    body = _page("/a", "https://x.example/?q=1", "https://x.example/?pref=1")
    assert _parsed_referral_href(body) is None
    users._maybe_click_through(body, "shop.victim.com", T0)
    users._maybe_click_through(body, "shop.victim.com", T1)
    assert log.clicks == []


def _tiny_run_clicks(monkeypatch, clear_memo):
    """A tiny run's clicks, ledger and users RNG state."""
    clicks = []
    original_click = MonetizationEcosystem.handle_click
    original_visit = UserPopulation._maybe_click_through

    def recording_click(self, url, at, source_fqdn=""):
        clicks.append((url, at, source_fqdn))
        return original_click(self, url, at, source_fqdn=source_fqdn)

    def visit(self, body, fqdn, at):
        if clear_memo:
            self._referral_hrefs.clear()
        return original_visit(self, body, fqdn, at)

    with monkeypatch.context() as patch:
        patch.setattr(MonetizationEcosystem, "handle_click", recording_click)
        patch.setattr(UserPopulation, "_maybe_click_through", visit)
        result = run_scenario(ScenarioConfig.tiny())
    return clicks, result.monetization.ledger.events(), result.users._rng.getstate()


def test_referral_memo_leaves_a_tiny_runs_ledger_unchanged(monkeypatch):
    memo_clicks, memo_ledger, memo_rng = _tiny_run_clicks(monkeypatch, clear_memo=False)
    fresh_clicks, fresh_ledger, fresh_rng = _tiny_run_clicks(monkeypatch, clear_memo=True)
    assert memo_clicks, "no click in the run: the check is vacuous"
    assert memo_clicks == fresh_clicks
    assert memo_ledger == fresh_ledger
    assert memo_rng == fresh_rng
