"""Tests for the referral-traffic monetization ecosystem (Section 5.3)."""

import random
from datetime import datetime

import pytest

from repro.attacker.monetization import (
    GamblingSiteOperator,
    MonetizationEcosystem,
    MonetizationLedger,
    parse_referral,
)

T0 = datetime(2020, 6, 1)


def test_parse_referral():
    assert parse_referral("https://x.bet/play?ref=ref1000") == ("https://x.bet/play", "ref1000")
    assert parse_referral("https://x.bet/p?a=1&ref=r2") == ("https://x.bet/p?a=1", "r2")
    assert parse_referral("https://x.bet/play") is None
    assert parse_referral("https://x.bet/play?ref=") is None


def test_ledger_payouts_and_counts():
    ledger = MonetizationLedger()
    ledger.record("refA", "view", T0, "a.victim.com")
    ledger.record("refA", "signup", T0, "a.victim.com")
    ledger.record("refB", "view", T0, "b.victim.com")
    assert dict(ledger.payouts())["refA"] == pytest.approx(5.002)
    assert ledger.payouts()[0][0] == "refA"
    assert ledger.event_counts() == {"view": 2, "signup": 1}
    assert ledger.event_counts("refB") == {"view": 1}
    assert ledger.top_referring_domains()[0] == ("a.victim.com", 2)


def test_ledger_rejects_unknown_kind():
    with pytest.raises(ValueError):
        MonetizationLedger().record("r", "bribery", T0)


def test_operator_conversion_funnel():
    ledger = MonetizationLedger()
    operator = GamblingSiteOperator(ledger, random.Random(5), signup_rate=0.5,
                                    deposit_rate=0.5)
    for _ in range(400):
        operator.receive_visit("refX", T0)
    counts = ledger.event_counts("refX")
    # Strict funnel: every visit pays a view; signups a fraction of
    # views; deposits a fraction of signups.
    assert counts["view"] == 400
    assert 0 < counts["signup"] < counts["view"]
    assert 0 < counts["deposit"] < counts["signup"]


def test_ecosystem_routes_by_base_url():
    ecosystem = MonetizationEcosystem(random.Random(6))
    assert ecosystem.handle_click("https://a.bet/p?ref=r1", T0, "x.com")
    assert ecosystem.handle_click("https://b.win/p?ref=r2", T0, "y.com")
    assert not ecosystem.handle_click("https://plain.example/", T0)
    assert ecosystem.operator_count == 2
    assert len(ecosystem.ledger) >= 2


def test_scenario_generates_revenue(tiny_result):
    """Users clicking through hijacked pages produce referral income."""
    ledger = tiny_result.monetization.ledger
    assert len(ledger) > 0
    payouts = ledger.payouts()
    assert payouts[0][1] > 0
    # Referral codes match the attacker groups' codes.
    group_codes = {g.referral_code for g in tiny_result.groups if g.referral_code}
    assert {code for code, _ in payouts} <= group_codes
    # The traffic sources are hijacked domains.
    sources = {fqdn for fqdn, _ in ledger.top_referring_domains(100)}
    assert sources <= set(tiny_result.ground_truth.hijacked_fqdns())
