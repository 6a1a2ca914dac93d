"""Tests for domain-name utilities, including property-based checks."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.names import (
    InvalidNameError,
    ends_with_any,
    is_subdomain_of,
    normalize_name,
    parent_name,
    public_suffix,
    registered_domain,
    split_name,
    tld_of,
)

LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=10).filter(
    lambda s: not s.startswith("-") and not s.endswith("-")
)
NAME = st.lists(LABEL, min_size=1, max_size=5).map(".".join)


def test_normalize_lowercases_and_strips_dot():
    assert normalize_name("App.Example.COM.") == "app.example.com"


def test_normalize_rejects_empty():
    with pytest.raises(InvalidNameError):
        normalize_name("")
    with pytest.raises(InvalidNameError):
        normalize_name("a..b")


def test_parent_name_chain():
    assert parent_name("a.b.c") == "b.c"
    assert parent_name("b.c") == "c"
    assert parent_name("c") is None


def test_is_subdomain_of():
    assert is_subdomain_of("a.b.example.com", "example.com")
    assert is_subdomain_of("example.com", "example.com")
    assert not is_subdomain_of("badexample.com", "example.com")
    assert not is_subdomain_of("example.com", "a.example.com")


def test_ends_with_any_matches_cloud_suffixes():
    suffixes = ("azurewebsites.net", "amazonaws.com")
    assert ends_with_any("foo.azurewebsites.net", suffixes) == "azurewebsites.net"
    assert ends_with_any("x.s3-website.eu-west-1.amazonaws.com", suffixes) == "amazonaws.com"
    assert ends_with_any("foo.example.com", suffixes) is None


def test_public_suffix_handles_multi_label():
    assert public_suffix("shop.foo.co.uk") == "co.uk"
    assert public_suffix("foo.com") == "com"
    assert public_suffix("x.y.edu.au") == "edu.au"


def test_registered_domain():
    assert registered_domain("a.b.foo.com") == "foo.com"
    assert registered_domain("a.foo.co.uk") == "foo.co.uk"
    assert registered_domain("com") is None
    assert registered_domain("co.uk") is None


def test_tld_of():
    assert tld_of("a.b.foo.de") == "de"


@given(NAME)
def test_normalize_is_idempotent(name):
    once = normalize_name(name)
    assert normalize_name(once) == once


@given(NAME)
def test_split_join_roundtrip(name):
    assert ".".join(split_name(name)) == normalize_name(name)


@given(NAME, LABEL)
def test_child_is_subdomain_of_parent(name, label):
    child = f"{label}.{name}"
    assert is_subdomain_of(child, name)
    assert parent_name(child) == normalize_name(name)


@given(NAME)
def test_registered_domain_is_suffix(name):
    base = registered_domain(name)
    if base is not None:
        assert is_subdomain_of(name, base)
        # The registered domain has exactly one label more than its suffix.
        assert len(split_name(base)) == len(split_name(public_suffix(name))) + 1
