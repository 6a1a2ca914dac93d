"""Tests for CIDR sets and the random-allocation IP pool."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addresses import CidrSet, IPv4Pool, PoolExhaustedError, takeover_attempts_expected


def test_cidrset_membership():
    cidrs = CidrSet(["20.40.0.0/13", "52.0.0.0/11"])
    assert "20.40.1.1" in cidrs
    assert "52.31.255.255" in cidrs
    assert "8.8.8.8" not in cidrs
    assert "not-an-ip" not in cidrs
    assert len(cidrs) == 2


def test_pool_allocates_unique_members():
    pool = IPv4Pool(["10.0.0.0/24"])
    rng = random.Random(1)
    seen = {pool.allocate(rng) for _ in range(50)}
    assert len(seen) == 50
    assert all(ip in pool for ip in seen)
    assert pool.allocated_count == 50


def test_pool_exhaustion():
    pool = IPv4Pool(["10.0.0.0/30"])  # 4 addresses
    rng = random.Random(1)
    for _ in range(4):
        pool.allocate(rng)
    with pytest.raises(PoolExhaustedError):
        pool.allocate(rng)


def test_release_and_reuse():
    pool = IPv4Pool(["10.0.0.0/24"])
    rng = random.Random(2)
    ip = pool.allocate(rng)
    pool.release(ip)
    assert not pool.is_allocated(ip)
    with pytest.raises(ValueError):
        pool.release(ip)


def test_reuse_bias_prefers_recent_releases():
    pool = IPv4Pool(["10.0.0.0/16"], reuse_bias=1.0)
    rng = random.Random(3)
    ip = pool.allocate(rng)
    pool.release(ip)
    assert pool.allocate(rng) == ip


def test_zero_bias_is_a_lottery():
    """With no warm reuse, winning a specific address back is ~1/free."""
    pool = IPv4Pool(["10.0.0.0/16"])
    assert takeover_attempts_expected(pool) == 2**16
    assert takeover_attempts_expected(pool, warm_fraction=0.99) < 2**16 * 0.02


def test_invalid_reuse_bias():
    with pytest.raises(ValueError):
        IPv4Pool(["10.0.0.0/24"], reuse_bias=1.5)


def test_empty_pool_rejected():
    with pytest.raises(ValueError):
        IPv4Pool([])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=30))
def test_pool_invariant_allocated_subset_of_pool(seed, count):
    """Property: every allocated address stays inside the pool and the
    allocated count matches allocations minus releases."""
    pool = IPv4Pool(["172.16.0.0/20"])
    rng = random.Random(seed)
    allocated = []
    for _ in range(count):
        ip = pool.allocate(rng)
        assert ip in pool
        allocated.append(ip)
    releases = allocated[: len(allocated) // 2]
    for ip in releases:
        pool.release(ip)
    assert pool.allocated_count == len(allocated) - len(releases)
