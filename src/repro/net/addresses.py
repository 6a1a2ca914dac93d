"""IPv4 address pools and CIDR membership.

Cloud providers publish their address ranges (the paper's Appendix A.1
cites the AWS/Azure/GCP range feeds); Algorithm 1 tests A records
against those ranges.  :class:`CidrSet` provides that membership test.

:class:`IPv4Pool` models a provider's allocatable pool.  Addresses are
handed out *randomly* from the free portion of the pool — this is the
property that makes IP takeover a lottery (Section 4.3): an attacker
wanting one specific released address must allocate repeatedly and hope.
An optional *reuse bias* makes recently released addresses more likely
to be handed out again, which is how prior work ([12], [3]) showed the
lottery can be played effectively.
"""

from __future__ import annotations

import ipaddress
import random
from typing import Iterable, List, Sequence, Set, Tuple


class PoolExhaustedError(RuntimeError):
    """Raised when an allocation is requested from a fully used pool."""


class CidrSet:
    """An immutable set of CIDR blocks with fast membership testing."""

    def __init__(self, cidrs: Iterable[str]):
        self._networks = tuple(
            ipaddress.ip_network(cidr, strict=False) for cidr in cidrs
        )

    @property
    def cidrs(self) -> Tuple[str, ...]:
        """The blocks as strings, in the order supplied."""
        return tuple(str(network) for network in self._networks)

    def __contains__(self, ip: str) -> bool:
        try:
            address = ipaddress.ip_address(ip)
        except ValueError:
            return False
        return any(address in network for network in self._networks)

    def __len__(self) -> int:
        return len(self._networks)


class IPv4Pool:
    """A provider's allocatable IPv4 pool with random assignment.

    Parameters
    ----------
    cidrs:
        The blocks making up the pool.
    reuse_bias:
        Probability that an allocation is served from the most recently
        released addresses instead of uniformly from the whole free
        space.  ``0.0`` is a pure lottery; higher values model
        providers that favour warm reuse.
    """

    def __init__(self, cidrs: Sequence[str], reuse_bias: float = 0.0):
        if not 0.0 <= reuse_bias <= 1.0:
            raise ValueError(f"reuse_bias must be in [0, 1], got {reuse_bias}")
        self._networks = [ipaddress.ip_network(c, strict=False) for c in cidrs]
        if not self._networks:
            raise ValueError("pool requires at least one CIDR block")
        self._spans: List[Tuple[int, int]] = []  # (first_int, size)
        for network in self._networks:
            self._spans.append((int(network.network_address), network.num_addresses))
        self._total = sum(size for _, size in self._spans)
        self._allocated: Set[str] = set()
        self._recently_released: List[str] = []
        self.reuse_bias = reuse_bias

    # -- introspection ----------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of addresses in the pool."""
        return self._total

    @property
    def allocated_count(self) -> int:
        """Number of currently allocated addresses."""
        return len(self._allocated)

    def is_allocated(self, ip: str) -> bool:
        """Whether ``ip`` is currently handed out."""
        return ip in self._allocated

    def __contains__(self, ip: str) -> bool:
        try:
            address = ipaddress.ip_address(ip)
        except ValueError:
            return False
        return any(address in network for network in self._networks)

    # -- allocation --------------------------------------------------------

    def allocate(self, rng: random.Random) -> str:
        """Allocate a random free address.

        With probability :attr:`reuse_bias` the address is drawn from
        the recently released list (newest first), otherwise uniformly
        from the whole pool by rejection sampling.
        """
        if self.allocated_count >= self._total:
            raise PoolExhaustedError(f"all {self._total} addresses allocated")
        if self._recently_released and rng.random() < self.reuse_bias:
            ip = self._recently_released.pop()
            if ip not in self._allocated:
                self._allocated.add(ip)
                return ip
        # Rejection sampling: the pools are huge relative to the number
        # of allocations in any simulation, so this terminates quickly.
        while True:
            ip = self._random_address(rng)
            if ip not in self._allocated:
                self._allocated.add(ip)
                return ip

    def release(self, ip: str) -> None:
        """Return an address to the free space."""
        if ip not in self._allocated:
            raise ValueError(f"{ip} is not allocated")
        self._allocated.discard(ip)
        self._recently_released.append(ip)
        # Bound the warm list so it reflects only *recent* churn.
        if len(self._recently_released) > 1024:
            del self._recently_released[: len(self._recently_released) - 1024]

    def _random_address(self, rng: random.Random) -> str:
        offset = rng.randrange(self._total)
        for first, size in self._spans:
            if offset < size:
                return str(ipaddress.ip_address(first + offset))
            offset -= size
        raise AssertionError("offset exceeded pool size")  # pragma: no cover


def takeover_attempts_expected(pool: IPv4Pool, warm_fraction: float = 0.0) -> float:
    """Expected allocations needed to win one specific released address.

    Quantifies the "lottery" of Section 4.3: with a free space of ``F``
    addresses and uniform assignment, the expected number of
    allocate/release rounds to hit one target address is ``F`` (geometric
    distribution).  ``warm_fraction`` discounts that when the provider
    reuses recent releases (prior work's strategy).
    """
    free = pool.size - pool.allocated_count
    if free <= 0:
        return float("inf")
    effective = max(1.0, free * (1.0 - warm_fraction))
    return effective
