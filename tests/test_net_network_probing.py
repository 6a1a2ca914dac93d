"""Tests for the routing table and transport probing."""

import pytest

from repro.net.network import Network
from repro.net.probing import LIU_2016_PORTS, icmp_ping, tcp_probe_any
from repro.web.server import VirtualHostServer


def test_bind_and_host_at():
    network = Network()
    host = VirtualHostServer("Azure")
    network.bind("40.0.0.1", host)
    assert network.host_at("40.0.0.1") is host
    assert len(network) == 1


def test_rebind_rejected_and_unbind():
    network = Network()
    host = VirtualHostServer("Azure")
    network.bind("40.0.0.1", host)
    with pytest.raises(ValueError):
        network.bind("40.0.0.1", host)
    assert network.unbind("40.0.0.1") is host
    with pytest.raises(KeyError):
        network.unbind("40.0.0.1")


def test_icmp_ping_dark_address():
    network = Network()
    result = icmp_ping(network, "1.2.3.4")
    assert not result.responsive
    assert result.method == "icmp"


def test_icmp_respects_host_policy():
    network = Network()
    network.bind("40.0.0.1", VirtualHostServer("Azure", icmp=True))
    network.bind("40.0.0.2", VirtualHostServer("Azure", icmp=False))
    assert icmp_ping(network, "40.0.0.1").responsive
    assert not icmp_ping(network, "40.0.0.2").responsive


def test_tcp_probe_standard_ports_only():
    network = Network()
    network.bind("40.0.0.1", VirtualHostServer("AWS"))
    assert tcp_probe_any(network, "40.0.0.1", (80,)).responsive
    assert tcp_probe_any(network, "40.0.0.1", (443,)).responsive
    assert not tcp_probe_any(network, "40.0.0.1", (22,)).responsive


def test_tcp_probe_any_reports_open_port():
    network = Network()
    network.bind("40.0.0.1", VirtualHostServer("AWS"))
    result = tcp_probe_any(network, "40.0.0.1", LIU_2016_PORTS)
    assert result.responsive
    result_dark = tcp_probe_any(network, "9.9.9.9", LIU_2016_PORTS)
    assert not result_dark.responsive


def test_edge_answers_for_released_resources_too():
    """The Section 2 point: transport probes hit the *server*, so a
    released resource behind a live edge still looks alive."""
    network = Network()
    edge = VirtualHostServer("Azure")
    network.bind("40.0.0.1", edge)
    # No routes at all — every resource released — yet:
    assert icmp_ping(network, "40.0.0.1").responsive
    assert tcp_probe_any(network, "40.0.0.1", (443,)).responsive
