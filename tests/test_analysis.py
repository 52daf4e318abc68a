"""Tests for Theorem 5.1 bound computation."""

import pytest

from repro.analysis.bounds import TheoremBounds, bounds_for, ring_hop_ms
from repro.core.config import ProtocolConfig
from repro.net.link import WIRED, WIRELESS, LinkSpec


def test_ring_hop_worst_case():
    assert ring_hop_ms(LinkSpec(latency=2.0, jitter=0.5)) == 2.5


def test_bounds_scale_with_ring_size():
    cfg = ProtocolConfig()
    b4 = bounds_for(cfg, ring_size=4, n_sources=1, rate_per_sec=10,
                    wired=WIRED, wireless=WIRELESS)
    b8 = bounds_for(cfg, ring_size=8, n_sources=1, rate_per_sec=10,
                    wired=WIRED, wireless=WIRELESS)
    assert b8.t_order == 2 * b4.t_order
    assert b8.t_transmit == 2 * b4.t_transmit
    assert b8.latency_bound_ms > b4.latency_bound_ms


def test_latency_bound_formula():
    b = TheoremBounds(t_order=10.0, t_transmit=8.0, t_deliver=5.0, tau=2.0,
                      rate_per_ms=0.1)
    assert b.latency_bound_ms == 10.0 + 2.0 + 5.0
    assert b.ordering_bound_ms == 12.0


def test_buffer_bounds_formulas():
    b = TheoremBounds(t_order=10.0, t_transmit=20.0, t_deliver=5.0, tau=5.0,
                      rate_per_ms=0.2)
    # WQ: s*λ*(max(To,Tt)+τ) = 0.2 * 25
    assert b.wq_bound_msgs == pytest.approx(5.0)
    # MQ: s*λ*To = 0.2 * 10
    assert b.mq_bound_msgs == pytest.approx(2.0)


def test_throughput_is_s_lambda():
    cfg = ProtocolConfig()
    b = bounds_for(cfg, ring_size=4, n_sources=3, rate_per_sec=20,
                   wired=WIRED, wireless=WIRELESS)
    assert b.throughput_msgs_per_sec == pytest.approx(60.0)


def test_bounds_grow_with_sources_and_rate():
    cfg = ProtocolConfig()
    b1 = bounds_for(cfg, 4, 1, 10, WIRED, WIRELESS)
    b2 = bounds_for(cfg, 4, 2, 10, WIRED, WIRELESS)
    b3 = bounds_for(cfg, 4, 1, 20, WIRED, WIRELESS)
    assert b2.wq_bound_msgs == pytest.approx(2 * b1.wq_bound_msgs)
    assert b3.wq_bound_msgs == pytest.approx(2 * b1.wq_bound_msgs)
    # Latency bound does not depend on rate.
    assert b1.latency_bound_ms == b2.latency_bound_ms == b3.latency_bound_ms


def test_tau_increases_latency_and_wq_bounds_only():
    b_small = bounds_for(ProtocolConfig(tau=1.0), 4, 1, 10, WIRED, WIRELESS)
    b_large = bounds_for(ProtocolConfig(tau=20.0), 4, 1, 10, WIRED, WIRELESS)
    assert b_large.latency_bound_ms - b_small.latency_bound_ms == pytest.approx(19.0)
    assert b_large.mq_bound_msgs == b_small.mq_bound_msgs


def test_invalid_ring_size():
    with pytest.raises(ValueError):
        bounds_for(ProtocolConfig(), 0, 1, 10, WIRED, WIRELESS)
