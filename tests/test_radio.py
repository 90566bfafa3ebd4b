import math

import pytest

from v2xcast.params import SPEED_OF_LIGHT
from v2xcast.radio import antenna_gain, mainlobe_gain
from v2xcast.vehicles import VehicleState
from instances import default_config, default_radio
from reference import (ConcurrentSet, DirectionalLink, Point2D, shannon_rate,
                       v2i_slot_rate, v2i_snr, v2v_interference, v2v_rate,
                       v2v_received_power, v2v_sinr)

RADIO = default_radio()


def hand_budget():
    """Independent composition of the stock link budget, factor by factor."""
    lam = SPEED_OF_LIGHT / 28e9
    k = (lam / (4 * math.pi)) ** 2
    gain = 0.9 * (2 * math.pi / math.radians(30)) + 0.1   # 10.9
    noise = 10 ** ((-134 + 10 * math.log10(800) - 30) / 10)
    return k, gain, noise


def test_mainlobe_gain_value():
    phi = math.radians(30.0)
    assert antenna_gain(0.0, phi, 0.1) == pytest.approx(10.9, abs=1e-12)
    assert mainlobe_gain(RADIO) == pytest.approx(10.9, abs=1e-12)


def test_sidelobe_branch_and_boundary():
    phi = math.radians(30.0)
    assert antenna_gain(math.radians(40.0), phi, 0.1) == 0.1
    # Boundary angle is mainlobe (inclusive).
    assert antenna_gain(phi / 2, phi, 0.1) == pytest.approx(10.9, abs=1e-12)
    assert antenna_gain(math.nextafter(phi / 2, 4.0), phi, 0.1) == 0.1


def test_gain_normalization_conserves_power():
    import random
    rng = random.Random(3)
    for _ in range(300):
        phi = rng.uniform(1e-3, 2 * math.pi - 1e-3)
        g = rng.uniform(1e-6, 1 - 1e-6)
        main = antenna_gain(0.0, phi, g)
        assert phi * main + (2 * math.pi - phi) * g == pytest.approx(
            2 * math.pi, abs=1e-12)


def test_v2i_snr_against_hand_budget():
    k, gain, noise = hand_budget()
    expected = k * 1.0 * gain * gain * 100.0 ** -2 / noise
    got = v2i_snr(100.0, RADIO)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(2.712e5, rel=1e-3)       # ~54.3 dB
    assert 10 * math.log10(got) == pytest.approx(54.33, abs=0.01)


def test_v2i_snr_zero_beyond_range_and_power_law():
    assert v2i_snr(200.0001, RADIO) == 0.0
    assert v2i_snr(50.0, RADIO) == pytest.approx(4 * v2i_snr(100.0, RADIO), rel=1e-12)


def test_shannon_rate_at_reference_snr():
    snr = v2i_snr(100.0, RADIO)
    rate = shannon_rate(snr, RADIO)
    assert rate == pytest.approx(800e6 * math.log2(1 + snr), rel=1e-15)
    assert rate == pytest.approx(1.444e10, rel=1e-3)
    assert shannon_rate(0.0, RADIO) == 0.0


def test_slot_rate_modes_agree_midcoverage():
    config = default_config()
    v = VehicleState(id=1, lane=3, entry_slot=0)
    for t in (160_000, 200_000, 250_000, 320_000):
        mid = v2i_slot_rate(v, t, config, mode="midpoint")
        quad = v2i_slot_rate(v, t, config, mode="quadrature")
        assert mid > 0
        assert abs(mid - quad) / mid < 1e-6


def test_slot_rate_zero_out_of_coverage():
    config = default_config()
    v = VehicleState(id=1, lane=3, entry_slot=0)
    assert v2i_slot_rate(v, 10, config, mode="midpoint") == 0.0
    assert v2i_slot_rate(v, 10, config, mode="quadrature") == 0.0


def test_unknown_rate_mode_rejected():
    config = default_config()
    v = VehicleState(id=1, lane=3, entry_slot=0)
    with pytest.raises(ValueError, match="rate mode"):
        v2i_slot_rate(v, 200_000, config, mode="simpson13")


def _link(tx, rx, txp, rxp):
    return DirectionalLink(tx, rx, Point2D(*txp), Point2D(*rxp))


def test_v2v_received_power_hand_budget():
    k, gain, noise = hand_budget()
    link = _link(1, 2, (0.0, 2.0), (20.0, 2.0))
    expected = k * 0.1 * gain * gain * 20.0 ** -2
    assert v2v_received_power(link, RADIO) == pytest.approx(expected, rel=1e-12)
    assert v2v_received_power(link, RADIO) == pytest.approx(2.159e-8, rel=1e-3)
    beyond = _link(1, 2, (0.0, 2.0), (25.0, 2.0))
    assert v2v_received_power(beyond, RADIO) == 0.0


def test_interference_empty_and_out_of_range():
    victim = _link(1, 2, (0.0, 2.0), (10.0, 2.0))
    assert v2v_interference(victim, ConcurrentSet((victim,)), RADIO) == 0.0
    far = _link(3, 4, (100.0, 2.0), (105.0, 2.0))
    cset = ConcurrentSet((victim, far))
    assert v2v_interference(victim, cset, RADIO) == 0.0  # 90 m > 20 m range


def test_interference_parallel_collinear_links():
    # Interferer 10 m behind the victim receiver, all boresights collinear:
    # both gains are mainlobe, contribution rho*k*Pv*G^2*10^-tau.
    k, gain, _ = hand_budget()
    victim = _link(1, 2, (20.0, 2.0), (25.0, 2.0))
    interferer = _link(3, 4, (15.0, 2.0), (19.0, 2.0))
    cset = ConcurrentSet((victim, interferer))
    expected = 1.0 * k * 0.1 * gain * gain * 10.0 ** -2
    assert v2v_interference(victim, cset, RADIO) == pytest.approx(expected, rel=1e-12)


def test_lone_link_sinr_is_power_over_noise():
    link = _link(1, 2, (0.0, 2.0), (10.0, 2.0))
    cset = ConcurrentSet((link,))
    sinr = v2v_sinr(link, cset, RADIO)
    assert sinr == v2v_received_power(link, RADIO) / RADIO.noise_floor_w
    assert sinr == pytest.approx(2.71e6, rel=1e-2)


def test_relay_residual_self_interference():
    # Receiver 2 also forwards to 3: its receive SINR is RSI-limited.
    first = _link(1, 2, (0.0, 2.0), (10.0, 2.0))
    second = _link(2, 3, (10.0, 2.0), (20.0, 2.0))
    cset = ConcurrentSet((first, second))
    assert cset.relays == {2}
    pr = v2v_received_power(first, RADIO)
    expected = pr / (RADIO.noise_floor_w + 1e-8 * 0.1)
    assert v2v_sinr(first, cset, RADIO) == pytest.approx(expected, rel=1e-12)
    assert v2v_sinr(first, cset, RADIO) == pytest.approx(86.4, rel=1e-2)
    # Second hop sees the head transmitter as a collinear interferer 20 m out.
    k, gain, noise = hand_budget()
    itf = k * 0.1 * gain * gain * 20.0 ** -2
    expected2 = v2v_received_power(second, RADIO) / (noise + itf)
    assert v2v_sinr(second, cset, RADIO) == pytest.approx(expected2, rel=1e-9)
    assert v2v_sinr(second, cset, RADIO) == pytest.approx(4.0, rel=1e-2)


def test_zero_si_cancel_reduces_to_plain_case():
    radio0 = default_radio(si_cancel=0.0)
    first = _link(1, 2, (0.0, 2.0), (10.0, 2.0))
    second = _link(2, 3, (10.0, 2.0), (13.0, 6.0))
    cset = ConcurrentSet((first, second))
    with_fd = v2v_sinr(first, cset, radio0)
    lone = v2v_sinr(first, ConcurrentSet((first,)), radio0)
    assert with_fd == lone


def test_sinr_decreasing_in_si_cancel():
    first = _link(1, 2, (0.0, 2.0), (8.0, 2.0))
    second = _link(2, 3, (8.0, 2.0), (14.0, 2.0))
    prev = math.inf
    for exp in (10, 8, 6, 4):
        radio = default_radio(si_cancel=10.0 ** -exp)
        cur = v2v_sinr(first, ConcurrentSet((first, second)), radio)
        assert cur < prev
        prev = cur


def test_snr_strictly_decreasing_in_distance():
    prev = math.inf
    for d in (1.0, 5.0, 25.0, 100.0, 200.0):
        cur = v2i_snr(d, RADIO)
        assert 0 < cur < prev
        prev = cur


def test_adding_interferer_never_raises_rate():
    victim = _link(1, 2, (0.0, 2.0), (10.0, 2.0))
    lone = v2v_rate(victim, ConcurrentSet((victim,)), RADIO)
    interferer = _link(3, 4, (18.0, 6.0), (12.0, 6.0))
    crowded = v2v_rate(victim, ConcurrentSet((victim, interferer)), RADIO)
    assert crowded <= lone
    dead = _link(1, 2, (0.0, 2.0), (30.0, 2.0))
    assert v2v_rate(dead, ConcurrentSet((dead,)), RADIO) == 0.0


def test_rate_reported_even_below_threshold():
    # Feasibility gating is the scheduler's job: a link whose SINR sits
    # under the threshold still reports its Shannon rate.
    first = _link(1, 2, (0.0, 2.0), (10.0, 2.0))
    second = _link(2, 3, (10.0, 2.0), (20.0, 2.0))
    cset = ConcurrentSet((first, second))
    sinr = v2v_sinr(second, cset, RADIO)
    assert sinr < RADIO.sinr_threshold
    assert v2v_rate(second, cset, RADIO) == pytest.approx(
        800e6 * math.log2(1 + sinr))


def test_link_endpoints_must_differ():
    with pytest.raises(ValueError, match="differ"):
        _link(1, 1, (0.0, 2.0), (10.0, 2.0))
