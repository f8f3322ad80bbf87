import math
from fractions import Fraction

import mpmath as mp
import pytest

from optquad import _series, characteristic_polynomial

import oracles

QUANTITIES = ["p_m2", "p1_m2", "radicand_factor", "k_num", "p4_m3", "p3_m3", "p2_m3"]

H_GRID = [1.5, 1.0, 0.7, 0.5, 0.25, 0.125, 0.1, 1.0 / 64.0, 1e-2, 1e-3, 1e-5, 1e-8]


@pytest.mark.parametrize("name", QUANTITIES)
@pytest.mark.parametrize("h", H_GRID)
def test_series_matches_high_precision(name, h):
    got = _series.value(name, h)
    ref = oracles.mp_series_reference(name, h)
    assert got == pytest.approx(ref, rel=5e-16, abs=1e-300)


@pytest.mark.parametrize("name", QUANTITIES)
@pytest.mark.parametrize("h", H_GRID)
def test_extended_sum_matches_high_precision(name, h):
    # at 60 digits the printed sum keeps >= 19 after the h^5 cancellation at h = 1e-8
    got = float(_series.value(name, h, dps=60))
    ref = oracles.mp_series_reference(name, h)
    assert got == pytest.approx(ref, rel=5e-16, abs=1e-300)


@pytest.mark.parametrize("name", QUANTITIES)
@pytest.mark.parametrize("h", H_GRID)
def test_extended_sum_keeps_its_digits(name, h):
    # 16 digits leave a float-accurate value even at h = 1e-8, where the
    # printed sum cancels ~40 digits: the extra working digits cover them
    got = float(_series.value(name, h, dps=16))
    ref = oracles.mp_series_reference(name, h)
    assert got == pytest.approx(ref, rel=5e-16, abs=1e-300)


# spacings past the float series' trusted range (h <= 1.5); no grid has them
H_LARGE = [2.0, 3.0, 5.0, 10.0]


@pytest.mark.parametrize("name", QUANTITIES)
@pytest.mark.parametrize("h", H_LARGE)
def test_float_path_refuses_large_spacing(name, h):
    # the series itself takes any h: characteristic_polynomial, the one float64
    # gate, refuses the spacing for the order whose polynomial uses the quantity
    assert isinstance(_series.value(name, h), float)
    m = 3 if name.endswith("_m3") else 2
    with pytest.raises(ValueError, match=rf"h={h} is above the float64 domain .*pass dps="):
        characteristic_polynomial(m, h)


@pytest.mark.parametrize("name", QUANTITIES)
@pytest.mark.parametrize("h", H_LARGE)
def test_extended_sum_at_large_spacing(name, h):
    got = float(_series.value(name, h, dps=60))
    ref = oracles.mp_series_reference(name, h)
    assert got == pytest.approx(ref, rel=5e-16, abs=1e-300)


@pytest.mark.parametrize("name", QUANTITIES)
def test_coefficients_match_fraction_sums(name):
    # each coefficient is the exact rational sum rounded once to float
    want = []
    for k in range(_series._KMAX + 1):
        c = Fraction(0)
        for num, den, a, b in _series._TERMS[name]:
            if k >= a:
                c += Fraction(num, den) * Fraction(b) ** (k - a) / math.factorial(k - a)
        want.append(float(c).hex())
    assert _series._KMAX == 30 and sorted(_series._TERMS) == sorted(QUANTITIES)
    assert [c.hex() for c in _series._coeffs(name)] == want


@pytest.mark.parametrize("h", H_GRID)
def test_signs_and_leading_orders(h):
    # leading behaviour: p ~ -h^3/3, p1 ~ -4h^3/3, radicand ~ h^3/3, k_num ~ -h^3/6
    assert _series.value("p_m2", h) < 0
    assert _series.value("p1_m2", h) < 0
    assert _series.value("radicand_factor", h) > 0
    assert _series.value("k_num", h) < 0
    assert _series.value("p4_m3", h) < 0


def test_small_h_asymptotics():
    h = 1e-6
    assert _series.value("p_m2", h) == pytest.approx(-h**3 / 3, rel=2e-6)
    assert _series.value("p1_m2", h) == pytest.approx(-4 * h**3 / 3, rel=2e-6)
    assert _series.value("radicand_factor", h) == pytest.approx(h**3 / 3, rel=4e-6)
    assert _series.value("k_num", h) == pytest.approx(-h**3 / 6, rel=2e-6)
    assert _series.value("p4_m3", h) == pytest.approx(-h**5 / 60, rel=2e-6)
    assert _series.value("p3_m3", h) == pytest.approx(-13 * h**5 / 30, rel=2e-6)
    assert _series.value("p2_m3", h) == pytest.approx(-11 * h**5 / 10, rel=2e-6)


@pytest.mark.parametrize("q", ["0.3", "-0.43", "-1.141", "2.5"])
@pytest.mark.parametrize("lo", [0, 2, 6])
def test_tail_power_sums_match_polylog(q, lo):
    # sum_{j >= lo} q^j j^s is Li_{-s}(q) = sum_{j >= 1} q^j j^s less its
    # head (with 0^0 = 1 at j = 0); for |q| > 1 both are the continuation
    with mp.workdps(50):
        got = _series.tail_power_sums(mp.mpf(q), lo, 4)
    with mp.workdps(80):
        qq = mp.mpf(q)
        for s, value in enumerate(got):
            head = mp.fsum(qq**j * mp.mpf(j) ** s for j in range(lo))
            want = mp.polylog(-s, qq) + (1 if s == 0 else 0) - head
            assert abs(value - want) <= mp.mpf(10) ** -49 * abs(want), s
