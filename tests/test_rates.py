import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import resomem as rm
from resomem.errors import DomainError


def test_reference_k_values():
    assert rm.k_from_rates(2e5, 1.2e8, 10.0) == pytest.approx(0.03, rel=1e-9)
    # commonly quoted rounded to 3.8
    assert rm.k_from_rates(4e3, 3e6, 20.0) == pytest.approx(3.75, rel=1e-9)


def test_heralding_probability():
    assert rm.heralding_probability(4e3, 3e6) == pytest.approx(1.33e-3, rel=3e-3)
    assert rm.heralding_probability(0.0, 1e6) == 0.0
    with pytest.raises(DomainError):
        rm.heralding_probability(2e6, 1e6)


@pytest.mark.parametrize("r0, delta, r_bs", [(1e-200, 1.0, 1.0), (1e200, 1e300, 1.0), (1.0, 1e300, 1e300)])
def test_k_from_rates_outside_float_range(r0, delta, r_bs):
    # r0**2 underflows to 0, r0**2 overflows, and k itself overflows
    with pytest.raises(DomainError, match="float range"):
        rm.k_from_rates(r0, delta, r_bs)


def test_rate_and_k_are_inverse():
    r0, delta, k = 2e5, 1.2e8, 0.03
    assert rm.k_from_rates(r0, delta, rm.interference_rate(r0, delta, k)) == pytest.approx(k, rel=1e-12)
    assert rm.interference_rate(r0, delta, 0.0) == 0.0


def test_interference_rate_float_range():
    # r0**2 underflows, but k_match r0^2 / delta = 1e-100 is a float
    assert rm.interference_rate(1e-200, 1.0, 1e300) == pytest.approx(1e-100, rel=1e-12)
    # r0**2 overflows, and so does the rate itself
    with pytest.raises(DomainError, match="float range"):
        rm.interference_rate(1e200, 1.0, 1.0)


def test_success_probability_basics():
    assert rm.success_probability(1, 1.0, 0.25) == pytest.approx(1 - np.exp(-0.25), rel=1e-12)
    assert rm.success_probability(5, 2.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        rm.success_probability(0, 1.0, 0.25)


def test_poisson_tail_identity():
    for k, p1, n in [(0.03, 0.25, 5), (3.8, 0.25, 20), (10.0, 0.1, 7)]:
        mu = k * p1
        head = poisson.cdf(n - 1, mu)
        assert rm.success_probability(n, k, p1) * max(k, 1.0) + head == pytest.approx(1.0, abs=1e-12)


def test_four_orders_of_magnitude_gap():
    lo = rm.success_probability(20, 0.03, 0.25)
    hi = rm.success_probability(20, 3.8, 0.25)
    assert hi / lo > 1e4
    # log-domain evaluation reaches far below float-sum underflow
    assert 0 < lo < 1e-40
    assert 1e-21 < hi < 1e-19


@given(
    k=st.floats(0.01, 100.0),
    p1=st.floats(0.001, 1.0),
    n=st.integers(1, 30),
)
@settings(max_examples=60, deadline=None)
def test_monotonicity(k, p1, n):
    pn = rm.success_probability(n, k, p1)
    assert 0 <= pn <= 1
    assert rm.success_probability(n + 1, k, p1) <= pn + 1e-15
    assert rm.success_probability(n, k * 1.5, p1) * max(k * 1.5, 1) >= pn * max(k, 1) - 1e-15
