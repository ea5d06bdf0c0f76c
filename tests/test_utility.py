import random

import pytest

from netalloc.utility import INF, UtilitySpec, shared_level

ALL_FAMILIES = [
    UtilitySpec.linear(),
    UtilitySpec.sqrt(),
    UtilitySpec.log1p(),
    UtilitySpec.power(0.3),
    UtilitySpec.power(0.8),
    UtilitySpec.power(1.0),
    UtilitySpec.capped_quadratic(1.0),
    UtilitySpec.capped_quadratic(2.5),
]


def test_value_examples():
    assert UtilitySpec.sqrt().value(4.0) == 2.0
    assert UtilitySpec.capped_quadratic(1.0).value(0.2) == pytest.approx(0.16)
    # past the peak the function is flat at cap^2/4
    assert UtilitySpec.capped_quadratic(1.0).value(0.7) == 0.25
    assert UtilitySpec.linear().value(3.5) == 3.5
    assert UtilitySpec.log1p().value(0.0) == 0.0
    assert UtilitySpec.power(0.5).value(9.0) == pytest.approx(3.0)


def test_marginal_examples():
    assert UtilitySpec.sqrt().marginal(1.0) == 0.5
    assert UtilitySpec.capped_quadratic(1.0).marginal(0.0) == 1.0
    assert UtilitySpec.capped_quadratic(1.0).marginal(0.5) == 0.0
    assert UtilitySpec.capped_quadratic(1.0).marginal(0.9) == 0.0
    assert UtilitySpec.linear().marginal(123.0) == 1.0
    assert UtilitySpec.sqrt().marginal(0.0) == INF
    assert UtilitySpec.power(0.3).marginal(0.0) == INF


def test_inverse_marginal_examples():
    assert UtilitySpec.capped_quadratic(1.0).inverse_marginal(0.5) == 0.25
    assert UtilitySpec.sqrt().inverse_marginal(0.25) == pytest.approx(4.0)
    assert UtilitySpec.linear().inverse_marginal(0.5) == INF
    assert UtilitySpec.linear().inverse_marginal(1.0) == 0.0
    # satiation: zero marginal is reached at cap/2, not at infinity
    assert UtilitySpec.capped_quadratic(1.0).inverse_marginal(0.0) == 0.5
    assert UtilitySpec.sqrt().inverse_marginal(0.0) == INF


def test_negative_arguments_rejected():
    u = UtilitySpec.sqrt()
    with pytest.raises(ValueError):
        u.value(-0.1)
    with pytest.raises(ValueError):
        u.marginal(-1.0)
    with pytest.raises(ValueError):
        u.inverse_marginal(-0.5)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        UtilitySpec.power(0.0)
    with pytest.raises(ValueError):
        UtilitySpec.power(1.5)
    for cap in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite cap > 0"):
            UtilitySpec.capped_quadratic(cap)
    with pytest.raises(ValueError):
        UtilitySpec("nope")
    with pytest.raises(ValueError):
        UtilitySpec("sqrt", a=0.5)


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=str)
def test_monotone_and_midpoint_concave(u):
    rng = random.Random(7)
    for _ in range(200):
        x1 = rng.uniform(0.0, 4.0)
        x2 = x1 + rng.uniform(0.0, 4.0)
        assert u.value(x2) >= u.value(x1) - 1e-12
        mid = 0.5 * (x1 + x2)
        assert u.value(mid) >= 0.5 * (u.value(x1) + u.value(x2)) - 1e-12
        assert u.value(x1) >= 0.0


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=str)
def test_marginal_matches_finite_differences(u):
    # central differences on interior points, skipping the capped family's
    # kink where the two-sided slope is genuinely ambiguous
    rng = random.Random(11)
    h = 1e-6
    checked = 0
    while checked < 100:
        x = rng.uniform(0.05, 3.0)
        if u.family == "capped_quadratic" and abs(x - u.cap / 2.0) < 10 * h:
            continue
        approx = (u.value(x + h) - u.value(x - h)) / (2 * h)
        exact = u.marginal(x)
        assert exact == pytest.approx(approx, rel=1e-6, abs=1e-9)
        checked += 1


STRICTLY_CONCAVE = [
    u for u in ALL_FAMILIES if u.family != "linear" and u.a != 1.0
]


@pytest.mark.parametrize("u", STRICTLY_CONCAVE, ids=str)
def test_inverse_marginal_slope_matches_finite_differences(u):
    rng = random.Random(23)
    top = u.cap / 2.0 * 0.9 if u.family == "capped_quadratic" else 3.0
    for _ in range(100):
        m = u.marginal(rng.uniform(0.05, top))
        h = 1e-6 * m
        approx = (u.inverse_marginal(m + h) - u.inverse_marginal(m - h)) / (2 * h)
        slope = u.inverse_marginal_slope(m, u.inverse_marginal(m))
        assert slope == pytest.approx(approx, rel=1e-5)


def test_inverse_marginal_slope_of_a_subnormal_demand():
    # u''(x) = a (a - 1) x^(a - 2) overflows here; the slope itself is tiny
    p = UtilitySpec.power(0.999)
    x = p.inverse_marginal(2.05)
    assert 0.0 < x < 1e-308
    assert -1.0 < p.inverse_marginal_slope(2.05, x) < 0.0


@pytest.mark.parametrize("u", STRICTLY_CONCAVE, ids=str)
def test_shared_level_inverts_the_summed_demand(u):
    rng = random.Random(29)
    for size in (1, 2, 5):
        weights = [rng.uniform(0.05, 1.0) for _ in range(size)]
        if u.family == "capped_quadratic":
            # pick a level where every member is interior: delta < w * cap
            delta = 0.9 * min(weights) * u.cap
        else:
            delta = rng.uniform(0.05, 0.9) * min(weights)
        total = sum(u.inverse_marginal(delta / w) for w in weights)
        level = shared_level([(w, u) for w in weights], total)
        assert level == pytest.approx(delta, rel=1e-12)
    with pytest.raises(ValueError, match="no interior branch"):
        shared_level([(0.5, UtilitySpec.linear())], 1.0)


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=str)
def test_marginal_nonincreasing(u):
    rng = random.Random(13)
    for _ in range(200):
        x1 = rng.uniform(0.0, 3.0)
        x2 = x1 + rng.uniform(0.0, 3.0)
        assert u.marginal(x2) <= u.marginal(x1) + 1e-12


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=str)
def test_inverse_marginal_round_trip(u):
    # strictly concave region only: inverse(marginal(x)) == x
    rng = random.Random(17)
    for _ in range(100):
        if u.family in ("linear",) or (u.family == "power" and u.a == 1.0):
            return
        if u.family == "capped_quadratic":
            x = rng.uniform(1e-3, u.cap / 2.0 * 0.999)
        else:
            x = rng.uniform(1e-3, 3.0)
        m = u.marginal(x)
        assert abs(u.inverse_marginal(m) - x) <= 1e-9 * max(1.0, x)


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=str)
def test_inverse_marginal_is_smallest_point(u):
    rng = random.Random(19)
    for _ in range(50):
        m = rng.uniform(0.01, 2.0)
        x = u.inverse_marginal(m)
        if x == INF:
            assert u.marginal(4.0 / m) > m  # never reaches the level
            continue
        assert u.marginal(x) <= m + 1e-9
        if x > 0:
            assert u.marginal(x * (1 - 1e-9)) >= m - 1e-6


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=str)
def test_json_round_trip(u):
    assert UtilitySpec.from_json(u.to_json()) == u
