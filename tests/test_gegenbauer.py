import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otlab.gegenbauer import GegenbauerSpec, coefficient_table, endpoint_values, gegenbauer_eval

from oracles import gegenbauer_derivative, gegenbauer_sum_eval, ode_residual


def test_degree_zero_is_one():
    spec = GegenbauerSpec(0, 3)
    for z in [0.0, 1.0, 0.3 + 0.4j, -5.0 + 2.0j]:
        assert gegenbauer_eval(spec, z) == pytest.approx(1.0)


def test_degree_one_order_half_is_identity():
    # C_1^{1/2}(z) = z, from the sum formula
    spec = GegenbauerSpec(1, 3)
    z = 0.3 + 0.4j
    assert complex(gegenbauer_eval(spec, z)) == pytest.approx(0.3 + 0.4j, abs=1e-15)


def test_degree_two_order_half_values():
    # C_2^{1/2}(z) = (3 z^2 - 1) / 2
    spec = GegenbauerSpec(2, 3)
    assert float(gegenbauer_eval(spec, 1.0)) == pytest.approx(1.0, abs=1e-15)
    assert complex(gegenbauer_eval(spec, 1j)) == pytest.approx(-2.0, abs=1e-15)


def test_vectorized_evaluation():
    spec = GegenbauerSpec(3, 4)
    z = np.linspace(-1, 1, 7)
    vals = gegenbauer_eval(spec, z)
    assert vals.shape == z.shape
    for zi, vi in zip(z, vals):
        assert vi == pytest.approx(float(gegenbauer_eval(spec, zi)))


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=20),
    n=st.integers(min_value=3, max_value=6),
    re=st.floats(min_value=-1, max_value=1),
    im=st.floats(min_value=-1, max_value=1),
)
def test_recurrence_matches_sum_formula(m, n, re, im):
    z = complex(re, im)
    if abs(z) > 1.0:
        z /= abs(z)
    spec = GegenbauerSpec(m, n)
    a = complex(gegenbauer_eval(spec, z))
    b = complex(gegenbauer_sum_eval(spec, z))
    assert a == pytest.approx(b, rel=1e-11, abs=1e-11)


def test_derivative_of_degree_one_is_constant():
    spec = GegenbauerSpec(1, 3)
    for z in [0.0, 0.7, -0.2 + 0.9j]:
        assert complex(gegenbauer_derivative(spec, z)) == pytest.approx(1.0)


def test_derivative_degree_two():
    # d/dz (3 z^2 - 1)/2 = 3 z
    spec = GegenbauerSpec(2, 3)
    assert float(gegenbauer_derivative(spec, 0.5)) == pytest.approx(1.5, abs=1e-15)


def test_derivative_of_degree_zero_is_zero():
    spec = GegenbauerSpec(0, 5)
    assert float(gegenbauer_derivative(spec, 0.3)) == 0.0


def test_derivative_against_central_differences():
    rng = np.random.default_rng(7)
    delta = 1e-6
    for _ in range(50):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(3, 7))
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        spec = GegenbauerSpec(m, n)
        fd = (complex(gegenbauer_eval(spec, z + delta)) - complex(gegenbauer_eval(spec, z - delta))) / (
            2 * delta
        )
        exact = complex(gegenbauer_derivative(spec, z))
        assert exact == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_ode_residual_degree_zero_vanishes():
    spec = GegenbauerSpec(0, 4)
    for t in np.linspace(-1, 1, 11):
        assert ode_residual(spec, t).standard == 0.0


def test_ode_residual_degree_one_standard_form():
    # y = t satisfies (1 - t^2) * 0 - 2 t * 1 + 1 * 2 * t = 0 for n = 3
    res = ode_residual(GegenbauerSpec(1, 3), 0.5)
    assert abs(res.standard) <= 1e-12
    # the variant form does not vanish on this family
    assert abs(res.variant) > 1e-3


def test_ode_residual_random_arguments():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(3, 7))
        t = float(rng.uniform(-1, 1))
        res = ode_residual(GegenbauerSpec(m, n), t)
        assert abs(res.standard) <= 1e-9 * max(res.scale, 1.0)


def test_endpoint_values_closed_form():
    assert endpoint_values(GegenbauerSpec(2, 3))[0] == pytest.approx(1.0)
    assert endpoint_values(GegenbauerSpec(3, 4))[0] == pytest.approx(4.0)


def test_endpoint_parity_and_nonvanishing():
    for n in (3, 4, 5, 6):
        for m in range(11):
            plus, minus = endpoint_values(GegenbauerSpec(m, n))
            assert plus != 0.0
            assert minus == pytest.approx((-1) ** m * plus)
            # recurrence agrees with the closed form at the endpoints
            assert float(gegenbauer_eval(GegenbauerSpec(m, n), 1.0)) == pytest.approx(
                plus, rel=1e-12
            )


def test_sup_norm_growth_bound():
    # |C_m(t)| <= const * m^{n-3} on [-1, 1]: the fitted constant stabilizes
    t = np.linspace(-1, 1, 2001)
    for n in (3, 4, 5):
        ratios = []
        for m in range(4, 33):
            sup = np.max(np.abs(gegenbauer_eval(GegenbauerSpec(m, n), t)))
            ratios.append(sup / m ** (n - 3))
        ratios = np.array(ratios)
        assert np.isfinite(ratios).all()
        # monitored bound: the constant does not blow up with the degree
        assert ratios[-5:].max() <= 2.0 * ratios[:5].max() + 1e-9


def test_value_and_derivative_not_simultaneously_tiny():
    t = np.linspace(-1, 1, 10_001)
    for n in (3, 4, 5):
        for m in range(9):
            spec = GegenbauerSpec(m, n)
            c = np.abs(gegenbauer_eval(spec, t))
            dc = np.abs(gegenbauer_derivative(spec, t)) if m else np.zeros_like(t)
            assert np.min(np.maximum(c, dc)) > 1e-12


def test_validation():
    with pytest.raises(ValueError):
        GegenbauerSpec(-1, 3)
    with pytest.raises(ValueError):
        GegenbauerSpec(65, 3)
    with pytest.raises(ValueError):
        GegenbauerSpec(2, 2)
    with pytest.raises(ValueError):
        GegenbauerSpec(2, 17)
    with pytest.raises(ValueError):
        ode_residual(GegenbauerSpec(2, 3), 1.5)


def test_coefficient_table_shape():
    rows = coefficient_table(4, 3)
    # degrees 0..4 contribute 1 + 1 + 2 + 2 + 3 rows
    assert len(rows) == 9
    assert rows[0] == (0, 0, 1.0)
