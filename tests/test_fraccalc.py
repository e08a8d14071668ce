import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import betainc, gamma

from fracfilt.fraccalc import (
    GridFunction,
    fractional_integral,
    riemann_liouville_derivative,
    trapezoid_node_weights,
    trapezoid_weights,
)

STEP = 1e-3
T = STEP * np.arange(1001)


def J(values, beta, step=STEP):
    return fractional_integral(GridFunction(step=step, values=values), beta).values


def test_constant_is_exact_at_every_node():
    # the piecewise-linear rule is exact on constants: J^b 1 = t^b / Gamma(1+b)
    for beta in (0.2, 0.5, 0.8, 1.0):
        out = J(np.ones_like(T), beta)
        assert np.max(np.abs(out - T ** beta / gamma(1.0 + beta))) < 1e-12


def test_beta_one_is_plain_integration():
    out = J(T.copy(), 1.0)
    assert out[-1] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 700])
def test_node_weights_give_the_integral_at_t_n(n):
    # sum_j w_j f_j is the convolution fractional_integral evaluates by FFT
    beta = 0.4
    f = np.cos(3.0 * T)
    P, Q = trapezoid_weights(beta, len(T) - 1, STEP)
    w = trapezoid_node_weights(P, Q, n)
    assert w.shape == (n + 1,)
    assert w @ f[: n + 1] / gamma(beta) == pytest.approx(J(f, beta)[n], rel=1e-12, abs=1e-15)


def test_singular_power_with_analytic_endpoint():
    # J^(1/2) t^(-1/2) = Gamma(1/2), constant in t; the first few kernel
    # subintervals are corrected analytically via the incomplete beta function
    beta = 0.5
    vals = np.zeros_like(T)
    vals[1:] = T[1:] ** (-beta)
    raw = J(vals, beta)
    P, Q = trapezoid_weights(beta, len(T) - 1, STEP)
    K = 4
    for n in (250, 1000):
        tn = T[n]
        exact_head = betainc(1.0 - beta, beta, K * STEP / tn) * beta_fn(1.0 - beta, beta)
        linear_head = sum(vals[j] * Q[n - j - 1] + vals[j + 1] * P[n - j - 1] for j in range(K))
        fixed = raw[n] + (exact_head - linear_head) / gamma(beta)
        assert fixed == pytest.approx(gamma(0.5), abs=1e-3)


def test_power_function_derivative():
    # RL derivative of order 1-b maps t^(1-b) to the constant Gamma(2-b)
    beta = 0.5
    f = GridFunction(step=STEP, values=T ** (1.0 - beta))
    d = riemann_liouville_derivative(f, beta).values
    assert np.max(np.abs(d[100:] - gamma(2.0 - beta))) < 1e-2


def test_derivative_near_identity_for_beta_near_one():
    f = GridFunction(step=STEP, values=np.sin(T))
    d = riemann_liouville_derivative(f, 0.999).values
    assert np.max(np.abs(d[:-1] - np.sin(T[:-1]))) < 1e-2


def test_linearity_machine_precision():
    f = np.sin(3.0 * T)
    g = np.exp(-T) * T
    a, b = 2.5, -1.25
    lhs = riemann_liouville_derivative(GridFunction(STEP, a * f + b * g), 0.4).values
    rhs = a * riemann_liouville_derivative(GridFunction(STEP, f), 0.4).values \
        + b * riemann_liouville_derivative(GridFunction(STEP, g), 0.4).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_semigroup_property():
    f = np.exp(-T) * T ** 2
    two_step = J(J(f, 0.3), 0.45)
    one_step = J(f, 0.75)
    scale = np.max(np.abs(one_step))
    assert np.max(np.abs(two_step - one_step)) / scale < 1e-3


def test_derivative_inverts_integral():
    for beta in (0.3, 0.6):
        f = np.sin(2.0 * T) * T
        Jf = fractional_integral(GridFunction(STEP, f), 1.0 - beta)
        d = riemann_liouville_derivative(Jf, beta).values
        assert np.max(np.abs(d - f)) / np.max(np.abs(f)) < 1e-2


def test_weights_nonnegative():
    P, Q = trapezoid_weights(0.5, 500, STEP)
    assert np.all(P >= 0.0)
    assert np.all(Q >= 0.0)


def test_domain_validation():
    f = GridFunction(step=STEP, values=np.ones(11))
    with pytest.raises(ValueError):
        fractional_integral(f, 0.0)
    with pytest.raises(ValueError):
        fractional_integral(f, 1.5)
    with pytest.raises(ValueError):
        riemann_liouville_derivative(f, 1.0)
    with pytest.raises(ValueError):
        GridFunction(step=0.0, values=np.ones(4))
    with pytest.raises(ValueError):
        GridFunction(step=0.1, values=np.array([1.0, np.nan]))


def test_integral_starts_at_zero():
    out = J(np.cos(T), 0.7)
    assert out[0] == 0.0
