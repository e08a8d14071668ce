"""Discrete Riemann-Liouville operators on uniform time grids.

J^beta is the fractional integral (convolution with t^(beta-1)/Gamma(beta));
the fractional derivative of order 1-beta is d/dt J^beta.  The quadrature is
the product-trapezoidal (L1-type) rule, exact for piecewise-linear data, so
J^beta applied to a constant reproduces t^beta/Gamma(1+beta) at every node up
to roundoff.  Its lag sum is one FFT convolution, _lag_convolution, which
kernel-mode Zakai solves also use for their blocked history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gamma

__all__ = [
    "GridFunction",
    "trapezoid_weights",
    "trapezoid_node_weights",
    "fractional_integral",
    "riemann_liouville_derivative",
]


@dataclass(frozen=True)
class GridFunction:
    """Samples f(k * step), k = 0..M, on a uniform grid."""

    step: float
    values: np.ndarray

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(len(self.values))


def trapezoid_weights(beta: float, n_steps: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel moment arrays (P, Q) of the product-trapezoidal rule, 1-indexed by lag.

    Over the m-th lag subinterval the exact kernel moments are
    A_m = int u^(b-1) du and B_m = (1/step) int u^b du; the piecewise-linear rule
    assigns P_m = m A_m - B_m to the newer sample and Q_m = A_m - P_m to the older:

        Gamma(b) J^b f(t_n) = sum_{j=0}^{n-1} [ f_j Q_{n-j} + f_{j+1} P_{n-j} ].
    """
    m = np.arange(0, n_steps + 1, dtype=float)
    A = (m[1:] ** beta - m[:-1] ** beta) / beta * step ** beta
    B = (m[1:] ** (beta + 1.0) - m[:-1] ** (beta + 1.0)) / (beta + 1.0) * step ** beta
    P = np.arange(1, n_steps + 1, dtype=float) * A - B
    Q = A - P
    return P, Q


def trapezoid_node_weights(P: np.ndarray, Q: np.ndarray, n: int) -> np.ndarray:
    """Node weights w_0..w_n of Gamma(b) J^b f(t_n) = sum_j w_j f_j, from (P, Q).

    (P, Q) come from trapezoid_weights with at least n lags: w_0 = Q_n,
    w_j = Q_{n-j} + P_{n-j+1} for 0 < j < n, and w_n = P_1.
    """
    w = np.empty(n + 1)
    w[0] = Q[n - 1]
    w[1:n] = Q[: n - 1][::-1] + P[1:n][::-1]
    w[n] = P[0]
    return w


def _lag_convolution(c: np.ndarray, x: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
    """out[r - lo] = sum_i c[r - i] x[i] for the rows lo <= r < hi, per column of x.

    These are rows lo..hi-1 of the linear convolution of c with each column of
    the 2-D x.  Each column takes one circular rfft of a fast length at least
    hi and at least the full convolution length minus lo, so no product wraps
    into the kept rows.  Columns go one at a time, so the transient arrays stay
    O(len(c) + len(x)).  An empty x gives zeros.
    """
    c, x = c[:hi], x[:hi]                # later entries reach no kept row
    if len(x) == 0:
        out[:] = 0.0
        return
    L = next_fast_len(max(hi, len(c) + len(x) - 1 - lo), True)
    fc = rfft(c, L)
    for i in range(x.shape[1]):
        spec = rfft(x[:, i], L)
        spec *= fc
        out[:, i] = irfft(spec, L)[lo:hi]


def fractional_integral(f: GridFunction, beta: float) -> GridFunction:
    """(J^beta f)(t_k) for all grid nodes; (J^beta f)(0) = 0.

    beta in (0, 1]; beta = 1 reduces to the plain cumulative trapezoid integral.
    Gamma(beta) J^beta f(t_n) = Q_n f_0 + P_1 f_n + sum_{0<j<n} (Q_{n-j} + P_{n-j+1}) f_j,
    the node weights of trapezoid_node_weights, with the sum one lag convolution.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"fractional integral order must lie in (0, 1], got {beta}")
    vals = np.asarray(f.values, dtype=float)
    M = len(vals) - 1
    out = np.zeros(M + 1)
    if M == 0:
        return GridFunction(step=f.step, values=out)
    P, Q = trapezoid_weights(beta, M, f.step)
    _lag_convolution(Q[:-1] + P[1:], vals[1:M, None], 0, M - 1, out=out[2:, None])
    out[1:] += Q * vals[0] + P[0] * vals[1:]
    out[1:] /= gamma(beta)
    return GridFunction(step=f.step, values=out)


def riemann_liouville_derivative(f: GridFunction, beta: float) -> GridFunction:
    """Riemann-Liouville derivative of order 1-beta: forward difference of J^beta f.

    The last node falls back to a backward difference; everywhere else the
    one-sided forward quotient of the fractional integral is used.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    J = fractional_integral(f, beta).values
    out = np.empty_like(J)
    out[:-1] = np.diff(J) / f.step
    out[-1] = (J[-1] - J[-2]) / f.step
    return GridFunction(step=f.step, values=out)
