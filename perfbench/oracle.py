"""Exact failure-probability oracle for the affine belief-curve rows.

For an affine limit state g = beta*|a| - a.omega the polar reduction is
exact and its offset is beta, so the failure probability at a frozen shift s
(the squared uncertain radius) is the polar double integral

    F(s) = int_{r0}^{inf} chi_pdf(r; m) * I_x(h, h) dr,
    x = (1 - beta / sqrt(r^2 + s)) / 2,  h = (m + n - 1) / 2,
    r0 = sqrt(max(beta^2 - s, 0)),

where I is the regularized incomplete beta function, the law of the cosine
between a uniform direction in m + n dimensions and the gradient.  F(s)
grows with s when beta > 0, so the envelope ends are F(0) and F(n).  With
n = 0 the integral is Phi(-beta), evaluated in closed form.

The oracle works on relative error, so it stays exact far below the 1e-10
floor of the integrator under test.
"""

import math

import numpy as np
from scipy import integrate, special

# quad's relative tolerance; the n = 0 self-test shows the achieved error
QUAD_RTOL = 1e-11
# self-test tolerances: quadrature against Phi(-beta) for beta in 1..8, and
# against the integrator at beta <= 3, where its rows have F >= 1.7e-5 and
# the integrator's 1e-10 radius truncation stays below 1e-5 relative
PHI_RTOL = 1e-10
INTEGRATOR_RTOL = 2e-5
INTEGRATOR_PAIRS = ((1, 4), (3, 7), (6, 6), (12, 10))


def failure_at_shift(beta, m, n, shift):
    """F(shift) for an affine limit state with reduced offset beta."""
    half = 0.5 * (m + n - 1)
    log_norm = (0.5 * m - 1.0) * math.log(2.0) + special.gammaln(0.5 * m)

    def integrand(r):
        x = 0.5 * (1.0 - beta / math.sqrt(r * r + shift))
        if x <= 0.0:
            return 0.0
        chi = r ** (m - 1) * math.exp(-0.5 * r * r - log_norm)
        return chi * special.betainc(half, half, x)

    r0 = math.sqrt(max(beta * beta - shift, 0.0))
    # the chi density is below exp(-800) forty units past both its mode
    # and the kink radius, far under any value this oracle must resolve
    upper = max(r0, beta, math.sqrt(m)) + 40.0
    value, _ = integrate.quad(integrand, r0, upper, epsabs=0.0,
                              epsrel=QUAD_RTOL, limit=200)
    return value


def failure_envelope(beta, m, n):
    """Exact (F_lo, F_hi) = (F(0), F(n)) of an affine row."""
    if n == 0:
        value = float(special.ndtr(-beta))
        return value, value
    return (failure_at_shift(beta, m, n, 0.0),
            failure_at_shift(beta, m, n, float(n)))


def self_test():
    """Problems found when checking the oracle against known values.

    The quadrature must reproduce Phi(-beta) for n = 0 and beta in 1..8,
    and agree with the package's integrator at beta <= 3 on mixed rows.
    """
    from hybrel import ReducedLSF, reliability_at_shift

    problems = []
    for beta in range(1, 9):
        exact = float(special.ndtr(-beta))
        for m in (2, 5, 12):
            got = failure_at_shift(float(beta), m, 0, 0.0)
            if abs(got / exact - 1.0) > PHI_RTOL:
                problems.append(
                    f"oracle F(0) for m={m}, n=0, beta={beta} is {got!r}; "
                    f"Phi(-beta) is {exact!r}"
                )
    for m, n in INTEGRATOR_PAIRS:
        direction = np.full(m + n, 1.0 / math.sqrt(m + n))
        for beta in (1.0, 2.0, 3.0):
            reduced = ReducedLSF(offset=beta, grad_norm=1.0, m=m, n=n,
                                 direction=direction)
            for shift in (0.0, float(n)):
                got = failure_at_shift(beta, m, n, shift)
                ref = 1.0 - reliability_at_shift(reduced, shift)
                if abs(got / ref - 1.0) > INTEGRATOR_RTOL:
                    problems.append(
                        f"oracle F({shift:g}) for m={m}, n={n}, beta={beta:g} "
                        f"is {got!r}; the integrator gives {ref!r}"
                    )
    return problems
