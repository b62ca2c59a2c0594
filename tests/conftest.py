from fractions import Fraction

import mpmath as mp
import pytest

from borelsum import PrecisionConfig, working_precision


@pytest.fixture(scope="session")
def prec():
    return PrecisionConfig(256)


@pytest.fixture(scope="session")
def prec320():
    return PrecisionConfig(320)


@pytest.fixture
def workprec(prec):
    with working_precision(prec):
        yield prec


def approx_eq(a, b, tol):
    return abs(mp.mpc(a) - mp.mpc(b)) <= tol


def exact(x: mp.mpf) -> Fraction:
    """The value of an mpf, exactly."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def rounded(q: Fraction) -> mp.mpf:
    """An exact rational rounded once at the ambient precision: mpmath reads both
    ints exactly and divides them once."""
    return mp.fdiv(q.numerator, q.denominator)


def sampled_region_envelope_euler(B="0.1", samples=2000):
    """Growth constant for 1/(1+zeta) on the log-of-disk region, by boundary
    sampling: A = max over the boundary of |1/(1+zeta)| e^(-B |zeta|).

    |1/(1+zeta)| is holomorphic on the region and decays at infinity, so its
    weighted sup is attained on the boundary curve zeta = -ln(1 + e^(i alpha)).
    """
    Bv = mp.mpf(B)
    A = mp.mpf(0)
    for i in range(1, samples):
        alpha = mp.pi * i / (samples // 2)
        s = 1 + mp.exp(1j * alpha)
        if abs(s) < mp.mpf("1e-8"):
            continue
        zeta = -mp.log(s)
        A = max(A, abs(1 / (1 + zeta)) * mp.exp(-Bv * abs(zeta)))
    return A * mp.mpf("1.02"), Bv  # small safety factor for the sampling gap
