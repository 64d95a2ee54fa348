"""The tests' mpmath oracle of psi_s(y) = c_s y^s K_s(y), c_s = 2^(1-s) /
Gamma(s), independent of fracext."""

import mpmath


def profile_mp(s, y, k=None):
    """c_s y^s k at the caller's precision, k = K_s(y) unless given."""
    s, y = mpmath.mpf(s), mpmath.mpf(y)
    k = mpmath.besselk(s, y) if k is None else k
    return 2 ** (1 - s) / mpmath.gamma(s) * y ** s * k
