"""The decline point of the shifted-Cholesky rule, restated for the tests.

``feasibility._cholesky_bound`` factors ``M - t I`` and answers only
where that Cholesky succeeds.  This module writes its shift t out again,
from the rule's docstring and not from its code, so the tests that place
a matrix on either side of it check the rule rather than repeat it.
"""

import numpy as np

_EPS = float(np.finfo(float).eps)


def decline_point(m, n, ratio, gram=False):
    """The least eigenvalue of a Hermitian m x m A (``gram=False``), or
    the least singular value of an m x n A (``gram=True``), as a ratio to
    ``|A|_F``, below which the rule declines to certify ``ratio``.

    With ``F = |A|_F``, ``N = F (1 + m n eps)`` and ``a = 8 max(m, n)
    eps``, the shift is ``t = N (1 + a) (ratio + 2 mu)``, ``mu = a + ((m +
    4) sqrt(m) + 1) eps``, for a Hermitian A, and ``t = tau^2 + 2 (m + n +
    4) eps N^2``, ``tau = N (1 + a) (ratio + 2 a)``, for the Gram matrix.
    This returns ``t / F`` or ``sqrt(t) / F``.
    """
    inflate = 1 + m * n * _EPS
    a = 8 * max(m, n) * _EPS
    if gram:
        tau = inflate * (1 + a) * (ratio + 2 * a)
        return float(np.sqrt(tau**2 + 2 * (m + n + 4) * _EPS * inflate**2))
    mu = a + ((m + 4) * np.sqrt(m) + 1) * _EPS
    return float(inflate * (1 + a) * (ratio + 2 * mu))
