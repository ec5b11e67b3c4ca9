"""QR, SVD and solve through numpy's own LAPACK gufuncs, for small matrices.

On graff's 6 x 3 matrices numpy.linalg's Python wrapper outweighs LAPACK (2-core box, numpy
2.4): ``np.linalg.qr`` takes 18-24 us against 5-7 us for its two gufuncs, ``solve`` 7.6 against
1.9 us.  These call ``numpy.linalg._umath_linalg`` (same bits, same ``LinAlgError``); ``svdvals``,
``svd`` and ``solve`` under its errstate, as an SVD can fail to converge.  ``qr`` (which copies)
and ``qr_in_place`` skip it, 1.7 us of qr's 5.0 on a 6 x 3: geqrf and orgqr fail on no data, and
the gufuncs clear the floating-point status, so it never fired (nan, inf, 1e300, subnormal, 0).
Private numpy API with numpy 2's signatures (1.x split them by shape): graff's floor is numpy 2.0.
"""

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced, solve as _solve, svd as _svd, svd_f

QR_FAILED = "Incorrect argument found while performing QR factorization"


def errstate(message: str) -> np.errstate:  # as a decorator, entered afresh on each call
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


def qr(M):
    """(Q, diagonal of R) of the reduced QR of a matrix or a stack of them; M is kept."""
    return qr_in_place(a := np.array(M, dtype=float)), a.diagonal(0, -2, -1)


def qr_in_place(a):
    """Q of the reduced QR of a fresh float64 array; a is overwritten (R and reflectors)."""
    return qr_reduced(a, qr_r_raw(a, signature="d->d"), signature="dd->d")


@errstate("SVD did not converge")
def svdvals(*matrices):  # one errstate entry for all of them; a list of arrays
    return [_svd(M, signature="d->d") for M in matrices]


@errstate("SVD did not converge")
def svd(M):  # the full SVD
    return svd_f(M, signature="d->ddd")


@errstate("Singular matrix")
def solve(A, B):  # B a matrix, not a vector
    return _solve(A, B, signature="dd->d")
