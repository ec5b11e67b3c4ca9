"""QR, SVD and solve through numpy's own LAPACK gufuncs, for small matrices.

On graff's 6 x 3 matrices numpy.linalg's Python wrapper outweighs LAPACK (2-core
box, numpy 2.4): ``np.linalg.qr`` takes 18-24 us against 5-7 us for its two
gufuncs, ``solve`` 7.6 against 1.9 us.  These helpers call
``numpy.linalg._umath_linalg`` under numpy.linalg's errstate (same bits, same
``LinAlgError``) and never change the caller's array.  Those names are private
numpy API with the signatures of numpy 2 (numpy 1.x split them by shape), hence
graff's floor of numpy 2.0.
"""

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced, solve as _solve, svd as _svd, svd_f


def _errstate(message: str) -> np.errstate:  # as a decorator, entered afresh on each call
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_errstate("Incorrect argument found while performing QR factorization")
def qr(M):
    """(Q, diagonal of R) of the reduced QR of a matrix or a stack of them."""
    a = np.array(M, dtype=float)  # qr_r_raw factors its argument in place
    Q = qr_reduced(a, qr_r_raw(a, signature="d->d"), signature="dd->d")
    return Q, a.diagonal(0, -2, -1)


@_errstate("SVD did not converge")
def svdvals(*matrices):  # one errstate entry for all of them; a list of arrays
    return [_svd(M, signature="d->d") for M in matrices]


@_errstate("SVD did not converge")
def svd(M):  # the full SVD
    return svd_f(M, signature="d->ddd")


@_errstate("Singular matrix")
def solve(A, B):  # B a matrix, not a vector
    return _solve(A, B, signature="dd->d")
