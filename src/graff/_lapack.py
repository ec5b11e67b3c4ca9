"""QR, SVD and solve through numpy's own LAPACK gufuncs, for small matrices.

On graff's 6 x 3 matrices numpy.linalg's Python wrapper outweighs LAPACK (2-core box, numpy
2.4): ``np.linalg.qr`` takes 18-24 us against 5-7 us for its two gufuncs, ``solve`` 7.6 against
1.9 us.  These helpers call ``numpy.linalg._umath_linalg`` under numpy.linalg's errstate (same
bits, same ``LinAlgError``): ``qr``, ``svdvals``, ``svd`` and ``solve`` enter it on each call
(about 3 us) and keep the caller's array; ``qr_in_place`` overwrites its argument and runs only
inside ``with errstate(QR_FAILED):``.  Those names are private numpy API with the signatures of
numpy 2 (numpy 1.x split them by shape), hence graff's floor of numpy 2.0.
"""

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced, solve as _solve, svd as _svd, svd_f

QR_FAILED = "Incorrect argument found while performing QR factorization"


def errstate(message: str) -> np.errstate:  # as a decorator, entered afresh on each call
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@errstate(QR_FAILED)
def qr(M):
    """(Q, diagonal of R) of the reduced QR of a matrix or a stack of them."""
    a = np.array(M, dtype=float)  # qr_in_place overwrites its argument
    return qr_in_place(a), a.diagonal(0, -2, -1)


def qr_in_place(a):
    """Q of the reduced QR of a fresh float64 array, in place; only inside the chain's errstate."""
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
