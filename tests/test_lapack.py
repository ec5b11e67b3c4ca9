"""graff._lapack against the public numpy.linalg functions it stands in for."""

import warnings

import numpy as np
import pytest

from graff import _lapack

RNG = np.random.default_rng(20260811)
# (n+1) x 1 frames (k = 0), (n+1) x n frames (k = n - 1), a wide frame, and stacks of both.
MATRICES = [
    RNG.standard_normal((4, 1)),
    RNG.standard_normal((6, 5)),
    RNG.standard_normal((129, 33)),
    RNG.standard_normal((7, 13, 1)),
    RNG.standard_normal((7, 13, 12)),
]
IDS = ["k=0", "k=n-1", "129x33", "stack-k=0", "stack-k=n-1"]


def assert_same_bits(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("M", MATRICES, ids=IDS)
def test_qr_matches_numpy_bit_for_bit(M):
    Q, R = np.linalg.qr(M)
    assert_same_bits(_lapack.qr(M), (Q, R.diagonal(0, -2, -1)))


@pytest.mark.parametrize("M", MATRICES, ids=IDS)
def test_qr_in_place_gives_the_q_of_qr_and_overwrites_its_argument(M):
    a = M.copy()
    with _lapack.errstate(_lapack.QR_FAILED):
        Q = _lapack.qr_in_place(a)
    assert_same_bits([Q], [np.linalg.qr(M)[0]])
    assert a.tobytes() != M.tobytes()


def _awkward(shape):
    """Matrices whose QR meets nan, inf, overflow-sized, subnormal and zero entries."""
    G = RNG.standard_normal(shape)
    signed_inf = G.copy()
    signed_inf[..., 0, 0], signed_inf[..., -1, -1] = np.inf, -np.inf
    return {"nan": np.full(shape, np.nan), "inf": signed_inf, "1e300": 1e300 * G,
            "subnormal": 1e-310 * G, "zero": np.zeros(shape)}


AWKWARD = [(name, M) for shape in [(6, 3), (4, 1), (5, 4, 3)]
           for name, M in _awkward(shape).items()]


@pytest.mark.parametrize("strict", [True, False], ids=["errstate-raise", "warnings-as-errors"])
@pytest.mark.parametrize("name, M", AWKWARD,
                         ids=[f"{name}-{'x'.join(map(str, M.shape))}" for name, M in AWKWARD])
def test_qr_needs_no_errstate(name, M, strict):
    # qr enters no errstate: numpy's QR gufuncs leave the floating-point status clear on any
    # data, so neither a caller's errstate that raises nor one that warns (an error here) fires.
    Q, R = np.linalg.qr(M)
    expected = (Q, R.diagonal(0, -2, -1))
    with warnings.catch_warnings(), np.errstate(all="raise" if strict else "warn"):
        warnings.simplefilter("error")
        ours = _lapack.qr(M)
        a = M.copy()
        bare = _lapack.qr_in_place(a), a.diagonal(0, -2, -1)
    assert_same_bits(ours, expected)
    assert_same_bits(bare, expected)


def test_the_qr_errstate_turns_an_invalid_operation_into_linalgerror():
    with _lapack.errstate(_lapack.QR_FAILED), pytest.raises(np.linalg.LinAlgError) as info:
        np.sqrt(np.array([-1.0]))
    assert str(info.value) == "Incorrect argument found while performing QR factorization"


@pytest.mark.parametrize("M", MATRICES, ids=IDS)
def test_svd_matches_numpy_bit_for_bit(M):
    assert_same_bits(_lapack.svdvals(M), [np.linalg.svd(M, compute_uv=False)])
    flipped = np.swapaxes(M, -1, -2)  # several shapes in one call, one array each
    assert_same_bits(_lapack.svdvals(M, flipped),
                     [np.linalg.svd(A, compute_uv=False) for A in (M, flipped)])
    assert_same_bits(_lapack.svd(M), np.linalg.svd(M))


@pytest.mark.parametrize("shape", [(1, 1), (5, 4), (33, 2), (7, 12, 3)])
def test_solve_matches_numpy_bit_for_bit(shape):
    A = RNG.standard_normal(shape[:-1] + shape[-2:-1])
    B = RNG.standard_normal(shape)
    assert_same_bits([_lapack.solve(A, B)], [np.linalg.solve(A, B)])
    assert_same_bits([_lapack.solve(A.T if A.ndim == 2 else A, B)],
                     [np.linalg.solve(A.T if A.ndim == 2 else A, B)])


@pytest.mark.parametrize("M", MATRICES, ids=IDS)
def test_the_callers_array_is_unchanged(M):
    original = M.copy()
    _lapack.qr(M)
    _lapack.svdvals(M)
    _lapack.svd(M)
    k = M.shape[-1]
    _lapack.solve(M[..., :k, :], M[..., -k:, :])  # views into M on both sides
    _lapack.solve(np.swapaxes(M[..., :k, :], -1, -2), M[..., -k:, :])
    assert M.tobytes() == original.tobytes()


def test_a_singular_solve_raises_linalgerror_as_numpy_does():
    A, B = np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        np.linalg.solve(A, B)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _lapack.solve(A, B)
    with np.errstate(all="raise"), pytest.raises(np.linalg.LinAlgError):
        _lapack.solve(A, B)  # numpy's errstate inside, not the caller's


def test_non_finite_input_raises_linalgerror_as_numpy_does():
    M = np.full((4, 2), np.nan)
    for ours, theirs in ((_lapack.svdvals, lambda M: np.linalg.svd(M, compute_uv=False)),
                         (_lapack.svd, np.linalg.svd)):
        with pytest.raises(np.linalg.LinAlgError) as public:
            theirs(M)
        with pytest.raises(np.linalg.LinAlgError) as private:
            ours(M)
        assert str(private.value) == str(public.value)


def test_tiny_entries_under_a_strict_caller_errstate():
    tiny = 1e-300 * RNG.standard_normal((6, 3))
    square = 1e-300 * RNG.standard_normal((3, 3)) + 1e-300 * np.eye(3)
    with np.errstate(all="raise"):
        Q, R = np.linalg.qr(tiny)
        assert_same_bits(_lapack.qr(tiny), (Q, R.diagonal()))
        assert_same_bits(_lapack.svdvals(tiny), [np.linalg.svd(tiny, compute_uv=False)])
        assert_same_bits(_lapack.svd(tiny), np.linalg.svd(tiny))
        assert_same_bits([_lapack.solve(square, tiny[:3])], [np.linalg.solve(square, tiny[:3])])
