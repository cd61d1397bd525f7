import numpy as np
import pytest

from teelab import gfp


def _loop_nullspace(mat, p):
    """Reference: the free-column loop, one basis vector per free column."""
    ncols = mat.shape[1]
    red, pivots = gfp.rref_mod_p(mat, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-red[r, fc]) % p
    return basis


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_nullspace_matches_loop_reference(p):
    rng = np.random.default_rng(p)
    for rows, cols in ((1, 6), (5, 9), (9, 5), (8, 8), (12, 20)):
        mat = rng.integers(0, p, size=(rows, cols))
        mat[-1] = (2 * mat[0]) % p  # force a dependent row
        basis = gfp.nullspace_mod_p(mat, p)
        np.testing.assert_array_equal(basis, _loop_nullspace(mat, p))
        assert not ((mat @ basis.T) % p).any()
        assert len(basis) == cols - gfp.rank_mod_p(mat, p)
