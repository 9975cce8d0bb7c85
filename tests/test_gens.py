import numpy as np

from kreinkit import gens


def test_random_j_unitary_is_j_unitary_with_bounded_condition_number():
    # the Cayley transform of X with |X|_F <= 1/2 has cond(U) <= 9; without
    # the bound I - X can be near singular, since J (G - G^T) can have real
    # eigenvalues
    rng = np.random.default_rng(19)
    shapes = [(n, k) for n in range(9) for k in range(n + 1)]
    for case in range(2000):
        n, n_minus = shapes[case % len(shapes)]
        j = gens.random_symmetry(rng, n, n_minus)
        u = gens.random_j_unitary(rng, j, magnitude=(0.7, 3.0)[case % 2])
        if n == 0:
            assert u.shape == (0, 0)
            continue
        assert np.max(np.abs(u.T @ j @ u - j)) <= 1e-13
        assert np.linalg.cond(u) <= 9.0
