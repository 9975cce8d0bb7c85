"""Random instance generators for property suites and tests.

Indefinite objects cannot be produced by naive scaling (a small operator is
never a J-contraction when the source symmetry is indefinite), so the
generators work in signed eigenbases, read off the spectra they built or hold:
positive parts are shrunk, negative parts are stretched, and the result is
twisted by random J-unitary Cayley transforms.  Strictness margins keep
every eigenvalue count safely away from the zero threshold.
"""

from __future__ import annotations

import numpy as np

from .spectral import norm2, orthonormal_columns, signed_eigenbases, symmetrize

__all__ = [
    "random_orthogonal",
    "random_symmetric",
    "random_symmetric_with_inertia",
    "random_symmetry",
    "random_psd",
    "random_contraction",
    "random_j_unitary",
    "random_j_contraction_into",
    "random_completable_block",
    "random_noncompletable_block",
    "random_quasicontraction_column",
    "random_solvable_relation",
    "random_selfadjoint_relation",
    "random_ordered_matrix_pair",
]


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return symmetrize(g) * scale


def random_symmetric_with_inertia(
    rng: np.random.Generator,
    n: int,
    n_minus: int,
    n_zero: int = 0,
    spread: tuple[float, float] = (0.4, 2.0),
) -> np.ndarray:
    """Symmetric matrix with the prescribed eigenvalue sign counts.

    Nonzero eigenvalues keep magnitude inside ``spread`` so the counts are
    robust under the relative zero threshold.
    """
    if n_minus + n_zero > n:
        raise ValueError("requested inertia exceeds the dimension")
    lo, hi = spread
    vals = np.concatenate([
        -rng.uniform(lo, hi, size=n_minus),
        np.zeros(n_zero),
        rng.uniform(lo, hi, size=n - n_minus - n_zero),
    ])
    q = random_orthogonal(rng, n)
    return symmetrize(q @ np.diag(vals) @ q.T)


def random_symmetry(rng: np.random.Generator, n: int, n_minus: int) -> np.ndarray:
    """Random symmetry ``J = J^T = J^{-1}`` with ``n_minus`` negative signs."""
    if n_minus > n:
        raise ValueError("negative count exceeds the dimension")
    signs = np.concatenate([-np.ones(n_minus), np.ones(n - n_minus)])
    q = random_orthogonal(rng, n)
    return symmetrize(q @ np.diag(signs) @ q.T)


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None, scale: float = 1.0) -> np.ndarray:
    r = n if rank is None else rank
    g = rng.standard_normal((n, r))
    return symmetrize(g @ g.T) * (scale / max(r, 1))


def random_contraction(rng: np.random.Generator, m: int, n: int, max_norm: float = 0.9) -> np.ndarray:
    g = rng.standard_normal((m, n))
    top = norm2(g)
    if top == 0.0:
        return g
    return g * (max_norm * rng.uniform(0.2, 1.0) / top)


def random_j_unitary(rng: np.random.Generator, j: np.ndarray, magnitude: float = 0.7) -> np.ndarray:
    """J-unitary twist, the Cayley transform ``(I - X)^{-1} (I + X)`` of a J-skew ``X``.

    ``X = J (G - G^T) / 2`` gives ``U^T J U = J`` (Azizov & Iokhvidov, 1989).  ``I - X`` can
    be near singular, so ``X`` is scaled to ``|X|_F <= 1/2``; then ``cond(U) <= 9``.
    """
    n = j.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    g = rng.standard_normal((n, n)) * magnitude / max(n, 1)
    x = 0.5 * j @ (g - g.T)
    x *= 0.5 / max(np.linalg.norm(x), 0.5)
    return np.linalg.solve(np.eye(n) - x, np.eye(n) + x)


def _orthonormal_embed(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    if cols == 0:
        return np.zeros((rows, 0))
    if cols > rows:
        raise ValueError("cannot embed a larger space isometrically")
    g = rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(g)
    return q[:, :cols]


def random_j_contraction_into(
    rng: np.random.Generator,
    j_src: np.ndarray,
    plus_basis: np.ndarray,
    minus_basis: np.ndarray,
    *,
    isometric: bool = False,
    pos_scale: float = 0.8,
    neg_scale: float = 1.25,
    unit_directions: tuple[int, int] = (0, 0),
    twist: bool = True,
) -> np.ndarray:
    """J-contraction from the ``j_src`` space into a signed target subspace.

    The target Krein structure is given by orthonormal bases of its
    positive and negative subspaces (full ambient coordinates).  Positive
    parts of the source are mapped with norm at most ``pos_scale``,
    negative parts with smallest stretch ``neg_scale``; ``unit_directions``
    pins that many singular values to one on each side, creating defect
    kernel directions.  With ``isometric`` the construction is an exact
    J-isometry.  Requires at least as many negative target directions as
    the source has (no J-contraction exists otherwise).
    """
    plus_src, minus_src, zero_src = signed_eigenbases(j_src)
    if zero_src.shape[1]:
        raise ValueError("source symmetry is singular")
    p_s, q_s = plus_src.shape[1], minus_src.shape[1]
    p_t, q_t = plus_basis.shape[1], minus_basis.shape[1]
    if q_t < q_s:
        raise ValueError("target has too few negative directions for a J-contraction")
    n_src = j_src.shape[0]
    n_tgt = plus_basis.shape[0]
    if isometric and p_t < p_s:
        raise ValueError("target has too few positive directions for an isometry")
    if p_s:
        if isometric:
            pos_block = _orthonormal_embed(rng, p_t, p_s)
        elif p_t == 0:
            pos_block = np.zeros((0, p_s))
        else:
            k = min(unit_directions[0], min(p_t, p_s))
            r = min(p_t, p_s)
            sing = np.concatenate([np.ones(k), rng.uniform(0.2, pos_scale, size=r - k)])
            pos_block = (
                _orthonormal_embed(rng, p_t, r) @ np.diag(sing) @ _orthonormal_embed(rng, p_s, r).T
            )
    else:
        pos_block = np.zeros((p_t, 0))
    if q_s:
        k = min(unit_directions[1], q_s)
        if isometric:
            sing = np.ones(q_s)
        else:
            sing = np.concatenate([np.ones(k), rng.uniform(neg_scale, neg_scale + 0.5, size=q_s - k)])
        neg_block = (
            _orthonormal_embed(rng, q_t, q_s) @ np.diag(sing) @ random_orthogonal(rng, q_s).T
        )
    else:
        neg_block = np.zeros((q_t, 0))
    t = np.zeros((n_tgt, n_src))
    if p_s and p_t:
        t += plus_basis @ pos_block @ plus_src.T
    if q_s:
        t += minus_basis @ neg_block @ minus_src.T
    if twist:
        t = t @ random_j_unitary(rng, j_src)
    return t


def random_completable_block(
    rng: np.random.Generator,
    n1: int,
    n2: int,
    n_minus: int,
    n_zero: int = 0,
    coupling_scale: float = 1.0,
):
    """Completable block data: the coupling factors through ``|a11|^{1/2}``."""
    from .completion import IncompleteBlock
    from .spectral import modulus_power

    a11 = random_symmetric_with_inertia(rng, n1, n_minus, min(n_zero, n1 - n_minus))
    r = rng.standard_normal((n1, n2)) * coupling_scale
    a12 = modulus_power(a11, 0.5, floor=norm2(a11)) @ r
    return IncompleteBlock(a11, a12)


def random_noncompletable_block(rng: np.random.Generator, n1: int, n2: int, n_minus: int):
    """Block whose coupling has a unit component against the corner kernel.

    Built from explicit eigendata so the kernel direction is known exactly,
    independent of any classification threshold.
    """
    from .completion import IncompleteBlock

    n_zero = max(1, min(n1 - n_minus, 1 + int(rng.integers(0, 2))))
    vals = np.concatenate([
        -rng.uniform(0.4, 2.0, size=n_minus),
        np.zeros(n_zero),
        rng.uniform(0.4, 2.0, size=n1 - n_minus - n_zero),
    ])
    q = random_orthogonal(rng, n1)
    a11 = symmetrize(q @ np.diag(vals) @ q.T)
    half = symmetrize(q @ np.diag(np.sqrt(np.abs(vals))) @ q.T)
    kernel_direction = q[:, n_minus:n_minus + 1]
    a12 = half @ (rng.standard_normal((n1, n2)) * 0.5)
    return IncompleteBlock(a11, a12 + kernel_direction @ np.ones((1, n2)))


def _head_eigenvalues(
    rng: np.random.Generator,
    n1: int,
    inside: int,
    outside: int,
    exact_unit: int,
) -> np.ndarray:
    """Eigenvalues for the column head, margins away from the unit circle."""
    vals = []
    vals.extend(rng.uniform(-0.8, 0.8, size=inside))
    for _ in range(outside):
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        vals.append(sign * rng.uniform(1.2, 1.8))
    vals.extend([-1.0] * exact_unit)
    assert len(vals) == n1
    return np.array(vals)


def random_quasicontraction_column(
    rng: np.random.Generator,
    n1: int,
    n2: int,
    *,
    unique: bool = False,
    exact_unit: int = 0,
):
    """Solvable symmetric column; ``unique`` forces a J-isometric factor.

    ``I - T11^2`` has the drawn eigenbasis and the eigenvalues ``(1 - mu)(1 + mu)``,
    so its signed bases and square root are read off them.  ``exact_unit`` pins that
    many head eigenvalues to exactly ``-1``; the coupling vanishes there to roundoff,
    which creates multivalued directions after the inverse Cayley transform.
    """
    from .quasicontraction import SymmetricColumn

    if exact_unit > n1:
        raise ValueError("cannot pin more unit eigenvalues than the dimension")
    free = n1 - exact_unit
    if unique:
        if free < n2:
            raise ValueError("not enough interior eigenvalues for a J-isometric factor")
        inside = int(rng.integers(n2, free + 1))
    else:
        inside = int(rng.integers(0, free + 1))
    outside = free - inside
    mu = _head_eigenvalues(rng, n1, inside, outside, exact_unit)
    q = random_orthogonal(rng, n1)
    t11 = symmetrize(q @ np.diag(mu) @ q.T)
    defect = (1.0 - mu) * (1.0 + mu)
    v_t = random_j_contraction_into(
        rng, np.eye(n2), q[:, defect > 0.0], q[:, defect < 0.0], isometric=unique
    )
    v = v_t.T
    d = symmetrize((q * np.sqrt(np.abs(defect))) @ q.T)
    return SymmetricColumn(t11, v @ d)


def random_solvable_relation(
    rng: np.random.Generator,
    n: int,
    *,
    dom_dim: int | None = None,
    mul_dim: int = 0,
    unique: bool = False,
):
    """Symmetric relation admitting minimal-index selfadjoint extensions.

    Built backwards through the Cayley transform from a solvable column;
    ``mul_dim`` pins head eigenvalues at ``-1``, producing a relation with
    that multivalued dimension.
    """
    from .relations import LinearRelation

    d = int(rng.integers(1, n + 1)) if dom_dim is None else dom_dim
    if not 1 <= d <= n:
        raise ValueError("domain dimension out of range")
    if mul_dim > d:
        raise ValueError("multivalued dimension cannot exceed the domain dimension")
    col = random_quasicontraction_column(rng, d, n - d, unique=unique, exact_unit=mul_dim)
    basis = random_orthogonal(rng, n)
    u1 = basis[:, :d]
    u2 = basis[:, d:]
    images = u1 @ col.t11 + u2 @ col.t21
    return LinearRelation.from_generators(u1, images).cayley()


def random_selfadjoint_relation(
    rng: np.random.Generator,
    n: int,
    mul_dim: int = 0,
    eigenvalues: np.ndarray | None = None,
):
    """Selfadjoint relation: an operator part plus a multivalued block."""
    from .relations import LinearRelation

    d = n - mul_dim
    if d < 0:
        raise ValueError("multivalued dimension exceeds the space dimension")
    basis = random_orthogonal(rng, n)
    u = basis[:, :d]
    u_mul = basis[:, d:]
    if eigenvalues is None:
        m = random_symmetric(rng, d)
    else:
        q = random_orthogonal(rng, d)
        m = symmetrize(q @ np.diag(np.asarray(eigenvalues, dtype=float)) @ q.T)
    f = np.hstack([u, np.zeros((n, mul_dim))])
    fp = np.hstack([u @ m, u_mul])
    return LinearRelation.from_generators(f, fp)


def random_lift_instance(
    rng: np.random.Generator,
    n1: int,
    n2: int,
    n1p: int,
    n2p: int,
):
    """Defect data plus an admissible parameter triplet for a lifting.

    Returns ``(data, params, j1prime, j2prime)`` or ``None`` when the drawn
    exit signatures admit no J-contractive parameters (the caller redraws).
    """
    from .factor import JSpace
    from .lifting import LiftParameters, defect_data
    from .spectral import modulus_power, projector

    j1 = JSpace.from_matrix(random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
    j2 = JSpace.from_matrix(random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
    t = rng.standard_normal((n2, n1)) * 1.2
    data = defect_data(t, j1, j2)
    j2p = JSpace.from_matrix(
        random_symmetry(rng, n2p, int(rng.integers(0, min(data.kappa1, n2p) + 1)))
    )
    j1p = JSpace.from_matrix(
        random_symmetry(rng, n1p, int(rng.integers(0, min(data.kappa2, n1p) + 1)))
    )
    plus1, minus1, _ = data.spec_t.bases()
    plus2, minus2, _ = data.spec_tstar.bases()
    try:
        gamma1 = random_j_contraction_into(rng, j1p.j, plus2, minus2)
        gamma2 = random_j_contraction_into(rng, j2p.j, plus1, minus1).T
    except ValueError:
        return None
    g1_gram = symmetrize(j1p.j - gamma1.T @ data.jtstar @ gamma1)
    g2_gram = symmetrize(j2p.j - gamma2 @ data.jt @ gamma2.T)
    d_g1 = modulus_power(g1_gram, 0.5, floor=(1.0 + norm2(gamma1)) ** 2)
    d_g2s = modulus_power(g2_gram, 0.5, floor=(1.0 + norm2(gamma2)) ** 2)
    raw = random_contraction(rng, n2p, n1p, 0.85)
    gamma = projector(orthonormal_columns(d_g2s)) @ raw @ projector(orthonormal_columns(d_g1))
    return data, LiftParameters(gamma1, gamma2, gamma), j1p, j2p


def random_ordered_matrix_pair(rng: np.random.Generator, n: int, mismatch: bool = False):
    """Invertible symmetric pair with ``h1 <= h2``.

    With ``mismatch`` a negative direction of ``h1`` is pushed positive, so
    the inertias differ and the inverse order must fail; otherwise the
    increment is small enough to preserve the inertia.
    """
    n_minus = int(rng.integers(1, n + 1)) if mismatch else int(rng.integers(0, n + 1))
    h1 = random_symmetric_with_inertia(rng, n, n_minus, 0)
    w, v = np.linalg.eigh(h1)
    if mismatch:
        idx = int(np.argmin(w))
        direction = v[:, idx:idx + 1]
        bump = (abs(w[idx]) + rng.uniform(1.0, 2.0)) * (direction @ direction.T)
        h2 = symmetrize(h1 + bump)
    else:
        margin = float(np.min(np.abs(w)))
        h2 = symmetrize(h1 + random_psd(rng, n, scale=0.2 * margin))
    return h1, h2
