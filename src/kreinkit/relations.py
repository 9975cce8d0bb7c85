"""Linear relations as graph subspaces and their extension theory.

A linear relation on an ``n``-dimensional space is a subspace of the
doubled space, held here through a read-only orthonormal basis ``[F; F']``
of its graph, so equality is projector equality: ``LinearRelation(n, basis)``
rejects a basis that is not orthonormal to ``residual``, and the library's
own constructions, which build one, skip that check.  One SVD
``F = U S V^T``, computed on first use, gives the domain, its complement,
the multivalued part and the operator part under one rank cutoff.  A
selfadjoint relation whose Cayley transform ``T`` is an operator is read
off one ``eigh`` of ``T``, solved from the Cayley image where that is certified:
the resolvent, the order's shift, the inertia and membership in the extension
interval take no SVD.  The module provides the relation calculus
(adjoint, inverse, shift, Cayley transform), classification and inertia,
the boundary form with the projection onto ``ran(I + A)`` inserted, the
Friedrichs and Krein-von Neumann extensions of a symmetric relation with
minimal negative index, the resolvent order with its interval
characterizations, and the antitonicity and uniqueness criteria.

A relation is immutable, so what is derived from it is computed once per
relation and tolerance profile and kept on the relation for as long as it
lives: the graph SVD and the Cayley image (both profile-free), the
classification, the Cayley transform and its eigendecomposition, the
operator part and its eigenvalues (on the graph route), the minimal index,
the :class:`ExtensionProblem` and the Friedrichs/Krein pair.  Each is
exactly what a fresh computation returns, and its arrays are read-only.  A
query against a relation that was queried before pays only for its other
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    InvalidInput,
    NotAnExtension,
    NotSelfadjoint,
    NotSolvable,
    NotSymmetric,
    PreconditionViolated,
    ShiftNotAdmissible,
)
from .quasicontraction import ExtremalPair, SymmetricColumn, extremal_extensions
from .spectral import (
    Inertia,
    _cutoff,
    _inertia,
    _loewner_leq,
    _mapped_count,
    _mask,
    _small,
    _solved_graph,
    as_matrix,
    as_symmetric,
    complement_basis,
    inertia_of,
    loewner_leq,
    negativity,
    norm2,
    orthonormal_columns,
    projector,
    spectral_decompose,
    subspaces_equal,
    symmetrize,
)
from .tolerances import ToleranceProfile, _freeze, memoized, per_profile, resolve

__all__ = [
    "LinearRelation",
    "RelationInertia",
    "RelationClass",
    "FormData",
    "ExtensionProblem",
    "classify",
    "relation_inertia",
    "operator_part",
    "resolvent_matrix",
    "form_a1",
    "extension_problem",
    "friedrichs_krein",
    "relation_leq",
    "ext_membership",
    "resolvent_interval_check",
    "inverse_duality_check",
    "antitonicity_check",
    "krein_uniqueness_relation",
]


@dataclass(frozen=True)
class RelationInertia:
    """Positive, negative, zero eigenvalue counts plus the multivalued dimension."""

    i_plus: int
    i_minus: int
    i_zero: int
    i_inf: int


@dataclass(frozen=True)
class RelationClass:
    """Symmetry classification and the negative-squares count of the form."""

    symmetric: bool
    selfadjoint: bool
    nonnegative: bool
    form_negativity: int


@dataclass(frozen=True)
class FormData:
    """Gram matrix of a boundary form over the canonical graph basis."""

    gram: np.ndarray
    negatives: int


@dataclass(frozen=True)
class ExtensionProblem:
    """The Cayley side of a symmetric relation's extension problem.

    ``u1`` and ``u2`` are orthonormal bases of ``ran(I + A)`` and its
    complement, ``t11`` and ``t21`` the blocks of the Cayley transform along
    that splitting, and ``pair`` the extreme extensions of that column.
    ``t_min`` and ``t_max`` are the same extremes in the standard basis: a
    selfadjoint extension at the minimal index is one whose Cayley
    transform ``T`` satisfies ``t_min <= T <= t_max``.
    """

    u1: np.ndarray
    u2: np.ndarray
    t11: np.ndarray
    t21: np.ndarray
    pair: ExtremalPair
    t_min: np.ndarray
    t_max: np.ndarray


class LinearRelation:
    """A subspace of the doubled space, held through an orthonormal basis of its graph.

    The basis is a ``(2n, r)`` matrix whose top and bottom halves are the
    first and second components of the spanning graph elements.  Generator
    representations are wildly non-unique, so :meth:`from_generators` and
    every relation-valued operation here return an orthonormal basis, and
    relations are compared by projectors.  The constructor checks the row
    count and orthonormality, which every comparison and count assumes: it
    raises :class:`InvalidInput` when ``|B^T B - I| > residual`` under the
    process default profile, and does not orthonormalize a basis that fails.
    The basis is read-only, so what is computed from it and kept in
    ``_memo`` stays valid for the relation's lifetime.
    """

    def __init__(self, space_dim: int, basis: np.ndarray):
        self._hold(space_dim, basis)
        gap = self._basis.T @ self._basis - np.eye(self.graph_dim)
        if not _small(gap, resolve(None), "residual"):
            raise InvalidInput(f"graph basis is not orthonormal: |B^T B - I| = {norm2(gap):.3e}")

    @classmethod
    def _orthonormal(cls, space_dim: int, basis: np.ndarray) -> "LinearRelation":
        """A relation on a basis the library built orthonormal: the constructor without its check."""
        rel = cls.__new__(cls)
        rel._hold(space_dim, basis)
        return rel

    def _hold(self, space_dim: int, basis: np.ndarray) -> None:
        self.space_dim = int(space_dim)
        arr = np.array(basis, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != 2 * self.space_dim:
            raise DimensionMismatch(
                f"a graph basis on a {self.space_dim}-dimensional space needs "
                f"{2 * self.space_dim} rows, got shape {arr.shape}"
            )
        self._basis = _freeze(arr)
        self._memo = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def from_generators(cls, f, fp, tol: ToleranceProfile | None = None) -> "LinearRelation":
        f_arr = as_matrix(f)
        fp_arr = as_matrix(fp)
        if f_arr.shape != fp_arr.shape:
            raise DimensionMismatch(
                f"generator blocks have shapes {f_arr.shape} and {fp_arr.shape}"
            )
        stacked = np.vstack([f_arr, fp_arr])
        return cls._orthonormal(f_arr.shape[0], orthonormal_columns(stacked, tol))

    @classmethod
    def from_operator(cls, m, tol: ToleranceProfile | None = None) -> "LinearRelation":
        m_arr = as_matrix(m)
        if m_arr.shape[0] != m_arr.shape[1]:
            raise DimensionMismatch("from_operator expects a square matrix")
        n = m_arr.shape[0]
        return cls.from_generators(np.eye(n), m_arr, tol)

    # -- components ----------------------------------------------------

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    @property
    def graph_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def first(self) -> np.ndarray:
        return self.basis[: self.space_dim, :]

    @property
    def second(self) -> np.ndarray:
        return self.basis[self.space_dim:, :]

    def _graph_split(self, tol: ToleranceProfile | None):
        """``(U, s, V, r)`` of the one full SVD ``first = U diag(s) V^T``.

        ``r`` counts the singular values above ``zero * max(shape) * max(s_0, 1)``
        (a graph basis is orthonormal, so its scale is 1 whatever the
        relation's).  ``U[:, :r]`` spans the domain, ``U[:, r:]`` its
        complement and ``V[:, r:]`` the multivalued part's graph coordinates.
        """
        u, s, v = memoized(self, ("graph_svd", None), self._graph_svd)
        thr = _cutoff(resolve(tol), max(self.first.shape), np.max(s, initial=0.0), 1.0)
        return u, s, v, int(np.count_nonzero(s > thr))

    def _graph_svd(self):
        u, s, vt = np.linalg.svd(self.first, full_matrices=True)
        return u, s, vt.T

    def mul_basis(self, tol: ToleranceProfile | None = None) -> np.ndarray:
        # the basis is orthonormal, so the second components of the
        # kernel directions of ``first`` are orthonormal already
        _, _, v, r = self._graph_split(tol)
        return self.second @ v[:, r:]

    def mul_dim(self, tol: ToleranceProfile | None = None) -> int:
        return self.graph_dim - self._graph_split(tol)[3]

    # -- calculus -------------------------------------------------------

    def adjoint(self) -> "LinearRelation":
        """Adjoint relation: the orthogonal complement of the flipped graph, whose basis
        ``[F'; -F]`` is orthonormal, so no rank is decided and no profile is read."""
        flipped = np.vstack([self.second, -self.first])
        return LinearRelation._orthonormal(self.space_dim, complement_basis(flipped, 2 * self.space_dim))

    def inverse(self) -> "LinearRelation":
        return LinearRelation._orthonormal(self.space_dim, np.vstack([self.second, self.first]))

    def negate(self) -> "LinearRelation":
        return LinearRelation._orthonormal(self.space_dim, np.vstack([self.first, -self.second]))

    def shift(self, c: float, tol: ToleranceProfile | None = None) -> "LinearRelation":
        """Map each graph element ``(f, f')`` to ``(f, f' + c f)``."""
        stacked = np.vstack([self.first, self.second + c * self.first])
        return LinearRelation._orthonormal(self.space_dim, orthonormal_columns(stacked, tol))

    def cayley(self, tol: ToleranceProfile | None = None) -> "LinearRelation":
        """Graph transform ``(f, f') -> (f + f', f - f') / sqrt(2)``, an involution and an
        orthogonal map of the doubled space: it takes the orthonormal basis to one of the
        image, with no SVD, no rank decision and no read of ``tol``.  The image is kept."""
        def image():
            stacked = np.vstack([self.first + self.second, self.first - self.second])
            return LinearRelation._orthonormal(self.space_dim, stacked / np.sqrt(2.0))

        return memoized(self, ("cayley", None), image)

    # -- comparisons -----------------------------------------------------

    def graph_projector(self) -> np.ndarray:
        return projector(self.basis)

    def same_as(self, other: "LinearRelation", tol: ToleranceProfile | None = None) -> bool:
        tol = resolve(tol)
        if self.space_dim != other.space_dim:
            return False
        return subspaces_equal(self.basis, other.basis, tol)

    def contains(self, other: "LinearRelation", tol: ToleranceProfile | None = None) -> bool:
        """Graph containment ``other`` inside ``self``, by the thin residual ``B - Q (Q^T B)``."""
        tol = resolve(tol)
        if self.space_dim != other.space_dim:
            return False
        if other.graph_dim == 0:
            return True
        q, b = self.basis, other.basis
        return _small(b - q @ (q.T @ b), tol, "subspace")


@per_profile
def classify(rel: LinearRelation, tol: ToleranceProfile | None = None) -> RelationClass:
    """Symmetric/selfadjoint classification and the form's negative count.

    Symmetry is the vanishing of the boundary pairing on the graph, which
    over the canonical basis is the symmetry of ``F^T F'``; selfadjointness
    adds the dimension count.  The negative-squares count is the negative
    index of the symmetrized Gram.
    """
    symmetric = _symmetric(rel, tol)
    selfadjoint = symmetric and rel.graph_dim == rel.space_dim
    negatives = _form_inertia(rel, tol).n_minus
    return RelationClass(
        symmetric=bool(symmetric),
        selfadjoint=bool(selfadjoint),
        nonnegative=bool(symmetric and negatives == 0),
        form_negativity=negatives,
    )


@per_profile
def _symmetric(rel: LinearRelation, tol: ToleranceProfile) -> bool:
    """Whether the boundary pairing vanishes on the graph: ``F^T F'`` symmetric to ``residual``."""
    gram_raw = rel.first.T @ rel.second
    return _small(gram_raw - gram_raw.T, tol, "residual", gram_raw)


def _selfadjoint(rel: LinearRelation, tol: ToleranceProfile) -> bool:
    """:func:`classify`'s ``selfadjoint``, with no count of the graph form."""
    return rel.graph_dim == rel.space_dim and _symmetric(rel, tol)


@per_profile
def _form_inertia(rel: LinearRelation, tol: ToleranceProfile) -> Inertia:
    """Inertia of the graph form ``sym(F^T F')`` at floor 1, counted once for :func:`classify`
    and :func:`relation_inertia`: graph bases are orthonormal, so the form has unit natural scale.
    On the Cayley route it reads ``(1 - mu^2) / (2 (1 + mu^2))`` over each eigenvector of ``T``."""
    spectrum = _cayley_spectrum(rel, tol)
    if spectrum is not None:
        form = _mapped_count(spectrum[0], lambda mu: (1.0 - mu * mu) / (2.0 * (1.0 + mu * mu)), tol, 1.0)
        if form is not None:
            return form
    gram = symmetrize(rel.first.T @ rel.second)
    return _inertia(gram, tol, 1.0) if gram.size else Inertia(0, 0, 0)


@per_profile
def operator_part(rel: LinearRelation, tol: ToleranceProfile | None = None):
    """Domain basis and the operator's images of it, off the graph SVD.

    Returns ``(U, W)``, both ``(n, d)``: ``U`` is an orthonormal basis of
    the domain and each ``(U e_i, W e_i)`` lies in the graph, with
    ``W = F' V_d S_d^{-1}`` from ``F = U S V^T``.  For an operator graph
    ``W U^T`` is the matrix vanishing off the domain; for a selfadjoint
    relation ``U^T W`` is the operator part, which acts on the domain.
    ``F V_d S_d^{-1} = U_d`` holds by construction of the SVD and is not
    re-measured: its computed residual is roundoff of order ``u / s_d``,
    which grows as the relation nears a multivalued direction.
    """
    u, s, v, d = rel._graph_split(tol)
    return u[:, :d], rel.second @ (v[:, :d] / s[:d])


@per_profile
def relation_inertia(rel: LinearRelation, tol: ToleranceProfile | None = None) -> RelationInertia:
    """Eigenvalue-count quadruplet of a selfadjoint relation, counted on its graph form.

    As ``mul H`` is orthogonal to ``dom H``, the form ``sym(F^T F')`` is congruent
    to the operator part on the domain, an eigenvalue ``lambda`` showing as
    ``lambda / (1 + lambda^2)``, and vanishes on ``mul H`` (Azizov & Iokhvidov,
    1989): ``i_plus`` and ``i_minus`` are its counts at unit scale, ``i_inf`` is
    ``mul_dim`` and ``i_zero`` the rest, so a domain direction the form reads as
    zero counts in ``i_zero``.  On the Cayley route ``i_inf`` counts the values
    off the certified domain mask, so no graph SVD is taken.
    """
    if not _selfadjoint(rel, tol):
        raise NotSelfadjoint("relation inertia is defined for selfadjoint relations")
    form, spectrum = _form_inertia(rel, tol), _cayley_spectrum(rel, tol)
    i_inf = rel.mul_dim(tol) if spectrum is None else int(np.count_nonzero(~spectrum[2]))
    i_zero = rel.space_dim - form.n_plus - form.n_minus - i_inf
    return RelationInertia(form.n_plus, form.n_minus, i_zero, i_inf)


def resolvent_matrix(rel: LinearRelation, a: float, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Materialize ``(H - a)^{-1}`` for selfadjoint ``H`` and admissible ``a``.

    The operator part is inverted on the domain and extended by zero on the
    multivalued part, which is the unique bounded nonnegative realization
    required by the resolvent ordering.  ``a`` is admissible when the gap
    ``w_0 - a`` to the operator part's minimum ``w_0`` exceeds
    ``zero (1 + |w_0|)``.  When the Cayley transform is an operator,
    ``T = P diag(mu) P^T``, the resolvent is ``P diag(rho) P^T`` with
    ``rho = (1 + mu) / ((1 - mu) - a (1 + mu))`` on the domain and 0 on the
    multivalued part: one product, no solve, and well conditioned as ``mu``
    nears -1.  Otherwise the operator part ``M`` is solved against,
    ``U (M - a)^{-1} U^T``.
    """
    tol = resolve(tol)
    w0 = _operator_minimum(rel, tol)
    if not np.isfinite(w0):
        return np.zeros((rel.space_dim, rel.space_dim))
    if _small(w0 - a, tol, "zero", abs(w0)):
        raise ShiftNotAdmissible(
            f"shift {a} does not stay below the operator-part minimum {w0:.6g}"
        )
    spectrum = _cayley_spectrum(rel, tol)
    if spectrum is not None:
        mu, p, domain = spectrum
        # zero on mul H, where 1 - mu is about 2
        plus = np.where(domain, 1.0 + mu, 0.0)
        return symmetrize((p * (plus / ((1.0 - mu) - a * plus))) @ p.T)
    u, _ = operator_part(rel, tol)
    m = _operator_spectrum(rel, tol)[0]
    inv = np.linalg.solve(m - a * np.eye(m.shape[0]), np.eye(m.shape[0]))
    return symmetrize(u @ inv @ u.T)


@per_profile
def _cayley_matrix(rel: LinearRelation, tol: ToleranceProfile):
    """The Cayley transform ``T = Y X^{-1}`` of a selfadjoint relation, ``[X; Y]`` the Cayley
    image's basis, as an ``n x n`` matrix; ``None`` when ``T`` is multivalued.  One LU solve
    gives it when :func:`spectral._solved_graph` certifies it; otherwise (a failed solve, a
    non-finite or uncertified ``T``) it is read off the kept graph SVD of ``X``."""
    transform = rel.cayley(tol)
    try:
        t = np.linalg.solve(transform.first.T, transform.second.T)
    except np.linalg.LinAlgError:
        t = None
    if t is not None and _solved_graph(t, tol, rel.space_dim):
        return symmetrize(t)
    if transform.mul_dim(tol) > 0:
        return None
    u, images = operator_part(transform, tol)
    return symmetrize(images @ u.T)


@per_profile
def _cayley_spectrum(rel: LinearRelation, tol: ToleranceProfile):
    """``(mu, P, domain)`` of ``T = P diag(mu) P^T`` for a selfadjoint relation whose Cayley
    transform is an operator, or ``None``, which leaves the relation to the graph route.

    Over an eigenvector of ``T`` the graph holds ``(1 + mu, 1 - mu) / sqrt(2 (1 + mu^2))``,
    so the operator part has the eigenvalue ``(1 - mu) / (1 + mu)`` there and the first
    component's singular value is ``|1 + mu| / sqrt(2 (1 + mu^2))``.  ``domain`` masks those
    values under the graph cutoff of :meth:`LinearRelation._graph_split`, certified to be the
    graph SVD's own rank decision; when some value is too near the cutoff to certify, ``None``.
    """
    if not _selfadjoint(rel, tol):
        return None
    t = _cayley_matrix(rel, tol)
    if t is None:
        return None
    spec = spectral_decompose(t, tol)
    mu = spec.eigenvalues
    values = np.abs(1.0 + mu) / (np.sqrt(2.0) * np.hypot(1.0, mu))
    domain = _mask(values, tol, rel.space_dim, 1.0, spec.norm)
    if domain is None:
        return None
    return mu, spec.eigenvectors, domain


@per_profile
def _operator_spectrum(rel: LinearRelation, tol: ToleranceProfile):
    """The operator part ``U^T W`` on the domain and its one decomposition: the graph route.

    :func:`resolvent_matrix` and the order's shift both read this spectrum,
    so each operator part is decomposed once.
    """
    u, images = operator_part(rel, tol)
    m = symmetrize(u.T @ images)
    return m, spectral_decompose(m, tol)


def _operator_minimum(rel: LinearRelation, tol: ToleranceProfile) -> float:
    """The operator part's least eigenvalue, ``inf`` on an empty domain."""
    spectrum = _cayley_spectrum(rel, tol)
    if spectrum is not None:
        mu, _, domain = spectrum
        w = (1.0 - mu[domain]) / (1.0 + mu[domain])
    else:
        w = _operator_spectrum(rel, tol)[1].eigenvalues
    return float(np.min(w)) if w.size else np.inf


def _common_bottom(rels, tol: ToleranceProfile) -> float:
    """The lowest finite operator-part minimum of ``rels``, or 0 when none is finite:
    a resolvent shift strictly below it is admissible for each of them."""
    finite = [m for m in (_operator_minimum(h, tol) for h in rels) if np.isfinite(m)]
    return min(finite) if finite else 0.0


def form_a1(rel: LinearRelation, tol: ToleranceProfile | None = None) -> FormData:
    """Boundary form with the projection onto ``ran(I + A)`` inserted.

    The Gram is taken over the canonical graph basis; graph elements
    supported in the multivalued part contribute zero rows.  Its link to the
    Cayley side on each basis element is asserted by ``verify`` and the tests.
    """
    tol = resolve(tol)
    if not classify(rel, tol).symmetric:
        raise NotSymmetric("the projected boundary form needs a symmetric relation")
    return _projected_form(rel, tol)


def _projected_form(rel: LinearRelation, tol: ToleranceProfile) -> FormData:
    """:func:`form_a1` on a relation already known to be symmetric."""
    # ran(I + A) is the domain of the Cayley transform, off its kept graph SVD
    p1 = projector(operator_part(rel.cayley(tol), tol)[0])
    gram = symmetrize(rel.first.T @ p1 @ rel.second)
    negatives = negativity(gram, tol, floor=1.0) if gram.size else 0
    return FormData(gram=gram, negatives=negatives)


@per_profile
def _minimal_index(rel: LinearRelation, tol: ToleranceProfile) -> int:
    """Negative count of a symmetric relation with a minimal-index extension.

    Solvability requires the negative count of the projected form to equal
    that of the full form; the relation is classified once for both.
    """
    cls = classify(rel, tol)
    if not cls.symmetric:
        raise NotSymmetric("extensions are built for symmetric relations")
    kappa = _projected_form(rel, tol).negatives
    if kappa != cls.form_negativity:
        raise NotSolvable(
            f"projected form has {kappa} negative squares but the relation has "
            f"{cls.form_negativity}; no extension attains the minimal index"
        )
    return kappa


def _cayley_column(rel: LinearRelation, tol: ToleranceProfile):
    """Cayley transform of a symmetric relation split into column blocks.

    Returns ``(U1, U2, t11, t21)``: orthonormal bases of ``ran(I + A)`` and
    its complement, and the blocks of the transform along that splitting.
    """
    t1 = rel.cayley(tol)
    if t1.mul_dim(tol) > 0:
        raise NotSolvable(
            "the Cayley transform is multivalued; the relation admits no "
            "minimal-index selfadjoint extension"
        )
    u1, images = operator_part(t1, tol)
    u, _, _, d = t1._graph_split(tol)
    u2 = u[:, d:]
    t11 = symmetrize(u1.T @ images)
    t21 = u2.T @ images
    return u1, u2, t11, t21


@per_profile
def extension_problem(rel: LinearRelation, tol: ToleranceProfile | None = None) -> ExtensionProblem:
    """The relation's Cayley column, its extreme extensions, and both in the standard basis.

    Raises :class:`NotSolvable` when the Cayley transform is multivalued or
    the column fails the index criterion.  Symmetry and the minimal index
    are not checked here; :func:`friedrichs_krein` checks them first.
    """
    u1, u2, t11, t21 = _cayley_column(rel, tol)
    pair = extremal_extensions(SymmetricColumn(t11, t21), tol)
    basis = np.hstack([u1, u2])
    t_min = symmetrize(basis @ pair.t_min @ basis.T)
    t_max = symmetrize(basis @ pair.t_max @ basis.T)
    return ExtensionProblem(u1, u2, t11, t21, pair, t_min, t_max)


@per_profile
def friedrichs_krein(rel: LinearRelation, tol: ToleranceProfile | None = None):
    """Friedrichs and Krein-von Neumann extensions of a symmetric relation.

    Solvability requires the negative count of the projected form to equal
    that of the full form.  The extensions are the inverse Cayley images of
    the extreme quasi-contractive extensions of the transformed column; that
    both extend the relation at its minimal negative count is asserted by
    ``verify`` and the tests.  The pair is kept beside :func:`extension_problem`.
    """
    _minimal_index(rel, tol)
    problem = extension_problem(rel, tol)
    # the inverse Cayley image of T spans [I + T; I - T], of full rank as I + T^2 >= I
    eye = np.eye(rel.space_dim)
    a_f = LinearRelation.from_generators(eye + problem.t_min, eye - problem.t_min, tol)
    a_k = LinearRelation.from_generators(eye + problem.t_max, eye - problem.t_max, tol)
    return a_f, a_k


def relation_leq(h1: LinearRelation, h2: LinearRelation, tol: ToleranceProfile | None = None) -> bool:
    """Resolvent order for selfadjoint semibounded relations.

    With a shift strictly below both operator-part minima, ``H1 <= H2``
    means ``0 <= (H2 - a)^{-1} <= (H1 - a)^{-1}``; the verdict does not
    depend on the admissible shift.  ``0 <= (H2 - a)^{-1}`` holds at every
    shift :func:`resolvent_matrix` admits, whose weights ``1 / (w - a)`` are
    then positive, so only the second inequality is tested.
    """
    tol = resolve(tol)
    for h in (h1, h2):
        if not _selfadjoint(h, tol):
            raise NotSelfadjoint("the resolvent order compares selfadjoint relations")
    if h1.space_dim != h2.space_dim:
        raise DimensionMismatch("relations live on spaces of different dimension")
    a = _common_bottom((h1, h2), tol) - 1.0
    r1 = resolvent_matrix(h1, a, tol)
    r2 = resolvent_matrix(h2, a, tol)
    return _loewner_leq(r2, r1, tol)


def ext_membership(rel: LinearRelation, candidate: LinearRelation, tol: ToleranceProfile | None = None) -> bool:
    """Membership of ``candidate`` in the minimal-index extension interval.

    Decided through the Cayley transform: the candidate's transform must be
    a bounded operator sandwiched between the extreme transforms in the
    Loewner order.  The transform is solved from the candidate's Cayley
    image and kept (its graph SVD runs only when the solve is not
    certified), and :func:`relation_leq` decomposes that same matrix, so the
    two decide the interval off one ``solve`` and one ``eigh`` per candidate.
    """
    tol = resolve(tol)
    if not _selfadjoint(candidate, tol):
        raise NotAnExtension("the candidate is not selfadjoint")
    if not candidate.contains(rel, tol):
        raise NotAnExtension("the candidate does not extend the relation")
    problem = extension_problem(rel, tol)
    t = _cayley_matrix(candidate, tol)
    if t is None:
        return False
    return _loewner_leq(problem.t_min, t, tol) and _loewner_leq(t, problem.t_max, tol)


def resolvent_interval_check(
    rel: LinearRelation,
    candidate: LinearRelation,
    a: float,
    tol: ToleranceProfile | None = None,
) -> bool:
    """Shifted resolvent interval test for an extension-family member.

    ``a`` must exceed the negative of the uniform lower bound of the family
    (computed over the two extreme extensions and the candidate), otherwise
    :class:`ShiftNotAdmissible` is raised.
    """
    tol = resolve(tol)
    a_f, a_k = friedrichs_krein(rel, tol)
    mu = _common_bottom((a_f, a_k, candidate), tol)
    if a <= -mu:
        raise ShiftNotAdmissible(f"shift {a} does not exceed {-mu:.6g}")
    r_f = resolvent_matrix(a_f, -a, tol)
    r_k = resolvent_matrix(a_k, -a, tol)
    r_c = resolvent_matrix(candidate, -a, tol)
    return loewner_leq(r_f, r_c, tol) and loewner_leq(r_c, r_k, tol)


def inverse_duality_check(rel: LinearRelation, tol: ToleranceProfile | None = None) -> bool:
    """Duality of the extreme extensions under relation inversion.

    The Friedrichs extension of the inverse is the inverse of the
    Krein-von Neumann extension, and vice versa (graph-projector equality).
    """
    tol = resolve(tol)
    a_f, a_k = friedrichs_krein(rel, tol)
    inv_f, inv_k = friedrichs_krein(rel.inverse(), tol)
    return inv_f.same_as(a_k.inverse(), tol) and inv_k.same_as(a_f.inverse(), tol)


def antitonicity_check(h1, h2, mode: str, tol: ToleranceProfile | None = None) -> bool:
    """Inverse-order check with its exact inertia characterization.

    mode ``"matrix"``
        ``h1 <= h2`` invertible symmetric matrices: the inverse order
        ``h2^{-1} <= h1^{-1}`` holds iff the full inertias agree.
    mode ``"relation"``
        selfadjoint semibounded relations ordered by resolvents: the
        inverse order holds iff the negative counts agree.

    The biconditional is verified exactly; the order hypothesis itself is a
    precondition.
    """
    tol = resolve(tol)
    if mode == "matrix":
        m1 = as_symmetric(h1, tol)
        m2 = as_symmetric(h2, tol)
        i1 = inertia_of(m1, tol)
        i2 = inertia_of(m2, tol)
        if i1.n_zero or i2.n_zero:
            raise PreconditionViolated("matrix antitonicity needs invertible operands")
        if not loewner_leq(m1, m2, tol):
            raise PreconditionViolated("order hypothesis h1 <= h2 fails")
        holds = loewner_leq(np.linalg.inv(m2), np.linalg.inv(m1), tol)
        expected = i1 == i2
    elif mode == "relation":
        if not relation_leq(h1, h2, tol):
            raise PreconditionViolated("order hypothesis h1 <= h2 fails")
        holds = relation_leq(h2.inverse(), h1.inverse(), tol)
        expected = relation_inertia(h1, tol).i_minus == relation_inertia(h2, tol).i_minus
    else:
        raise InvalidInput(f"mode must be 'matrix' or 'relation', got {mode!r}")
    if holds != expected:
        raise ConsistencyError(
            f"antitonicity verdict {holds} contradicts the inertia condition {expected}"
        )
    return holds


def krein_uniqueness_relation(rel: LinearRelation, tol: ToleranceProfile | None = None) -> bool:
    """Uniqueness of the minimal-index extension of a symmetric relation.

    Decided by the transformed column's :meth:`ExtremalPair.unique`.  The
    translation identities tying the relation side to the transform side,
    and the gap's J-isometry cross-check, are asserted by ``verify`` and the tests.
    """
    tol = resolve(tol)
    _minimal_index(rel, tol)
    return extension_problem(rel, tol).pair.unique(tol)
