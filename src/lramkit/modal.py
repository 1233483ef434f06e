"""Generalized eigensolver and relevance filtering.

Solves (K - lambda M) phi = 0, real symmetric or complex Hermitian, for the
smallest eigenpairs with mass-normalized modes; each eigenvalue is the
Rayleigh quotient v^H K v of its mode. K - sigma M is factored once
per pencil and handed to ARPACK, started from a fixed vector. Two builders
make that factorization, and a failed one is a solver failure:

- ``band_shift_invert``, for the optimizer's two pencils: a LAPACK band
  Cholesky. The optimizer's free map numbers the frame translation first
  and then the free nodes row-major with one x-dof per node, and its
  restricted pencil is the free one without dof 0. Past dof 0 each pencil
  is a band whose half-bandwidth is one node row plus one (18 at 20x20, 54
  at 60x60). Dof 0 of the free pencil, the frame translation, couples to
  every frame-adjacent node; it is eliminated last, as a one-dof border,
  through its scalar Schur complement.
- ``shift_invert``, for every other pencil: a sparse LU. The periodic
  wrap of the homogenization and Bloch pencils couples opposite edges, so
  their band would be about n wide.

The band Cholesky K - sigma M = R^T R exports its two half-solves R^-1 and
R^-T, and with them ARPACK runs in standard mode on the symmetric
R^-T M R^-1 y = mu y (Ericsson & Ruhe, Math. Comp. 35, 1980): each step
is two triangular band solves and one M product, and ARPACK makes no M
products of its own. Each mu = 1 / (lambda - sigma) gives back
lambda = sigma + 1 / mu, and each y the mode x = R^-1 y. Every other
factor, an LU with no cheap half-solve, runs ARPACK in generalized
shift-invert mode with M, which takes M products for its M-inner products
as well.

Bloch pencils hand in their own ``ShiftInvert``: one LU of the
wavenumber-free interior, shared by every wavenumber, condensed onto a
Cholesky-factored border Schur complement (see ``dispersion``).
``solve_relevant`` grows the mode count on one factorization until a mode
is relevant. Only requests for (nearly) all eigenpairs, which ARPACK
cannot serve, take a dense solve.

Precondition: the shift lies below the pencil's spectrum, so K - sigma M is
positive definite. Both builders rely on it: a Cholesky factor exists
only for a positive definite matrix, and the sparse LU orders by minimum
degree on the pattern of A + A^T, which for these structurally symmetric
pencils is A's own, and takes its pivots from the diagonal without
searching. The optimizer shifts
by 0 (restricted) and by a negative value (free), homogenization by 0 with
the corners pinned, the Bloch solves by -(2 pi 300 Hz)^2.

``count_below`` is the only factorization of an indefinite pencil: it
factors K - sigma M with the sparse LU at a sigma inside the spectrum, not
to solve with it but to count the eigenvalues below sigma (Sylvester
inertia). Its count is trusted only when every pivot stayed on the
diagonal; otherwise it raises SolverFailureError.

Relevance of a mode is judged by its momentum coupling <rho phi>
(restricted systems) or its mean displacement <phi> (unrestricted systems),
normalized by the corresponding value of a mass-normalized rigid
translation so that the tolerance is dimensionless. An unrestricted solve
returns the rigid translation as mode 0, which the filter skips by that
position. This needs the pencil's kernel to be that one translation, and
the shift to lie below the spectrum. Both hold for the optimizer's free
pencil: it keeps the x-dofs, prescribes the y-dofs, moves the frame as one
rigid body and has positive stiffness in every phase. The translation's
eigenvalue is then roundoff of either sign, so the position decides, not
the eigenvalue.
"""
from __future__ import annotations

import gc
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy import linalg as dla
from scipy.sparse import linalg as spla

from .errors import NoRelevantModeError, SolverFailureError

_V0_SEED = 7
_COUNT_CAP = 96   # where ``solve_relevant`` stops growing


@dataclass(frozen=True)
class ModalSolution:
    """Ascending eigenpairs of a symmetric pencil, modes mass-normalized."""

    eigenvalues: np.ndarray            # (k,) rad^2/s^2
    modes: np.ndarray = field(repr=False)  # (n, k)
    residuals: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    @property
    def frequencies_hz(self) -> np.ndarray:
        return np.sqrt(np.clip(self.eigenvalues, 0.0, None)) / (2.0 * np.pi)


@dataclass(frozen=True)
class ShiftInvert:
    """(K - sigma M)^-1 of one pencil: a band Cholesky or sparse LU
    factorization (``band_shift_invert``, ``shift_invert``), or any operator
    that applies the same inverse.

    ``half_solves`` is (R^-1, R^-T) for a factor K - sigma M = R^T R that
    has them (the band Cholesky), each taking an (n,) or (n, k) array;
    ``solve_smallest`` then runs ARPACK in standard mode on R^-T M R^-1.
    Without them it runs generalized shift-invert mode on ``operator``."""

    sigma: float
    operator: spla.LinearOperator = field(repr=False)
    half_solves: tuple[Callable, Callable] | None = field(default=None, repr=False)


def _as_csr(A):
    if sparse.issparse(A):
        return A.tocsr()
    return sparse.csr_matrix(np.atleast_2d(np.asarray(A)))


def _solution(K, M, vals, vecs) -> ModalSolution:
    """Eigenvectors in ascending order of their Ritz values ``vals``,
    M-normalized with the largest entry real positive, their Rayleigh
    quotients v^H K v, more accurate than the Ritz values, and residuals.
    Column by column: n x k products would hold two more copies of the modes."""
    vecs = np.asarray(vecs)[:, np.argsort(np.real(vals))]
    lams = np.zeros(vecs.shape[1])
    res = np.zeros(vecs.shape[1])
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        mnorm = float(np.real(v.conj() @ (M @ v)))
        if mnorm > 0.0:
            v /= np.sqrt(mnorm)
        pivot = v[np.argmax(np.abs(v))]
        if np.abs(pivot) > 0.0:
            # rotate so the largest entry is real positive (sign for real input)
            v *= np.conj(pivot) / np.abs(pivot)
        Kv, Mv = K @ v, M @ v
        lam = lams[j] = np.real(np.vdot(v, Kv))
        denom = np.linalg.norm(Kv) + abs(lam) * np.linalg.norm(Mv) + 1e-300
        res[j] = np.linalg.norm(Kv - lam * Mv) / denom
    return ModalSolution(lams, vecs, res)


def _splu(A):
    """Sparse LU of the csr matrix A, ordered by minimum degree on the pattern
    of A + A^T, with pivots taken from the diagonal without searching.

    A + A^T is A's own pattern for these structurally symmetric pencils; an
    ordering on A^T A would square it and add fill.
    """
    # a real symmetric csr matrix is its own transpose, which is csc
    A = A.tocsc() if np.iscomplexobj(A) else A.T
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def count_below(K, M, sigma: float) -> int:
    """Number of eigenvalues of the pencil (K, M) below ``sigma``.

    K symmetric (Hermitian) and M positive definite, as for
    ``solve_smallest``; K - sigma M is factored as in ``shift_invert``. While
    every pivot stays on the diagonal (perm_r == perm_c) that factorization
    is a congruence L D L^T with D = diag(U), and by Sylvester's law of
    inertia the negative entries of D count the eigenvalues below sigma. A
    pivot off the diagonal breaks the congruence; that case and a failed
    (singular) factorization raise SolverFailureError.
    """
    K, M = _as_csr(K), _as_csr(M)
    try:
        lu = _splu(K - float(sigma) * M)
    except RuntimeError as err:
        raise SolverFailureError(f"inertia factorization failed: {err}") from err
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverFailureError("inertia count untrusted: a pivot left the diagonal")
    return int(np.count_nonzero(np.real(lu.U.diagonal()) < 0.0))


def shift_invert(K, M, shift: float = 0.0) -> ShiftInvert:
    """Factor K - sigma M, sigma = ``shift``, once for any number of solves
    of the pencil. A failed (singular) factorization raises
    SolverFailureError.
    """
    K, M = _as_csr(K), _as_csr(M)
    sigma = float(shift)
    A = K if sigma == 0.0 else K - sigma * M
    try:
        lu = _splu(A)
    except RuntimeError as err:
        raise SolverFailureError(f"shift-invert factorization failed: {err}") from err
    return ShiftInvert(sigma, spla.LinearOperator(A.shape, matvec=lu.solve, dtype=A.dtype))


def _band_solve(cb, b, trans: str):
    """U^-1 b (``trans`` "N") or U^-T b ("T") for the upper band Cholesky
    factor U of ``cholesky_banded``, one LAPACK dtbtrs."""
    x, info = dla.lapack.dtbtrs(cb, b, trans=trans)
    if info != 0:
        raise SolverFailureError(f"band triangular solve failed: info {info}")
    return x


def band_shift_invert(K, M, shift: float = 0.0) -> ShiftInvert:
    """Factor the positive definite K - sigma M, sigma = ``shift``, of an
    optimizer pencil once for any number of solves, as a LAPACK band
    Cholesky with dof 0 as a one-dof border.

    With A = [[a, c^T], [c, B]], B (every dof past 0) is packed into upper
    band storage, its half-bandwidth read from its pattern, and factored
    (dpbtrf) as B = U^T U. Dof 0 is eliminated last: r = U^-T c and
    s = a - r^T r once, so A = R^T R with R = [[sqrt(s), 0], [r, U]]. The
    factor exports the half-solves R^-1 and R^-T, each one triangular band
    solve (dtbtrs) plus a dot product or an axpy for dof 0; with them
    ``solve_smallest`` runs ARPACK in standard mode (see the module
    docstring), and ``operator`` applies A^-1 = R^-1 R^-T. A pencil that
    is not positive definite (a failed band factorization or s <= 0)
    raises SolverFailureError.
    """
    K, M = _as_csr(K), _as_csr(M)
    sigma = float(shift)
    A = K if sigma == 0.0 else K - sigma * M
    n = A.shape[0]
    U = sparse.triu(A, format="coo")
    head = U.row == 0    # the border row; A's symmetry gives its column
    border = np.zeros(n)
    border[U.col[head]] = U.data[head]
    a, c = border[0], border[1:]
    row, col = U.row[~head] - 1, U.col[~head] - 1
    u = int((col - row).max(initial=0))
    band = np.zeros((u + 1, n - 1))
    band[u + row - col, col] = U.data[~head]
    try:
        cb = dla.cholesky_banded(band, overwrite_ab=True, check_finite=False)
    except dla.LinAlgError as err:
        raise SolverFailureError(f"band factorization failed: {err}") from err
    r = _band_solve(cb, c, "T")
    s = a - r @ r
    if not s > 0.0:
        raise SolverFailureError(f"band factorization failed: border pivot {s:.3g}")
    root = np.sqrt(s)

    def inv_r(b):
        # x_0 = b_0 / sqrt(s), x_1 = U^-1 (b_1 - x_0 r)
        x0 = np.asarray(b[0] / root)
        x1 = _band_solve(cb, b[1:] - np.multiply.outer(r, x0), "N")
        return np.concatenate((x0[None], x1))

    def inv_rt(b):
        # y_1 = U^-T b_1, y_0 = (b_0 - r^T y_1) / sqrt(s)
        y1 = _band_solve(cb, b[1:], "T")
        return np.concatenate((np.asarray((b[0] - r @ y1) / root)[None], y1))

    def solve(b):
        return inv_r(inv_rt(np.ravel(b)))

    return ShiftInvert(sigma, spla.LinearOperator(A.shape, matvec=solve, dtype=A.dtype),
                       half_solves=(inv_r, inv_rt))


def solve_smallest(K, M, count: int, factor: ShiftInvert | None = None) -> ModalSolution:
    """The ``count`` algebraically smallest eigenpairs of the pencil (K, M).

    K must be real symmetric or complex Hermitian positive semidefinite
    (singular is fine: rigid modes are returned, not avoided), M likewise
    positive definite. ``factor`` is a shift-invert factorization of this
    pencil (see ``shift_invert``), made at zero shift when not given; any
    shift below the smallest eigenvalue gives the same answer, only
    convergence speed differs. A factor with half-solves runs ARPACK in
    standard mode, any other in generalized shift-invert mode (see the
    module docstring); both feed the same normalization and residuals.
    """
    K, M = _as_csr(K), _as_csr(M)
    n = K.shape[0]
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    count = min(count, n)

    if count >= n - 1:   # beyond what ARPACK can return
        vals, vecs = dla.eigh(K.toarray(), M.toarray())
        return _solution(K, M, vals[:count], vecs[:, :count])

    if factor is None:
        factor = shift_invert(K, M)
    rng = np.random.default_rng(_V0_SEED)
    v0 = rng.standard_normal(n)
    if np.iscomplexobj(K) or np.iscomplexobj(M):
        v0 = v0.astype(complex)
    try:
        if factor.half_solves is None:
            vals, vecs = spla.eigsh(K, k=count, M=M, sigma=factor.sigma,
                                    OPinv=factor.operator, which="LM", v0=v0)
        else:
            inv_r, inv_rt = factor.half_solves
            op = spla.LinearOperator(K.shape, matvec=lambda y: inv_rt(M @ inv_r(y)),
                                     dtype=float)
            mus, ys = spla.eigsh(op, k=count, which="LM", v0=v0)
            vals, vecs = factor.sigma + 1.0 / mus, inv_r(ys)
    except spla.ArpackNoConvergence as err:
        raise SolverFailureError(
            f"eigensolver did not converge ({len(err.eigenvalues)}/{count} modes)") from err
    except (RuntimeError, ValueError, ArithmeticError) as err:
        raise SolverFailureError(f"shift-invert eigensolve failed: {err}") from err
    finally:
        if np.iscomplexobj(v0):
            # ARPACK's complex driver, which Hermitian pencils go through,
            # leaves its workspace, the pencil and the factorization in a
            # reference cycle; free it now, not when the collector next
            # runs, so solves in a loop do not pile up their factorizations
            gc.collect(1)
    return _solution(K, M, vals, vecs)


def solve_relevant(K, M, count: int, relevant, factorize=shift_invert):
    """(sol, relevant(sol)), doubling ``count`` up to min(_COUNT_CAP, n) while
    ``relevant`` raises NoRelevantModeError (re-raised at the cap).

    The pencil is factored once for all counts, by ``factorize(K, M)``, a
    builder such as ``shift_invert`` or ``band_shift_invert`` with its
    shift bound; not at all while the dense path serves.
    """
    K, M = _as_csr(K), _as_csr(M)
    n = K.shape[0]
    cap = min(_COUNT_CAP, n)
    factor = None
    while True:
        if factor is None and count < n - 1:
            factor = factorize(K, M)
        sol = solve_smallest(K, M, count, factor=factor)
        try:
            return sol, relevant(sol)
        except NoRelevantModeError:
            if count >= cap:
                raise
        count = min(2 * count, cap)


def momentum_coupling(sol: ModalSolution, M, P, I_rigid, volume: float) -> np.ndarray:
    """Volume-averaged momentum <rho phi> per mode, shape (d, k).

    P expands reduced modes to the full space; I_rigid columns are the unit
    translations, so (P^T M I_rigid)^T phi integrates rho * (P phi) exactly
    without expanding the modes.
    """
    return np.asarray((P.T @ (M @ I_rigid)).T @ sol.modes) / volume


def mean_displacement(sol: ModalSolution, N_mu, P) -> np.ndarray:
    """Volume-averaged displacement <phi> per mode, shape (d, k)."""
    return np.asarray(N_mu @ (P @ sol.modes))


def filter_relevant_restricted(sol: ModalSolution, coupling: np.ndarray,
                               reference: float, delta_tol: float = 1e-3) -> np.ndarray:
    """Indices of restricted modes with significant momentum coupling.

    ``reference`` is the coupling norm of a mass-normalized rigid
    translation, sqrt(rho_bar / V); modes below delta_tol of it cannot drive
    macroscopic inertia.
    """
    norms = np.linalg.norm(np.atleast_2d(coupling), axis=0)
    idx = np.flatnonzero(norms > delta_tol * reference)
    if idx.size == 0:
        raise NoRelevantModeError(
            f"no restricted mode couples above {delta_tol} of the rigid reference")
    return idx


def filter_relevant_unrestricted(sol: ModalSolution, mean_disp: np.ndarray,
                                 reference: float, delta_tol: float = 1e-3) -> np.ndarray:
    """Indices of unrestricted modes that bound bandgaps from above.

    Mode 0 is the rigid translation and is skipped, although its mean
    displacement is the largest. That holds when the translation is the
    pencil's whole kernel and the shift lies below the spectrum (see the
    module docstring). Zero-mean internal oscillations are excluded by the
    delta_tol test against the rigid-translation mean 1/sqrt(rho_bar V).
    """
    norms = np.linalg.norm(np.atleast_2d(mean_disp), axis=0)
    idx = 1 + np.flatnonzero(norms[1:] > delta_tol * reference)
    if idx.size == 0:
        raise NoRelevantModeError(
            f"no unrestricted mode above the translation has mean above {delta_tol}")
    return idx
