"""Generalized eigensolver and relevance filtering.

Solves (K - lambda M) phi = 0, real symmetric or complex Hermitian, for the
smallest eigenpairs with mass-normalized modes. Every pencil goes through
one path: K - sigma M is factored once with a sparse LU and handed to
ARPACK as the shift-invert operator, started from a fixed vector. The shift
is zero unless the caller gives one; a zero shift whose factorization fails
(singular K) falls back to a small negative one. ``solve_relevant`` grows
the mode count on that one factorization. Only requests for (nearly) all
eigenpairs, which ARPACK cannot serve, take a dense solve.

Relevance of a mode is judged by its momentum coupling <rho phi>
(restricted systems) or its mean displacement <phi> (unrestricted systems),
normalized by the corresponding value of a mass-normalized rigid
translation so that the tolerance is dimensionless.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy import linalg as dla
from scipy.sparse import linalg as spla

from .errors import NoRelevantModeError, SolverFailureError

_V0_SEED = 7
_COUNT_CAP = 96
# eigenvalues closer than this fraction of the largest one form one cluster
CLUSTER_RTOL = 1e-7


@dataclass(frozen=True)
class ModalSolution:
    """Ascending eigenpairs of a symmetric pencil, modes mass-normalized."""

    eigenvalues: np.ndarray            # (k,) rad^2/s^2
    modes: np.ndarray = field(repr=False)  # (n, k)
    residuals: np.ndarray = field(repr=False)
    system: str = ""

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    @property
    def frequencies_hz(self) -> np.ndarray:
        return np.sqrt(np.clip(self.eigenvalues, 0.0, None)) / (2.0 * np.pi)


@dataclass(frozen=True)
class ShiftInvert:
    """(K - sigma M)^-1 of one pencil as a sparse LU factorization."""

    sigma: float
    operator: spla.LinearOperator = field(repr=False)


def _as_csr(A):
    if sparse.issparse(A):
        return A.tocsr()
    return sparse.csr_matrix(np.atleast_2d(np.asarray(A)))


def _normalize(vals, vecs, M):
    order = np.argsort(vals)
    vals = np.real(np.asarray(vals))[order]
    vecs = np.asarray(vecs)[:, order]
    for j in range(vecs.shape[1]):
        mnorm = float(np.real(vecs[:, j].conj() @ (M @ vecs[:, j])))
        if mnorm > 0.0:
            vecs[:, j] /= np.sqrt(mnorm)
        peak = np.argmax(np.abs(vecs[:, j]))
        pivot = vecs[peak, j]
        if np.abs(pivot) > 0.0:
            # rotate so the largest entry is real positive (sign for real input)
            vecs[:, j] *= np.conj(pivot) / np.abs(pivot)
    return vals, vecs


def _residuals(K, M, vals, vecs):
    res = np.zeros(len(vals))
    for j, lam in enumerate(vals):
        v = vecs[:, j]
        r = K @ v - lam * (M @ v)
        denom = np.linalg.norm(K @ v) + abs(lam) * np.linalg.norm(M @ v) + 1e-300
        res[j] = np.linalg.norm(r) / denom
    return res


def shift_invert(K, M, shift: float | None = None) -> ShiftInvert:
    """Factor K - sigma M once for any number of solves of the pencil.

    ``sigma`` is ``shift`` when given; with ``None`` a zero shift is tried
    first and a small negative one if that factorization fails, so singular
    K never kills the solve.
    """
    K, M = _as_csr(K), _as_csr(M)
    if shift is not None:
        sigmas = [float(shift)]
    else:
        fallback = -1e-8 * abs(K.diagonal().sum()) / max(abs(M.diagonal().sum()), 1e-300)
        sigmas = [0.0, min(fallback, -1e-12)]
    last_err: Exception | None = None
    for sigma in sigmas:
        A = K if sigma == 0.0 else K - sigma * M
        # a real symmetric csr matrix is its own transpose, which is csc
        A = A.tocsc() if np.iscomplexobj(A) else A.T
        try:
            lu = spla.splu(A)
        except RuntimeError as err:
            last_err = err
            continue
        return ShiftInvert(sigma, spla.LinearOperator(A.shape, matvec=lu.solve,
                                                      dtype=A.dtype))
    raise SolverFailureError(f"shift-invert factorization failed: {last_err}")


def solve_smallest(K, M, count: int, shift: float | None = None,
                   system: str = "", factor: ShiftInvert | None = None) -> ModalSolution:
    """The ``count`` algebraically smallest eigenpairs of the pencil (K, M).

    K must be real symmetric or complex Hermitian positive semidefinite
    (singular is fine: rigid modes are returned, not avoided), M likewise
    positive definite. ``shift`` is the shift-invert point (see
    ``shift_invert``); any value below the smallest eigenvalue gives the
    same answer, only convergence speed differs. ``factor``, when given, is
    a factorization of this pencil and ``shift`` is ignored.
    """
    K, M = _as_csr(K), _as_csr(M)
    n = K.shape[0]
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    count = min(count, n)

    if count >= n - 1:   # beyond what ARPACK can return
        vals, vecs = dla.eigh(K.toarray(), M.toarray())
        vals, vecs = vals[:count], vecs[:, :count]
        vals, vecs = _normalize(vals, vecs, M)
        return ModalSolution(vals, vecs, _residuals(K, M, vals, vecs), system)

    if factor is None:
        factor = shift_invert(K, M, shift)
    rng = np.random.default_rng(_V0_SEED)
    v0 = rng.standard_normal(n)
    if np.iscomplexobj(K) or np.iscomplexobj(M):
        v0 = v0.astype(complex)
    try:
        vals, vecs = spla.eigsh(K, k=count, M=M, sigma=factor.sigma,
                                OPinv=factor.operator, which="LM", v0=v0)
    except spla.ArpackNoConvergence as err:
        raise SolverFailureError(
            f"eigensolver did not converge ({len(err.eigenvalues)}/{count} modes)",
            residuals=err.eigenvalues) from err
    except (RuntimeError, ValueError, ArithmeticError) as err:
        raise SolverFailureError(f"shift-invert eigensolve failed: {err}") from err
    vals, vecs = _normalize(vals, vecs, M)
    return ModalSolution(vals, vecs, _residuals(K, M, vals, vecs), system)


def _without_top_cluster(sol: ModalSolution) -> ModalSolution:
    """``sol`` minus the modes of its highest eigenvalue cluster."""
    vals = sol.eigenvalues
    tol = CLUSTER_RTOL * max(float(np.abs(vals).max()), 1e-300)
    start = len(vals) - 1
    while start > 0 and vals[start] - vals[start - 1] <= tol:
        start -= 1
    return ModalSolution(vals[:start], sol.modes[:, :start], sol.residuals[:start],
                         sol.system)


def solve_relevant(K, M, count: int, relevant, shift: float | None = None,
                   system: str = "", cover_hz: float | None = None):
    """(sol, relevant(sol)), doubling ``count`` up to min(_COUNT_CAP, n) while
    ``relevant`` raises NoRelevantModeError (re-raised at the cap) or, with
    ``cover_hz`` given, while the highest computed mode lies below it.

    The pencil is factored once for all counts. When the cap stops the growth
    short of ``cover_hz``, the top eigenvalue cluster is dropped before
    ``relevant`` sees it: the rest of a degenerate cluster may lie above the
    cap, and a partial cluster has no well-defined basis.
    """
    K, M = _as_csr(K), _as_csr(M)
    n = K.shape[0]
    cap = min(_COUNT_CAP, n)
    factor = None
    while True:
        if factor is None and count < n - 1:
            factor = shift_invert(K, M, shift)
        sol = solve_smallest(K, M, count, system=system, factor=factor)
        at_cap = count >= cap
        short = cover_hz is not None and sol.frequencies_hz[-1] < cover_hz
        if at_cap and short and count < n:
            sol = _without_top_cluster(sol)
        try:
            picked = relevant(sol)
        except NoRelevantModeError:
            if at_cap:
                raise
        else:
            if at_cap or not short:
                return sol, picked
        count = min(2 * count, cap)


def momentum_coupling(sol: ModalSolution, M, P, I_rigid, volume: float) -> np.ndarray:
    """Volume-averaged momentum <rho phi> per mode, shape (d, k).

    P expands reduced modes to the full space; I_rigid columns are the unit
    translations, so I_rigid^T M (P phi) integrates rho * phi exactly.
    """
    full = P @ sol.modes
    return np.asarray(I_rigid.T @ (M @ full)) / volume


def mean_displacement(sol: ModalSolution, N_mu, P) -> np.ndarray:
    """Volume-averaged displacement <phi> per mode, shape (d, k)."""
    return np.asarray(N_mu @ (P @ sol.modes))


def average_density(M, I_rigid, volume: float) -> float:
    """<rho> recovered from the assembled mass matrix."""
    d = I_rigid.shape[1]
    tot = sum(float(I_rigid[:, j] @ (M @ I_rigid[:, j])) for j in range(d))
    return tot / (d * volume)


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


def rigid_projections(sol: ModalSolution, M_red, translations: np.ndarray) -> np.ndarray:
    """Fraction of each mode living in the rigid-translation space.

    ``translations`` holds the translation vectors expressed in the reduced
    space (columns); directions not representable there (all-zero columns)
    are skipped. Modes are mass-normalized, so the squared M-projections
    onto the normalized translations sum to at most 1.
    """
    t = np.atleast_2d(np.asarray(translations, dtype=float))
    if t.shape[0] != sol.modes.shape[0]:
        t = t.T
    proj2 = np.zeros(sol.count)
    for d in range(t.shape[1]):
        td = t[:, d]
        Mtd = M_red @ td
        nrm2 = float(td @ Mtd)
        if nrm2 <= 0.0:
            continue
        proj2 += (sol.modes.T @ Mtd) ** 2 / nrm2
    return np.sqrt(np.clip(proj2, 0.0, None))


def filter_relevant_unrestricted(sol: ModalSolution, mean_disp: np.ndarray,
                                 reference: float,
                                 rigid_projection: np.ndarray | None = None,
                                 delta_tol: float = 1e-3,
                                 proj_tol: float = 0.5) -> np.ndarray:
    """Indices of unrestricted modes that bound bandgaps from above.

    Rigid-body translations are excluded even though their mean displacement
    is maximal: by their M-projection onto the translation space when
    ``rigid_projection`` is given (robust to the eigenvalue roundoff of
    penalty-stiffened systems), and by requiring a strictly positive
    eigenvalue always. Zero-mean internal oscillations are excluded by the
    delta_tol test against the rigid-translation mean 1/sqrt(rho_bar V).
    """
    norms = np.linalg.norm(np.atleast_2d(mean_disp), axis=0)
    keep = (sol.eigenvalues > 0.0) & (norms > delta_tol * reference)
    if rigid_projection is not None:
        keep &= np.asarray(rigid_projection) < proj_tol
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        raise NoRelevantModeError(
            f"no unrestricted mode has positive eigenvalue and mean above {delta_tol}")
    return idx
