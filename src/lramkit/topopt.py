"""Level-set topology optimization of the unit-cell interior.

The cost couples two log-ratio terms built from the first relevant squared
resonance frequencies of the restricted system (all boundary dofs
prescribed) and the unrestricted system: one fits the restricted frequency
to a target, the other widens the gap between the two. The level set is
marched in pseudo-time with the pointwise topological derivative of the
cost. The discrete march is a strict descent, like the continuous flow it
follows: an iteration moves to a probed candidate only when that lowers
the cost, and the march stops at the first iteration where none does.

Only the gap term needs the unrestricted system. A probe skips that solve
when the fit share alpha f^2 of its restricted solve already reaches the
cost it has to beat. The prune is exact: in round-to-nearest
fl(a + b) >= a for b >= 0, so the probe's cost would reach that cost too,
and the march would not keep it either. At alpha = 1 the cost is f^2
alone, so of each batch of probes only the one of lowest f^2 solves the
unrestricted system (see ``optimize``); below 1 the gap term usually
dominates and the prune rarely fires.

Both reduced systems prescribe every vertical dof (the panel carries
horizontally polarized waves) and hold the frame rigid by constraint, and
the coating is made quasi-massless through the configured density scaling,
so the modal analysis only sees the internal resonances that matter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import blas, fem, forkpool, modal, rve
from .errors import FeasibilityError, NoRelevantModeError, SolverFailureError
from .grid import StructuredGrid
from .materials import deviatoric_voigt, interpolate, volumetric_voigt

# elastic modes per reduced solve before relevance-driven growth; the free
# solve asks for one more, its rigid translation (mode 0)
MODAL_COUNT = 2
SCAN_UP = 8                # step-scale doublings probed per direction
SCAN_DOWN = 12             # step-scale halvings probed per direction
NODE_FLIP_BUDGET = 12      # single-node trials once the field steps find no descent
CLAMP = 10.0               # |phi| bound on the design domain
PHI0 = 1.0                 # initial level set: a fully dense design domain
# ceiling of the step scale carried between iterations; it binds: without it
# the 20x20, alpha = 0.5, 1000 Hz run returns another phi of the same chi
STEP_SCALE_CAP = 1024.0

# alternating scale ladder: base, x2, /2, x4, /4, ..., x2^8, /2^8, /2^9, ...
# bulk removals early in a run need growing steps while the endgame needs
# single-point changes
_SCAN_ORDER = (0,) + tuple(s for k in range(1, max(SCAN_UP, SCAN_DOWN) + 1)
                           for s in (k, -k) if abs(s) <= (SCAN_UP if s > 0 else SCAN_DOWN))


def feasibility_lower_limit(phases, cell_size: float) -> float:
    """Theoretical lower bound (rad/s) on the first restricted resonance.

    sqrt(min_i(K_i + 4G_i/3) / max_i rho_i) / cell_size over the supplied
    phases (infinite if all are massless); targets below it are unreachable.
    """
    phases = list(phases)
    if not phases:
        raise ValueError("at least one phase required")
    stiff = min(p.p_wave_modulus for p in phases)
    dens = max(p.rho for p in phases)
    return math.sqrt(stiff / dens) / cell_size if dens > 0.0 else math.inf


@dataclass(frozen=True)
class CostBreakdown:
    """Cost Pi = alpha f^2 + (1 - alpha) g^2 and its ingredients."""

    Pi: float
    f: float
    g: float
    alpha: float
    lambda_target: float
    lambda_star1: float
    lambda1: float


def fit_term(lambda_star1: float, lambda_target: float) -> float:
    """Frequency-fitting term f = (ln lambda*_1 - ln lambda_t) / (ln lambda*_1 + ln lambda_t).

    Both squared frequencies must exceed 1 rad^2/s^2 so the logarithms stay
    positive and |f| < 1.
    """
    if min(lambda_star1, lambda_target) <= 1.0:
        raise ValueError("squared frequencies must exceed 1 rad^2/s^2")
    ls = math.log(lambda_star1)
    lt = math.log(lambda_target)
    return (ls - lt) / (ls + lt)


def evaluate_cost(lambda_star1: float, lambda1: float, lambda_target: float,
                  alpha: float) -> CostBreakdown:
    """Log-ratio frequency-fitting and bandgap terms.

    All squared frequencies must exceed 1 rad^2/s^2 so the logarithms stay
    positive and the cost stays in [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if lambda1 <= 1.0:
        raise ValueError("squared frequencies must exceed 1 rad^2/s^2")
    f = fit_term(lambda_star1, lambda_target)
    g = math.log(lambda_star1) / math.log(lambda1)
    # the fit share alpha * f * f is spelled as in analyze_design's bound
    Pi = alpha * f * f + (1.0 - alpha) * g * g
    return CostBreakdown(Pi=Pi, f=f, g=g, alpha=alpha, lambda_target=lambda_target,
                         lambda_star1=lambda_star1, lambda1=lambda1)


@dataclass(frozen=True)
class HistoryRow:
    iteration: int
    Pi: float
    f: float
    g: float
    lambda_star1: float
    lambda1: float
    vol_frac_dense: float
    vol_frac_soft: float


@dataclass
class LevelSetState:
    """Nodal level set with its design mask, iteration counter and history."""

    layout: rve.CellLayout
    phi: np.ndarray
    iteration: int = 0
    history: list[HistoryRow] = field(default_factory=list)

    def snapshot_grid(self) -> np.ndarray:
        """phi as a (ny+1, nx+1) array for plain-text snapshots."""
        g = self.layout.grid
        return self.phi.reshape(g.ny + 1, g.nx + 1)


@dataclass(frozen=True)
class DesignAnalysis:
    """Modal data of one characteristic function, as used by the cost."""

    chi: np.ndarray
    restricted: modal.ModalSolution
    unrestricted: modal.ModalSolution
    relevant_restricted: np.ndarray
    relevant_unrestricted: np.ndarray
    mode_star: np.ndarray
    mode_free: np.ndarray
    cost: CostBreakdown

    @property
    def lambda_star1(self) -> float:
        return self.cost.lambda_star1

    @property
    def lambda1(self) -> float:
        return self.cost.lambda1

    def worst_elastic_residual(self) -> float:
        """Largest eigen residual over both solves' elastic modes. Mode 0 of
        the free solve is the rigid translation, left out by position: its
        eigenvalue is roundoff, so its residual is not small by nature."""
        return float(max(self.restricted.residuals.max(initial=0.0),
                         self.unrestricted.residuals[1:].max(initial=0.0)))


@dataclass(frozen=True)
class OptimizerSettings:
    target_f_hz: float
    alpha: float
    dt: float = 1e-3
    c1: float | None = None          # None: calibrated from the first step
    max_iters: int = 1000
    stop_tol: float = 1e-7
    delta_tol: float = 1e-3

    @property
    def lambda_target(self) -> float:
        w = 2.0 * math.pi * self.target_f_hz
        return w * w


@dataclass
class OptimizeResult:
    state: LevelSetState
    analysis: DesignAnalysis
    settings: OptimizerSettings
    phases: rve.PhaseSet
    c1: float
    converged: bool
    stagnated: bool
    instability_warning: bool
    analyses: int      # designs analysed, the initial one included
    free_solves: int   # analyses that solved the free pencil and returned a design
    processes: int = field(default=1, compare=False)   # that analysed the probes

    @property
    def history(self) -> list[HistoryRow]:
        return self.state.history

    @property
    def bandgap_width_hz(self) -> float:
        c = self.analysis.cost
        return (math.sqrt(c.lambda1) - math.sqrt(c.lambda_star1)) / (2.0 * math.pi)


def constraint_map(layout: rve.CellLayout) -> fem.ConstraintOperators:
    """The optimizer's free map: every vertical dof prescribed, and the frame
    (every node of a frame element) following one translation dof, column 0.
    The restricted map prescribes the frame instead; it is this map without
    column 0, so its pencil is the free pencil's [1:, 1:] block."""
    grid = layout.grid
    frame = np.isin(np.arange(grid.nnode), grid.elements[~layout.design_elements])
    return fem.build_constraints(grid, fem.BoundaryCondition.FREE, horizontal_only=True,
                                 frame=frame)


@dataclass(frozen=True)
class RestrictedSolve:
    """The restricted half of a design analysis: the relevant modes of the
    free pencil's [1:, 1:] block and the fit term of the first of them."""

    solution: modal.ModalSolution
    relevant: np.ndarray
    lambda_star1: float
    f: float


def _pencils(layout: rve.CellLayout, chi: np.ndarray, phases: rve.PhaseSet,
             ops: fem.ConstraintOperators):
    """(<rho>, M, K): the reduced free pencil of a design and its mean density."""
    fields = rve.material_fields(layout, chi, phases)
    M, K = fem.assemble(layout.grid, fields, ops)
    return float(fields.rho.mean()), M, K   # every Gauss point weighs the same


def _restricted(layout: rve.CellLayout, rho_bar: float, M, K,
                settings: OptimizerSettings) -> RestrictedSolve:
    # the x-translation I_x is the free map's all-ones vector, so the
    # restricted momentum coupling P_r^T M I_x is the free M's row sums past row 0
    volume = layout.grid.area
    momentum = (M @ np.ones(M.shape[0]))[1:]

    def relevant(sol):
        coupling = (momentum @ sol.modes)[None] / volume
        return modal.filter_relevant_restricted(
            sol, coupling, math.sqrt(rho_bar / volume), settings.delta_tol)

    sol, rel = modal.solve_relevant(K[1:, 1:], M[1:, 1:], MODAL_COUNT, relevant,
                                    modal.band_shift_invert)
    lam_s = float(sol.eigenvalues[rel[0]])
    return RestrictedSolve(solution=sol, relevant=rel, lambda_star1=lam_s,
                           f=fit_term(lam_s, settings.lambda_target))


def restricted_solve(layout: rve.CellLayout, chi: np.ndarray, phases: rve.PhaseSet,
                     settings: OptimizerSettings,
                     ops: fem.ConstraintOperators) -> RestrictedSolve:
    """The restricted half of ``analyze_design``, to be resumed by it."""
    return _restricted(layout, *_pencils(layout, chi, phases, ops), settings)


def analyze_design(layout: rve.CellLayout, chi: np.ndarray, phases: rve.PhaseSet,
                   settings: OptimizerSettings, ops: fem.ConstraintOperators,
                   bound: float = math.inf,
                   restricted: RestrictedSolve | None = None) -> DesignAnalysis | None:
    """Assemble the reduced free pencil of one design under ``ops``, the
    ``constraint_map``, and solve its restricted block and itself.

    Returns None, without solving the free pencil, when the fit share
    alpha f^2 of the restricted solve alone reaches ``bound``: the cost
    Pi = alpha f^2 + (1 - alpha) g^2 cannot then fall below it.
    ``restricted``, this design's ``restricted_solve`` made earlier, resumes
    the analysis after it; the pencil is then assembled again, bitwise the
    same, only if the free pencil is solved.
    """
    pencils = None
    if restricted is None:
        pencils = _pencils(layout, chi, phases, ops)
        restricted = _restricted(layout, *pencils, settings)
    f = restricted.f
    if settings.alpha * f * f >= bound:
        return None

    volume = layout.grid.area
    rho_bar, M, K = pencils or _pencils(layout, chi, phases, ops)

    def free_relevant(sol):
        mean = modal.mean_displacement(sol, ops.N_mu, ops.P)
        return modal.filter_relevant_unrestricted(
            sol, mean, 1.0 / math.sqrt(rho_bar * volume), settings.delta_tol)

    shift_free = -(2.0 * math.pi * max(settings.target_f_hz / 10.0, 10.0)) ** 2
    sol_u, rel_u = modal.solve_relevant(K, M, MODAL_COUNT + 1, free_relevant,
                                        partial(modal.band_shift_invert, shift=shift_free))
    lam_u = float(sol_u.eigenvalues[rel_u[0]])
    cost = evaluate_cost(restricted.lambda_star1, lam_u, settings.lambda_target,
                         settings.alpha)
    sol_r, rel_r = restricted.solution, restricted.relevant
    # the restricted map prescribes the frame translation, column 0
    mode_star = ops.P @ np.concatenate(([0.0], sol_r.modes[:, rel_r[0]]))
    mode_free = ops.P @ sol_u.modes[:, rel_u[0]]
    return DesignAnalysis(chi=chi, restricted=sol_r, unrestricted=sol_u,
                          relevant_restricted=rel_r, relevant_unrestricted=rel_u,
                          mode_star=mode_star, mode_free=mode_free, cost=cost)


def _eigenvalue_sensitivity_gp(grid: StructuredGrid, mode: np.ndarray, lam: float,
                               chi: np.ndarray, phases: rve.PhaseSet) -> np.ndarray:
    """Pointwise d(lambda)/d(chi) at Gauss points for one mass-normalized mode:
    strain : dC/dchi : strain - lambda * drho/dchi * |u|^2."""
    disp = fem.gauss_displacements(grid, mode)
    strain = fem.gauss_strains(grid, mode)
    _, dK = interpolate(chi, phases.scheme("K"))
    _, dG = interpolate(chi, phases.scheme("G"))
    _, drho = interpolate(chi, phases.scheme("rho"))
    VOL = volumetric_voigt()
    DEV = deviatoric_voigt()
    qV = np.einsum("nga,ab,ngb->ng", strain, VOL, strain)
    qD = np.einsum("nga,ab,ngb->ng", strain, DEV, strain)
    return dK * qV + dG * qD - lam * drho * (disp ** 2).sum(axis=-1)


def sensitivity_field(layout: rve.CellLayout, analysis: DesignAnalysis,
                      phases: rve.PhaseSet, settings: OptimizerSettings) -> np.ndarray:
    """Nodal topological derivative of the cost, zero outside the design domain.

    Gauss-point values are gathered to their nearest corner nodes, so
    interface nodes feel both sides of the material boundary and the level
    set can move it in either direction.
    """
    grid = layout.grid
    cost = analysis.cost
    lam_s, lam_u = cost.lambda_star1, cost.lambda1
    lt = math.log(cost.lambda_target)
    ls = math.log(lam_s)
    lu = math.log(lam_u)

    dlam_s = _eigenvalue_sensitivity_gp(grid, analysis.mode_star, lam_s, analysis.chi, phases)
    a_f = 4.0 * cost.alpha * cost.f / (lam_s * lt) * (lt / (ls + lt)) ** 2
    vtd = a_f * dlam_s
    if cost.alpha < 1.0:
        dlam_u = _eigenvalue_sensitivity_gp(grid, analysis.mode_free, lam_u,
                                            analysis.chi, phases)
        a_g = 2.0 * (1.0 - cost.alpha) * cost.g / (lam_s * lu)
        vtd = vtd + a_g * (dlam_s - cost.g * (lam_s / lam_u) * dlam_u)

    nodal = np.zeros(grid.nnode)
    count = np.zeros(grid.nnode)
    design = layout.design_elements
    nodes = grid.elements[design]
    for k in range(4):  # Gauss point k sits nearest corner node k
        np.add.at(nodal, nodes[:, k], vtd[design, k])
        np.add.at(count, nodes[:, k], 1.0)
    np.divide(nodal, count, out=nodal, where=count > 0)
    nodal[~layout.design_nodes] = 0.0
    return nodal


def hj_step(state: LevelSetState, sensitivity: np.ndarray, dt: float,
            c1: float) -> LevelSetState:
    """One explicit pseudo-time update of phi on the design domain, within CLAMP."""
    phi = state.phi.copy()
    mask = state.layout.design_nodes
    phi[mask] = np.clip(phi[mask] - dt * c1 * sensitivity[mask], -CLAMP, CLAMP)
    return replace(state, phi=phi, iteration=state.iteration + 1)


def _history_row(iteration: int, cost: CostBreakdown, layout, chi) -> HistoryRow:
    _, dense, soft = rve.volume_fractions(layout, chi)
    return HistoryRow(iteration=iteration, Pi=cost.Pi, f=cost.f, g=cost.g,
                      lambda_star1=cost.lambda_star1, lambda1=cost.lambda1,
                      vol_frac_dense=dense, vol_frac_soft=soft)


def _node_flip_candidates(layout: rve.CellLayout, phi: np.ndarray,
                          vtd: np.ndarray, budget: int) -> list[int]:
    """Design nodes whose sign mirror follows the sensitivity direction.

    Half the budget goes to removals (positive sensitivity at dense nodes),
    half to additions, each ranked by sensitivity magnitude.
    """
    design = layout.design_nodes
    removal = np.flatnonzero(design & (vtd > 0.0) & (phi > 0.0))
    addition = np.flatnonzero(design & (vtd < 0.0) & (phi < 0.0))
    removal = removal[np.argsort(vtd[removal])[::-1]]
    addition = addition[np.argsort(vtd[addition])]
    half = max(budget // 2, 1)
    picks = list(removal[:half]) + list(addition[:half])
    return [int(n) for n in picks[:budget]]


# probe failures that only rule the candidate out: no resonator left, or
# solver trouble
_DEGENERATE = (NoRelevantModeError, SolverFailureError, ValueError)


class _Probes:
    """One process's side of the march's probe batches (see ``optimize``).

    A batch is a recipe, ``("step", phi, direction, c1)`` or
    ``("flip", phi)``, and one parameter per candidate: a step scale or a
    node. Between the rounds of a batch each process keeps what the parent
    may still ask for: at alpha = 1 the restricted solve of every candidate
    of its share, below 1 the lowest-cost design of its share.
    """

    def __init__(self, layout, phases, settings, ops):
        self.layout, self.phases, self.settings, self.ops = layout, phases, settings, ops
        self.held = {}     # candidate index -> (recipe, parameter, RestrictedSolve)
        self.best = None   # (Pi, candidate index, DesignAnalysis) below the batch's bound

    def __call__(self, request):
        kind, *args = request
        return getattr(self, kind)(*args)

    def phi(self, recipe, param) -> np.ndarray:
        """The level set of candidate ``param`` of a batch."""
        if recipe[0] == "step":
            _, phi, direction, c1 = recipe
            return hj_step(LevelSetState(self.layout, phi), direction, self.settings.dt,
                           c1 * param).phi
        phi_t = recipe[1].copy()
        # hard-set past the clamp so the node's nearest Gauss points flip no
        # matter how strongly its neighbours pull the other way
        phi_t[param] = -math.copysign(CLAMP, phi_t[param])
        return phi_t

    def _analyze(self, recipe, param, bound, restricted=None):
        chi = rve.chi_at_gauss(self.layout, self.phi(recipe, param))
        return analyze_design(self.layout, chi, self.phases, self.settings, self.ops,
                              bound=bound, restricted=restricted)

    def _keep(self, index, analysis, bound):
        """Pi of ``analysis`` (None for none), kept as this share's best if it beats ``bound``."""
        if analysis is None:
            return None
        pi = analysis.cost.Pi
        if pi < bound and (self.best is None or pi < self.best[0]):
            self.best = (pi, index, analysis)
        return pi

    def probe(self, recipe, index, param, bound):
        """First round: (fit share alpha f^2 of the held restricted solve,
        Pi of the returned design), either None. Below alpha = 1 the whole
        analysis runs, bounded by the batch's cost to beat; at alpha = 1
        only the restricted solve, which is held."""
        try:
            if self.settings.alpha < 1.0:
                return None, self._keep(index, self._analyze(recipe, param, bound), bound)
            chi = rve.chi_at_gauss(self.layout, self.phi(recipe, param))
            stage = restricted_solve(self.layout, chi, self.phases, self.settings, self.ops)
        except _DEGENERATE:
            return None, None
        self.held[index] = (recipe, param, stage)
        return self.settings.alpha * stage.f * stage.f, None

    def conclude(self, index, bound):
        """Resume held candidate ``index`` bounded by ``bound``: Pi if it
        returned a design, else None."""
        recipe, param, stage = self.held.pop(index)
        try:
            return self._keep(index, self._analyze(recipe, param, bound, stage), bound)
        except _DEGENERATE:
            return None

    def close(self, bound, winner):
        """Last round: conclude what is still held, bounded by the batch's
        final cost to beat, and forget the batch. Returns the free solves
        that made and the DesignAnalysis of candidate ``winner`` if this
        process holds it."""
        solved = sum(self.conclude(i, bound) is not None for i in sorted(self.held))
        best, self.best = self.best, None
        return solved, (best[2] if best is not None and best[1] == winner else None)


def _describe_requests(requests) -> str:
    if requests[0][0] == "probe":
        return "optimizer process for probe candidates " + ", ".join(
            f"{r[2]} ({r[3]:g})" for r in requests)
    return f"optimizer process serving a probe batch's {requests[0][0]}"


@blas.single_threaded()
def optimize(layout: rve.CellLayout, phases: rve.PhaseSet,
             settings: OptimizerSettings, observer=None) -> OptimizeResult:
    """Run the level-set march from a fully dense design domain.

    ``observer(iteration, phi_copy, history_row)`` is called after the
    initial analysis and after every iteration.

    Each iteration probes the step-scale ladder along the sensitivity
    field and its positive and negative parts, then, if none of those
    lowers the cost, single-node flips; it moves to the lowest-cost
    candidate only if that lowers the cost. The march stops with
    ``converged=True`` once the cost reaches ``stop_tol``, and with
    ``stagnated=True`` at the first iteration where no candidate lowers
    it: such an iteration leaves the level set, the sensitivity and the
    step scale unchanged, so every later one would repeat it. The
    returned design is therefore always the lowest-cost one of the run.

    Each direction's ladder, and the list of node flips, is one batch: its
    candidates not yet seen in the iteration are analysed on a
    ``forkpool.Pool`` opened after the initial analysis, candidate i by
    process i mod W, one process per usable CPU. The batch's best is its
    lowest (Pi, probe index) below the cost to beat (the iteration's best
    so far, else the current design's), which is the candidate the probes
    would keep one at a time with a strict ``<``. Below alpha = 1 each
    candidate is analysed with that cost as its bound, so one whose fit
    share alpha f^2 reaches it skips the free pencil. At alpha = 1, where
    Pi = f^2 exactly, candidates first solve only the restricted pencil;
    then the one of lowest (f^2, probe index) solves the free pencil, the
    next in that order if that fails, and the first that succeeds is the
    best, whose cost every other candidate reaches. No decision changes:
    a pruned candidate's cost reaches the bound too (see the module
    docstring). Processes return costs, and only the best's analysis
    travels back, so every decision and the result do not depend on W.
    ``analyses`` and ``free_solves`` of the result count the analyses and
    the free pencils solved; ``processes`` is W.

    The march runs with one BLAS thread per library, in every process: its
    band factorizations, thousands of small solves and ARPACK steps gain
    nothing from a second BLAS thread, and the idle pools' spinning workers
    slow every layer (``dpbtrf`` on a 60x60 pencil about fivefold).
    """
    grid = layout.grid
    omega_min = feasibility_lower_limit((phases.frame, phases.dense, phases.soft),
                                        grid.cell_size)
    omega_target = 2.0 * math.pi * settings.target_f_hz
    if omega_target <= omega_min:
        raise FeasibilityError(
            f"target {settings.target_f_hz:.1f} Hz is below the feasibility limit "
            f"{omega_min / (2.0 * math.pi):.1f} Hz for a {grid.cell_size} m cell")

    ops = constraint_map(layout)

    state = LevelSetState(layout=layout, phi=np.full(grid.nnode, PHI0))
    current = analyze_design(layout, rve.chi_at_gauss(layout, state.phi), phases,
                             settings, ops)
    state.history.append(_history_row(0, current.cost, layout, current.chi))
    if observer is not None:
        observer(0, state.phi.copy(), state.history[-1])

    if current.cost.Pi <= settings.stop_tol:
        return OptimizeResult(state=state, analysis=current, settings=settings,
                              phases=phases, c1=settings.c1 or 0.0, converged=True,
                              stagnated=False, instability_warning=False,
                              analyses=1, free_solves=1)

    vtd = sensitivity_field(layout, current, phases, settings)
    c1 = settings.c1
    if c1 is None:
        peak = float(np.abs(vtd).max())
        if peak <= 0.0:
            raise SolverFailureError("zero sensitivity field at the initial design")
        c1 = 0.1 * float(np.abs(state.phi[layout.design_nodes]).max()) / (settings.dt * peak)

    step_scale = 1.0
    converged = False
    stagnated = False
    jumps: list[tuple[int, int]] = []

    seen: set[bytes] = set()   # designs analysed in this iteration, the current one included
    best = None                # this iteration's lowest-cost descent: (analysis, phi, step scale)
    analyses = free_solves = 1   # the initial design's
    probes = _Probes(layout, phases, settings, ops)

    def probe_batch(recipe, params):
        """Analyse the batch's candidates not seen in this iteration; returns
        (analysis, phi, parameter) of its best below the cost to beat, or None."""
        nonlocal analyses, free_solves
        fresh = []
        for param in params:
            key = rve.chi_at_gauss(layout, probes.phi(recipe, param)).tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(param)
        if not fresh:
            return None
        analyses += len(fresh)
        bound = (current if best is None else best[0]).cost.Pi
        results = pool.map([("probe", recipe, i, p, bound) for i, p in enumerate(fresh)])
        free_solves += sum(pi is not None for _, pi in results)
        winner = min(((pi, i) for i, (_, pi) in enumerate(results)
                      if pi is not None and pi < bound), default=None)
        # alpha = 1: Pi = f^2, so the first held candidate in (f^2, index)
        # order that solves its free pencil is the batch's best
        for share, i in sorted((s, i) for i, (s, _) in enumerate(results)
                               if s is not None and s < bound):
            pi = pool.call(i % pool.processes, ("conclude", i, bound))
            if pi is not None:
                free_solves += 1
                winner = (pi, i)
                break
        final = (bound, None) if winner is None else winner
        closed = pool.map([("close", *final)] * pool.processes)
        free_solves += sum(n for n, _ in closed)
        if winner is None:
            return None
        analysis = next(a for _, a in closed if a is not None)
        param = fresh[winner[1]]
        return analysis, probes.phi(recipe, param), param

    with forkpool.Pool(probes, forkpool.processes(len(_SCAN_ORDER)),
                       describe=_describe_requests) as pool:
        for it in range(1, settings.max_iters + 1):
            seen = {current.chi.tobytes()}
            best = None
            # the one-signed components act as fallback descent directions:
            # near the optimum the full field often couples a benign material
            # removal with a catastrophic re-connection somewhere else, and
            # only the split direction can realize the benign half
            for direction in (vtd, np.where(vtd > 0.0, vtd, 0.0),
                              np.where(vtd < 0.0, vtd, 0.0)):
                found = probe_batch(("step", state.phi, direction, c1),
                                    [step_scale * 2.0 ** k for k in _SCAN_ORDER])
                if found is not None:
                    best = found
                if best is not None and best[0].cost.Pi < 0.97 * current.cost.Pi:
                    break  # clear descent found, skip the fallback directions
            if best is None:
                # endgame fallback: the field update moves whole interface
                # bands at once, too coarse once the cost is nearly converged.
                # Mirror single nodes along the sensitivity direction for the
                # finest possible topology change.
                found = probe_batch(("flip", state.phi), _node_flip_candidates(
                    layout, state.phi, vtd, NODE_FLIP_BUDGET))
                if found is not None:
                    best = (*found[:2], step_scale)
            if best is None:
                stagnated = True
                break

            prev_lam = current.cost.lambda_star1
            current, phi_t, scale = best
            state = replace(state, phi=phi_t, iteration=it)
            step_scale = min(max(scale, 2.0 ** -SCAN_DOWN), STEP_SCALE_CAP)
            ratio = math.log10(current.cost.lambda_star1 / prev_lam)
            if abs(ratio) > 1.0:
                jumps.append((it, 1 if ratio > 0 else -1))

            state.history.append(_history_row(it, current.cost, layout, current.chi))
            if observer is not None:
                observer(it, state.phi.copy(), state.history[-1])

            if current.cost.Pi <= settings.stop_tol:
                converged = True
                break
            vtd = sensitivity_field(layout, current, phases, settings)

    instability = any(s1 != s2 and abs(i1 - i2) <= 20
                      for (i1, s1) in jumps for (i2, s2) in jumps)
    return OptimizeResult(state=state, analysis=current, settings=settings,
                          phases=phases, c1=c1, converged=converged,
                          stagnated=stagnated, instability_warning=instability,
                          analyses=analyses, free_solves=free_solves,
                          processes=pool.processes)
