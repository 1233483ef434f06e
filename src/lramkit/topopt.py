"""Level-set topology optimization of the unit-cell interior.

The cost couples two log-ratio terms built from the first relevant squared
resonance frequencies of the restricted system (all boundary dofs
prescribed) and the unrestricted system: one fits the restricted frequency
to a target, the other widens the gap between the two. The level set is
marched in pseudo-time with the pointwise topological derivative of the
cost; a step is accepted only if it does not increase the cost beyond a
small tolerance, which keeps the discrete iteration close to the
monotonically descending continuous flow.

Both reduced systems prescribe every vertical dof (the panel carries
horizontally polarized waves), the frame is made quasi-rigid and the
coating quasi-massless through the configured property scalings, so the
modal analysis only sees the internal resonances that matter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, modal, rve
from .errors import FeasibilityError, NoRelevantModeError, SolverFailureError
from .grid import StructuredGrid
from .materials import deviatoric_voigt, interpolate, volumetric_voigt


def feasibility_lower_limit(phases, cell_size: float) -> float:
    """Theoretical lower bound (rad/s) on the first restricted resonance.

    sqrt(min_i(K_i + 4G_i/3) / max_i rho_i) / cell_size over the supplied
    phases; targets below it are unreachable for this cell size.
    """
    phases = list(phases)
    if not phases:
        raise ValueError("at least one phase required")
    stiff = min(p.p_wave_modulus for p in phases)
    dens = max(p.rho for p in phases)
    return math.sqrt(stiff / dens) / cell_size


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


def evaluate_cost(lambda_star1: float, lambda1: float, lambda_target: float,
                  alpha: float) -> CostBreakdown:
    """Log-ratio frequency-fitting and bandgap terms.

    All squared frequencies must exceed 1 rad^2/s^2 so the logarithms stay
    positive and the cost stays in [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if min(lambda_star1, lambda1, lambda_target) <= 1.0:
        raise ValueError("squared frequencies must exceed 1 rad^2/s^2")
    ls = math.log(lambda_star1)
    lt = math.log(lambda_target)
    lu = math.log(lambda1)
    f = (ls - lt) / (ls + lt)
    g = ls / lu
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


@dataclass(frozen=True)
class OptimizerSettings:
    target_f_hz: float
    alpha: float
    dt: float = 1e-3
    c1: float | None = None          # None: calibrated from the first step
    max_iters: int = 1000
    stop_tol: float = 1e-7
    delta_tol: float = 1e-3
    modal_count: int = 2
    increase_tol: float = 0.005      # accepted relative cost increase per step
    scan_up: int = 8                 # step-scale doublings probed per iteration
    scan_down: int = 12              # step-scale halvings probed per iteration
    node_flip_budget: int = 12       # single-node trials once field steps stall
    stagnation_window: int = 80
    drift_boost_cap: float = 1024.0
    clamp: float = 10.0
    phi0: float = 1.0

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

    @property
    def history(self) -> list[HistoryRow]:
        return self.state.history

    @property
    def bandgap_width_hz(self) -> float:
        c = self.analysis.cost
        return (math.sqrt(c.lambda1) - math.sqrt(c.lambda_star1)) / (2.0 * math.pi)


def _solve_relevant(K, M, ops, volume, count, delta_tol, shift, restricted: bool):
    """Smallest modes of the reduced pencil plus relevance indices."""
    P = ops.P
    Kr = (P.T @ (K @ P)).tocsr()
    Mr = (P.T @ (M @ P)).tocsr()
    rho_bar = modal.average_density(M, ops.I_rigid, volume)

    def relevant(sol):
        if restricted:
            coupling = modal.momentum_coupling(sol, M, P, ops.I_rigid, volume)
            return modal.filter_relevant_restricted(
                sol, coupling, math.sqrt(rho_bar / volume), delta_tol)
        mean = modal.mean_displacement(sol, ops.N_mu, P)
        proj = modal.rigid_projections(sol, Mr, P.T @ ops.I_rigid)
        return modal.filter_relevant_unrestricted(
            sol, mean, 1.0 / math.sqrt(rho_bar * volume), proj, delta_tol)

    return modal.solve_relevant(Kr, Mr, count, relevant, shift=shift,
                                system="restricted" if restricted else "unrestricted")


def analyze_design(layout: rve.CellLayout, chi: np.ndarray, phases: rve.PhaseSet,
                   settings: OptimizerSettings, ops_restricted, ops_free) -> DesignAnalysis:
    """Assemble and solve both reduced modal problems for one design."""
    grid = layout.grid
    fields = rve.material_fields(layout, chi, phases, include_viscosity=False)
    M, K = fem.assemble(grid, fields, validate=False)
    volume = grid.area

    shift_free = -(2.0 * math.pi * max(settings.target_f_hz / 10.0, 10.0)) ** 2
    sol_r, rel_r = _solve_relevant(K, M, ops_restricted, volume, settings.modal_count,
                                   settings.delta_tol, shift=0.0, restricted=True)
    sol_u, rel_u = _solve_relevant(K, M, ops_free, volume, settings.modal_count,
                                   settings.delta_tol, shift=shift_free, restricted=False)

    lam_s = float(sol_r.eigenvalues[rel_r[0]])
    lam_u = float(sol_u.eigenvalues[rel_u[0]])
    cost = evaluate_cost(lam_s, lam_u, settings.lambda_target, settings.alpha)
    mode_star = np.asarray(ops_restricted.P @ sol_r.modes[:, rel_r[0]]).ravel()
    mode_free = np.asarray(ops_free.P @ sol_u.modes[:, rel_u[0]]).ravel()
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


def hj_step(state: LevelSetState, sensitivity: np.ndarray, dt: float, c1: float,
            clamp: float = 10.0) -> LevelSetState:
    """One explicit pseudo-time update of the level set on the design domain."""
    phi = state.phi.copy()
    mask = state.layout.design_nodes
    phi[mask] = np.clip(phi[mask] - dt * c1 * sensitivity[mask], -clamp, clamp)
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


def optimize(layout: rve.CellLayout, phases: rve.PhaseSet,
             settings: OptimizerSettings, observer=None) -> OptimizeResult:
    """Run the level-set march from a fully dense design domain.

    ``observer(iteration, phi_copy, history_row)`` is called after the
    initial analysis and after every iteration. Returns the best design
    found; if progress stalls for ``stagnation_window`` iterations the best
    state so far is returned with ``stagnated=True``.
    """
    grid = layout.grid
    omega_min = feasibility_lower_limit((phases.frame, phases.dense, phases.soft),
                                        grid.cell_size)
    omega_target = 2.0 * math.pi * settings.target_f_hz
    if omega_target <= omega_min:
        raise FeasibilityError(
            f"target {settings.target_f_hz:.1f} Hz is below the feasibility limit "
            f"{omega_min / (2.0 * math.pi):.1f} Hz for a {grid.cell_size} m cell")

    ops_r = fem.build_constraints(grid, fem.BoundaryCondition.FULLY_PRESCRIBED,
                                  horizontal_only=True)
    ops_u = fem.build_constraints(grid, fem.BoundaryCondition.FREE,
                                  horizontal_only=True)

    state = LevelSetState(layout=layout, phi=np.full(grid.nnode, settings.phi0))
    current = analyze_design(layout, rve.chi_at_gauss(layout, state.phi), phases,
                             settings, ops_r, ops_u)
    state.history.append(_history_row(0, current.cost, layout, current.chi))
    if observer is not None:
        observer(0, state.phi.copy(), state.history[-1])

    if current.cost.Pi <= settings.stop_tol:
        return OptimizeResult(state=state, analysis=current, settings=settings,
                              phases=phases, c1=settings.c1 or 0.0, converged=True,
                              stagnated=False, instability_warning=False)

    vtd = sensitivity_field(layout, current, phases, settings)
    c1 = settings.c1
    if c1 is None:
        peak = float(np.abs(vtd).max())
        if peak <= 0.0:
            raise SolverFailureError("zero sensitivity field at the initial design")
        c1 = 0.1 * float(np.abs(state.phi[layout.design_nodes]).max()) / (settings.dt * peak)

    best_phi = state.phi.copy()
    best = current
    no_best = 0
    step_scale = 1.0
    converged = False
    stagnated = False
    jumps: list[tuple[int, int]] = []
    cache: dict[bytes, DesignAnalysis] = {}

    def _analyze_cached(chi):
        key = chi.tobytes()
        hit = cache.get(key)
        if hit is not None:
            return hit
        cand = analyze_design(layout, chi, phases, settings, ops_r, ops_u)
        if len(cache) > 48:
            cache.pop(next(iter(cache)))
        cache[key] = cand
        return cand

    # alternating scale ladder: base, x2, /2, x4, /4, ... bulk removals early
    # in a run need growing steps while the endgame needs single-point flips
    scan_order = [0]
    for k in range(1, max(settings.scan_up, settings.scan_down) + 1):
        if k <= settings.scan_up:
            scan_order.append(k)
        if k <= settings.scan_down:
            scan_order.append(-k)

    for it in range(1, settings.max_iters + 1):
        accepted = False
        topology_changed = False
        drift_trial = None
        seen: set[bytes] = set()
        # the one-signed components act as fallback descent directions: near
        # the optimum the full field often couples a benign material removal
        # with a catastrophic re-connection somewhere else, and only the
        # split direction can realize the benign half
        directions = (vtd,
                      np.where(vtd > 0.0, vtd, 0.0),
                      np.where(vtd < 0.0, vtd, 0.0))
        best_cand = None
        best_trial = None
        best_scale = None
        for d_idx, direction in enumerate(directions):
            for k in scan_order:
                scale = step_scale * 2.0 ** k
                trial = hj_step(state, direction, settings.dt, c1 * scale, settings.clamp)
                chi_t = rve.chi_at_gauss(layout, trial.phi)
                if np.array_equal(chi_t, current.chi):
                    if d_idx == 0 and (drift_trial is None or k > 0):
                        drift_trial = trial
                    continue
                key = chi_t.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                try:
                    cand = _analyze_cached(chi_t)
                except (NoRelevantModeError, SolverFailureError, ValueError):
                    # degenerate candidate (no resonator left, solver trouble)
                    continue
                if best_cand is None or cand.cost.Pi < best_cand.cost.Pi:
                    best_cand, best_trial, best_scale = cand, trial, scale
            if best_cand is not None and best_cand.cost.Pi < 0.97 * current.cost.Pi:
                break  # clear descent found, skip the fallback directions
        if best_cand is None or best_cand.cost.Pi >= current.cost.Pi:
            # endgame fallback: the field update moves whole interface bands
            # at once, too coarse once the cost is nearly converged. Mirror
            # single nodes along the sensitivity direction for the finest
            # possible topology change.
            for node in _node_flip_candidates(layout, state.phi, vtd, settings.node_flip_budget):
                phi_t = state.phi.copy()
                # hard-set past the clamp so the node's nearest Gauss points
                # flip no matter how strongly its neighbours pull the other way
                phi_t[node] = -math.copysign(settings.clamp, phi_t[node])
                chi_t = rve.chi_at_gauss(layout, phi_t)
                if np.array_equal(chi_t, current.chi):
                    continue
                key = chi_t.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                try:
                    cand = _analyze_cached(chi_t)
                except (NoRelevantModeError, SolverFailureError, ValueError):
                    continue
                if best_cand is None or cand.cost.Pi < best_cand.cost.Pi:
                    best_cand = cand
                    best_trial = replace(state, phi=phi_t, iteration=state.iteration + 1)
                    best_scale = step_scale
        if (best_cand is not None
                and best_cand.cost.Pi <= current.cost.Pi * (1.0 + settings.increase_tol)):
            prev_lam = current.cost.lambda_star1
            state = best_trial
            current = best_cand
            step_scale = min(max(best_scale, 2.0 ** -settings.scan_down),
                             settings.drift_boost_cap)
            accepted = True
            topology_changed = True
            ratio = math.log10(current.cost.lambda_star1 / prev_lam)
            if abs(ratio) > 1.0:
                jumps.append((it, 1 if ratio > 0 else -1))
        if not accepted and drift_trial is not None:
            # no admissible topology change; keep sliding the level set
            state = drift_trial
            step_scale = min(step_scale * 2.0, settings.drift_boost_cap)
            accepted = True
        if not accepted:
            state = replace(state, iteration=state.iteration + 1)

        state.history.append(_history_row(it, current.cost, layout, current.chi))
        if observer is not None:
            observer(it, state.phi.copy(), state.history[-1])

        if topology_changed:
            vtd = sensitivity_field(layout, current, phases, settings)

        if current.cost.Pi < best.cost.Pi:
            best = current
            best_phi = state.phi.copy()
            no_best = 0
        else:
            no_best += 1

        if current.cost.Pi <= settings.stop_tol:
            converged = True
            break
        if no_best >= settings.stagnation_window:
            stagnated = True
            break

    instability = any(s1 != s2 and abs(i1 - i2) <= 20
                      for (i1, s1) in jumps for (i2, s2) in jumps)

    if best.cost.Pi < current.cost.Pi:
        state = replace(state, phi=best_phi)
        current = best

    return OptimizeResult(state=state, analysis=current, settings=settings,
                          phases=phases, c1=c1, converged=converged,
                          stagnated=stagnated, instability_warning=instability)
