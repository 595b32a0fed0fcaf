"""Time integration of the 2x2 model system with energy monitoring.

The system is

    d/dt u1 = d/dx u2 + (F(t,x,u) u)_1
    d/dt u2 = a(t,x) d/dx u1 + (F(t,x,u) u)_2

integrated by classical RK4 with spectral d/dx, under the CFL rule
dt <= CFL * dx / max(1, sup sqrt(a)).  A nonlinear run places u1
times the plateau profile chi in the (2,1) entry of F, which reproduces
the wave-like equation d_t^2 u1 = d_x(a d_x u1) + d_x(u1^2) on the
plateau.  Runs record the Gevrey energy budget along the trajectory in
two phases: `integrate` keeps the state at each record, and `observe`
measures the budget of each record after the RK4 loop has ended, one
row of the `EnergyTrace` table per record.  The trajectory does not
depend on taudot, so one integration serves every rate with the same
horizon.  An "auto" rate needs the budget at taudot = 0 to set the
rate, and the budget at that rate: `measure_tau_threshold` observes
each record once for both, and `observe` observes again only the
records where its guess at the rate was stale.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .spectral import (DEFAULT_MAX_EXPONENT, STEP_BUDGET, Grid, bracket,
                       finite_real)
from .symbols import CoefficientField, SymbolB
from .energy import Symmetrizer, dt_energy_breakdown
from .energy import energy as gevrey_energy

__all__ = [
    "RunConfig",
    "EnergyTrace",
    "CFLError",
    "SolverBlowupError",
    "wave_packet",
    "rhs_parts",
    "rhs",
    "step_rk4",
    "Trajectory",
    "integrate",
    "observe",
    "run_with_energy",
    "measure_tau_threshold",
    "verify_breakdown_identity",
]


CFL = 0.25           # the step as a fraction of dx / max(1, sup sqrt(a))
TAU0_BOUND = 2.0     # tau0 < R^(-s)/s of the coefficient's claimed Gevrey
                     # class (s, R) = (1/2, 1); not a measured radius
PACKET_WIDTH = 0.02  # the Gaussian width of the initial packet in u2
PACKET_CUT = 5.0     # a packet keeps the frequencies within this many widths
RATE_FACTOR = 2.0    # an "auto" taudot is this multiple of the threshold


class CFLError(ValueError):
    pass


class SolverBlowupError(RuntimeError):
    pass


def _packet_window(grid: Grid, xi_center: float) -> np.ndarray:
    """The frequencies a packet keeps: |xi - xi_center| <= PACKET_CUT
    spectral widths 1 / (2 pi PACKET_WIDTH)."""
    spec_width = 1.0 / (2.0 * np.pi * PACKET_WIDTH)
    return np.abs(grid.xi - xi_center) <= PACKET_CUT * spec_width


def wave_packet(grid: Grid, center: float, xi_center: float) -> np.ndarray:
    """Gaussian packet modulated at xi_center, spectrally truncated.

    The hard truncation to `_packet_window` keeps the Gevrey-weighted
    norm meaningful and the support tails below 1e-8.
    """
    x = grid.x
    env = np.exp(-((x - center) ** 2) / (2.0 * PACKET_WIDTH ** 2))
    vals = env * np.exp(2.0j * np.pi * xi_center * (x - center))
    return grid.multiply(vals, _packet_window(grid, xi_center))


@dataclass
class RunConfig:
    """Everything one trajectory needs; validates the admissible ranges."""

    n: int = 256
    sigma: float = 0.5
    tau0: float = 1.0
    taudot: float = 0.0
    coeff: CoefficientField = field(default_factory=CoefficientField)
    nonlinear: bool = True             # F has (F)_21 = u1 * chi(x), else F = 0
    sample_stride: int = 1
    packet_xi: float = 24.0

    def __post_init__(self):
        self.grid           # Grid checks n
        for name in ("sigma", "tau0", "taudot", "packet_xi"):
            value = getattr(self, name)
            if not finite_real(value):
                raise ValueError(f"{name} = {value!r} must be a finite real number")
        for name in ("tau0", "taudot"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} = {value!r} must be >= 0")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError(f"sigma = {self.sigma} must lie in (0, 1)")
        if not isinstance(self.nonlinear, bool):
            raise ValueError(f"nonlinear = {self.nonlinear!r} must be a bool")
        stride = self.sample_stride
        if (isinstance(stride, bool) or not isinstance(stride, numbers.Integral)
                or stride <= 0):
            raise ValueError(f"sample_stride = {stride!r} must be a positive int")
        if self.tau0 == 0.0 and self.taudot > 0.0:
            raise ValueError(f"tau0 = 0 with taudot = {self.taudot} ends "
                             "the run at t = 0, before any step")
        if self.tau0 >= TAU0_BOUND:
            raise ValueError(
                f"tau0 = {self.tau0} must stay below the coefficient's "
                f"Gevrey radius {TAU0_BOUND}"
            )
        if 2.0 * self.coeff.r_outer > 0.5:
            raise ValueError(
                "coefficient support diameter exceeds half the period; "
                "wrap-around would not be negligible"
            )
        # the largest Gevrey weight exp(tau0 <xi_max>^sigma) must stay
        # below the cap
        exponent = self.tau0 * float(bracket(self.grid.xi_max)) ** self.sigma
        if exponent > DEFAULT_MAX_EXPONENT:
            raise ValueError(
                f"tau0 * <xi_max>^sigma = {exponent:.4g} exceeds the Gevrey "
                f"weight cap {DEFAULT_MAX_EXPONENT:g}; lower n, sigma or tau0"
            )
        if not np.any(_packet_window(self.grid, self.packet_xi)):
            raise ValueError(
                f"packet_xi = {self.packet_xi!r} keeps no frequency of the "
                f"n = {self.n} grid (|xi| <= {self.grid.xi_max:g})"
            )
        _step_plan(self)    # ValueError above STEP_BUDGET steps

    @cached_property
    def grid(self) -> Grid:
        return Grid(self.n)

    def symbol_b(self) -> SymbolB:
        """b with the coupling c = 2(1 - sigma) of the estimate."""
        return SymbolB(self.coeff, c=2.0 * (1.0 - self.sigma))

    def t_end(self) -> float:
        T = self.coeff.T
        if self.taudot > 0.0:
            return min(T, self.tau0 / self.taudot)
        return T

    def tau_at(self, t: float) -> float:
        tau = self.tau0 - self.taudot * t
        if tau < 0.0:
            # a run to t_end = tau0 / taudot adds up its steps to a t
            # that can pass t_end by roundoff; that t still has tau = 0
            if tau < -1e-9 * self.tau0:
                raise ValueError(f"tau({t}) = {tau} became negative")
            tau = 0.0
        return tau

    def max_dt(self) -> float:
        sup_speed = max(1.0, math.sqrt(self.coeff.sup_a()))
        return CFL * self.grid.dx / sup_speed

    def initial_state(self) -> np.ndarray:
        """The (2, n) state u at t = 0: one packet in u2."""
        grid = self.grid
        u = np.zeros((2, grid.n), dtype=complex)
        u[1] = wave_packet(grid, self.coeff.x0, self.packet_xi)
        return u

    def content_hash(self, **spec) -> str:
        """Hash of `asdict(self)` with the entries of `spec` put over it."""
        return hashlib.sha256(
            json.dumps(asdict(self) | spec, sort_keys=True).encode()
        ).hexdigest()[:16]


def rhs_parts(cfg: RunConfig, t: float, u: np.ndarray):
    """The transport (d/dx u2, a d/dx u1) and the source F(u)u at time t.

    Both are (2, n) arrays; the source is (0, chi * u1 * u1), or zero
    for a linear system.
    """
    grid = cfg.grid
    dx_u1, dx_u2 = grid.multiply(u, grid.dxi)
    transport = np.stack((dx_u2, cfg.coeff.a(t, grid.x) * dx_u1))
    source = np.zeros_like(u)
    if cfg.nonlinear:
        source[1] = cfg.coeff.chi(grid.x) * u[0] * u[0]
    if not (np.all(np.isfinite(transport)) and np.all(np.isfinite(source))):
        raise SolverBlowupError(f"non-finite right-hand side at t = {t}")
    return transport, source


def rhs(cfg: RunConfig, t: float, u: np.ndarray) -> np.ndarray:
    """Discrete right-hand side (du1/dt, du2/dt) as a (2, n) array."""
    transport, source = rhs_parts(cfg, t, u)
    return transport + source


def step_rk4(cfg: RunConfig, t: float, u: np.ndarray,
             dt: float) -> np.ndarray:
    """One classical RK4 step from (t, u); returns u at t + dt.

    Enforces the CFL bound.
    """
    limit = cfg.max_dt()
    if abs(dt) > limit * (1.0 + 1e-12):
        raise CFLError(
            f"dt = {dt} violates the CFL bound; required dt <= {limit:.6e}"
        )
    k1 = rhs(cfg, t, u)
    k2 = rhs(cfg, t + 0.5 * dt, u + 0.5 * dt * k1)
    k3 = rhs(cfg, t + 0.5 * dt, u + 0.5 * dt * k2)
    k4 = rhs(cfg, t + dt, u + dt * k3)
    return u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


@dataclass
class EnergyTrace:
    """Time series of the energy budget along one run.

    `table` holds one row per record in the columns COLUMNS: t, tau,
    the budget (E, E1, E2, E3, E4) of `dt_energy_breakdown` and the
    ratios r_k = |E_k| / E1, which are 0 where E1 = 0.
    """

    COLUMNS = ("t", "tau", "E", "E1", "E2", "E3", "E4", "r2", "r3", "r4")

    table: np.ndarray
    initial_energy: float
    aborted: bool = False
    abort_reason: str = ""

    def max_ratio(self) -> float:
        """max over time of E / E0; 0 for an empty trace or E0 = 0."""
        if self.initial_energy == 0.0:
            return 0.0
        return float(np.max(self.table[:, 2], initial=0.0)
                     / self.initial_energy)

    def max_ratio_sum(self) -> float:
        """max over time of (|E2| + |E3| + |E4|) / E1, over E1 > 0."""
        return _max_ratio_sum(self.table[:, 2:7])

    def rows(self):
        for row in self.table.tolist():
            yield dict(zip(self.COLUMNS, row))


def _max_ratio_sum(budget: np.ndarray) -> float:
    """max of (|E2| + |E3| + |E4|) / E1 over the budget rows (E, E1, E2,
    E3, E4) with E1 > 0, and 0 where there are none."""
    kept = budget[budget[:, 1] > 0]
    E2, E3, E4 = np.abs(kept[:, 2:]).T
    return float(np.max((E2 + E3 + E4) / kept[:, 1], initial=0.0))


def _record(traj: Trajectory, k: int):
    """(u, transport, source, sym) of record k, the leading arguments of
    `dt_energy_breakdown`: its state, the two parts of its right-hand
    side and its Symmetrizer.  Record 0 takes the trajectory's t = 0
    Symmetrizer, once: the trajectory lets go of it, and a later record
    0 builds its own.

    One record serves every tau it is observed at.  The observing loops
    hold a record until the next one is built, as a plain loop over the
    records does, so at most two Symmetrizers live at once: the held
    one and the one being built.  Freeing each record's kernels before
    the next build let the allocator hand their pages back, and one
    `observe` of the n = 512 headline run then took about 91 000 page
    faults instead of 3 500 to 6 500, and about 40 % more time.  Raises
    SolverBlowupError where the right-hand side is not finite.
    """
    cfg, t, u = traj.cfg, traj.times[k], traj.states[k]
    if k == 0 and traj.sym0 is not None:
        sym, traj.sym0 = traj.sym0, None
    else:
        sym = Symmetrizer(cfg.grid, cfg.symbol_b(), t)
    return (u, *rhs_parts(cfg, t, u), sym)


def _step_plan(cfg: RunConfig):
    """(dt, n_steps): equal steps to t_end, none longer than the CFL bound.

    ValueError above STEP_BUDGET steps, counted in floats as
    `cjs._mode_dt` counts them: a large T_outer raises sup a, and the
    CFL step can be tiny.
    """
    t_end = cfg.t_end()
    steps = t_end / cfg.max_dt() - 1e-12
    if not steps <= STEP_BUDGET:
        raise ValueError(f"{steps:.6g} RK4 steps to t = {t_end:g} exceed "
                         f"the budget {STEP_BUDGET}")
    n_steps = max(1, math.ceil(steps))
    return t_end / n_steps, n_steps


@dataclass
class Trajectory:
    """The recorded states of one RK4 run, before any energy is measured.

    `states[k]` is the (2, n) state at `times[k]`: t = 0, every
    `sample_stride` steps and the last step.  `sym0` is the t = 0
    Symmetrizer and `initial_energy` the energy E0 it measured; the
    first record observed takes `sym0` over and leaves None.  Neither
    the flow nor a Symmetrizer depends on taudot, so the trajectory
    serves every rate with its horizon t_end: the pilot of an "auto"
    rate and, where it ends at T, that rate itself.
    """

    cfg: RunConfig
    times: list
    states: list
    initial_energy: float
    sym0: Symmetrizer | None
    aborted: bool = False
    abort_reason: str = ""


def integrate(cfg: RunConfig) -> Trajectory:
    """Integrate from (0, u0) to min(T, tau0/taudot), keeping the records.

    u0 is `cfg.initial_state()`, scaled to unit energy first.  A
    blow-up ends the trajectory at the last record before it, with the
    reason kept.
    """
    grid = cfg.grid
    u = cfg.initial_state()
    sym0 = Symmetrizer(grid, cfg.symbol_b(), 0.0)
    E0 = gevrey_energy(u, sym0, cfg.tau0, cfg.sigma)
    if E0 > 0.0:
        u = (1.0 / math.sqrt(E0)) * u
        E0 = gevrey_energy(u, sym0, cfg.tau0, cfg.sigma)

    dt, n_steps = _step_plan(cfg)
    t = 0.0
    times, states = [t], [u]
    aborted = False
    reason = ""
    try:
        for step in range(n_steps):
            u = step_rk4(cfg, t, u, dt)
            t = t + dt
            if step % cfg.sample_stride == cfg.sample_stride - 1 \
                    or step == n_steps - 1:
                times.append(t)
                states.append(u)
    except SolverBlowupError as err:
        aborted = True
        reason = str(err)
    return Trajectory(cfg=cfg, times=times, states=states, initial_energy=E0,
                      sym0=sym0, aborted=aborted, abort_reason=reason)


def observe(traj: Trajectory, taudot: float,
            table: np.ndarray | None = None) -> EnergyTrace:
    """The energy budget of every record of `traj` at the rate `taudot`.

    The rate must end where `traj` ends, else ValueError.  The trace
    fills in `table`, if given, in place: a row already observed at the
    rate's tau is kept, and the other records are observed back to back,
    each from its `_record`.  A record whose right-hand side is not
    finite ends the trace there; otherwise the trace keeps `traj`'s abort.
    """
    cfg = replace(traj.cfg, taudot=taudot)
    if cfg.t_end() != traj.cfg.t_end():
        raise ValueError("the trajectory was integrated for another run")
    if table is None:
        # no tau is NaN, so no row counts as observed
        table = np.zeros((len(traj.times), len(EnergyTrace.COLUMNS)))
        table[:, 1] = np.nan
    aborted, reason = traj.aborted, traj.abort_reason
    try:
        for k, t in enumerate(traj.times):
            tau = cfg.tau_at(t)
            if table[k, 1] != tau:
                record = _record(traj, k)
                table[k, :7] = (t, tau, *dt_energy_breakdown(
                    *record, [tau], cfg.sigma)[0])
    except SolverBlowupError as err:
        table = table[:k]
        aborted = True
        reason = str(err)
    E1 = table[:, 3:4]
    np.divide(np.abs(table[:, 4:7]), E1, out=table[:, 7:], where=E1 > 0)
    return EnergyTrace(table=table, initial_energy=traj.initial_energy,
                       aborted=aborted, abort_reason=reason)


def run_with_energy(cfg: RunConfig) -> EnergyTrace:
    """Integrate from t = 0 to min(T, tau0/taudot), recording the budget.

    `observe(integrate(cfg), cfg.taudot)`: the RK4 run first, then the
    budget of each record.  A blow-up aborts the run but keeps the
    partial trace with the abort reason recorded.
    """
    return observe(integrate(cfg), cfg.taudot)


def measure_tau_threshold(run: Trajectory):
    """The threshold of a pilot trajectory and the trace at the auto rate.

    `run` is a Trajectory integrated to T.  The threshold is max_t
    (|E2|+|E3|+|E4|)/E1 at taudot = 0: any taudot above it makes the
    energy budget strictly dissipative, and the "auto" rate is
    RATE_FACTOR times it.  Returns (threshold, trace), where `trace` is
    `observe` of `run` at the auto rate, bit for bit, or None where that
    rate ends before T (tau0 / taudot < T), which `run` does not serve.

    One pass observes each record for both rates: next to its pilot row
    it gets a speculative row at RATE_FACTOR times the threshold of the
    records before it, from the same `_record`.  Once that running
    maximum has settled, the speculative rows are the final ones, and
    `observe` observes again the records whose speculative tau differs
    from the final tau.  No kernel outlives its record.  Raises
    SolverBlowupError if the pilot aborted, and ValueError for tau0 = 0,
    where every positive rate ends at t = 0.
    """
    if run.cfg.tau0 == 0.0:
        raise ValueError("tau0 = 0 leaves the auto rate no time span")
    pilot = replace(run.cfg, taudot=0.0)
    if pilot.t_end() != run.cfg.t_end():
        raise ValueError("the trajectory was integrated for another run")
    table = np.zeros((len(run.times), len(EnergyTrace.COLUMNS)))
    threshold, guess, covered = 0.0, pilot, True
    try:
        for k, t in enumerate(run.times):
            rate = RATE_FACTOR * threshold
            if rate != guess.taudot:
                guess = replace(pilot, taudot=rate)
                # a rate that ends before T is not the final one either:
                # the running maximum only grows
                covered = guess.t_end() == pilot.t_end()
            taus = [pilot.tau_at(t)]
            if covered and guess.tau_at(t) != taus[0]:
                taus.append(guess.tau_at(t))
            record = _record(run, k)
            rows = dt_energy_breakdown(*record, taus, pilot.sigma)
            threshold = max(threshold, _max_ratio_sum(rows[:1]))
            table[k, :7] = (t, taus[-1], *rows[-1])
    except SolverBlowupError as err:
        raise SolverBlowupError(f"pilot run aborted: {err}") from err
    if run.aborted:
        raise SolverBlowupError(f"pilot run aborted: {run.abort_reason}")
    del record   # else a third record beside the two observe holds
    taudot = RATE_FACTOR * threshold
    if replace(pilot, taudot=taudot).t_end() != pilot.t_end():
        return threshold, None
    return threshold, observe(run, taudot, table)


def verify_breakdown_identity(cfg: RunConfig, t: float,
                              u: np.ndarray) -> dict:
    """Centered-difference check of dE/dt = -taudot E1 + E2 + E3 + E4.

    Steps the flow from (t, u) to t +- h with RK4, differences the
    energy and compares with the assembled budget.  Returns the residual
    and the magnitude sum E1 + |E2| + |E3| + |E4| used for the relative
    test.
    """
    grid = cfg.grid
    sb = cfg.symbol_b()
    # small against both the CFL step and the fastest energy oscillation,
    # large against the roundoff floor of E
    h = cfg.max_dt() / 64.0
    transport, source = rhs_parts(cfg, t, u)
    (_, E1, E2, E3, E4), = dt_energy_breakdown(
        u, transport, source, Symmetrizer(grid, sb, t), [cfg.tau_at(t)],
        cfg.sigma)

    def energy_after(step: float) -> float:
        s = t + step
        return gevrey_energy(step_rk4(cfg, t, u, step),
                             Symmetrizer(grid, sb, s), cfg.tau_at(s),
                             cfg.sigma)

    fd = (energy_after(h) - energy_after(-h)) / (2.0 * h)
    predicted = -cfg.taudot * E1 + E2 + E3 + E4
    magnitude = E1 + abs(E2) + abs(E3) + abs(E4)
    return {
        "fd": fd,
        "predicted": predicted,
        "residual": abs(fd - predicted),
        "magnitude": magnitude,
    }
