"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured constants.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from weakhyp.audits import (derivative_bound_audit, glaeser_audit_a,
                            metric_admissibility_audit,
                            weight_admissibility_audit)
from weakhyp.cjs import (coefficient_linear, coefficient_parabola,
                         growth_exponent_fit)
from weakhyp.constraints import constraint_table, minimal_feasible_sigma
from weakhyp.energy import (Symmetrizer, garding_sign_probe,
                            subprincipal_refinement)
from weakhyp.quantize import (SymbolField, hermiticity_defect, invert_b,
                              multiplication_matrix, multiplier_matrix,
                              operator_norm, quantize, sample_symbol,
                              sample_symbol_b)
from weakhyp.solver import (NonlinearityF, RunConfig,
                            measure_tau_threshold, run_with_energy, step_rk4,
                            verify_breakdown_identity)
from weakhyp.spectral import Grid, bracket
from weakhyp.symbols import CoefficientField, PhaseMetric, SymbolB


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} [{status}] {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


LADDER = [2.0**j for j in range(4, 11)]


def test_criterion_1_cjs_exponent():
    t0 = time.time()
    details = []
    ok = True
    for tc in (coefficient_linear(), coefficient_parabola()):
        fit = growth_exponent_fit(tc, LADDER, T=1.0)
        budget = 2.0 / (fit["k"] + 2.0) + 0.05
        passed = fit["no_growth"] or fit["slope"] <= budget
        ok = ok and passed
        details.append(f"{tc.name}: p={fit['slope']:.4f} <= {budget:.4f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _report(1, "CJS growth exponent", ok,
            "; ".join(details) + f"; runtime {elapsed:.1f}s < 120s")


def test_criterion_2_energy_estimate_shadow():
    coeff = CoefficientField()
    details = []
    ok = True
    runs = [(s, nl) for nl in (False, True) for s in (0.5, 0.6, 0.75)]
    for sigma, nonlinear in runs:
        t0 = time.time()
        kwargs = dict(n=256, sigma=sigma, tau0=1.0, coeff=coeff,
                      sample_stride=2, packet_xi=24.0)
        if not nonlinear:
            kwargs["nonlinearity"] = NonlinearityF.zero()
        cfg = RunConfig(**kwargs)
        threshold = measure_tau_threshold(cfg)
        cfg = replace(cfg, taudot=2.0 * threshold)
        trace = run_with_energy(cfg)
        ratio = trace.max_ratio()
        elapsed = time.time() - t0
        passed = (not trace.aborted) and ratio <= 1.1 and elapsed < 300.0
        ok = ok and passed
        kind = "nonlinear" if nonlinear else "linear"
        details.append(f"sigma={sigma} {kind}: ratio={ratio:.4f}"
                       f" (taudot={cfg.taudot:.2f}, {elapsed:.1f}s)")
    _report(2, "Gevrey energy estimate", ok, "; ".join(details))


def test_criterion_3_decay_term_necessity():
    coeff = CoefficientField()
    ratios = []
    for n in (128, 256):
        cfg = RunConfig(n=n, sigma=0.75, tau0=1.0, coeff=coeff, taudot=0.0,
                        sample_stride=8, packet_xi=32.0,
                        nonlinearity=NonlinearityF.zero())
        ratios.append(run_with_energy(cfg).max_ratio())
    grew = max(ratios) > 2.0
    monotone = ratios[1] > ratios[0]
    _report(3, "necessity of the decay term", grew and monotone,
            f"taudot=0 ratios at n=(128,256): "
            f"{ratios[0]:.2f}, {ratios[1]:.2f} (>2 observed, growing in n)")


def test_criterion_4_constraint_engine():
    t0 = time.time()
    recs = constraint_table("0.3", "0.99", "0.001", nu=4, f21_zero=False)
    m_full = minimal_feasible_sigma(recs)
    coupling_ok = all(r.c == 2 * (1 - r.sigma) for r in recs)
    recs0 = constraint_table("0.3", "0.99", "0.001", nu=4, f21_zero=True)
    m_f21 = minimal_feasible_sigma(recs0)
    elapsed = time.time() - t0
    ok = (float(m_full) == 0.5 and 0.333 <= float(m_f21) <= 0.334
          and coupling_ok and elapsed < 1.0)
    _report(4, "constraint engine", ok,
            f"min sigma = {float(m_full)} (nonlinear), {float(m_f21)} "
            f"(F21=0); c = 2(1-sigma) on all rows; {elapsed:.3f}s < 1s")


def test_criterion_5_symbol_audits():
    t0 = time.time()
    coeff = CoefficientField()
    sb = SymbolB(coeff, c=1.0)
    details = []

    # (a) bounds for b at every lattice point
    ts = np.linspace(0.0, coeff.T, 9)[:, None, None]
    xs = np.linspace(coeff.x0 - coeff.r, coeff.x0 + coeff.r, 65)[None, :, None]
    xis = np.linspace(-128.0, 128.0, 257)[None, None, :]
    b = sb.b(ts, xs, xis)
    upper_ok = bool(np.all(b <= bracket(xis) ** (sb.c / 2) * (1 + 1e-12)))
    lower_ok = bool(np.all(b >= sb.lower_bound() - 1e-12))
    details.append(f"b bounds: upper {upper_ok}, lower {lower_ok}")

    # (b) Glaeser ratio finite and grid-stable within 10%
    c1 = glaeser_audit_a(coeff, n_t=24, n_x=257).constant
    c2 = glaeser_audit_a(coeff, n_t=48, n_x=513).constant
    glaeser_ok = np.isfinite(c1) and abs(c2 - c1) <= 0.1 * c1
    details.append(f"glaeser C={c1:.3f} stable")

    # (c) derivative-bound ratios up to total order 3, finite and stable
    deriv_ok = True
    for alpha, beta in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                        (2, 1), (1, 2), (3, 0), (0, 3)):
        d1 = derivative_bound_audit(sb, alpha, beta, n_x=21, n_xi=21).constant
        d2 = derivative_bound_audit(sb, alpha, beta, n_x=41, n_xi=41).constant
        deriv_ok = deriv_ok and np.isfinite(d1) and abs(d2 - d1) <= 0.1 * d1
    details.append(f"derivative ratios finite+stable: {deriv_ok}")

    # (d) gain function: >= 1 for c <= 2, violated at c = 2.5
    lam_ok = True
    for c in (0.5, 1.0, 2.0):
        lam = SymbolB(coeff, c=c).lam(0.0, xs, xis)
        lam_ok = lam_ok and bool(np.all(lam >= 1.0 - 1e-9))
    bad = SymbolB(coeff, c=2.5, allow_invalid=True)
    lam_bad = float(np.min(bad.lam(0.0, coeff.x0, xis)))
    lam_ok = lam_ok and lam_bad < 1.0
    details.append(f"lambda >= 1 for c <= 2, min {lam_bad:.3f} < 1 at c=2.5")

    elapsed = time.time() - t0
    ok = (upper_ok and lower_ok and glaeser_ok and deriv_ok and lam_ok
          and elapsed < 60.0)
    _report(5, "symbol audits", ok,
            "; ".join(details) + f"; {elapsed:.1f}s < 60s")


def test_criterion_6_metric_admissibility():
    coeff = CoefficientField()
    pm = PhaseMetric(SymbolB(coeff, c=1.0))
    rep = metric_admissibility_audit(pm, n_pairs=10_000)
    w = weight_admissibility_audit(pm, n_pairs=10_000)
    finite = (np.isfinite(rep["slow_variation"].constant)
              and np.isfinite(rep["temperance"].constant)
              and np.isfinite(w.constant))
    pm2 = PhaseMetric(SymbolB(coeff, c=2.0))
    sat = metric_admissibility_audit(pm2, n_pairs=2000)["uncertainty"].constant
    saturated = abs(sat - 1.0) <= 1e-9
    ok = finite and saturated
    _report(6, "metric admissibility", ok,
            f"slow C={rep['slow_variation'].constant:.2f}, temperance "
            f"(C,N)=({rep['temperance'].constant:.2f},"
            f"{rep['temperance'].extras['N']}), weight "
            f"(C,N)=({w.constant:.2f},{w.extras['N']}); min lambda at c=2: "
            f"{sat:.12f}")


def test_criterion_7_quantizer_properties():
    coeff = CoefficientField()
    details = []

    # Hermiticity of the Weyl-quantized symmetrizer weight
    sb1 = SymbolB(coeff, c=1.0)
    g = Grid(256, 1.0, coeff.x0)
    herm = hermiticity_defect(quantize(sample_symbol_b(sb1, g, 0.0)))
    herm_ok = herm <= 1e-10
    details.append(f"hermiticity {herm:.2e}")

    # multiplier and multiplication reductions exact to 1e-12
    g64 = Grid(64, 1.0, coeff.x0)
    mv = bracket(g64.xi) ** 0.5
    dm = np.abs(quantize(sample_symbol(
        g64, lambda x, xi: bracket(xi) ** 0.5 + 0 * x))
        - multiplier_matrix(g64, mv)).max()
    qv = coeff.chi(g64.x) + 0.5
    dq = np.abs(quantize(sample_symbol(
        g64, lambda x, xi: coeff.chi(x) + 0.5 + 0 * xi))
        - multiplication_matrix(qv)).max()
    red_ok = dm < 1e-12 and dq < 1e-12
    details.append(f"reductions {dm:.1e}/{dq:.1e}")

    # composition remainder shrinks under grid doubling (c = 1/2, t = 0)
    sb_half = SymbolB(coeff, c=0.5)
    norms = []
    for n in (128, 256):
        gg = Grid(n, 1.0, coeff.x0)
        bf = sample_symbol_b(sb_half, gg, 0.0)
        R = quantize(bf) @ quantize(bf) - quantize(
            SymbolField(gg, bf.samples**2, label="b^2"))
        norms.append(operator_norm(R))
    comp_ok = norms[1] < norms[0]
    details.append(f"|op(b)^2-op(b^2)|: {norms[0]:.3e} -> {norms[1]:.3e}")

    # inversion defect non-increasing over nu = 0, 1, 2
    _, defects = invert_b(sb1, 2, 0.0, Grid(256, 1.0, coeff.x0))
    inv_ok = defects[0] >= defects[1] >= defects[2]
    details.append("defects " + " >= ".join(f"{d:.2e}" for d in defects))

    ok = herm_ok and red_ok and comp_ok and inv_ok
    _report(7, "quantizer properties", ok, "; ".join(details))


def test_criterion_8_breakdown_identity_and_garding():
    coeff = CoefficientField()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(10):
        sigma = float(rng.choice([0.5, 0.6, 0.75]))
        cfg = RunConfig(n=128, sigma=sigma, tau0=0.8, coeff=coeff,
                        taudot=float(rng.uniform(0.0, 5.0)),
                        packet_xi=float(rng.uniform(8.0, 30.0)))
        u, t = cfg.initial_state(), 0.0
        # walk a few steps into the trajectory before checking
        dt = cfg.max_dt()
        for _ in range(int(rng.integers(0, 8))):
            u, t = step_rk4(cfg, t, u, dt), t + dt
        res = verify_breakdown_identity(cfg, t, u)
        worst = max(worst, res["residual"] / res["magnitude"])
    identity_ok = worst <= 1e-3

    grid = Grid(128, 1.0, coeff.x0)
    sym = Symmetrizer(grid, SymbolB(coeff, c=1.0), 0.01)
    garding_ok = True
    worst_g = 0.0
    for _ in range(100):
        u1 = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        u2 = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        val = garding_sign_probe(np.stack((u1, u2)), sym, 0.2, 0.5)
        floor = -1e-10 * grid.norm2(u2)
        worst_g = min(worst_g, val)
        garding_ok = garding_ok and val >= floor
    ok = identity_ok and garding_ok
    _report(8, "energy budget identity", ok,
            f"worst identity residual {worst:.2e} <= 1e-3; "
            f"Garding probe min {worst_g:.2e} >= -1e-10 scale")


def test_criterion_9_subprincipal_convergence():
    coeff = CoefficientField()
    sb = SymbolB(coeff, c=1.0)
    res = subprincipal_refinement(sb, tau=0.3, sigma=0.5, ns=(128, 256, 512))
    ratios = [r[3] for r in res]
    ok = ratios[0] > ratios[1] > ratios[2]
    _report(9, "subprincipal convergence", ok,
            "N1/N0 at n=(128,256,512): "
            + ", ".join(f"{r:.4f}" for r in ratios))
