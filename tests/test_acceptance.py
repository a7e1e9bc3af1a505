"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from svjoint.engine import (
    FitOptions,
    Hyperparameters,
    _one_iteration,
    compute_elbo,
    fit_gene,
    g_factor,
    init_state,
    beta_prior_precision,
    m_prior_diag,
    theta_derivatives,
    update_a,
    update_alpha,
    update_g,
    update_p,
    update_phi,
    update_q,
    update_r,
    update_sigma,
    update_u,
)
from svjoint.metrics import confusion, metrics
from svjoint.numerics import NumericalError, h_integral, mvn_exp_neg_linear
from svjoint.selection import bfdr, build_report
from svjoint.simulate import SimConfig, generate
from svjoint.splines import BasisSpec, eval_basis, normalize_coords

from conftest import GeneRow, make_design
from test_engine_fit import check_state_invariants, sim_inputs


def report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: quadrature oracle over the parameter grid
# ---------------------------------------------------------------------------


def mp_log_h(p, q, s, t):
    """High-precision adaptive oracle for log H, in u = log x space."""
    mp.mp.dps = 25
    pq, sq, tq = mp.mpf(p), mp.mpf(s), mp.mpf(t)

    def f(u):
        x = mp.e**u
        v = (pq + 1) * u - tq * x
        if s:
            v += sq * (x * u - mp.loggamma(x))
        if q:
            v += mp.log(mp.log(1 + x))
        return mp.e**v

    rate = p + 1.0 + q + s
    lo = min(-80.0 / rate, -10.0)
    pts = [lo] + [v for v in (-30.0, -10.0, -3.0, 0.0, 3.0, 8.0, 14.0) if v > lo]
    val = mp.quad(f, pts)
    return float(mp.log(val))


def test_criterion_1_quadrature_oracle():
    ps = (-0.999, -0.5, 0.001, 0.5, 2.0)
    ss = (0.0, 1.0, 10.0, 200.0)
    ts = (0.5, 2.0, 20.0)
    worst = 0.0
    n_checked = n_divergent = 0
    for p in ps:
        for s in ss:
            for t in ts:
                for q in (0, 1):
                    if s >= t:
                        # The integrand grows like exp((s-t)x): divergent.
                        # The oracle diverges too; agreement means refusing.
                        with pytest.raises(NumericalError):
                            h_integral(p, q, 1.0, s, t)
                        n_divergent += 1
                        continue
                    got = h_integral(p, q, 1.0, s, t)
                    if s == 0.0 and q == 0:
                        want = float(gammaln(p + 1.0) - (p + 1.0) * math.log(t))
                        assert abs(got - want) <= 1e-8, (p, q, s, t)
                    else:
                        want = mp_log_h(p, q, s, t)
                        assert abs(got - want) <= 1e-6, (p, q, s, t, got, want)
                    worst = max(worst, abs(got - want))
                    n_checked += 1
    report_line(
        1, True,
        f"{n_checked} convergent grid points within 1e-6 of the adaptive "
        f"oracle (worst {worst:.2e}); {n_divergent} divergent points refused "
        f"by both sides",
    )


# ---------------------------------------------------------------------------
# Criterion 2: coordinate local-optimality and the NCVMP derivative oracle
# ---------------------------------------------------------------------------


def theta_expected_logp(mu, sigma, design, u_phi, one_minus_ur, e_g, m_prior):
    """E_theta[log p] of one gene as a function of the Gaussian factor's (mu, Sigma).

    Only terms involving theta are included; this is the objective whose
    derivatives drive the fixed-point step.  Sigma must be symmetric: the
    stacked ``mvn_exp_neg_linear`` reads only its upper triangle.
    """
    w_exp, c_mu = mvn_exp_neg_linear(mu[None], sigma[None], design)
    lin = -u_phi * float(one_minus_ur @ c_mu[0])
    quad = -0.5 * (mu @ (m_prior * mu) + float(np.sum(m_prior * np.diag(sigma))))
    curv = -u_phi * float((one_minus_ur * e_g) @ w_exp[0])
    return lin + quad + curv


def _elbo(state, shared, ys, designs, hp):
    return compute_elbo(state.block, shared.block, hp)[0]


def _perturb_check(label, state, shared, ys, designs, hp, apply_perturbation, gains):
    base = _elbo(state, shared, ys, designs, hp)
    for eps in (0.99, 1.01):
        undo = apply_perturbation(eps)
        try:
            val = _elbo(state, shared, ys, designs, hp)
        finally:
            undo()
        gains.append((label, eps, val - base))


def test_criterion_2_local_optimality(eight_spot_fixture, five_spot_state):
    ys, designs, hp = eight_spot_fixture
    block, shared_block = init_state([y[None] for y in ys], designs, hp)
    for _ in range(6):
        _one_iteration(block, shared_block, hp, 1.0)
    state, shared = GeneRow(block), GeneRow(shared_block)

    gains = []

    def scale_arrays(ss_attr_pairs, refresh=None, row=None, spots=None):
        # ``row`` scales only that sample's row of a shared (M, 2) array,
        # ``spots`` only that sample's spots of a per-spot array.
        def apply(eps):
            saved = [(obj, name, getattr(obj, name).copy()) for obj, name in ss_attr_pairs]
            for obj, name in ss_attr_pairs:
                arr = getattr(obj, name)
                factor = eps if row is None else np.where(np.arange(len(arr)) == row, eps, 1.0)[:, None]
                if spots is not None:
                    factor = np.where(state.owner == spots, eps, 1.0)
                setattr(obj, name, arr * factor)
            if refresh:
                refresh()

            def undo():
                for obj, name, arr in saved:
                    setattr(obj, name, arr)
                if refresh:
                    refresh()

            return undo

        return apply

    update_g(state.block)
    g_params = g_factor(state.block)

    def scale_g(i, m):
        # Scales q(g)'s shape (i = 0) or rate (i = 1) on sample m's spots.
        def apply(eps):
            params = list(g_params)
            params[i] = params[i] * np.where(state.owner == m, eps, 1.0)
            state.block.set_g(*params)
            return lambda: state.block.set_g(*g_params)

        return apply

    for m in range(len(ys)):
        for i, name in enumerate(("shape", "rate")):
            _perturb_check(f"g.{name}[m{m}]", state, shared, ys, designs, hp, scale_g(i, m), gains)
    update_r(state.block, hp)
    assert np.all(state.u_r == 0.0), "fixture must have positive counts"
    for m in range(len(ys)):
        _perturb_check(
            f"r[m{m}]", state, shared, ys, designs, hp,
            scale_arrays([(state, "u_r")], spots=m), gains,
        )
    beta_sq, length = state.beta_sq, state.length
    update_sigma(shared.block, beta_sq, length)
    for m in range(len(ys)):
        for name in ("a_sig", "b_sig"):
            _perturb_check(
                f"sigma.{name}[m{m}]", state, shared, ys, designs, hp,
                scale_arrays([(shared, name)], row=m), gains,
            )
    update_a(shared.block, hp)
    for m in range(len(ys)):
        _perturb_check(
            f"a[m{m}]", state, shared, ys, designs, hp,
            scale_arrays([(shared, "u_inv_a")], row=m), gains,
        )
    update_alpha(shared.block, beta_sq, length, hp)
    for m in range(len(ys)):
        _perturb_check(
            f"alpha[m{m}]", state, shared, ys, designs, hp,
            scale_arrays([(shared, "u_alpha")], row=m), gains,
        )
    update_q(shared.block, hp)
    update_p(shared.block, hp)
    for name in ("a_q", "b_q", "a_p", "b_p"):
        _perturb_check(
            f"pq.{name}", state, shared, ys, designs, hp,
            scale_arrays([(shared, name)], refresh=shared.refresh_moments), gains,
        )
    update_u(shared.block, hp)
    _perturb_check(
        "u", state, shared, ys, designs, hp,
        scale_arrays([(shared, "u_u")]), gains,
    )

    worst_label, worst_eps, worst_gain = max(gains, key=lambda g: g[2])
    assert worst_gain <= 1e-9, (worst_label, worst_eps, worst_gain)

    # NCVMP analytic derivatives against central finite differences of the
    # expected log joint (the fixed 5-spot instance).
    ss, shared5, ys5, designs5, hp5 = five_spot_state
    mu, sigma = ss.mu[0], ss.sigma[0]
    design = designs5[0]
    m_prior = m_prior_diag(design, beta_prior_precision(shared5.block, hp5)[0, 0], hp5)
    one_minus_ur = 1.0 - ss.u_r
    args = (design, ss.u_phi[0], one_minus_ur, ss.e_g, m_prior)
    w_exp = mvn_exp_neg_linear(mu[None], sigma[None], design)[0][0]
    grad_mu, d_sigma = theta_derivatives(mu, w_exp, *args)
    h = 1e-6
    worst_rel = 0.0
    for j in range(mu.size):
        up, dn = mu.copy(), mu.copy()
        up[j] += h
        dn[j] -= h
        fd = (
            theta_expected_logp(up, sigma, *args)
            - theta_expected_logp(dn, sigma, *args)
        ) / (2 * h)
        rel = abs(fd - grad_mu[j]) / max(abs(fd), 1e-8)
        worst_rel = max(worst_rel, rel)
    d = mu.size
    for i in range(d):
        for j in range(d):
            up, dn = sigma.copy(), sigma.copy()
            up[i, j] += h
            dn[i, j] -= h
            # The objective reads a covariance's upper triangle, so entry
            # (i, j) is perturbed through the symmetric part.
            fd = (
                theta_expected_logp(mu, 0.5 * (up + up.T), *args)
                - theta_expected_logp(mu, 0.5 * (dn + dn.T), *args)
            ) / (2 * h)
            rel = abs(fd - d_sigma[i, j]) / max(abs(fd), 1e-8)
            worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-5
    report_line(
        2, True,
        f"no +/-1% perturbation of any conjugate factor gained more than "
        f"1e-9 (worst gain {worst_gain:.2e}); NCVMP derivatives match finite "
        f"differences to {worst_rel:.2e} relative",
    )


# ---------------------------------------------------------------------------
# Criterion 3: Monte-Carlo ELBO check on the 1-spot fixture
# ---------------------------------------------------------------------------


def test_criterion_3_monte_carlo_elbo():
    # A positive count keeps the state off the dropout-degenerate corner
    # (where q(phi) collapses onto its nearly improper shape-0.001 prior and
    # no sampler covers it); the dropout factor is then the deterministic
    # point mass at 0 and its terms enter both sides exactly.
    y = np.array([3], dtype=np.int64)
    design = make_design([[0.5, 0.5]], np.zeros((1, 0)), degree=1)
    hp = Hyperparameters.default(1, 1)
    block, shared_block = init_state([y[None]], [design], hp)
    for _ in range(6):
        _one_iteration(block, shared_block, hp, 1.0)
    closed_form = compute_elbo(block, shared_block, hp)[0]
    ss, shared = GeneRow(block), GeneRow(shared_block)
    mu, sigma, n_pi, c1 = ss.mu[0], ss.sigma[0], ss.n_pi[0], ss.c1[0]

    rng = np.random.default_rng(2024)
    n_draws = 1_000_000
    c_row = design.matrix[0]

    # The positive count keeps u_r at 0, so q(g)'s parameters are update_g's.
    a_g, b_g = (float(v[0, 0]) for v in g_factor(block))
    g = rng.gamma(a_g, 1.0 / b_g, size=n_draws)
    r = (rng.random(n_draws) < ss.u_r[0]).astype(float)
    chol = np.linalg.cholesky(sigma)
    theta = mu + rng.standard_normal((n_draws, 3)) @ chol.T

    # q(phi) by inverse-CDF on a dense log-grid.
    grid_u = np.linspace(-60.0, 20.0, 200_001)
    log_pdf = (
        hp.a_phi * grid_u
        - c1 * np.exp(grid_u)
        + n_pi * (np.exp(grid_u) * grid_u - gammaln(np.exp(grid_u)))
    )
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    phi = np.exp(np.interp(rng.random(n_draws), cdf, grid_u))

    # The slab block's only row is this sample's.
    a_sig, b_sig, u_inv_a, u_alpha = (
        shared.a_sig[0], shared.b_sig[0], shared.u_inv_a[0], shared.u_alpha[0])
    sig2 = b_sig[:, None] / rng.gamma(a_sig[:, None], 1.0, size=(2, n_draws))
    scale_a = 1.0 / u_inv_a
    a_aux = scale_a[:, None] / rng.gamma(1.0, 1.0, size=(2, n_draws))
    alpha = (rng.random((2, n_draws)) < u_alpha[:, None]).astype(float)
    u_gate = (rng.random((2, n_draws)) < shared.u_u[:, None]).astype(float)
    p_draw = rng.beta(shared.a_p[:, None], shared.b_p[:, None], size=(2, n_draws))
    q_draw = rng.beta(shared.a_q[:, None], shared.b_q[:, None], size=(2, n_draws))

    c_theta = theta @ c_row
    log_g = np.log(g)
    one_r = 1.0 - r

    def log_beta_pdf(x, a, b):
        return (
            (a - 1.0) * np.log(x)
            + (b - 1.0) * np.log1p(-x)
            - (gammaln(a) + gammaln(b) - gammaln(a + b))
        )

    def log_inv_gamma_pdf(x, shape, scale):
        return shape * np.log(scale) - gammaln(shape) - (shape + 1.0) * np.log(x) - scale / x

    lb = lambda a, b: float(gammaln(a) + gammaln(b) - gammaln(a + b))

    y0 = float(y[0])
    log_p = one_r * (y0 * log_g - g - float(gammaln(y0 + 1.0)))  # gated Poisson
    log_p += one_r * (
        phi * np.log(phi) - gammaln(phi) - phi * c_theta + (phi - 1.0) * log_g
        - phi * g * np.exp(-c_theta)
    )
    log_p += r * (lb(hp.a_pi + 1, hp.b_pi) - lb(hp.a_pi, hp.b_pi))
    log_p += one_r * (lb(hp.a_pi, hp.b_pi + 1) - lb(hp.a_pi, hp.b_pi))
    log_p += -0.5 * math.log(2 * math.pi * hp.sigma2_eta) - theta[:, 0] ** 2 / (2 * hp.sigma2_eta)
    for k in (0, 1):
        beta_k = theta[:, 1 + k]
        var = np.where(alpha[k] > 0, sig2[k], hp.gamma1_sq)
        log_p += -0.5 * np.log(2 * math.pi * var) - beta_k**2 / (2 * var)
        log_p += log_inv_gamma_pdf(sig2[k], 0.5, 1.0 / a_aux[k])
        log_p += log_inv_gamma_pdf(a_aux[k], 0.5, 1.0 / hp.a_slab[k] ** 2)
        log_p += u_gate[k] * (
            alpha[k] * np.log(q_draw[k]) + (1 - alpha[k]) * np.log1p(-q_draw[k])
        ) + (1 - u_gate[k]) * (
            alpha[k] * math.log(hp.gamma2) + (1 - alpha[k]) * math.log1p(-hp.gamma2)
        )
        log_p += u_gate[k] * np.log(p_draw[k]) + (1 - u_gate[k]) * np.log1p(-p_draw[k])
        log_p += log_beta_pdf(p_draw[k], hp.c_p, hp.d_p)
        log_p += log_beta_pdf(q_draw[k], hp.c_q, hp.d_q)
    log_p += (
        hp.a_phi * math.log(hp.b_phi)
        - gammaln(hp.a_phi)
        + (hp.a_phi - 1.0) * np.log(phi)
        - hp.b_phi * phi
    )

    log_q = a_g * np.log(b_g) - gammaln(a_g) + (a_g - 1.0) * log_g - b_g * g
    with np.errstate(divide="ignore"):
        log_q += np.where(r > 0, math.log(max(ss.u_r[0], 1e-300)), math.log1p(-ss.u_r[0]))
    dev = theta - mu
    prec = np.linalg.inv(sigma)
    _, logdet = np.linalg.slogdet(sigma)
    log_q += -0.5 * (3 * math.log(2 * math.pi) + logdet) - 0.5 * np.einsum(
        "ij,jk,ik->i", dev, prec, dev
    )
    log_norm_phi = mp_log_h(hp.a_phi - 1.0, 0, n_pi, c1)
    log_q += (
        n_pi * (phi * np.log(phi) - gammaln(phi))
        + (hp.a_phi - 1.0) * np.log(phi)
        - c1 * phi
        - log_norm_phi
    )
    for k in (0, 1):
        log_q += log_inv_gamma_pdf(sig2[k], float(a_sig[k]), float(b_sig[k]))
        log_q += log_inv_gamma_pdf(a_aux[k], 1.0, float(scale_a[k]))
        ua = float(u_alpha[k])
        log_q += np.where(alpha[k] > 0, math.log(ua), math.log1p(-ua))
        uu = float(shared.u_u[k])
        log_q += np.where(u_gate[k] > 0, math.log(uu), math.log1p(-uu))
        log_q += log_beta_pdf(p_draw[k], float(shared.a_p[k]), float(shared.b_p[k]))
        log_q += log_beta_pdf(q_draw[k], float(shared.a_q[k]), float(shared.b_q[k]))

    diff = log_p - log_q
    mc_mean = float(np.mean(diff))
    mc_se = float(np.std(diff, ddof=1) / math.sqrt(n_draws))
    ok = abs(mc_mean - closed_form) <= 3.0 * mc_se
    report_line(
        3, ok,
        f"closed-form ELBO {closed_form:.5f} vs Monte-Carlo {mc_mean:.5f} "
        f"+/- {mc_se:.5f} (|diff| = {abs(mc_mean - closed_form):.5f}, "
        f"3 SE = {3 * mc_se:.5f})",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criteria 4, 5, 8: desk-scale benchmark, null control, convergence behavior
# ---------------------------------------------------------------------------


def _fit_dataset(ds):
    designs = [
        make_design(normalize_coords(s.coords), s.covariates, 3) for s in ds.samples
    ]
    hp = Hyperparameters.default(ds.n_samples, 3)
    results = []
    for g in range(ds.n_genes):
        ys = [s.counts[g] for s in ds.samples]
        results.append(fit_gene(ys, designs, hp, FitOptions()))
    return results


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = []
    for seed in range(5):
        cfg = SimConfig(
            M=4, grid=(16, 16), G=200, n_sv=20, pattern="linear",
            signal_setting=1, dropout_pi=0.3, seed=400 + seed,
        )
        ds, truth = generate(cfg)
        results = _fit_dataset(ds)
        report = build_report(ds.gene_ids, results)
        runs.append((ds, truth, results, report))
    return runs


def test_criterion_4_desk_benchmark(benchmark_runs):
    f1s, fprs = [], []
    for ds, truth, results, report in benchmark_runs:
        conf = confusion(report.selected_ids, truth.gene_ids, truth.sv_flags)
        tpr, fpr, f1 = metrics(conf)
        f1s.append(f1)
        fprs.append(fpr)
    mean_f1 = float(np.mean(f1s))
    mean_fpr = float(np.mean(fprs))
    ok = mean_f1 >= 0.80 and mean_fpr <= 0.05
    report_line(
        4, ok,
        f"linear Setting-1 benchmark over 5 seeds: mean F1 = {mean_f1:.3f} "
        f"(>= 0.80), mean FPR = {mean_fpr:.4f} (<= 0.05); per-seed F1 "
        f"{[round(v, 3) for v in f1s]}",
    )
    assert ok


def test_criterion_5_null_control():
    fractions = []
    for seed in range(5):
        cfg = SimConfig(
            M=4, grid=(16, 16), G=200, n_sv=0, pattern="linear",
            signal_setting=1, dropout_pi=0.3, seed=500 + seed,
        )
        ds, truth = generate(cfg)
        results = _fit_dataset(ds)
        report = build_report(ds.gene_ids, results)
        fractions.append(len(report.selected_ids) / ds.n_genes)
    mean_frac = float(np.mean(fractions))
    ok = mean_frac <= 0.05
    report_line(
        5, ok,
        f"null control over 5 seeds: selected fraction {mean_frac:.4f} "
        f"(<= 0.05), per-seed {fractions}",
    )
    assert ok


def test_criterion_8_convergence_behavior(benchmark_runs):
    worst_rate = 1.0
    for ds, truth, results, report in benchmark_runs:
        conv = np.array([r.converged for r in results])
        iters = np.array([r.iterations for r in results])
        rate = float(np.mean(conv & (iters <= 500)))
        worst_rate = min(worst_rate, rate)
        assert all(r.failure is None for r in results)
    # An explicitly all-zero gene must fit cleanly and never be selected.
    ds0, _, designs0 = sim_inputs(990, g=1, n_sv=0, grid=(16, 16))
    zero_ys = [np.zeros(256, dtype=np.int64) for _ in range(4)]
    hp = Hyperparameters.default(4, 3)
    res0 = fit_gene(zero_ys, designs0, hp, FitOptions())
    zero_ok = res0.converged and res0.failure is None and max(res0.e_u) < 0.5
    ok = worst_rate >= 0.99 and zero_ok
    report_line(
        8, ok,
        f"worst per-dataset convergence rate {worst_rate:.3f} (>= 0.99); "
        f"all-zero gene converged with max(E u) = {max(res0.e_u):.4f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: cross-sample information sharing at weak signal
# ---------------------------------------------------------------------------


def test_criterion_6_information_sharing():
    # beta0 = 0.2 is the low-signal regime on the standard 32x32 lattice
    # (n = 1024); at smaller grids neither fit activates and the comparison
    # degenerates to floor artifacts.
    wins = 0
    n_seeds = 30
    for seed in range(n_seeds):
        cfg = SimConfig(
            M=4, grid=(32, 32), G=1, n_sv=1, pattern="linear",
            signal_setting=1, dropout_pi=0.3, seed=600 + seed,
            beta0_override=0.2,
        )
        ds, _ = generate(cfg)
        designs = [
            make_design(normalize_coords(s.coords), s.covariates, 3)
            for s in ds.samples
        ]
        ys = [s.counts[0] for s in ds.samples]
        multi = fit_gene(ys, designs, Hyperparameters.default(4, 3), FitOptions())
        single = fit_gene(
            ys[:1], designs[:1], Hyperparameters.default(1, 3), FitOptions()
        )
        if max(multi.e_u) > max(single.e_u):
            wins += 1
    ok = wins >= 0.70 * n_seeds
    report_line(
        6, ok,
        f"4-sample fit beat the single-sample fit in {wins}/{n_seeds} seeds "
        f"(need >= {int(0.7 * n_seeds)}) at linear beta0 = 0.2",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: invariant suites
# ---------------------------------------------------------------------------


def test_criterion_7_invariant_suites(tmp_path):
    checks = []

    # Bernstein partition of unity at 1e-12.
    t = np.linspace(0.0, 1.0, 2001)
    worst = 0.0
    for d in (1, 2, 3, 4):
        vals = eval_basis(BasisSpec(d), t)
        worst = max(worst, float(np.abs(vals.sum(axis=1) + (1 - t) ** d - 1.0).max()))
    checks.append(("partition of unity", worst <= 1e-12))

    # State invariants at every iteration, including structural u_r zeros.
    ds, _, designs = sim_inputs(700, g=2, n_sv=1, grid=(8, 8))
    hp = Hyperparameters.default(4, 3)
    for g in range(2):
        ys = [s.counts[g] for s in ds.samples]
        state, shared = init_state([y[None] for y in ys], designs, hp)
        for _ in range(20):
            _one_iteration(state, shared, hp, 1.0)
            check_state_invariants(GeneRow(state), GeneRow(shared), ys)
    checks.append(("state invariants each iteration", True))

    # Sample-permutation invariance of e_u at 1e-10.
    ds2, _, designs2 = sim_inputs(701, m=2, grid=(8, 8))
    ys2 = [s.counts[0] for s in ds2.samples]
    hp2 = Hyperparameters.default(2, 3)
    opts = FitOptions(max_iter=400, elbo_tol=1e-9)
    fwd = fit_gene(ys2, designs2, hp2, opts)
    rev = fit_gene(ys2[::-1], designs2[::-1], hp2, opts)
    perm_err = max(abs(fwd.e_u[0] - rev.e_u[0]), abs(fwd.e_u[1] - rev.e_u[1]))
    checks.append(("sample-permutation invariance", perm_err <= 1e-10))

    # BFDR threshold monotonicity on the candidate grid.
    rng = np.random.default_rng(0)
    u = rng.uniform(size=100)
    grid = np.unique(1.0 - u)
    vals = [bfdr(u, float(u0)) for u0 in grid if u0 > 0]
    checks.append(("BFDR monotone on grid", bool(np.all(np.diff(vals) >= -1e-12))))

    # Worker-count byte-exact determinism through the CLI.
    from svjoint.cli import main as cli_main

    sim_out = tmp_path / "sim"
    assert cli_main([
        "simulate", "--out", str(sim_out), "--grid", "10x10", "--genes", "10",
        "--sv-genes", "2", "--dropout", "0.2", "--seed", "77",
    ]) == 0
    rep1, rep2 = tmp_path / "w1.tsv", tmp_path / "w2.tsv"
    common = [
        "detect", "--manifest", str(sim_out / "manifest.ini"), "--degree", "2",
        "--min-spots-per-gene", "0", "--min-genes-per-spot", "0", "--seed", "1",
    ]
    assert cli_main(common + ["--out", str(rep1), "--workers", "1"]) == 0
    assert cli_main(common + ["--out", str(rep2), "--workers", "2"]) == 0
    checks.append(("worker-count determinism", rep1.read_bytes() == rep2.read_bytes()))

    # Structural u_r = 0 on positive counts at every iteration is covered by
    # check_state_invariants above; assert once more explicitly at the end.
    ys3 = [s.counts[0] for s in ds.samples]
    block3, shared3 = init_state([y[None] for y in ys3], designs, hp)
    for _ in range(10):
        _one_iteration(block3, shared3, hp, 1.0)
    state3 = GeneRow(block3)
    structural = all(np.all(state3.u_r[spots][y > 0] == 0.0)
                     for spots, y in zip(state3.sections, ys3))
    checks.append(("structural u_r zeros", structural))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks)
    report_line(7, ok, detail)
    assert ok
