"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion with the measured numbers and runtime.
"""

import math
import time

import numpy as np

from lambda_control.analytic import (
    RANDOM_MAX_N,
    BangSingularSequence,
    pmp_residual,
    propagate_sequence,
    random_batch,
    random_sequence,
    verify_bound,
    verify_bounds,
)
from lambda_control.model import (
    HALF_PI,
    ControlSignal,
    SystemParams,
    integrate_full,
    optical_pumping_control,
)
from lambda_control.optimizer import (
    OptimizationConfig,
    objective,
    objective_and_gradient,
    optimize,
    pumping_baseline,
)
from lambda_control.reduced import integrate_reduced
from oracles import (
    closed_form_sequence,
    is_pumping_equivalent,
    reconstruct_density,
)


def _report(name: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def test_criterion_1_pumping_efficiency():
    started = time.perf_counter()
    tprimes = (1.75, 2.5, 5.0)

    gaps = {}
    for gamma in (10.0, 30.0, 100.0):
        params = SystemParams(gamma_total=gamma)
        for tprime in tprimes:
            T = 2.0 * gamma * tprime
            simulated = integrate_full(optical_pumping_control(T),
                                       params).final_rho33
            gaps[(gamma, tprime)] = abs(simulated - (1.0 - math.exp(-tprime)))

    worst_at_10 = max(gaps[(10.0, tp)] for tp in tprimes)
    within = worst_at_10 <= 0.02
    monotone = all(
        gaps[(10.0, tp)] > gaps[(30.0, tp)] > gaps[(100.0, tp)]
        for tp in tprimes)
    elapsed = time.perf_counter() - started
    _report(
        "1 pumping efficiency",
        within and monotone and elapsed < 5.0,
        f"max gap at Gamma=10: {worst_at_10:.2e} (tol 0.02); "
        f"gap shrinks with Gamma: {monotone}; {elapsed:.2f}s < 5s",
    )


def test_criterion_2_optimality_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst_margin = math.inf
    equality_ok = True
    for tprime in (1.0, 5.0, 10.0):
        # The draws of 10 000 random_sequence calls of random length.
        lengths = rng.integers(1, RANDOM_MAX_N + 1, size=10_000)
        jumps, arcs = random_batch(rng, lengths, tprime)
        check = verify_bounds(lengths, jumps, arcs)
        checked += lengths.size
        worst_margin = min(worst_margin, float(check.margin.min()))
        equality_ok &= bool(check.satisfied.all())
        for i in np.flatnonzero(check.at_equality):
            n = lengths[i]
            equality_ok &= is_pumping_equivalent(
                BangSingularSequence(jumps[i, :n], arcs[i, :n]))

    # Equality is attained exactly by pumping-equivalent schedules.
    for seq in (
        BangSingularSequence.optical_pumping(5.0),
        BangSingularSequence(jumps=[HALF_PI, 0.0], arcs=[2.0, 3.0]),
        BangSingularSequence(jumps=[math.pi / 4, math.pi / 4],
                             arcs=[0.0, 5.0]),
    ):
        check = verify_bound(seq)
        equality_ok &= check.at_equality and is_pumping_equivalent(seq)
    near = verify_bound(BangSingularSequence(jumps=[HALF_PI - 0.01, 0.01],
                                             arcs=[2.5, 2.5]))
    equality_ok &= (not near.at_equality) and near.margin > 0.0

    elapsed = time.perf_counter() - started
    _report(
        "2 optimality bound",
        worst_margin >= -1e-12 and equality_ok and elapsed < 10.0,
        f"{checked} sequences, worst margin {worst_margin:.2e} >= -1e-12; "
        f"equality only for pumping-equivalent: {equality_ok}; "
        f"{elapsed:.2f}s < 10s",
    )


def _impulsive_ode_final(seq):
    """Reference: RK4 on the u = 0 arc equations, jumps as exact rotations."""
    x, y = -1.0, 0.0
    for jump, arc in zip(seq.jumps, seq.arcs):
        c, s = math.cos(2 * jump), math.sin(2 * jump)
        x, y = c * x + s * y, -s * x + c * y
        if arc == 0.0:
            continue
        steps = max(1, int(math.ceil(arc / 0.002)))
        h = arc / steps
        for _ in range(steps):
            kx1, ky1 = -(x + 1.0), -y
            kx2 = -((x + 0.5 * h * kx1) + 1.0)
            ky2 = -(y + 0.5 * h * ky1)
            kx3 = -((x + 0.5 * h * kx2) + 1.0)
            ky3 = -(y + 0.5 * h * ky2)
            kx4 = -((x + h * kx3) + 1.0)
            ky4 = -(y + h * ky3)
            x += (h / 6.0) * (kx1 + 2 * kx2 + 2 * kx3 + kx4)
            y += (h / 6.0) * (ky1 + 2 * ky2 + 2 * ky3 + ky4)
    return x, y


def test_criterion_3_closed_form_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(3)

    worst_pair = 0.0
    for _ in range(1000):
        seq = random_sequence(rng, int(rng.integers(1, 11)),
                              rng.uniform(0.0, 10.0))
        xp, yp = propagate_sequence(seq)
        xc, yc = closed_form_sequence(seq)
        worst_pair = max(worst_pair, abs(xc - xp), abs(yc - yp))

    worst_ode = 0.0
    for _ in range(100):
        seq = random_sequence(rng, int(rng.integers(1, 11)), 5.0)
        xc, yc = closed_form_sequence(seq)
        xo, yo = _impulsive_ode_final(seq)
        worst_ode = max(worst_ode, abs(xc - xo), abs(yc - yo))

    elapsed = time.perf_counter() - started
    _report(
        "3 closed-form equivalence",
        worst_pair <= 1e-12 and worst_ode <= 1e-8 and elapsed < 30.0,
        f"propagation deviation {worst_pair:.2e} <= 1e-12 (1000 seqs); "
        f"ODE deviation {worst_ode:.2e} <= 1e-8 (100 seqs); "
        f"{elapsed:.2f}s < 30s",
    )


def test_criterion_4_pmp_residuals():
    started = time.perf_counter()
    pumping = pmp_residual(BangSingularSequence.optical_pumping(5.0))
    perturbed = pmp_residual(BangSingularSequence(
        jumps=[HALF_PI - 0.2, 0.2], arcs=[2.5, 2.5]))
    elapsed = time.perf_counter() - started
    ok = (pumping.max_phi <= 1e-10 and pumping.max_lambda_y <= 1e-10
          and max(perturbed.max_phi, perturbed.max_lambda_y) >= 1e-3
          and elapsed < 1.0)
    _report(
        "4 PMP residuals",
        ok,
        f"pumping max|phi|={pumping.max_phi:.2e}, "
        f"max|lambda_y|={pumping.max_lambda_y:.2e} <= 1e-10; "
        f"perturbed residual {max(perturbed.max_phi, perturbed.max_lambda_y):.2e} "
        f">= 1e-3; {elapsed:.2f}s < 1s",
    )


def test_criterion_5_large_decay_regime():
    started = time.perf_counter()
    params = SystemParams(gamma_total=10.0)
    T = 100.0
    config = OptimizationConfig()

    result = optimize(config, params, T)
    baseline = pumping_baseline(params, T)
    control = result.control
    avg_stokes = float(np.sum(np.cos(control.theta) * control.durations) / T)
    within_pct = abs(result.objective - baseline) <= 0.01 * baseline

    pumping_start = [("pumping", np.full(config.n_intervals, HALF_PI))]
    from_pumping = optimize(config, params, T, starts=pumping_start)
    change = abs(from_pumping.history[-1] - from_pumping.history[0])

    elapsed = time.perf_counter() - started
    _report(
        "5 large-decay regime",
        avg_stokes <= 0.15 and within_pct and change <= 1e-4
        and elapsed < 120.0,
        f"winner={result.winner.label}, avg omega_s={avg_stokes:.3f} <= 0.15; "
        f"objective {result.objective:.6f} within 1% of baseline "
        f"{baseline:.6f}; pumping-init change {change:.2e} <= 1e-4; "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_6_small_decay_deviation():
    started = time.perf_counter()
    params = SystemParams(gamma_total=0.1)
    T = 5.0
    result = optimize(OptimizationConfig(), params, T)

    baseline_oracle = integrate_full(optical_pumping_control(T), params,
                                     method="adaptive").final_rho33
    winner_oracle = integrate_full(result.control, params,
                                   method="adaptive").final_rho33
    margin = winner_oracle - baseline_oracle
    max_stokes = float(np.max(np.cos(result.control.theta)))

    elapsed = time.perf_counter() - started
    _report(
        "6 small-decay deviation",
        margin > 0.0 and max_stokes >= 0.2 and elapsed < 120.0,
        f"winner={result.winner.label}, objective {winner_oracle:.4f} beats "
        f"oracle baseline {baseline_oracle:.4f} by margin {margin:.4f}; "
        f"max omega_s={max_stokes:.2f} >= 0.2; {elapsed:.1f}s < 120s",
    )


def test_criterion_7_asymmetry_regimes():
    started = time.perf_counter()
    config = OptimizationConfig()
    # At Gamma 10, omega0 T 100; a failure in any regime raises.
    objectives, baselines = {}, {}
    for gd in (-8.0, -2.0, 2.0, 8.0):
        params = SystemParams(gamma_total=10.0, gamma_diff=gd)
        objectives[gd] = optimize(config, params, 100.0).objective
        baselines[gd] = pumping_baseline(params, 100.0)

    pumping_near_optimal = all(
        baselines[gd] >= 0.99 * objectives[gd] for gd in (-8.0, -2.0, 2.0))
    beat_margin = objectives[8.0] - baselines[8.0]
    ordering = objectives[-8.0] > objectives[8.0]

    elapsed = time.perf_counter() - started
    _report(
        "7 asymmetry regimes",
        pumping_near_optimal and beat_margin > 0.0 and ordering
        and elapsed < 600.0,
        f"pumping within 1% for gamma_diff in {{-8,-2,2}}: "
        f"{pumping_near_optimal}; margin at +8: {beat_margin:.4f} > 0; "
        f"objective(-8)={objectives[-8.0]:.4f} > "
        f"objective(+8)={objectives[8.0]:.4f}; {elapsed:.1f}s < 600s",
    )


def test_criterion_8_structural_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(8)

    worst_trace = 0.0
    worst_y = 0.0
    worst_eig = 0.0
    for _ in range(10):
        gamma = rng.uniform(0.2, 12.0)
        params = SystemParams(gamma_total=gamma,
                              gamma_diff=rng.uniform(-gamma, gamma))
        control = ControlSignal(np.linspace(0.0, 15.0, 17),
                                rng.uniform(0.0, HALF_PI, 16))
        trajectory = integrate_full(control, params)
        worst_trace = max(worst_trace, trajectory.trace_drift())
        worst_y = max(worst_y, trajectory.max_y())
        for state in trajectory.states[::64]:
            eigvals = np.linalg.eigvalsh(reconstruct_density(state))
            worst_eig = max(worst_eig, -eigvals.min(), eigvals.max() - 1.0)

    worst_disk = 0.0
    for _ in range(8):
        values = rng.uniform(-6.0, 6.0, 8)

        def u_fn(tp, values=values):
            return values[min(int(tp / 5.0 * 8), 7)]

        _, states = integrate_reduced(u_fn, 5.0, 8000)
        worst_disk = max(worst_disk,
                         float((states[:, 0] ** 2 + states[:, 1] ** 2).max()))

    worst_grad = 0.0
    for gamma_diff in (0.0, 1.5):
        params = SystemParams(gamma_total=2.0, gamma_diff=gamma_diff)
        control = ControlSignal(np.linspace(0.0, 10.0, 21),
                                rng.uniform(0.1, HALF_PI - 0.1, 20))
        adj = objective_and_gradient(control, params)[1]
        eps = 1e-5
        for k in range(20):
            plus = control.theta.copy()
            plus[k] += eps
            minus = control.theta.copy()
            minus[k] -= eps
            fd = (objective(control.with_theta(plus), params)
                  - objective(control.with_theta(minus), params)) / (2 * eps)
            if abs(adj[k]) > 1e-8:
                worst_grad = max(worst_grad,
                                 abs(adj[k] - fd) / max(abs(fd), 1e-300))

    elapsed = time.perf_counter() - started
    ok = (worst_trace <= 1e-9 and worst_y <= 1e-10 and worst_eig <= 1e-7
          and worst_disk <= 1.0 + 1e-9 and worst_grad <= 1e-4
          and elapsed < 60.0)
    _report(
        "8 structural invariants",
        ok,
        f"trace drift {worst_trace:.2e} <= 1e-9; y-block {worst_y:.2e} "
        f"<= 1e-10; positivity excess {worst_eig:.2e} <= 1e-7; disk radius^2 "
        f"{worst_disk:.9f} <= 1+1e-9; gradient rel err {worst_grad:.2e} "
        f"<= 1e-4; {elapsed:.1f}s < 60s",
    )
