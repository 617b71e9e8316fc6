"""Workloads of the lambda_control benchmark: job lists, warm-up and output checks.

A workload is a fixed list of jobs built from the workload seed. The seed
only generates inputs (control files and the ``--seed`` passed to the CLI);
job parameters that are not drawn from it are constants of the workload.
Jobs run back to back in one process (a closed loop with one client):
CLI jobs call ``lambda_control.cli.main(argv)`` in-process, library jobs
call the entry point the CLI has no path for. Every module attribute is
looked up at call time, so the span recorder's patches are seen.

Workloads and why they were chosen:

* ``optimize`` -- the ``optimize`` command at its defaults (100 intervals,
  6 starts, 300 iterations) on four regimes of fig2-fig5. The optimizer does
  almost all the work; ``integrate_full`` is never called. The Gamma = 0.1
  cell does not converge within the iteration cap.
* ``verify`` -- ``verify --n 10000`` at T' in {1, 5, 10}. The closed-form
  layer and the CLI's JSONL writer do the work; model and optimizer are
  bypassed.
* ``simulate`` -- mostly ``simulate --control-file`` on seeded random
  piecewise schedules, plus library ``integrate_full`` calls with a
  callable theta(t) and with ``method="adaptive"``, and a few
  ``reduced.integrate_adiabatic`` runs on the same ramp. The model's
  sampled single-state propagation and the CSV writer do the work; the
  optimizer is bypassed. Library jobs are kept shorter than the long CLI
  jobs so that the 90th percentile falls inside the CLI simulate kind.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lambda_control import analytic, cli, model, reduced

HALF_PI = math.pi / 2.0

# optimize: (Gamma/omega0, gamma/omega0, omega0*T) per cell.
OPTIMIZE_CELLS = ((0.1, 0.0, 10.0), (2.0, 0.0, 10.0), (10.0, 0.0, 35.0),
                  (10.0, 8.0, 100.0))
PUMPING_LIKE_CELL = (10.0, 0.0, 35.0)
UNCONVERGED_CELL = (0.1, 0.0, 10.0)

VERIFY_TPRIMES = (1.0, 5.0, 10.0)
VERIFY_N = 10000

SIM_GAMMAS = (0.1, 2.0, 10.0)
SIM_DURATIONS = (20.0, 50.0, 100.0)
# Interval counts of the schedules of one (Gamma, T) cell, in an order drawn
# from the seed. Every seed gets the same counts, so the work of a pass does
# not follow the seed: counts drawn independently made it spread 5% between
# seeds.
SIM_INTERVALS = tuple(range(50, 501, 45))
# The first schedule of these cells has the fewest intervals and is also
# integrated by the adaptive method, which costs one solve per interval;
# larger Gamma or T would make them the slowest jobs.
SIM_SHARED_CELLS = ((0.1, 20.0), (2.0, 20.0))
SIM_PUMPING_DURATIONS = (20.0, 50.0, 100.0)
SIM_RAMP_CELLS = ((0.1, 5.0), (0.1, 8.0), (2.0, 5.0), (2.0, 8.0),
                  (10.0, 4.0), (10.0, 6.0), (10.0, 8.0))
SIM_ADIABATIC_STEPS = 1000

TRACE_TOL = 1e-9
OBJECTIVE_TOL = 1e-12
PUMPING_LIKE_REL = 0.01
PUMPING_EFFICIENCY_TOL = 0.02
RK4_ADAPTIVE_TOL = 1e-8
ADIABATIC_TOL = 0.02


@dataclass
class Job:
    """One unit of work; ``name`` is also its output directory."""

    name: str
    kind: str
    argv: tuple[str, ...] = ()
    call: Callable[[], object] | None = None
    # check(outcome, job_dir, outcomes) -> (problems, objective or None);
    # outcomes maps job names of the same pass to their outcomes. The
    # objective is the target population rho33 the job reached; jobs whose
    # inputs are random schedules report None.
    check: Callable | None = None


@dataclass
class CliOutcome:
    code: int
    stderr: str


def execute(job: Job, job_dir: Path):
    """Run one job; CLI output to stdout/stderr is captured, not printed."""
    if job.call is not None:
        return job.call()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*job.argv, "--out", str(job_dir)])
    return CliOutcome(code, err.getvalue())


def file_digests(job_dir: Path) -> dict[str, tuple[str, int]]:
    """SHA-256 and size of every file a job wrote, by relative path."""
    if not job_dir.is_dir():
        return {}
    digests = {}
    for path in sorted(p for p in job_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digests[path.relative_to(job_dir).as_posix()] = (
            hashlib.sha256(data).hexdigest(), len(data))
    return digests


def _fmt(value: float) -> str:
    return repr(float(value))


def _cli_status(outcome) -> list[str]:
    if not isinstance(outcome, CliOutcome):
        return [f"expected a CLI outcome, got {type(outcome).__name__}"]
    if outcome.code != 0:
        return [f"exit code {outcome.code}: {outcome.stderr.strip()[:300]}"]
    return []


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def _check_optimize(cell):
    def check(outcome, job_dir, outcomes):
        problems = _cli_status(outcome)
        if problems:
            return problems, None
        summary = _read_json(job_dir / "optimize.json")
        value = summary["objective"]
        baseline = summary["pumping_baseline"]
        if not 0.0 <= value <= 1.0:
            problems.append(f"objective {value!r} outside [0, 1]")
        if value < baseline - OBJECTIVE_TOL:
            problems.append(f"objective {value!r} below pumping {baseline!r}")
        if cell == PUMPING_LIKE_CELL and abs(value - baseline) > PUMPING_LIKE_REL * baseline:
            problems.append(f"objective {value!r} not within 1% of pumping {baseline!r}")
        if cell == UNCONVERGED_CELL and not value > baseline:
            problems.append(f"objective {value!r} does not beat pumping {baseline!r}")
        if not (job_dir / "optimized_control.csv").is_file():
            problems.append("optimized_control.csv missing")
        return problems, value
    return check


def _optimize_jobs(rng: np.random.Generator, inputs: Path) -> list[Job]:
    jobs = []
    for cell in OPTIMIZE_CELLS:
        gamma, gamma_diff, duration = cell
        argv = ("optimize", "--gamma", _fmt(gamma), "--gamma-diff", _fmt(gamma_diff),
                "--duration", _fmt(duration), "--seed", str(int(rng.integers(2**31))))
        jobs.append(Job(name=f"opt_g{gamma:g}_gd{gamma_diff:g}_T{duration:g}",
                        kind="cli.optimize", argv=argv, check=_check_optimize(cell)))
    return jobs


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_verify(outcome, job_dir, outcomes):
    problems = _cli_status(outcome)
    if problems:
        return problems, None
    summary = _read_json(job_dir / "verify_summary.json")
    if summary["n_violations"] != 0:
        problems.append(f"{summary['n_violations']} bound violations")
    if not summary["pmp"]["passed"]:
        problems.append(f"PMP residuals failed: {summary['pmp']}")
    lines = (job_dir / "verify_sequences.jsonl").read_text(encoding="utf-8").splitlines()
    if len(lines) != summary["n_sequences"]:
        problems.append(f"{len(lines)} records for {summary['n_sequences']} sequences")
    # Best transfer among the checked sequences: rho33 = (1 - x_n) / 2.
    best = max((1.0 - json.loads(line)["xn"]) / 2.0 for line in lines)
    return problems, best


def _verify_jobs(rng: np.random.Generator, inputs: Path) -> list[Job]:
    return [Job(name=f"verify_T{tprime:g}", kind="cli.verify",
                argv=("verify", "--tprime", _fmt(tprime), "--n", str(VERIFY_N),
                      "--seed", str(int(rng.integers(2**31)))),
                check=_check_verify)
            for tprime in VERIFY_TPRIMES]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _trajectory_problems(trajectory) -> list[str]:
    problems = []
    if trajectory.trace_drift() > TRACE_TOL:
        problems.append(f"trace drift {trajectory.trace_drift()!r}")
    if trajectory.max_y() != 0.0:
        problems.append(f"max_y {trajectory.max_y()!r} != 0")
    return problems


def _check_simulate_cli(pumping_gamma=None, pumping_duration=None):
    def check(outcome, job_dir, outcomes):
        problems = _cli_status(outcome)
        if problems:
            return problems, None
        summary = _read_json(job_dir / "summary.json")
        rho33 = summary["final"]["rho33"]
        if summary["trace_drift"] > TRACE_TOL:
            problems.append(f"trace drift {summary['trace_drift']!r}")
        if summary["max_y"] != 0.0:
            problems.append(f"max_y {summary['max_y']!r} != 0")
        if not (job_dir / "trajectory.csv").is_file():
            problems.append("trajectory.csv missing")
        if pumping_gamma is not None:
            expected = analytic.pumping_efficiency(
                pumping_duration, model.SystemParams(gamma_total=pumping_gamma))
            if abs(rho33 - expected) > PUMPING_EFFICIENCY_TOL:
                problems.append(f"pumping rho33 {rho33!r} vs closed form {expected!r}")
        # Random schedules report no objective: their rho33 follows the seed.
        return problems, rho33 if pumping_gamma is not None else None
    return check


def _check_trajectory(shared_with=None):
    def check(outcome, job_dir, outcomes):
        if not isinstance(outcome, model.Trajectory):
            return [f"expected a Trajectory, got {type(outcome).__name__}"], None
        problems = _trajectory_problems(outcome)
        if shared_with is not None:
            reference = _read_json(job_dir.parent / shared_with / "summary.json")
            rk4 = reference["final"]["rho33"]
            if abs(outcome.final_rho33 - rk4) > RK4_ADAPTIVE_TOL:
                problems.append(f"adaptive rho33 {outcome.final_rho33!r} vs RK4 {rk4!r}")
        return problems, outcome.final_rho33 if shared_with is None else None
    return check


def _check_adiabatic(full_job: str):
    def check(outcome, job_dir, outcomes):
        _, states = outcome
        rho11, rho33 = float(states[-1, 0]), float(states[-1, 1])
        problems = []
        if abs(rho11 + rho33 - 1.0) > TRACE_TOL:
            problems.append(f"population sum {rho11 + rho33!r}")
        full = outcomes[full_job]
        if isinstance(full, model.Trajectory) and abs(rho33 - full.final_rho33) > ADIABATIC_TOL:
            problems.append(f"adiabatic rho33 {rho33!r} vs full model {full.final_rho33!r}")
        return problems, rho33
    return check


def _write_schedule(path: Path, rng: np.random.Generator, n: int, duration: float):
    """Random piecewise schedule: n interval starts in [0, T) and angles."""
    while True:
        starts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, duration, n - 1))))
        if np.all(np.diff(starts) > 0.0):
            break
    thetas = rng.uniform(0.0, HALF_PI, n)
    rows = ["t,theta"] + [f"{_fmt(t)},{_fmt(th)}" for t, th in zip(starts, thetas)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _ramp(duration: float):
    """Counterintuitive linear ramp theta(t) = (pi/2) t / T."""
    return lambda t: HALF_PI * t / duration


def _simulate_jobs(rng: np.random.Generator, inputs: Path) -> list[Job]:
    jobs = []
    shared = []
    index = 0
    for gamma in SIM_GAMMAS:
        for duration in SIM_DURATIONS:
            is_shared = (gamma, duration) in SIM_SHARED_CELLS
            counts = list(SIM_INTERVALS[1:] if is_shared else SIM_INTERVALS)
            rng.shuffle(counts)
            if is_shared:
                counts.insert(0, SIM_INTERVALS[0])
            for k, n in enumerate(counts):
                name = f"sim_{index:03d}"
                index += 1
                schedule = inputs / f"{name}.csv"
                _write_schedule(schedule, rng, n, duration)
                jobs.append(Job(
                    name=name, kind="cli.simulate",
                    argv=("simulate", "--gamma", _fmt(gamma), "--duration", _fmt(duration),
                          "--control-file", str(schedule),
                          "--seed", str(int(rng.integers(2**31)))),
                    check=_check_simulate_cli()))
                if k == 0 and is_shared:
                    shared.append((name, schedule, gamma, duration))

    for duration in SIM_PUMPING_DURATIONS:
        jobs.append(Job(
            name=f"pump_g10_T{duration:g}", kind="cli.simulate",
            argv=("simulate", "--gamma", "10.0", "--duration", _fmt(duration),
                  "--control", "pumping"),
            check=_check_simulate_cli(10.0, duration)))

    for name, schedule, gamma, duration in shared:
        control = cli.load_control_file(schedule, duration)
        params = model.SystemParams(gamma_total=gamma)
        jobs.append(Job(
            name=f"adaptive_{name}", kind="lib.integrate_full.adaptive",
            call=lambda c=control, p=params: model.integrate_full(c, p, method="adaptive"),
            check=_check_trajectory(shared_with=name)))

    for gamma, duration in SIM_RAMP_CELLS:
        params = model.SystemParams(gamma_total=gamma)
        ramp = _ramp(duration)
        full_name = f"ramp_g{gamma:g}_T{duration:g}"
        jobs.append(Job(
            name=full_name, kind="lib.integrate_full.callable",
            call=lambda f=ramp, p=params, T=duration: model.integrate_full(f, p, T),
            check=_check_trajectory()))
        jobs.append(Job(
            name=f"ramp_adaptive_g{gamma:g}_T{duration:g}",
            kind="lib.integrate_full.adaptive",
            call=lambda f=ramp, p=params, T=duration: model.integrate_full(
                f, p, T, method="adaptive"),
            check=_check_trajectory()))
        if gamma >= 10.0:
            jobs.append(Job(
                name=f"adiabatic_g{gamma:g}_T{duration:g}",
                kind="lib.integrate_adiabatic",
                call=lambda f=ramp, p=params, T=duration: reduced.integrate_adiabatic(
                    f, p, T, SIM_ADIABATIC_STEPS),
                check=_check_adiabatic(full_name)))
    return jobs


_BUILDERS = {"optimize": _optimize_jobs, "verify": _verify_jobs,
             "simulate": _simulate_jobs}


def build(workload: str, seed: int, inputs: Path) -> list[Job]:
    """The workload's job list; its inputs are written under ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](np.random.default_rng(seed), inputs)


def warm_up(workload: str, out: Path):
    """Run one small job of each kind, so lazy imports happen before timing."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "optimize":
        argv = ["optimize", "--gamma", "10", "--duration", "5", "--intervals", "4",
                "--starts", "1", "--max-iters", "2"]
        jobs = [Job("warm_optimize", "cli.optimize", argv=tuple(argv))]
    elif workload == "verify":
        jobs = [Job("warm_verify", "cli.verify", argv=("verify", "--tprime", "1", "--n", "20"))]
    else:
        params = model.SystemParams(gamma_total=10.0)
        ramp = _ramp(1.0)
        jobs = [
            Job("warm_simulate", "cli.simulate",
                argv=("simulate", "--gamma", "10", "--duration", "1", "--control", "pumping")),
            Job("warm_callable", "lib", call=lambda: model.integrate_full(ramp, params, 1.0)),
            Job("warm_adaptive", "lib", call=lambda: model.integrate_full(
                ramp, params, 1.0, method="adaptive")),
            Job("warm_adiabatic", "lib", call=lambda: reduced.integrate_adiabatic(
                ramp, params, 1.0, 10)),
        ]
    for job in jobs:
        outcome = execute(job, out / job.name)
        if isinstance(outcome, CliOutcome) and outcome.code != 0:
            raise RuntimeError(f"warm-up job {job.name} failed: {outcome.stderr.strip()}")
