"""Benchmark of the lambda_control package: one workload, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {optimize,verify,simulate} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; BLAS is pinned to
one thread. Set-up (import and a warm-up job of each kind) is timed in
separate child processes. The timed section then runs passes over the
workload's job list, back to back, until ``--seconds`` have elapsed; a
job's time is its median over the passes, at reference speed (see
``reference.py``). After each pass every job's output is checked and the
SHA-256 of every file it wrote is compared with the first pass.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` one more pass runs with the span
recorder installed and the line holds the per-layer metrics of that pass.
Spans, per-job digests and the machine description are written to
``.perfbench_runs/<workload>-seed<N>-trace<T>/`` in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
# Names and units of the metrics: end_to_end without tracing, per_layer with.
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# A set-up probe writes the machine speed it sampled into this file.
PROBE_SPEED = "probe_speed.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("optimize", "verify", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, metavar="DIR",
                        help="import, warm up with outputs in DIR, then exit "
                             "(a set-up probe)")
    return parser.parse_args(argv)


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["threads"] = int(getattr(handle, symbol)())
                info["library"] = Path(lib).name
                return info
    return info


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "seed": seed,
    }


def setup_probe(workload: str, seed: int, out: Path) -> tuple[float, float]:
    """Wall time of a child process that imports the package and warms up,
    raw and at reference speed.

    The child samples the machine's speed itself while it imports and warms
    up, since it may run on another core than this process.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only", str(out)]
    start = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=ROOT)
    # subprocess.run(timeout=...) polls in steps of up to 50 ms, which would
    # quantise the measurement; a blocking wait returns as the child exits.
    killer = threading.Timer(PROBE_TIMEOUT_S, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    sampled = json.loads((out / PROBE_SPEED).read_text(encoding="utf-8"))
    return elapsed, (elapsed - sampled["kernel_s"]) * sampled["speed"]


class JobError:
    """Outcome of a job that raised."""

    def __init__(self, text: str):
        self.text = text


def run_pass(workloads, jobs, pass_dir: Path, recorder=None):
    """Run every job once, back to back.

    Returns (wall, job_spans, outcomes): each job's (start, end) and outcome.
    """
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    job_spans, outcomes = [], []
    start = time.perf_counter()
    for job_id, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            if recorder is None:
                outcome = workloads.execute(job, pass_dir / job.name)
            else:
                outcome = recorder.run_job(job_id, workloads.execute, job, pass_dir / job.name)
        except Exception:  # a failed job is counted, the run goes on
            outcome = JobError(traceback.format_exc(limit=4))
        job_spans.append((t0, time.perf_counter()))
        outcomes.append(outcome)
    return time.perf_counter() - start, job_spans, outcomes


def check_pass(workloads, jobs, outcomes, pass_dir: Path) -> list[dict]:
    """Check every job's output; one report per job."""
    by_name = {job.name: outcome for job, outcome in zip(jobs, outcomes)}
    reports = []
    for job, outcome in zip(jobs, outcomes):
        job_dir = pass_dir / job.name
        objective = None
        if isinstance(outcome, JobError):
            problems = [outcome.text]
        else:
            try:
                problems, objective = job.check(outcome, job_dir, by_name)
            except Exception:  # a malformed output fails the check
                problems = [traceback.format_exc(limit=4)]
        files = workloads.file_digests(job_dir)
        reports.append({"name": job.name, "kind": job.kind, "problems": problems,
                        "objective": objective,
                        "files": {path: sha for path, (sha, _) in files.items()},
                        "bytes": sum(size for _, size in files.values())})
    return reports


def import_package() -> int:
    """Put the checkout's ``src/`` first on the path and import the package;
    0, or the exit code when it is not there."""
    if not (SRC / "lambda_control" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/lambda_control", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lambda_control

    if not Path(lambda_control.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: lambda_control imported from {lambda_control.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        with reference.Sampler() as sampler:
            code = import_package()
            if not code:
                import workloads

                workloads.warm_up(args.workload, args.setup_only)
        args.setup_only.mkdir(parents=True, exist_ok=True)
        (args.setup_only / PROBE_SPEED).write_text(json.dumps(
            {"kernel_s": sum(sampler.durations), "speed": sampler.speed()}), encoding="utf-8")
        return code
    code = import_package()
    if code:
        return code
    import workloads

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_probes = [setup_probe(args.workload, args.seed, run_dir / "setup" / str(k))
                    for k in range(SETUP_PROBES)]
    workloads.warm_up(args.workload, run_dir / "warmup")
    jobs = workloads.build(args.workload, args.seed, run_dir / "inputs")

    pass_dir = run_dir / "pass"
    walls, pass_durations, pass_scaled, pass_reports = [], [], [], []
    start = time.perf_counter()
    # A pass starts only if it is expected to end within --seconds.
    while not walls or time.perf_counter() - start + walls[-1] <= args.seconds:
        with reference.Sampler() as sampler:
            wall, job_spans, outcomes = run_pass(workloads, jobs, pass_dir)
        walls.append(wall)
        own, scaled = zip(*(sampler.scaled(t0, t1) for t0, t1 in job_spans))
        pass_durations.append(list(own))
        pass_scaled.append(list(scaled))
        pass_reports.append(check_pass(workloads, jobs, outcomes, pass_dir))
    # Each job's median time at reference speed over the passes.
    job_times = [statistics.median(times) for times in zip(*pass_scaled)]

    traced = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()
        try:
            traced_wall, _, outcomes = run_pass(workloads, jobs, pass_dir, recorder)
        finally:
            recorder.uninstall()
        pass_reports.append(check_pass(workloads, jobs, outcomes, pass_dir))
        recorder.write(run_dir / "spans.jsonl")
        cli_bytes = sum(r["bytes"] for r in pass_reports[-1] if r["kind"].startswith("cli."))
        # The untraced passes' job times less the sampler's kernel calls.
        untraced = statistics.median(sum(own) for own in pass_durations)
        traced = recorder.layer_metrics(cli_bytes, traced_wall - untraced)

    # Every pass must reproduce the first pass's files byte for byte.
    first = {r["name"]: r["files"] for r in pass_reports[0]}
    for reports in pass_reports[1:]:
        for report in reports:
            if report["files"] != first[report["name"]]:
                report["problems"].append("output files differ from the first pass")
    attempted = sum(len(reports) for reports in pass_reports)
    failures = [(i, r) for i, reports in enumerate(pass_reports) for r in reports
                if r["problems"]]
    objectives = [r["objective"] for r in pass_reports[0] if r["objective"] is not None]
    outputs_sha256 = hashlib.sha256(
        json.dumps(first, sort_keys=True).encode()).hexdigest()

    if traced is None:
        section, values = "end_to_end", {
            "setup_s": statistics.median(scaled for _, scaled in setup_probes),
            "wall_s": sum(job_times),
            "job_p50_s": statistics.median(job_times),
            "job_p90_s": statistics.quantiles(job_times, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "objective_mean": statistics.fmean(objectives) if objectives else 0.0,
        }
    else:
        section, values = "per_layer", traced
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}

    ranked = sorted(zip(job_times, (job.kind for job in jobs)))
    p90_index = round(0.9 * (len(ranked) - 1))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "jobs_per_pass": len(jobs),
        "passes": len(walls),
        "failed_frac": len(failures) / attempted,
        "p90_job_kinds": sorted({kind for _, kind in ranked[max(0, p90_index - 2):p90_index + 3]}),
        "setup_probes_s": [{"raw": raw, "at_reference_speed": scaled}
                           for raw, scaled in setup_probes],
        "pass_walls_s": walls,
        "pass_job_durations_s": pass_durations,
        "pass_job_durations_at_reference_speed_s": pass_scaled,
        "outputs_sha256": outputs_sha256,
        "failures": [{"pass": i, "name": r["name"], "problems": r["problems"]}
                     for i, r in failures[:20]],
        "jobs": [{"name": job.name, "kind": job.kind, "argv": list(job.argv),
                  "median_at_reference_speed_s": t, "files": first[job.name]}
                 for job, t in zip(jobs, job_times)],
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n",
                                         encoding="utf-8")
    # The last pass's outputs (tens of MB on simulate) are summed up by their
    # digests in result.json.
    shutil.rmtree(pass_dir)

    for failure in result["failures"]:
        print(f"perfbench: FAILED pass {failure['pass']} job {failure['name']}: "
              f"{failure['problems']}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(jobs)} jobs x {len(walls)} passes, failed_frac={result['failed_frac']:g}, "
          f"p90 kinds={result['p90_job_kinds']}, outputs_sha256={outputs_sha256}, "
          f"details in {run_dir.relative_to(ROOT)}/result.json")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
