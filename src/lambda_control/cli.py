"""Command-line front end: simulate / reduce / optimize / verify / sweep / figures.

All user-facing quantities are the dimensionless ratios Gamma/omega0,
gamma/omega0 and omega0*T.  Outputs are plot-ready CSV files plus JSON
summaries; every output embeds the configuration and seed that produced it,
and identical configuration + seed produce byte-identical files.

argparse states every option's type, default and choices.  A `--config`
file is read as more of the command's own flags: each `key = value` line
becomes `--key=value`, placed before the flags typed on the command line,
so those win and a key the command does not take is rejected.

Exit codes: 0 success (and all checks passed), 1 usage error, 2 numerical
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import _fork, analytic, optimizer
from ._decimal import _repr_cells
from .model import (
    HALF_PI,
    ControlSignal,
    IntegrationError,
    SystemParams,
    Trajectory,
    _checked_count,
    integrate_full,
    optical_pumping_control,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

ENV_OUT = "LAMBDA_CONTROL_OUT"

PMP_RESIDUAL_GATE = 1e-10

# Regimes emitted by the `figures` command: (gamma, [(panel, gamma_diff, T)]).
FIGURE_REGIMES = {
    "fig2": (0.1, [("T5", 0.0, 5.0), ("T10", 0.0, 10.0), ("T20", 0.0, 20.0)]),
    "fig3": (10.0, [("T35", 0.0, 35.0), ("T50", 0.0, 50.0),
                    ("T100", 0.0, 100.0)]),
    "fig4": (2.0, [("T10", 0.0, 10.0), ("T20", 0.0, 20.0), ("T40", 0.0, 40.0)]),
    "fig5": (10.0, [("gm8", -8.0, 100.0), ("gm2", -2.0, 100.0),
                    ("gp2", 2.0, 100.0), ("gp8", 8.0, 100.0)]),
}


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    def __init__(self, message: str, offenders=None):
        super().__init__(message)
        self.offenders = offenders or []


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # No prefix matching: `--gamma-diff` must not run as `--gamma-diffs`.
        # Subparsers are built from this class, so this covers every command.
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def read_config_file(path: Path) -> list[str]:
    """Turn a `key = value` file into `--key=value` flags ('#' starts a
    comment, `_` in a key reads as `-`), to be parsed as the command's own."""
    flags = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise UsageError(f"bad config line (expected key = value): {raw!r}")
        key = key.replace("_", "-")
        if key == "config":
            raise UsageError(f"config files do not nest: {raw!r}")
        flags.append(f"--{key}={value}")
    return flags


def _require(args, *keys):
    for key in keys:
        if getattr(args, key) is None:
            raise UsageError(f"missing required option --{key.replace('_', '-')}")


def _out_dir(args) -> Path:
    out = args.out
    if out is None:
        out = os.environ.get(ENV_OUT, "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _params(args) -> SystemParams:
    return SystemParams(gamma_total=args.gamma, gamma_diff=args.gamma_diff)


def _floats(text: str, option: str) -> list[float]:
    parts = [part.strip() for part in text.split(",")]
    if not any(parts):
        raise UsageError(f"empty {option} list: {text!r}")
    if not all(parts):
        raise UsageError(f"empty entry in {option} list: {text!r}")
    try:
        values = [float(part) for part in parts]
    except ValueError as exc:
        raise UsageError(f"bad {option} list: {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise UsageError(f"non-finite value in {option} list: {text!r}")
    return values


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _config_comment(cfg: dict) -> str:
    return "config: " + json.dumps(cfg, sort_keys=True)


def write_csv(path: Path, cfg: dict, header: str, rows):
    lines = [f"# {_config_comment(cfg)}", header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               allow_nan=False) + "\n", encoding="utf-8")


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True, allow_nan=False))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def load_control_file(path: Path, duration: float) -> ControlSignal:
    """CSV of `t,theta` rows: interval start times and angles; last interval
    extends to the requested duration.  Only the first row may be a header.
    `optimize` and `figures` write their winners in this format."""
    starts, thetas = [], []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read control file {path}: {exc}") from exc
    rows = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows += 1
        parts = line.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad control row (expected t,theta): {raw!r}")
        try:
            t, th = float(parts[0]), float(parts[1])
        except ValueError:
            if rows == 1:
                continue  # header row
            raise UsageError(
                f"bad control row {rows} (expected numbers t,theta): {raw!r}"
            ) from None
        starts.append(t)
        thetas.append(th)
    if not starts:
        raise UsageError(f"control file {path} contains no samples")
    try:
        return ControlSignal.piecewise(starts, thetas, duration)
    except ValueError as exc:
        raise UsageError(f"invalid control file {path}: {exc}") from exc


# `simulate --control` schedules: name -> (duration, intervals) -> control.
NAMED_CONTROLS = {
    "pumping": lambda T, n: optical_pumping_control(T),
    "theta0": lambda T, n: ControlSignal.constant(0.0, T),
    "ramp_up": lambda T, n: ControlSignal.linear_ramp(0.0, HALF_PI, T, n),
    "ramp_down": lambda T, n: ControlSignal.linear_ramp(HALF_PI, 0.0, T, n),
}


def cmd_simulate(args) -> int:
    _require(args, "gamma", "duration")
    # Every schedule records the count, though only the ramps read it.
    _checked_count(args.intervals, "n_intervals", 1)
    seed = _checked_count(args.seed, "seed", 0)
    params = _params(args)
    T = args.duration
    if args.control_file:
        control = load_control_file(args.control_file, T)
        control_name = f"file:{args.control_file.name}"
    else:
        control_name = args.control or "pumping"
        control = NAMED_CONTROLS[control_name](T, args.intervals)

    cfg = {"command": "simulate", "gamma": args.gamma,
           "gamma_diff": args.gamma_diff, "duration": T,
           "intervals": args.intervals, "seed": seed,
           "control": control_name, "format": args.format}

    trajectory = integrate_full(control, params)
    out = _out_dir(args)
    outputs = {}
    if args.format == "json":
        columns = trajectory.columns().T.tolist()
        payload = {"config": cfg, **dict(zip(Trajectory.COLUMNS, columns))}
        (out / "trajectory.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        outputs["trajectory"] = "trajectory.json"
    else:
        trajectory.write_csv(out / "trajectory.csv",
                             comment=_config_comment(cfg))
        outputs["trajectory"] = "trajectory.csv"

    final = trajectory.final_state
    summary = {
        "command": "simulate",
        "config": cfg,
        "final": {"rho11": float(final[0]), "rho22": float(final[1]),
                  "rho33": float(final[2])},
        "trace_drift": trajectory.trace_drift(),
        "max_y": trajectory.max_y(),
        "outputs": outputs,
    }
    write_json(out / "summary.json", summary)
    _emit(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def cmd_reduce(args) -> int:
    seed = _checked_count(args.seed, "seed", 0)
    if args.jumps is None and args.arcs is None:
        tprime = 5.0 if args.tprime is None else args.tprime
        seq = analytic.BangSingularSequence.optical_pumping(tprime)
    else:
        _require(args, "jumps", "arcs")
        seq = analytic.BangSingularSequence(
            jumps=_floats(args.jumps, "--jumps"),
            arcs=_floats(args.arcs, "--arcs"),
        )
        tprime = seq.total_time
        # `not <=` catches nan.
        if (args.tprime is not None
                and not abs(args.tprime - tprime) <= analytic.TPRIME_TOL):
            raise UsageError(f"--tprime {args.tprime!r} disagrees with the "
                             f"arcs, which sum to {tprime!r}")

    cfg = {"command": "reduce", "tprime": tprime,
           "jumps": [float(j) for j in seq.jumps],
           "arcs": [float(a) for a in seq.arcs], "seed": seed}

    rows = [(0.0, -1.0, 0.0, 0.0)]
    t = 0.0
    theta = 0.0
    x, y = -1.0, 0.0
    samples_per_arc = max(2, math.ceil(512 / seq.n))
    for jump, arc in zip(seq.jumps, seq.arcs):
        theta += float(jump)
        x, y = analytic.apply_bang(x, y, jump)
        rows.append((t, x, y, theta))
        if arc > 0.0:
            for tau in np.linspace(0.0, arc, samples_per_arc)[1:]:
                decay = math.exp(-tau)
                rows.append((t + tau, decay * (x + 1.0) - 1.0, decay * y, theta))
            x, y = analytic.apply_singular(x, y, arc)
            t += float(arc)

    out = _out_dir(args)
    write_csv(out / "reduced.csv", cfg, "tprime,x,y,theta", rows)
    summary = {"command": "reduce", "config": cfg,
               "final": {"x": x, "y": y, "theta": theta},
               "outputs": {"trajectory": "reduced.csv"}}
    write_json(out / "reduced_summary.json", summary)
    _emit(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def _opt_config(args) -> optimizer.OptimizationConfig:
    return optimizer.OptimizationConfig(
        n_intervals=args.intervals,
        max_iters=args.max_iters,
        n_starts=args.starts,
        seed=args.seed,
    )


def _write_winner(path: Path, cfg: dict,
                  result: optimizer.OptimizationResult,
                  params: SystemParams) -> dict:
    """Write the winning control as the `t,theta` table load_control_file
    reads, one row per interval start, and return the winner's record.

    `simulate --control-file` with the same --duration re-runs the winner;
    its trajectory carries omega_p and omega_s at every sample.
    """
    control = result.control
    write_csv(path, cfg, "t,theta",
              zip(control.grid[:-1].tolist(), control.theta.tolist()))
    return {
        "objective": result.objective,
        "pumping_baseline": optimizer.pumping_baseline(params,
                                                       control.duration),
        "winner_start": result.start_label,
        "converged": result.converged,
        "iterations": result.iterations,
        "starts": [dataclasses.asdict(rec) for rec in result.starts],
    }


def cmd_optimize(args) -> int:
    _require(args, "gamma", "duration")
    params = _params(args)
    T = args.duration
    config = _opt_config(args)

    cfg = {"command": "optimize", "gamma": args.gamma,
           "gamma_diff": args.gamma_diff, "duration": T,
           "intervals": config.n_intervals, "seed": config.seed,
           "starts": config.n_starts, "max_iters": config.max_iters}

    result = optimizer.optimize(config, params, T)
    out = _out_dir(args)
    summary = {
        "command": "optimize",
        "config": cfg,
        **_write_winner(out / "optimized_control.csv", cfg, result, params),
        "outputs": {"control": "optimized_control.csv"},
    }
    write_json(out / "optimize.json", summary)
    _emit(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Random sequences drawn and checked as one batch by `verify`; each batch's
# records are written out before the next batch is drawn.
VERIFY_CHUNK = 1000

# What `verify` spends per random sequence (draw, check and format: 8-10 us
# on one CPU of a 2-vCPU host), for the serial time that _fork.split weighs.
_VERIFY_SECONDS_PER_SEQUENCE = 9e-6

# Rows of a chunk that `verify` writes with one %.  The digit pass holds
# ~30 numpy temporaries of a value each and the block's int arguments are
# Python ints, so smaller blocks keep the peak memory of a chunk down.
_VERIFY_BLOCK = 250


@functools.cache
def _verify_templates(width):
    """The `verify` JSONL record of every sequence length n <= width as the
    literal text around its values, one row per n: entry k precedes value
    k of a row of _verify_chunk's table (width arcs, margin, width thetas,
    x1, xn) and the last entry ends the line.  Keys are in sort_keys order
    and the length is written in; entries of list items past n are empty.

    Read-only, as every call shares it.
    """
    rows = np.full((width + 1, 2 * width + 4), "", dtype=object)
    for n in range(1, width + 1):
        rows[n, :n] = ", "
        rows[n, width + 1:width + 1 + n] = ", "
        rows[n, [0, width, width + 1, 2 * width + 1, 2 * width + 2,
                 2 * width + 3]] = [
            '{"arcs": [', '], "margin": ', f', "n": {n}, "thetas": [',
            '], "x1": ', ', "xn": ', "}\n"]
    rows.flags.writeable = False
    return rows


def _verify_chunk(fh, lengths, jumps, arcs):
    """Check one analytic.verify_bounds batch and write its JSONL records.

    Returns the records of the sequences that violate the bound.  The rows
    are written in blocks of _VERIFY_BLOCK, with one % per block.  A row's
    text is its row of _verify_templates with its values between the
    entries: its list entries below its length and every scalar.
    ``_decimal._repr_cells`` turns the block's values into '%'-templates
    and int arguments that write each as repr, which is what the json
    encoder writes for a finite float.  A row with a non-finite value is
    written by the json encoder, which spells those values NaN and
    Infinity; its line, with any % doubled, is the row's text.
    """
    check = analytic.verify_bounds(lengths, jumps, arcs)
    table = np.column_stack([arcs, check.margin, jumps, check.x1, check.xn])
    finite = np.isfinite(table).all(axis=1)
    # Each column's index within its list, -1 for the scalar fields: a row
    # of length n keeps the list entries below n and every scalar.
    entry = np.arange(jumps.shape[1])
    column = np.concatenate([entry, [-1], entry, [-1, -1]])
    keep = (column < lengths[:, np.newaxis]) & finite[:, np.newaxis]
    encode = json.JSONEncoder(sort_keys=True).encode
    violations, lines = [], {}
    for i in np.flatnonzero(~(finite & check.satisfied)).tolist():
        n = int(lengths[i])
        record = {"n": n, "thetas": jumps[i, :n].tolist(),
                  "arcs": arcs[i, :n].tolist(), "xn": float(check.xn[i]),
                  "x1": float(check.x1[i]), "margin": float(check.margin[i])}
        if not finite[i]:
            lines[i] = (encode(record) + "\n").replace("%", "%%")
        if not check.satisfied[i]:
            violations.append(record)
    templates = _verify_templates(jumps.shape[1])
    # Template row 0, all empty, leaves a json line alone.
    template_rows = np.where(finite, lengths, 0)
    for lo in range(0, lengths.size, _VERIFY_BLOCK):
        rows = slice(lo, lo + _VERIFY_BLOCK)
        cells, args = _repr_cells(table[rows][keep[rows]])
        # Entries and values alternate along each row of text.
        text = np.full((template_rows[rows].size, 2 * column.size + 1), "",
                       dtype=object)
        text[:, 0::2] = templates[template_rows[rows]]
        text[:, 1::2][keep[rows]] = cells
        for i in np.flatnonzero(~finite[rows]).tolist():
            text[i, 0] = lines[lo + i]
        fh.write("".join(text.ravel().tolist()) % tuple(args))
    return violations


def cmd_verify(args) -> int:
    tprime = args.tprime
    seed = _checked_count(args.seed, "seed", 0)
    count = _checked_count(args.n, "n", 1)
    cfg = {"command": "verify", "tprime": tprime, "n": count, "seed": seed}

    # Also rejects a negative or non-finite --tprime, before any output.
    pump = analytic.BangSingularSequence.optical_pumping(tprime)
    report = analytic.pmp_residual(pump)
    pmp_ok = (report.max_phi <= PMP_RESIDUAL_GATE
              and report.max_lambda_y <= PMP_RESIDUAL_GATE)

    # Sequence 0, pumping, is a one-row batch.  The random sequences take
    # their lengths from the seeded stream first, in one integers call, and
    # then each sequence's 2n exponentials in turn.  They are checked in
    # chunks of VERIFY_CHUNK lengths, each drawn with one
    # analytic.random_batch call, which takes the same draws as one
    # random_sequence per length, so the output does not depend on
    # VERIFY_CHUNK.  Each chunk's records are written with one % over
    # per-length templates (_verify_chunk).
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, analytic.RANDOM_MAX_N + 1, size=count - 1,
                           dtype=np.uint8)
    after_lengths = rng.bit_generator.state
    chunks = [lengths[lo:lo + VERIFY_CHUNK]
              for lo in range(0, lengths.size, VERIFY_CHUNK)]

    def check(fh, chunks):
        violations = []
        for chunk in chunks:
            violations += _verify_chunk(fh, chunk, *analytic.random_batch(
                rng, chunk, tprime))
        return violations

    def write(fh, chunks):
        rng.bit_generator.state = after_lengths
        violations = _verify_chunk(fh, np.ones(1, dtype=np.intp),
                                   pump.jumps[np.newaxis],
                                   pump.arcs[np.newaxis])
        return violations + check(fh, chunks)

    # With two chunks or more and ~2200 sequences or more, where the host
    # allows it, _fork.split checks the chunks from `mine` on in a forked
    # child while this process writes the pumping row and the chunks
    # before them, then copies the child's text after them in bounded
    # pieces.  The child skips this process's exponentials, two per length,
    # with one discarded draw, so its generator is where the serial loop's
    # would be.  This process takes the chunk boundary nearest to half the
    # sequences, and the larger half at a tie: with five full chunks,
    # three here and two in the child took 35 ms against 47 ms for two
    # here, while at 2500 and 4500 sequences, whose last chunk is short,
    # the smaller half here was as fast or faster (2-vCPU host).
    # A violation in the child's half, a child that exits non-zero or an
    # exception here reruns the whole serial loop into the truncated file,
    # so that loop alone decides the output and offenders.
    mine = (lengths.size + VERIFY_CHUNK) // (2 * VERIFY_CHUNK)
    out = _out_dir(args)
    path = out / "verify_sequences.jsonl"

    def child():
        rng.standard_exponential(
            2 * int(lengths[:mine * VERIFY_CHUNK].sum()))
        text = io.StringIO()
        if check(text, chunks[mine:]):
            raise VerificationFailure("a sequence violates the pumping bound")
        return text.getvalue().encode("utf-8")

    def here(pipe):
        with open(path, "w", encoding="utf-8") as fh:
            violations = write(fh, chunks[:mine])
            fh.flush()
            shutil.copyfileobj(pipe, fh.buffer)
        return violations

    violations = _fork.split(len(chunks),
                             count * _VERIFY_SECONDS_PER_SEQUENCE, child, here)
    if violations is _fork.NOT_SPLIT:
        with open(path, "w", encoding="utf-8") as fh:
            violations = write(fh, chunks)

    summary = {
        "command": "verify",
        "config": cfg,
        "n_sequences": count,
        "n_violations": len(violations),
        "pmp": {"max_phi": report.max_phi,
                "max_lambda_y": report.max_lambda_y,
                "mu": report.mu,
                "passed": pmp_ok},
        "all_passed": pmp_ok and not violations,
        "outputs": {"sequences": "verify_sequences.jsonl"},
    }
    write_json(out / "verify_summary.json", summary)
    _emit(summary)

    if violations:
        raise VerificationFailure(
            f"{len(violations)} sequence(s) violate the pumping bound",
            offenders=violations,
        )
    if not pmp_ok:
        raise VerificationFailure(
            f"pumping PMP residuals exceed {PMP_RESIDUAL_GATE:g} "
            f"(max_phi={report.max_phi:g}, max_lambda_y={report.max_lambda_y:g})"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    _require(args, "gammas", "durations")
    gammas = _floats(args.gammas, "--gammas")
    gamma_diffs = _floats(args.gamma_diffs, "--gamma-diffs")
    durations = _floats(args.durations, "--durations")
    config = _opt_config(args)

    cfg = {"command": "sweep", "gammas": gammas, "gamma_diffs": gamma_diffs,
           "durations": durations, "intervals": config.n_intervals,
           "seed": config.seed, "starts": config.n_starts,
           "max_iters": config.max_iters}

    csv_rows = []
    detail = []
    failures = []
    for gamma, gamma_diff, duration in itertools.product(
            gammas, gamma_diffs, durations):
        cell = {"gamma": gamma, "gamma_diff": gamma_diff, "duration": duration}
        try:
            params = SystemParams(gamma_total=gamma, gamma_diff=gamma_diff)
            result = optimizer.optimize(config, params, duration)
            baseline = optimizer.pumping_baseline(params, duration)
        # Invalid parameters and numerical failures (numpy's LinAlgError is a
        # ValueError) become error rows and the grid goes on; any other
        # exception is a bug and propagates.
        except (ValueError, IntegrationError, FloatingPointError) as exc:
            failures.append(exc)
            # Keep the fixed column layout: no separators inside the field.
            reason = str(exc).replace(",", ";").replace("\n", " ")
            csv_rows.append((gamma, gamma_diff, duration, math.nan, math.nan,
                             f"error:{reason}", False))
            # JSON has no NaN: a failed cell's values are null there.
            detail.append({**cell, "objective": None,
                           "pumping_baseline": None, "winner_start": "",
                           "converged": False, "error": str(exc),
                           "starts": []})
            continue
        csv_rows.append((gamma, gamma_diff, duration, result.objective,
                         baseline, result.start_label, result.converged))
        detail.append({
            **cell, "objective": result.objective,
            "pumping_baseline": baseline,
            "winner_start": result.start_label,
            "converged": result.converged, "error": None,
            "starts": [dataclasses.asdict(rec) for rec in result.starts],
        })

    out = _out_dir(args)
    write_csv(out / "sweep.csv", cfg,
              "gamma_over_omega0,gamma_diff_over_omega0,omega0T,"
              "objective,pumping_baseline,winner_start,converged", csv_rows)
    summary = {"command": "sweep", "config": cfg, "n_cells": len(detail),
               "n_failures": len(failures), "cells": detail,
               "outputs": {"table": "sweep.csv"}}
    write_json(out / "sweep_summary.json", summary)
    _emit(summary)
    if len(failures) == len(detail):
        if all(isinstance(exc, ValueError)
               and not isinstance(exc, np.linalg.LinAlgError)
               for exc in failures):
            # A usage error, as optimize reports for any one of these cells.
            raise failures[0]
        raise IntegrationError("every sweep cell failed", last_time=0.0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def cmd_figures(args) -> int:
    selector = args.selector
    gamma, panels = FIGURE_REGIMES[selector]
    config = _opt_config(args)
    out = _out_dir(args)

    panel_summaries = []
    for name, gamma_diff, T in panels:
        params = SystemParams(gamma_total=gamma, gamma_diff=gamma_diff)
        cfg = {"command": "figures", "selector": selector, "panel": name,
               "gamma": gamma, "gamma_diff": gamma_diff, "duration": T,
               "intervals": config.n_intervals, "seed": config.seed,
               "starts": config.n_starts, "max_iters": config.max_iters}
        result = optimizer.optimize(config, params, T)
        trajectory = integrate_full(result.control, params)
        controls_name = f"{selector}_{name}_controls.csv"
        populations_name = f"{selector}_{name}_populations.csv"
        trajectory.write_csv(out / populations_name,
                             comment=_config_comment(cfg))
        panel_summaries.append({
            "panel": name, "gamma": gamma, "gamma_diff": gamma_diff,
            "duration": T,
            **_write_winner(out / controls_name, cfg, result, params),
            "outputs": {"controls": controls_name,
                        "populations": populations_name},
        })

    summary = {"command": "figures", "selector": selector,
               "seed": config.seed, "panels": panel_summaries}
    write_json(out / f"{selector}_summary.json", summary)
    _emit(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Help for `--seed` on the commands that draw no random numbers.
SEED_LABEL_HELP = ("label recorded in every output, an integer >= 0; this "
                   "command draws no random numbers")


def _add_common(p: argparse.ArgumentParser,
                seed_help: str = "seed of the random draws, recorded in "
                                 "every output"):
    p.add_argument("--config", type=Path, metavar="FILE",
                   help="file of `key = value` lines, each read as the "
                        "command's flag --key=value; flags given here win")
    p.add_argument("--seed", type=int, default=0,
                   help=f"{seed_help} (default 0)")
    p.add_argument("--out", type=Path,
                   help=f"output directory (default ${ENV_OUT} or ./out)")


def _add_regime(p: argparse.ArgumentParser):
    p.add_argument("--gamma", type=float,
                   help="decay ratio Gamma/omega0 (required)")
    p.add_argument("--gamma-diff", type=float, default=0.0,
                   help="decay asymmetry gamma/omega0 (default 0)")
    p.add_argument("--duration", type=float,
                   help="window omega0*T (required)")


def _add_intervals(p: argparse.ArgumentParser):
    p.add_argument("--intervals", type=int, default=100,
                   help="control grid size (default 100)")


def _add_ascent(p: argparse.ArgumentParser):
    p.add_argument("--starts", type=int, default=6,
                   help="number of starts (default 6)")
    p.add_argument("--max-iters", type=int, default=300,
                   help="iteration cap per start (default 300)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lambda-control",
                     description="Lambda-system simulation, pulse optimization "
                                 "and optimality verification.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="integrate the full model")
    _add_common(p, SEED_LABEL_HELP)
    _add_regime(p)
    _add_intervals(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="trajectory format (default csv)")
    schedule = p.add_mutually_exclusive_group()
    schedule.add_argument("--control", choices=tuple(NAMED_CONTROLS),
                          help="named control schedule (default pumping)")
    schedule.add_argument("--control-file", type=Path,
                          help="CSV of t,theta interval start times")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reduce", help="sample a jump/arc schedule of the "
                                      "reduced model")
    _add_common(p, SEED_LABEL_HELP)
    p.add_argument("--tprime", type=float,
                   help="normalized duration T' (default 5; with --jumps and "
                        "--arcs it must equal the sum of the arcs)")
    p.add_argument("--jumps", help="comma-separated jump angles")
    p.add_argument("--arcs", help="comma-separated arc durations")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("optimize", help="multi-start pulse optimization")
    _add_common(p)
    _add_regime(p)
    _add_intervals(p)
    _add_ascent(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="randomized bound checks and PMP "
                                      "residuals")
    _add_common(p)
    p.add_argument("--tprime", type=float, default=5.0,
                   help="normalized duration T' (default 5)")
    p.add_argument("--n", type=int, default=10000,
                   help="number of sequences (default 10000; sequence 0 is "
                        "always pumping)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="optimize a grid of regimes")
    _add_common(p)
    _add_intervals(p)
    p.add_argument("--gammas", help="comma-separated Gamma/omega0 (required)")
    p.add_argument("--gamma-diffs", default="0",
                   help="comma-separated gamma/omega0 (default 0)")
    p.add_argument("--durations", help="comma-separated omega0*T (required)")
    _add_ascent(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figures", help="regenerate figure-data bundles")
    p.add_argument("selector", choices=sorted(FIGURE_REGIMES))
    _add_common(p)
    _add_intervals(p)
    _add_ascent(p)
    p.set_defaults(func=cmd_figures)

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then reused (a
    parse leaves no state on the parser)."""
    return build_parser()


def _fail(message: str, code: int, extra: dict | None = None) -> int:
    payload = {"error": message, "exit_code": code}
    if extra:
        payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _main_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # The file's lines become flags right after the command name, so
            # argparse checks them like typed flags and the later, typed
            # ones win.
            args = parser.parse_args(
                [argv[0], *read_config_file(args.config), *argv[1:]])
        return args.func(args)
    except UsageError as exc:
        return _fail(str(exc), EXIT_USAGE)
    # Before ValueError: numpy's LinAlgError is one.
    except (IntegrationError, FloatingPointError, OverflowError,
            np.linalg.LinAlgError) as exc:
        return _fail(str(exc), EXIT_NUMERICAL)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except OSError as exc:
        return _fail(f"file system error: {exc}", EXIT_USAGE)
    except VerificationFailure as exc:
        return _fail(str(exc), EXIT_VERIFICATION,
                     {"offenders": exc.offenders[:10]})


if __name__ == "__main__":
    raise SystemExit(main())
