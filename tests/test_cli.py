import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lambda_control import cli
from lambda_control.analytic import (
    RANDOM_MAX_N,
    BangSingularSequence,
    BoundCheck,
    apply_bang,
    apply_singular,
    optical_pumping_value,
    pmp_residual,
    random_sequence,
)
from lambda_control.model import (
    IntegrationError,
    SystemParams,
    Trajectory,
    integrate_full,
)
from oracles import assert_no_child, fork_paths


_JSON_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]),
    st.floats())
# math.sin and math.cos reject infinite angles.
_JSON_ANGLES = st.one_of(st.sampled_from([math.nan, -0.0, 0.0]),
                         st.floats(allow_infinity=False))


@st.composite
def _json_trajectories(draw):
    n = draw(st.integers(1, 40))
    return Trajectory(draw(hnp.arrays(float, n, elements=_JSON_VALUES)),
                      draw(hnp.arrays(float, (n, 9), elements=_JSON_VALUES)),
                      draw(hnp.arrays(float, n, elements=_JSON_ANGLES)))


_CHUNK_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, 1e-7, 1.5e-5, 1e16,
                     1.2345e22, -3e-300]))


@st.composite
def _verify_chunks(draw):
    """(lengths, jumps, arcs, fields, satisfied) of one verify chunk: every
    length 1..RANDOM_MAX_N, in a drawn order, with floats whose repr has an
    exponent, subnormals and -0.0; NaN or +-inf in xn, x1 or margin at the
    first, a middle and the last row."""
    lengths = np.array(draw(st.permutations(
        list(range(1, RANDOM_MAX_N + 1)) + draw(st.lists(
            st.integers(1, RANDOM_MAX_N), max_size=6)))))
    rows = lengths.size
    jumps = np.zeros((rows, RANDOM_MAX_N))
    arcs = np.zeros((rows, RANDOM_MAX_N))
    for i, n in enumerate(lengths.tolist()):
        jumps[i, :n] = draw(st.lists(_CHUNK_VALUES, min_size=n, max_size=n))
        arcs[i, :n] = draw(st.lists(_CHUNK_VALUES, min_size=n, max_size=n))
    fields = {name: np.array(draw(st.lists(
        _CHUNK_VALUES, min_size=rows, max_size=rows)))
        for name in ("xn", "x1", "margin")}
    for i in (0, rows // 2, rows - 1):
        name = draw(st.sampled_from(sorted(fields)))
        fields[name][i] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf]))
    satisfied = np.array(draw(st.lists(st.booleans(), min_size=rows,
                                       max_size=rows)))
    return lengths, jumps, arcs, fields, satisfied


def _fallback_chunk():
    """A chunk of _verify_chunks' form whose finite values all go to repr
    one at a time: zeros, magnitudes outside [1e-290, 1e290], and values
    with a shorter candidate on an end of their rounding interval."""
    fallback = [0.0, -0.0, 5e-324, -1e-300, 3e300, -1.7976931348623157e308,
                1.314724290863874e+17, -3.083522607985312e+18,
                2.9410800681327763e+17, 3.9693469960734e+17]
    lengths = np.arange(1, RANDOM_MAX_N + 1)
    rows = lengths.size
    cycle = np.resize(fallback, (2 * rows + 3, RANDOM_MAX_N))
    keep = np.arange(RANDOM_MAX_N) < lengths[:, np.newaxis]
    jumps = np.where(keep, cycle[:rows], 0.0)
    arcs = np.where(keep, cycle[rows:2 * rows], 0.0)
    fields = {name: cycle[2 * rows + k, :rows].copy()
              for k, name in enumerate(("xn", "x1", "margin"))}
    fields["margin"][rows // 2] = math.inf
    return lengths, jumps, arcs, fields, np.arange(rows) % 3 != 0


def run_cli(args):
    return cli.main(args)


def read_json(path):
    return json.loads(path.read_text())


def read_csv_rows(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line
            continue
        rows.append(line.split(","))
    return header, rows


class TestSimulate:
    def test_pumping_summary(self, tmp_path):
        code = run_cli(["simulate", "--gamma", "10", "--duration", "100",
                        "--control", "pumping", "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["final"]["rho33"] == pytest.approx(0.9932620530009145,
                                                          abs=0.02)
        assert summary["trace_drift"] <= 1e-9
        assert summary["max_y"] <= 1e-10
        assert summary["config"]["seed"] == 0
        header, rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert header == "t,rho11,rho22,rho33,x4,x5,x6,theta,omega_p,omega_s"
        assert float(rows[-1][0]) == 100.0

    def test_dark_control_zero_transfer(self, tmp_path):
        code = run_cli(["simulate", "--gamma", "10", "--duration", "100",
                        "--control", "theta0", "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["final"]["rho33"] == 0.0

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run_cli(["simulate", "--gamma", "2", "--duration", "10",
                            "--control", "ramp_up", "--intervals", "20",
                            "--seed", "7", "--out", str(out)]) == 0
        assert (a / "trajectory.csv").read_bytes() == \
            (b / "trajectory.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == \
            (b / "summary.json").read_bytes()

    def test_control_file_matches_library_integration(self, tmp_path):
        # Same code path as the library: parsed CSV must reproduce the
        # library trajectory float-for-float.
        control_path = tmp_path / "control.csv"
        control_path.write_text(
            "t,theta\n0.0,0.2\n2.5,1.0\n5.0,1.5\n")
        out = tmp_path / "run"
        code = run_cli(["simulate", "--gamma", "2", "--duration", "10",
                        "--control-file", str(control_path),
                        "--out", str(out)])
        assert code == 0
        control = cli.load_control_file(control_path, 10.0)
        params = SystemParams(gamma_total=2.0)
        trajectory = integrate_full(control, params, 10.0)
        _, rows = read_csv_rows(out / "trajectory.csv")
        got = np.array([[float(v) for v in row] for row in rows])
        assert got.shape[0] == trajectory.times.size
        assert np.array_equal(got[:, 0], trajectory.times)
        assert np.array_equal(got[:, 1:7], trajectory.states[:, :6])

    @pytest.mark.parametrize("text,bad_row", [
        ("t,theta\n0,0.5\n1,abc\n2,0.7\n", "1,abc"),
        ("0,0.5\nt,theta\n2,0.7\n", "t,theta"),
        ("# t in 1/omega0\nt,theta\ntime,angle\n0,0.5\n", "time,angle"),
        ("t,theta\n0,0.3,9\n", "0,0.3,9"),
        # Amplitude columns after t,theta, as optimized_control.csv had
        # before it became a t,theta table.
        ('# config: {"command": "optimize"}\nt,theta,omega_p,omega_s\n'
         "0,1.2,0.93,0.36\n3,1.2,0.93,0.36\n", "t,theta,omega_p,omega_s"),
    ], ids=["later_bad_row", "header_not_first", "second_header",
            "extra_field", "optimized_control"])
    def test_bad_control_row_exits_1_naming_it(self, tmp_path, capsys, text,
                                               bad_row):
        # Only the first row may be a header and every row has two fields;
        # a bad row is an error, not a silently dropped interval or field.
        control_path = tmp_path / "control.csv"
        control_path.write_text(text)
        out = tmp_path / "out"
        code = run_cli(["simulate", "--gamma", "2", "--duration", "3",
                        "--control-file", str(control_path),
                        "--out", str(out)])
        assert code == 1
        assert bad_row in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    def test_header_after_comment_is_accepted(self, tmp_path):
        control_path = tmp_path / "control.csv"
        control_path.write_text("# t in 1/omega0\nt,theta\n0,0.5\n2,0.7\n")
        control = cli.load_control_file(control_path, 3.0)
        assert control.grid.tolist() == [0.0, 2.0, 3.0]
        assert control.theta.tolist() == [0.5, 0.7]

    def test_json_format(self, tmp_path):
        code = run_cli(["simulate", "--gamma", "2", "--duration", "5",
                        "--format", "json", "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "trajectory.json")
        assert payload["t"][-1] == 5.0
        assert len(payload["rho33"]) == len(payload["t"])

    @pytest.mark.parametrize("control", ["pumping", "ramp_up", "ramp_down"])
    def test_json_bytes_equal_per_array_payload(self, tmp_path, control):
        # trajectory.json as built from slices of the states and np.sin/np.cos
        # of the angles; the shared column array gives the same bytes.
        code = run_cli(["simulate", "--gamma", "2", "--gamma-diff", "0.5",
                        "--duration", "12", "--control", control,
                        "--intervals", "30", "--format", "json",
                        "--out", str(tmp_path)])
        assert code == 0
        traj = integrate_full(cli.NAMED_CONTROLS[control](12.0, 30),
                              SystemParams(gamma_total=2.0, gamma_diff=0.5),
                              12.0)
        payload = {
            "config": read_json(tmp_path / "summary.json")["config"],
            "t": traj.times.tolist(),
            "rho11": traj.rho11.tolist(),
            "rho22": traj.rho22.tolist(),
            "rho33": traj.rho33.tolist(),
            "x4": traj.states[:, 3].tolist(),
            "x5": traj.states[:, 4].tolist(),
            "x6": traj.states[:, 5].tolist(),
            "theta": traj.thetas.tolist(),
            "omega_p": np.sin(traj.thetas).tolist(),
            "omega_s": np.cos(traj.thetas).tolist(),
        }
        want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "trajectory.json").read_bytes() == \
            want.encode("utf-8")

    @settings(deadline=None, max_examples=60)
    @given(_json_trajectories(),
           st.dictionaries(st.text(max_size=8),
                           st.one_of(st.none(), st.floats(), st.text(),
                                     st.integers()), max_size=4))
    def test_json_columns_equal_indented_dumps(self, traj, cfg):
        # The simulate payload: config plus the ten exported columns.
        columns = traj.columns().T.tolist()
        payload = {"config": cfg, **dict(zip(Trajectory.COLUMNS, columns))}
        assert cli._dumps_float_columns(payload) == \
            json.dumps(payload, sort_keys=True, indent=2)

    def test_missing_required_flag(self, tmp_path, capsys):
        code = run_cli(["simulate", "--duration", "10", "--out", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "gamma" in err["error"]
        assert err["exit_code"] == 1

    @pytest.mark.parametrize("control", ["pumping"])
    def test_tiny_duration_is_one_step(self, tmp_path, control):
        code = run_cli(["simulate", "--gamma", "2", "--duration", "1e-13",
                        "--control", control, "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert [float(row[0]) for row in rows] == [0.0, 1e-13]

    def test_tiny_duration_keeps_every_ramp_interval(self, tmp_path):
        # The edge slack is relative to T: the 100 intervals of a ramp over
        # T = 1e-13 are each one step, not merged into the first.
        code = run_cli(["simulate", "--gamma", "2", "--duration", "1e-13",
                        "--control", "ramp_up", "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv_rows(tmp_path / "trajectory.csv")
        control = cli.NAMED_CONTROLS["ramp_up"](1e-13, 100)
        assert [float(row[0]) for row in rows] == control.grid.tolist()
        assert [float(row[7]) for row in rows] == \
            [control.theta[0], *control.theta]

    def test_invalid_params_exit_usage(self, tmp_path):
        code = run_cli(["simulate", "--gamma", "2", "--gamma-diff", "5",
                        "--duration", "10", "--out", str(tmp_path)])
        assert code == 1

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise IntegrationError("blew up", last_time=1.0)

        monkeypatch.setattr(cli, "integrate_full", boom)
        code = run_cli(["simulate", "--gamma", "2", "--duration", "10",
                        "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("duration", ["1e18", "1e300"])
    def test_step_count_past_int64_exits_usage(self, tmp_path, capsys,
                                                duration):
        # 1e20 steps once wrapped to INT64_MIN and ran one step of 1e18.
        out = tmp_path / "out"
        code = run_cli(["simulate", "--gamma", "10", "--duration", duration,
                        "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 1
        assert err["error"].startswith("step counts must be finite and sum "
                                       "below 2**62")
        assert not out.exists()

    @pytest.mark.parametrize("schedule", [
        ["--control", "pumping"], ["--control", "theta0"],
        ["--control-file", "{tmp}/control.csv"]],
        ids=["pumping", "theta0", "control_file"])
    def test_bad_intervals_exit_1_for_every_schedule(self, tmp_path, capsys,
                                                     schedule):
        # The count is recorded in the config even where the schedule does
        # not read it.
        (tmp_path / "control.csv").write_text("t,theta\n0,0.3\n")
        out = tmp_path / "out"
        code = run_cli(["simulate", "--gamma", "2", "--duration", "3",
                        *(arg.format(tmp=tmp_path) for arg in schedule),
                        "--intervals", "0", "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "n_intervals must be an integer >= 1, got 0",
            "exit_code": 1}
        assert not out.exists()

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 10\nduration = 100\ncontrol = theta0\n"
                       "# comment line\nseed = 3\n")
        out = tmp_path / "out"
        code = run_cli(["simulate", "--config", str(cfg), "--control",
                        "pumping", "--out", str(out)])
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["config"]["control"] == "pumping"  # flag wins
        assert summary["config"]["seed"] == 3             # file value
        assert summary["final"]["rho33"] > 0.9

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma = 10\nwibble = 3\n")
        code = run_cli(["simulate", "--config", str(cfg), "--duration", "10",
                        "--out", str(tmp_path)])
        assert code == 1

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "envout"))
        code = run_cli(["simulate", "--gamma", "2", "--duration", "5"])
        assert code == 0
        assert (tmp_path / "envout" / "summary.json").exists()


class TestReduce:
    def test_default_pumping_schedule(self, tmp_path):
        code = run_cli(["reduce", "--tprime", "5", "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "reduced_summary.json")
        assert summary["final"]["x"] == pytest.approx(2 * math.exp(-5) - 1,
                                                      abs=1e-12)
        header, rows = read_csv_rows(tmp_path / "reduced.csv")
        assert header == "tprime,x,y,theta"
        assert float(rows[0][1]) == -1.0
        assert float(rows[-1][0]) == pytest.approx(5.0)

    def test_custom_schedule(self, tmp_path):
        code = run_cli(["reduce", "--jumps", "0.785398163397448,0.785398163397448",
                        "--arcs", "1,1", "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "reduced_summary.json")
        assert summary["final"]["x"] == pytest.approx(
            math.exp(-2) + math.exp(-1) - 1, abs=1e-9)

    SCHEDULE = ["--jumps", "0.5,1.0707963267948966", "--arcs", "1,2"]

    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    def test_tprime_disagreeing_with_the_arcs_is_rejected(self, tmp_path,
                                                          capsys, via_config):
        out = tmp_path / "out"
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("tprime = 7\n")
            argv = ["reduce", "--config", str(cfg)]
        else:
            argv = ["reduce", "--tprime", "7"]
        assert run_cli([*argv, *self.SCHEDULE, "--out", str(out)]) == 1
        assert "--tprime" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("schedule,tprimes", [
        (SCHEDULE, ["3", "3.0000000001"]),
        ([], ["5"]),
    ], ids=["arcs", "pumping"])
    def test_omitted_or_matching_tprime_gives_the_same_files(
            self, tmp_path, schedule, tprimes):
        runs = [[], *(["--tprime", tprime] for tprime in tprimes)]
        got = []
        for i, extra in enumerate(runs):
            out = tmp_path / str(i)
            assert run_cli(["reduce", *extra, *schedule,
                            "--out", str(out)]) == 0
            got.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert all(files == got[0] for files in got[1:])
        summary = json.loads(got[0]["reduced_summary.json"])
        assert summary["config"]["tprime"] == (3.0 if schedule else 5.0)

    @pytest.mark.parametrize("offset, accepted", [(1e-10, True),
                                                  (2e-9, False)])
    def test_tprime_tolerance_matches_pmp_residual(self, tmp_path, capsys,
                                                   offset, accepted):
        # One slack, analytic.TPRIME_TOL = 1e-9, for both checks of a T'
        # against the arcs (here 1 + 2 = 3).
        tprime = 3.0 + offset
        seq = BangSingularSequence(jumps=[0.5, 1.0707963267948966],
                                   arcs=[1.0, 2.0])
        code = run_cli(["reduce", "--tprime", repr(tprime), *self.SCHEDULE,
                        "--out", str(tmp_path)])
        if accepted:
            assert code == 0
            pmp_residual(seq, tprime)
        else:
            assert code == 1
            assert "--tprime" in json.loads(capsys.readouterr().err)["error"]
            with pytest.raises(ValueError, match="expected"):
                pmp_residual(seq, tprime)


class TestVerify:
    def test_small_run_passes(self, tmp_path):
        code = run_cli(["verify", "--tprime", "5", "--n", "200",
                        "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "verify_summary.json")
        assert summary["all_passed"] is True
        assert summary["n_violations"] == 0
        assert summary["pmp"]["max_phi"] <= 1e-10
        lines = (tmp_path / "verify_sequences.jsonl").read_text().splitlines()
        assert len(lines) == 200
        first = json.loads(lines[0])
        assert first["margin"] == 0.0  # sequence 0 is always pumping

    def test_long_horizon_passes(self, tmp_path):
        # Past T' ~ 709.8 exp(T') overflows; the PMP costate must not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["verify", "--tprime", "710", "--n", "10",
                            "--out", str(tmp_path)])
        assert code == 0
        pmp = read_json(tmp_path / "verify_summary.json")["pmp"]
        assert math.isfinite(pmp["max_phi"]) and pmp["passed"] is True

    def test_single_sequence_is_pumping(self, tmp_path):
        code = run_cli(["verify", "--n", "1", "--tprime", "3",
                        "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "verify_sequences.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["n"] == 1
        assert record["thetas"][0] == pytest.approx(math.pi / 2)
        assert record["margin"] == 0.0

    def test_violation_exits_3_and_echoes_offender(self, tmp_path,
                                                   monkeypatch, capsys):
        def fake_verify(lengths, jumps, arcs):
            rows = len(lengths)
            return BoundCheck(xn=np.full(rows, -1.0), x1=np.zeros(rows),
                              margin=np.full(rows, -1.0),
                              satisfied=np.zeros(rows, dtype=bool),
                              at_equality=np.zeros(rows, dtype=bool))

        monkeypatch.setattr(cli.analytic, "verify_bounds", fake_verify)
        code = run_cli(["verify", "--n", "3", "--out", str(tmp_path)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 3
        assert len(err["offenders"]) == 3
        assert err["offenders"][0]["margin"] == -1.0

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli(["verify", "--n", "50", "--seed", "9", "--out", str(out)])
        assert (a / "verify_sequences.jsonl").read_bytes() == \
            (b / "verify_sequences.jsonl").read_bytes()

    def test_matches_per_sequence_loop(self, tmp_path):
        # The records of a one-sequence-at-a-time check with the scalar maps;
        # 2500 sequences span more than one batch of the batched check.
        count, tprime = 2500, 5.0
        assert cli.VERIFY_CHUNK < count
        code = run_cli(["verify", "--tprime", "5", "--n", str(count),
                        "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        rng = np.random.default_rng(1)
        expected = []
        for index in range(count):
            if index == 0:
                seq = BangSingularSequence.optical_pumping(tprime)
            else:
                seq = random_sequence(rng, int(rng.integers(1, 11)), tprime)
            x, y = -1.0, 0.0
            for jump, arc in zip(seq.jumps, seq.arcs):
                x, y = apply_bang(x, y, jump)
                x, y = apply_singular(x, y, arc)
            x1 = optical_pumping_value(seq.total_time)
            record = {"n": seq.n, "thetas": [float(v) for v in seq.jumps],
                      "arcs": [float(v) for v in seq.arcs],
                      "xn": x, "x1": x1, "margin": x - x1}
            expected.append(json.dumps(record, sort_keys=True) + "\n")
        assert (tmp_path / "verify_sequences.jsonl").read_bytes() == \
            "".join(expected).encode("utf-8")

    def test_output_does_not_depend_on_chunk_size(self, tmp_path,
                                                  monkeypatch):
        got = []
        for chunk in (1, 7, 999, 1000):
            monkeypatch.setattr(cli, "VERIFY_CHUNK", chunk)
            out = tmp_path / str(chunk)
            assert run_cli(["verify", "--n", "2500", "--seed", "3",
                            "--out", str(out)]) == 0
            got.append([(out / name).read_bytes() for name in
                        ("verify_sequences.jsonl", "verify_summary.json")])
        assert all(files == got[0] for files in got[1:])
        lines = got[0][0].decode("utf-8").splitlines()
        assert len(lines) == 2500
        assert json.loads(lines[0])["thetas"] == [math.pi / 2]

    def test_imports_stay_lean(self, tmp_path):
        # numpy.ma (imported lazily by np.unique) and scipy would add to
        # every verify run's start-up time and memory.
        script = (
            "import sys\n"
            "from lambda_control import cli\n"
            "code = cli.main(['verify', '--n', '20', '--seed', '2',"
            f" '--out', {str(tmp_path)!r}])\n"
            "heavy = [m for m in ('numpy.ma', 'scipy') if m in sys.modules]\n"
            "sys.exit(code + 10 * bool(heavy))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_records_are_the_json_encoding(self, monkeypatch):
        # The lines equal the encoder's output for the record dicts, also
        # for -0.0, NaN and +-inf, which the encoder spells its own way.
        special = [-0.0, math.nan, math.inf, -math.inf, 0.25]
        rows = len(special) ** 2
        xn = np.array([a for a in special for _ in special])
        x1 = np.array([b for _ in special for b in special])
        margin = np.roll(xn, 3)
        satisfied = np.arange(rows) % 3 != 0
        lengths = np.where(np.arange(rows) % 2 == 0, 1, RANDOM_MAX_N)
        rng = np.random.default_rng(4)
        jumps = np.zeros((rows, RANDOM_MAX_N))
        arcs = np.zeros((rows, RANDOM_MAX_N))
        for i, n in enumerate(lengths):
            jumps[i, :n] = rng.uniform(0.0, 1.0, n)
            arcs[i, :n] = rng.uniform(0.0, 1.0, n)
        jumps[1, 2] = -0.0

        def fake_verify(got_lengths, got_jumps, got_arcs):
            return BoundCheck(xn=xn, x1=x1, margin=margin,
                              satisfied=satisfied,
                              at_equality=np.zeros(rows, dtype=bool))

        monkeypatch.setattr(cli.analytic, "verify_bounds", fake_verify)
        fh = io.StringIO()
        violations = cli._verify_chunk(fh, lengths, jumps, arcs)
        records = [{"n": int(n), "thetas": jumps[i, :n].tolist(),
                    "arcs": arcs[i, :n].tolist(), "xn": float(xn[i]),
                    "x1": float(x1[i]), "margin": float(margin[i])}
                   for i, n in enumerate(lengths)]
        encode = json.JSONEncoder(sort_keys=True).encode
        assert fh.getvalue() == "".join(encode(r) + "\n" for r in records)
        assert encode(violations) == encode(
            [r for r, ok in zip(records, satisfied) if not ok])

    @settings(deadline=None, max_examples=60)
    @given(chunk=_verify_chunks())
    @example(chunk=_fallback_chunk())
    def test_chunk_is_the_json_encoding_property(self, chunk):
        lengths, jumps, arcs, fields, satisfied = chunk
        rows = lengths.size
        check = BoundCheck(satisfied=satisfied,
                           at_equality=np.zeros(rows, dtype=bool), **fields)

        fh = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli.analytic, "verify_bounds",
                          lambda *args: check)
            violations = cli._verify_chunk(fh, lengths, jumps, arcs)
        records = [{"n": n, "thetas": jumps[i, :n].tolist(),
                    "arcs": arcs[i, :n].tolist(),
                    "xn": float(fields["xn"][i]),
                    "x1": float(fields["x1"][i]),
                    "margin": float(fields["margin"][i])}
                   for i, n in enumerate(lengths.tolist())]
        encode = json.JSONEncoder(sort_keys=True).encode
        assert fh.getvalue() == "".join(encode(r) + "\n" for r in records)
        assert encode(violations) == encode(
            [r for r, ok in zip(records, satisfied.tolist()) if not ok])

    def test_output_does_not_depend_on_block_size(self, monkeypatch):
        # Each block of rows is written with its own %; NaN rows fall in
        # the first, a middle and the last block at every size below 300.
        rng = np.random.default_rng(8)
        lengths = np.tile(np.arange(1, RANDOM_MAX_N + 1), 30)
        rows = lengths.size
        keep = np.arange(RANDOM_MAX_N) < lengths[:, np.newaxis]
        jumps, arcs = (np.where(keep, rng.standard_normal(keep.shape), 0.0)
                       for _ in range(2))
        fields = {name: rng.standard_normal(rows)
                  for name in ("xn", "x1", "margin")}
        fields["x1"][[0, rows // 2, rows - 1]] = math.nan
        check = BoundCheck(satisfied=fields["margin"] > -1.0,
                           at_equality=np.zeros(rows, dtype=bool), **fields)
        monkeypatch.setattr(cli.analytic, "verify_bounds",
                            lambda *args: check)
        encode = json.JSONEncoder(sort_keys=True).encode
        got = []
        for block in (1, 7, cli._VERIFY_BLOCK, rows):
            monkeypatch.setattr(cli, "_VERIFY_BLOCK", block)
            fh = io.StringIO()
            violations = cli._verify_chunk(fh, lengths, jumps, arcs)
            got.append((fh.getvalue(), encode(violations)))
        assert all(output == got[0] for output in got[1:])
        assert got[0][0].count("\n") == rows

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with it unimportable, the CLI
        # commands and both oracle paths of integrate_full still run.
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from lambda_control import cli, model\n"
            f"out = {str(tmp_path)!r}\n"
            "codes = [cli.main(argv + ['--out', f'{out}/{argv[0]}']) for argv"
            " in (['simulate', '--gamma', '2', '--duration', '5'],"
            " ['optimize', '--gamma', '2', '--duration', '5',"
            " '--intervals', '8', '--starts', '2', '--max-iters', '5'],"
            " ['verify', '--n', '20', '--seed', '2'])]\n"
            "p = model.SystemParams(gamma_total=2.0)\n"
            "for control in (lambda t: 0.3 * t,"
            " model.ControlSignal.linear_ramp(0.0, 0.6, 2.0, 5)):\n"
            "    traj = model.integrate_full(control, p, 2.0,"
            " method='adaptive')\n"
            "    assert traj.max_y() == 0.0 and traj.final_rho33 > 0.0\n"
            "sys.exit(max(codes))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for name in ("simulate", "optimize", "verify"):
            assert any((tmp_path / name).iterdir())

    @pytest.mark.parametrize("tprime, message", [
        ("-1", "tprime must be finite and nonnegative, got -1.0"),
        ("nan", "tprime must be finite and nonnegative, got nan"),
        ("inf", "tprime must be finite and nonnegative, got inf"),
    ], ids=["-1", "nan", "inf"])
    def test_bad_tprime_is_usage_error(self, tmp_path, capsys, tprime, message):
        out = tmp_path / "out"
        code = run_cli(["verify", "--tprime", tprime, "--n", "5",
                        "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {"error": message,
                                                       "exit_code": 1}
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_bad_n_is_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "out"
        code = run_cli(["verify", "--n", n, "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": f"n must be an integer >= 1, got {n}", "exit_code": 1}
        assert not out.exists()


class TestForkWhereItPays:
    """``_fork.split`` forks only where the serial loop's estimated time
    pays for the fork, whatever the host."""

    def test_benchmark_sizes_fork_and_small_calls_do_not(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real = cli._fork._two_processes
        decisions = []

        def two_processes(n_parts, seconds):
            decisions.append(real(n_parts, seconds))
            return decisions[-1]

        monkeypatch.setattr(cli._fork, "_two_processes", two_processes)
        # The benchmark's four optimize cells, at the CLI's defaults, and
        # its verify size; then an optimize call of 8 intervals, 2 starts
        # and 3 iterations and a verify call of two chunks (~15 ms).
        cells = [("0.1", "0", "10"), ("2", "0", "10"), ("10", "0", "35"),
                 ("10", "8", "100")]
        argvs = [["optimize", "--gamma", gamma, "--gamma-diff", diff,
                  "--duration", duration] for gamma, diff, duration in cells]
        argvs += [["verify", "--n", "10000", "--seed", "7"],
                  ["optimize", "--gamma", "1.2", "--duration", "10",
                   "--intervals", "8", "--starts", "2", "--max-iters", "3"],
                  ["verify", "--n", "1500", "--seed", "7"]]
        for index, argv in enumerate(argvs):
            assert cli.main([*argv, "--out", str(tmp_path / str(index))]) == 0
        assert decisions == [True] * 5 + [False] * 2
        assert_no_child()


class TestVerifyTwoProcesses:
    """``verify``'s random chunks split across a forked child and this
    process, against the serial loop."""

    def _verify(self, path, out, n, *args):
        with fork_paths()[path]:
            code = run_cli(["verify", "--n", str(n), "--seed", "4",
                            "--out", str(out), *args])
        return code, [(out / name).read_bytes() for name in
                      ("verify_sequences.jsonl", "verify_summary.json")]

    @pytest.mark.parametrize("n", [1, 1001, 1002, 2500, 10000])
    def test_paths_are_byte_equal(self, tmp_path, n):
        got = {}
        for path in ("serial", "forked"):
            with mock.patch.object(os, "fork", wraps=os.fork) as fork:
                got[path] = self._verify(path, tmp_path / path, n)
            assert fork.called == (path == "forked")
        assert got["forked"] == got["serial"]
        assert got["serial"][0] == 0
        assert_no_child()

    @pytest.mark.parametrize("where", ["here", "child"])
    def test_violation_gives_the_serial_offenders(self, tmp_path,
                                                  monkeypatch, capsys, where):
        # Of 2500 sequences, 1..1000 are checked here and 1001..2499 in the
        # child.  The one sequence flagged is picked by its values, so
        # every path flags it.
        index = {"here": 700, "child": 2100}[where]
        self._verify("serial", tmp_path / "plain", 2500)
        line = (tmp_path / "plain" / "verify_sequences.jsonl").read_text(
            ).splitlines()[index]
        flagged = json.loads(line)["thetas"][0]
        real = cli.analytic.verify_bounds

        def verify_bounds(lengths, jumps, arcs):
            check = real(lengths, jumps, arcs)
            hit = jumps[:, 0] == flagged
            return dataclasses.replace(
                check, margin=np.where(hit, -1.0, check.margin),
                satisfied=check.satisfied & ~hit)

        monkeypatch.setattr(cli.analytic, "verify_bounds", verify_bounds)
        got = {}
        for path in ("serial", "forked"):
            capsys.readouterr()
            code, files = self._verify(path, tmp_path / path, 2500)
            got[path] = code, files, json.loads(capsys.readouterr().err)
        assert got["forked"] == got["serial"]
        code, _, err = got["serial"]
        assert code == 3
        assert [record["thetas"][0] for record in err["offenders"]] == [
            flagged]
        assert_no_child()

    def test_child_exit_status_reruns_the_serial_loop(self, tmp_path,
                                                      monkeypatch):
        parent = os.getpid()
        real = cli._verify_chunk

        def verify_chunk(fh, lengths, *args):
            if os.getpid() != parent:
                os._exit(3)
            return real(fh, lengths, *args)

        monkeypatch.setattr(cli, "_verify_chunk", verify_chunk)
        forked = self._verify("forked", tmp_path / "forked", 2500)
        assert_no_child()
        assert forked == self._verify("serial", tmp_path / "serial", 2500)

    def test_failed_pipe_checks_every_chunk_here(self, tmp_path):
        # No descriptors to be had: the serial loop runs, not an OSError.
        with mock.patch.object(os, "pipe", side_effect=OSError(
                errno.EMFILE, "Too many open files")), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            forked = self._verify("forked", tmp_path / "forked", 2500)
        assert not fork.called
        assert forked == self._verify("serial", tmp_path / "serial", 2500)
        assert_no_child()

    def test_healthy_split_checks_the_first_half_here(self, tmp_path,
                                                      monkeypatch):
        # A silent fallback to the serial loop would cost only wall time.
        # The child appends to its own copy of the list.
        real = cli._verify_chunk
        here = []

        def verify_chunk(fh, lengths, *args):
            here.append(lengths.size)
            return real(fh, lengths, *args)

        monkeypatch.setattr(cli, "_verify_chunk", verify_chunk)
        code, _ = self._verify("forked", tmp_path, 4500)
        assert code == 0
        assert here == [1, 1000, 1000]
        assert_no_child()

    def test_interrupt_in_this_process_kills_the_child(self, tmp_path,
                                                       monkeypatch):
        parent = os.getpid()
        real = cli._verify_chunk

        def verify_chunk(fh, lengths, *args):
            if os.getpid() != parent:
                time.sleep(30.0)
            elif lengths.size > 1:
                raise KeyboardInterrupt
            return real(fh, lengths, *args)

        monkeypatch.setattr(cli, "_verify_chunk", verify_chunk)
        began = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            self._verify("forked", tmp_path, 2500)
        assert time.perf_counter() - began < 10.0
        assert_no_child()


class TestOptimizeCommand:
    def test_small_run(self, tmp_path):
        code = run_cli(["optimize", "--gamma", "2", "--duration", "10",
                        "--intervals", "20", "--starts", "3",
                        "--max-iters", "60", "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "optimize.json")
        assert summary["objective"] >= summary["pumping_baseline"] - 1e-12
        assert summary["winner_start"]
        header, rows = read_csv_rows(tmp_path / "optimized_control.csv")
        assert header == "t,theta"
        assert len(rows) == 20  # one per interval start
        thetas = np.array([float(r[1]) for r in rows])
        assert thetas.min() >= 0.0 and thetas.max() <= math.pi / 2 + 1e-12

    @pytest.mark.parametrize("regime", [
        ["--gamma", "1.2", "--duration", "10"],
        ["--gamma", "10", "--gamma-diff", "8", "--duration", "100"],
    ], ids=["symmetric", "asymmetric"])
    def test_simulate_reruns_the_winner(self, tmp_path, regime):
        # optimized_control.csv is the t,theta table simulate --control-file
        # reads: with the same regime it re-runs the winner, whose final
        # rho33 is the recorded objective.
        assert run_cli(["optimize", *regime, "--intervals", "20",
                        "--starts", "2", "--max-iters", "30",
                        "--out", str(tmp_path / "opt")]) == 0
        control_path = tmp_path / "opt" / "optimized_control.csv"
        assert run_cli(["simulate", *regime,
                        "--control-file", str(control_path),
                        "--out", str(tmp_path / "sim")]) == 0
        T = float(regime[-1])
        grid = cli.load_control_file(control_path, T).grid
        assert grid.tobytes() == np.linspace(0.0, T, 21).tobytes()
        objective = read_json(tmp_path / "opt" / "optimize.json")["objective"]
        final = read_json(tmp_path / "sim" / "summary.json")["final"]
        assert abs(final["rho33"] - objective) <= 1e-12

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["optimize", "--gamma", "0.1", "--duration", "5",
                            "--intervals", "24", "--starts", "4",
                            "--max-iters", "40", "--seed", "3",
                            "--out", str(out)]) == 0
        for name in ("optimize.json", "optimized_control.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        starts = read_json(a / "optimize.json")["starts"]
        assert [s["label"] for s in starts] == [
            "pumping", "counterintuitive_ramp", "intuitive_ramp", "random_1"]
        for record in starts:
            assert set(record) == {"label", "initial_objective", "objective",
                                   "iterations", "nfev", "converged",
                                   "total_variation", "stop"}
            assert record["nfev"] >= record["iterations"] + 1
            assert record["objective"] >= record["initial_objective"]
            assert record["stop"] in {"converged", "max_iters", "line_search"}
            assert record["converged"] == (record["stop"] == "converged")

    def test_step_count_past_int64_exits_usage(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["optimize", "--gamma", "10", "--duration", "1e18",
                        "--intervals", "4", "--starts", "1",
                        "--max-iters", "2", "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 1
        assert "step counts" in err["error"]
        assert not out.exists()

    def test_linalg_error_exits_numerical(self, tmp_path, monkeypatch,
                                          capsys):
        # numpy's LinAlgError is a ValueError, yet a numerical failure.
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(cli.optimizer, "optimize", singular)
        code = run_cli(["optimize", "--gamma", "2", "--duration", "5",
                        "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "singular", "exit_code": 2}


class TestSweepCommand:
    def test_grid_with_failing_cell(self, tmp_path):
        code = run_cli(["sweep", "--gammas", "2", "--gamma-diffs", "0,9",
                        "--durations", "5", "--intervals", "16",
                        "--starts", "2", "--max-iters", "30",
                        "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv_rows(tmp_path / "sweep.csv")
        assert header == ("gamma_over_omega0,gamma_diff_over_omega0,omega0T,"
                          "objective,pumping_baseline,winner_start,converged")
        assert len(rows) == 2
        good = [r for r in rows if not r[5].startswith("error:")]
        bad = [r for r in rows if r[5].startswith("error:")]
        assert len(good) == 1 and len(bad) == 1
        assert float(good[0][3]) > 0.0
        summary = read_json(tmp_path / "sweep_summary.json")
        assert summary["n_failures"] == 1
        assert [r[6] for r in rows] == \
            [str(c["converged"]) for c in summary["cells"]]
        assert bad[0][6] == "False"

    def test_error_rows_are_strict_json(self, tmp_path, capsys):
        # A failed cell's objective and baseline are null in the JSON, which
        # strict parsers read; the CSV keeps nan.
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code = run_cli(["sweep", "--gammas", "2", "--gamma-diffs", "9,0",
                        "--durations", "5", "--intervals", "8",
                        "--starts", "2", "--max-iters", "5",
                        "--out", str(tmp_path)])
        assert code == 0
        stdout = json.loads(capsys.readouterr().out, parse_constant=reject)
        summary = json.loads(
            (tmp_path / "sweep_summary.json").read_text(encoding="utf-8"),
            parse_constant=reject)
        assert summary == stdout
        bad, good = summary["cells"]
        assert bad["error"] is not None and good["error"] is None
        assert bad["objective"] is None and bad["pumping_baseline"] is None
        assert good["objective"] > 0.0
        _, rows = read_csv_rows(tmp_path / "sweep.csv")
        assert rows[0][3:5] == ["nan", "nan"]

    @pytest.mark.parametrize("optimize_args, sweep_args", [
        (["--gamma", "1", "--gamma-diff", "5", "--duration", "10"],
         ["--gammas", "1", "--gamma-diffs", "5", "--durations", "10"]),
        (["--gamma", "1", "--duration", "-5"],
         ["--gammas", "1,2", "--durations", "-5"]),
    ], ids=["gamma_diff", "duration"])
    def test_every_cell_invalid_exits_usage(self, tmp_path, capsys,
                                            optimize_args, sweep_args):
        # The exit code and message of optimize on the first cell.
        code = run_cli(["optimize", *optimize_args,
                        "--out", str(tmp_path / "opt")])
        assert code == 1
        expected = json.loads(capsys.readouterr().err)
        code = run_cli(["sweep", *sweep_args, "--out", str(tmp_path / "sweep")])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == expected

    def test_every_cell_linalg_error_exits_numerical(self, tmp_path,
                                                     monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(cli.optimizer, "optimize", singular)
        code = run_cli(["sweep", "--gammas", "1,2", "--durations", "10",
                        "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "every sweep cell failed", "exit_code": 2}
        cells = read_json(tmp_path / "sweep_summary.json")["cells"]
        assert [cell["error"] for cell in cells] == ["singular", "singular"]

    def test_summary_lists_every_start(self, tmp_path):
        argv = ["sweep", "--gammas", "0.5,2", "--gamma-diffs", "0,1",
                "--durations", "5", "--intervals", "12", "--starts", "3",
                "--max-iters", "20"]
        summaries = []
        for run in ("a", "b"):
            assert run_cli(argv + ["--out", str(tmp_path / run)]) == 0
            summaries.append((tmp_path / run / "sweep_summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        cells = read_json(tmp_path / "a" / "sweep_summary.json")["cells"]
        assert [c["error"] is None for c in cells] == [True, False, True, True]
        for cell in cells:
            if cell["error"] is not None:
                assert cell["starts"] == []
                continue
            labels = [start["label"] for start in cell["starts"]]
            assert labels == ["pumping", "counterintuitive_ramp",
                              "intuitive_ramp"]
            winner = cell["starts"][labels.index(cell["winner_start"])]
            assert winner["objective"] == cell["objective"]
            assert winner["converged"] == cell["converged"]
            assert set(winner) == {"label", "initial_objective", "objective",
                                   "iterations", "nfev", "converged",
                                   "total_variation", "stop"}


class TestFiguresCommand:
    def test_unknown_selector(self, tmp_path, capsys):
        code = run_cli(["figures", "fig9", "--out", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "selector" in err["error"]

    def test_fig2_bundle(self, tmp_path):
        code = run_cli(["figures", "fig2", "--intervals", "16",
                        "--starts", "2", "--max-iters", "25",
                        "--out", str(tmp_path)])
        assert code == 0
        for panel in ("T5", "T10", "T20"):
            assert (tmp_path / f"fig2_{panel}_controls.csv").exists()
            assert (tmp_path / f"fig2_{panel}_populations.csv").exists()
        summary = read_json(tmp_path / "fig2_summary.json")
        assert len(summary["panels"]) == 3
        assert all(p["gamma"] == 0.1 for p in summary["panels"])
        # A panel's controls table re-runs its winner as optimize's does.
        panel = summary["panels"][2]
        assert panel["panel"] == "T20"
        assert run_cli(["simulate", "--gamma", "0.1", "--duration", "20",
                        "--control-file",
                        str(tmp_path / panel["outputs"]["controls"]),
                        "--out", str(tmp_path / "sim")]) == 0
        final = read_json(tmp_path / "sim" / "summary.json")["final"]
        assert abs(final["rho33"] - panel["objective"]) <= 1e-12

    def test_fig3_panels_carry_convergence_and_starts(self, tmp_path):
        argv = ["figures", "fig3", "--intervals", "12", "--starts", "3",
                "--max-iters", "20"]
        summaries = []
        for run in ("a", "b"):
            assert run_cli(argv + ["--out", str(tmp_path / run)]) == 0
            summary = tmp_path / run / "fig3_summary.json"
            summaries.append(summary.read_bytes())
        assert summaries[0] == summaries[1]
        panels = read_json(tmp_path / "a" / "fig3_summary.json")["panels"]
        assert [p["panel"] for p in panels] == ["T35", "T50", "T100"]
        for panel in panels:
            assert isinstance(panel["converged"], bool)
            assert isinstance(panel["iterations"], int)
            labels = [start["label"] for start in panel["starts"]]
            assert labels == ["pumping", "counterintuitive_ramp",
                              "intuitive_ramp"]
            assert panel["winner_start"] in labels
            winner = panel["starts"][labels.index(panel["winner_start"])]
            assert winner["objective"] == panel["objective"]
            assert winner["converged"] == panel["converged"]
            assert winner["iterations"] == panel["iterations"]
            assert set(winner) == {"label", "initial_objective", "objective",
                                   "iterations", "nfev", "converged",
                                   "total_variation", "stop"}

    def test_fig5_asymmetric_bundle(self, tmp_path):
        code = run_cli(["figures", "fig5", "--intervals", "16",
                        "--starts", "2", "--max-iters", "20",
                        "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "fig5_summary.json")
        assert [p["panel"] for p in summary["panels"]] == \
            ["gm8", "gm2", "gp2", "gp8"]
        assert [p["gamma_diff"] for p in summary["panels"]] == \
            [-8.0, -2.0, 2.0, 8.0]
        assert all(p["gamma"] == 10.0 and p["duration"] == 100.0
                   for p in summary["panels"])
        for panel in ("gm8", "gm2", "gp2", "gp8"):
            assert (tmp_path / f"fig5_{panel}_populations.csv").exists()


class TestParserPlumbing:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 1

    def test_bad_flag_value(self, capsys):
        assert run_cli(["simulate", "--gamma", "ten", "--duration", "5"]) == 1

    def test_format_is_a_simulate_flag(self, tmp_path, capsys):
        for command in ("reduce", "verify", "optimize", "sweep"):
            assert run_cli([command, "--format", "json",
                            "--out", str(tmp_path)]) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "5", "--gamma", "7"],
        ["figures", "fig3", "--gamma", "5", "--duration", "1"],
        ["reduce", "--intervals", "9"],
        ["reduce", "--duration", "3"],
        # No prefix matching: neither runs as a longer flag of the command.
        ["sweep", "--gammas", "2", "--durations", "5", "--gamma-diff", "1"],
        ["simulate", "--gam", "2", "--duration", "1"],
    ])
    def test_flags_a_command_ignores_are_rejected(self, tmp_path, capsys,
                                                  argv):
        assert run_cli(argv + ["--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "unrecognized arguments" in err["error"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["sweep", "--gammas", ",", "--durations", "5"],
        ["sweep", "--gammas", "2", "--durations", ""],
    ])
    def test_empty_value_list_is_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert "empty" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["sweep", "--gammas", "2", "--durations", "5,nan"], "--durations"),
        (["sweep", "--gammas", "inf", "--durations", "5"], "--gammas"),
        (["sweep", "--gammas", "2", "--gamma-diffs=-inf", "--durations", "5"],
         "--gamma-diffs"),
        (["reduce", "--jumps", "1.5707963267948966,nan", "--arcs", "1,2"],
         "--jumps"),
    ], ids=["durations", "gammas", "gamma_diffs", "jumps"])
    def test_non_finite_list_value_is_rejected(self, tmp_path, capsys, argv,
                                               option):
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"non-finite value in {option} list")
        assert not out.exists()

    # optimize and figures check the seed through OptimizationConfig, as
    # sweep does; verify, simulate and reduce check it themselves.
    @pytest.mark.parametrize("argv", [
        ["sweep", "--gammas", "1", "--durations", "5"], ["verify"],
        ["simulate", "--gamma", "1", "--duration", "1"], ["reduce"]],
        ids=["sweep", "verify", "simulate", "reduce"])
    def test_bad_seed_exits_1_before_any_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli([*argv, "--seed", "-1", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "seed must be an integer >= 0, got -1", "exit_code": 1}
        assert not out.exists()

    def test_one_process_matches_fresh_processes(self, tmp_path):
        # main builds its parser once per process: a run of calls in one
        # process gives the exit codes, output and files of one process per
        # call.
        (tmp_path / "control.csv").write_text(
            "t,theta\n0,0.3\n1,0.3\n2,-0\n3,0\n4,1.2\n")
        (tmp_path / "run.cfg").write_text(
            "gamma = 2\nduration = 5\ncontrol = ramp_up\nformat = json\n")
        simulate = ["simulate", "--gamma", "2", "--duration", "6",
                    "--control-file", str(tmp_path / "control.csv")]
        calls = [
            simulate + ["--control", "pumping"],
            ["simulate", "--config", str(tmp_path / "run.cfg")],
            ["verify", "--n", "30", "--seed", "5"],
            simulate,
            simulate,
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from lambda_control import cli\n"
            "done = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), "
            "contextlib.redirect_stderr(err):\n"
            "        code = cli.main(argv)\n"
            "    done.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(done))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)

        def run(argvs):
            done = subprocess.run(
                [sys.executable, "-c", script, json.dumps(argvs)], env=env,
                capture_output=True, text=True, timeout=120, check=True)
            return json.loads(done.stdout)

        shared = run([argv + ["--out", str(tmp_path / "shared" / str(k))]
                      for k, argv in enumerate(calls)])
        fresh = [run([argv + ["--out", str(tmp_path / "fresh" / str(k))]])[0]
                 for k, argv in enumerate(calls)]
        assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0]
        assert shared == fresh
        assert "not allowed with argument" in json.loads(shared[0][2])["error"]
        for k in range(len(calls)):
            got = TestConfigFile.files(tmp_path / "shared" / str(k))
            assert got == TestConfigFile.files(tmp_path / "fresh" / str(k))
        assert TestConfigFile.files(tmp_path / "shared" / "3") == \
            TestConfigFile.files(tmp_path / "shared" / "4")

    def test_stdout_summary_is_json(self, tmp_path, capsys):
        run_cli(["simulate", "--gamma", "2", "--duration", "5",
                 "--out", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "simulate"


class TestConfigFile:
    """A `key = value` line is the command's flag `--key=value`."""

    # (command, positional arguments, every option as (config key, value)).
    CASES = {
        "simulate": ("simulate", [], [
            ("gamma", "2"), ("gamma_diff", "-1"), ("duration", "5"),
            ("intervals", "12"), ("seed", "7"), ("format", "json"),
            ("control", "ramp_up")]),
        "simulate_control_file": ("simulate", [], [
            ("gamma", "2"), ("gamma_diff", "0.5"), ("duration", "10"),
            ("intervals", "12"), ("seed", "7"), ("format", "csv"),
            ("control_file", "{tmp}/control.csv")]),
        "reduce": ("reduce", [], [
            ("tprime", "3"), ("jumps", "0.5,1.0707963267948966"),
            ("arcs", "1,2"), ("seed", "5")]),
        "optimize": ("optimize", [], [
            ("gamma", "10"), ("gamma_diff", "-8"), ("duration", "5"),
            ("intervals", "8"), ("seed", "3"), ("starts", "4"),
            ("max_iters", "10")]),
        "verify": ("verify", [], [
            ("tprime", "3"), ("n", "20"), ("seed", "4")]),
        "sweep": ("sweep", [], [
            ("gammas", "0.5,2"), ("gamma_diffs", "0,1"), ("durations", "5"),
            ("intervals", "8"), ("seed", "3"), ("starts", "2"),
            ("max_iters", "5")]),
        "figures": ("figures", ["fig4"], [
            ("intervals", "6"), ("seed", "2"), ("starts", "2"),
            ("max_iters", "5")]),
    }

    @staticmethod
    def files(root):
        return {path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_config_file_gives_the_files_of_the_same_flags(self, tmp_path,
                                                           case):
        command, positional, options = self.CASES[case]
        (tmp_path / "control.csv").write_text("t,theta\n0,0.3\n4,1.2\n")
        options = [(key, value.format(tmp=tmp_path))
                   for key, value in options]
        from_file, from_flags = tmp_path / "file", tmp_path / "flags"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in options)
                       + f"out = {from_file}\n")
        assert run_cli([command, *positional, "--config", str(cfg)]) == 0
        flags = [arg for key, value in options
                 for arg in (f"--{key.replace('_', '-')}", value)]
        assert run_cli([command, *positional, *flags,
                        "--out", str(from_flags)]) == 0
        got = self.files(from_file)
        assert got and got == self.files(from_flags)

    def test_bad_choice_exits_1_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 2\nduration = 1\nformat = xml\n")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg),
                        "--out", str(out)]) == 1
        assert "--format" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    def test_out_is_honoured(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.ENV_OUT, raising=False)
        target = tmp_path / "target"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"gamma = 2\nduration = 1\nout = {target}\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == 0
        assert (target / "summary.json").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["n = 5", "max_iters = 3",
                                      "selector = fig9"])
    def test_key_the_command_does_not_take_is_rejected(self, tmp_path,
                                                       capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"gamma = 2\nduration = 1\n{line}\n")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg),
                        "--out", str(out)]) == 1
        assert "unrecognized arguments" in \
            json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["gamma 2\n", "= 2\n",
                                      "config = other.cfg\n"])
    def test_malformed_or_nested_file_is_rejected(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert run_cli(["simulate", "--config", str(cfg), "--duration", "1",
                        "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_main_reads_sys_argv(self, tmp_path, monkeypatch):
        # The console script calls main() with no arguments.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 20\ntprime = 3\n")
        out = tmp_path / "verify"
        monkeypatch.setattr(sys, "argv", ["lambda-control", "verify",
                                          "--config", str(cfg),
                                          "--out", str(out)])
        assert cli.main() == 0
        assert read_json(out / "verify_summary.json")["n_sequences"] == 20
