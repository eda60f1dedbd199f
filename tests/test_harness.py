import csv
import errno
import gc
import io
import json
import os

import pytest

import acceptance_specs as specs
from pemshuffle import algorithms as alg
from pemshuffle import cost_model as cm
from pemshuffle import harness
from pemshuffle.cli import main as cli_main
from pemshuffle.harness import (
    CalibrationError,
    ExperimentSpec,
    Report,
    calibrate,
    check_bounds_consistency,
    parse_spec_text,
    run_sweep,
)
from pemshuffle.machine import Machine, SimulationError

SMALL_GRID = """
# two-point grid
N_M = [16]
N_R = [16]
H = [128, 256]
v = [1]
w = [1]
P = [4]
M = [24]
B = [4]
algorithms = [complete_sort]
seeds = [0]
"""


class TestSpecParsing:
    def test_parse(self):
        spec = parse_spec_text(SMALL_GRID)
        assert spec.grid["H"] == [128, 256]
        assert spec.algorithms == ["complete_sort"]
        assert spec.seeds == [0]
        assert len(spec.points()) == 2

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_spec_text("frobnicate = 3\n")

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            parse_spec_text("algorithms = [sort_of_sorting]\n")

    def test_comments_and_blanks(self):
        spec = parse_spec_text("\n# hi\nH = [64]\nseeds = [1, 2]\n")
        assert spec.grid["H"] == [64] and spec.seeds == [1, 2]

    def test_policy(self):
        assert parse_spec_text("policy = erew\n").policy == "erew"
        # the grid file names the policy exactly as the CLI flag does
        with pytest.raises(ValueError, match="line 2: unknown policy 'EREW'"):
            parse_spec_text("H = [64]\npolicy = EREW\n")

    @pytest.mark.parametrize("key", harness.GRID_KEYS)
    def test_grid_values_below_one(self, key):
        # v = 0 used to crash the sweep, P = 0 and B = 0 gave failed rows
        with pytest.raises(ValueError, match=f"line 2: {key} values must be >= 1"):
            parse_spec_text(f"H = [64]\n{key} = [2, 0]\n")


PRIMITIVE_POINT = {"N_M": 16, "N_R": 16, "H": 128, "v": 1, "w": 1,
                   "P": 8, "M": 24, "B": 4}


class TestPrimitiveVerdicts:
    @pytest.mark.parametrize("algorithm", ["prim_gather", "prim_scatter",
                                           "prim_prefix_sum"])
    def test_working_primitive_passes(self, algorithm):
        row = harness.run_point(algorithm, PRIMITIVE_POINT, 0)
        assert row["status"] == "ok" and row["correct"] == "pass"
        assert row["measured_io"] > 0

    @pytest.mark.parametrize("algorithm,name", [("prim_gather", "gather"),
                                                ("prim_scatter", "scatter")])
    def test_undelivered_result_fails(self, monkeypatch, algorithm, name):
        monkeypatch.setattr(harness, name, lambda *args, **kwargs: {})
        row = harness.run_point(algorithm, PRIMITIVE_POINT, 0)
        assert row["status"] == "ok" and row["correct"] == "fail"

    def test_scatter_missing_one_target_fails(self, monkeypatch):
        real = harness.scatter

        def partial(machine, source, targets):
            got = real(machine, source, targets)
            got.pop(targets[-1])
            return got

        monkeypatch.setattr(harness, "scatter", partial)
        row = harness.run_point("prim_scatter", PRIMITIVE_POINT, 0)
        assert row["correct"] == "fail"


@pytest.mark.parametrize("algorithm", ["unordered_parallel", "sorted_parallel",
                                       "parallel_map_parallel"])
def test_grid_without_its_identity_cells_fails(monkeypatch, algorithm):
    hidden = []

    def fed_cells_only(machine, grid, final, N_R, w):
        # the combined partials stand in for the grid: the cells no triple
        # feeds, which hold the identity, are missing
        hidden.append(N_R * w - len(machine.region_elements(final.region)))
        return final.region

    monkeypatch.setattr(alg, "_fill_grid", fed_cells_only)
    point = {"N_M": 32, "N_R": 32, "H": 64, "v": 1, "w": 2, "P": 2, "M": 16, "B": 4}
    row = harness.run_point(algorithm, point, 0)
    assert hidden[0] > 0 and (row["status"], row["correct"]) == ("ok", "fail")


class TestSweep:
    def test_two_points_pass(self):
        spec = parse_spec_text(SMALL_GRID)
        report = run_sweep(spec)
        assert len(report.rows) == 2
        assert all(r["status"] == "ok" and r["correct"] == "pass"
                   for r in report.rows)

    def test_empty_grid_gives_header_only(self):
        spec = parse_spec_text(SMALL_GRID.replace("H = [128, 256]", "H = []"))
        report = run_sweep(spec)
        assert report.rows == []
        assert report.to_csv().count("\n") == 1

    def test_seed_repetition_identical(self):
        spec = parse_spec_text(SMALL_GRID)
        spec.seeds = [3, 3]
        report = run_sweep(spec)
        assert report.rows[0] == report.rows[1]

    def test_rerun_byte_identical(self):
        spec = parse_spec_text(SMALL_GRID)
        spec.algorithms = ["complete_sort", "unordered_nonparallel",
                           "prim_prefix_sum"]
        assert run_sweep(spec).to_csv() == run_sweep(spec).to_csv()

    def test_failed_row_reason_survives_the_csv(self, monkeypatch):
        def broken(*args):
            raise SimulationError("merge wrote 3 elements, expected 4")

        monkeypatch.setattr(alg, "complete_sort", broken)
        text = run_sweep(parse_spec_text(SMALL_GRID)).to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [(r["status"], r["reason"], r["correct"]) for r in rows] == \
            [("failed", "merge wrote 3 elements, expected 4", "fail")] * 2

    def test_infeasible_points_skipped_with_reason(self):
        spec = parse_spec_text(SMALL_GRID)
        spec.grid["P"] = [128]  # H/P < B for every H in the grid
        report = run_sweep(spec)
        assert all(r["status"] == "skipped" and r["reason"] == "H/P < B"
                   for r in report.rows)

    @pytest.mark.parametrize("algorithm", ["sorted_nonparallel", "sorted_parallel"])
    def test_more_columns_than_pairs(self, algorithm):
        # N_M > H: load balancing cannot split the columns, so the rows
        # sort from scratch instead of failing
        point = {"N_M": 512, "N_R": 4, "H": 64, "v": 1, "w": 1, "P": 1, "M": 12, "B": 1}
        row = harness.run_point(algorithm, point, 0)
        assert (row["status"], row["correct"]) == ("ok", "pass")


class TestInstanceSharing:
    """Rows on one instance share a draw; the pipelines are not run."""

    @pytest.fixture(autouse=True)
    def no_pipeline(self, monkeypatch):
        def not_run(*args):
            raise SimulationError("not run")

        monkeypatch.setattr(harness, "load_pipeline", not_run)

    def test_sweep_draws_once_per_point_and_layout(self, draws):
        run_sweep(specs.BAND_SPEC)
        assert draws == [(256, 64, H) for H in specs.BAND_SPEC.grid["H"] for _ in range(2)]

    def test_each_round_of_the_h16_reduce_rows_draws_two(self, draws):
        point = dict(N_M=1024, N_R=256, H=1 << 16, v=2, w=2, P=8, M=128, B=16)
        for rounds in (1, 2):
            for algorithm in ("unordered_parallel", "sorted_parallel",
                              "parallel_map_parallel", "parallel_map_nonparallel"):
                harness.run_point(algorithm, point, 0)
            assert len(draws) == 2 * rounds


class TestObservers:
    """A row attaches to its machine only what it reads: the potential
    tracker on a transposition row, no observer on any other row."""

    POINT = {"N_M": 32, "N_R": 16, "H": 128, "v": 2, "w": 2, "P": 4, "M": 24, "B": 4}

    @pytest.fixture
    def machines(self, monkeypatch):
        built = []
        init = Machine.__init__

        def keeping_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Machine, "__init__", keeping_init)
        return built

    @pytest.mark.parametrize("algorithm", ["unordered_parallel", "sorted_parallel",
                                           "parallel_map_parallel",
                                           "parallel_map_nonparallel", "prim_gather",
                                           "prim_scatter", "prim_prefix_sum"])
    def test_other_rows_record_nothing(self, machines, algorithm):
        row = harness.run_point(algorithm, self.POINT, 0)
        assert (row["status"], row["correct"], row["potential"]) == ("ok", "pass", "na")
        assert machines and all(m.observer is None for m in machines)

    @pytest.mark.parametrize("algorithm", ["direct_shuffle", "complete_sort",
                                           "unordered_nonparallel", "sorted_nonparallel"])
    def test_transposition_rows_track_the_potential(self, machines, algorithm):
        row = harness.run_point(algorithm, self.POINT, 0)
        assert (row["status"], row["correct"], row["potential"]) == ("ok", "pass", "pass")
        assert len(machines) == 1
        assert isinstance(machines[0].observer, cm.PotentialTracker)
        assert len(machines[0].observer.deltas) == row["measured_io"]

    @pytest.mark.parametrize("algorithm", ["direct_shuffle", "complete_sort",
                                           "unordered_nonparallel", "sorted_nonparallel"])
    def test_output_block_is_key_rank_over_b(self, monkeypatch, algorithm):
        handed = []
        track = cm.track_potential

        def keeping(machine, output_block_of):
            handed.append((machine.initial_image, output_block_of))
            return track(machine, output_block_of)

        monkeypatch.setattr(cm, "track_potential", keeping)
        point = dict(self.POINT, B=3)   # the last output block is partial
        assert harness.run_point(algorithm, point, 0)["potential"] == "pass"
        (image, output_block_of), = handed
        loaded = sorted((e for blk in image.values() for e in blk), key=lambda e: e.key)
        assert len(loaded) == point["H"]
        assert ([output_block_of(e) for e in loaded]
                == [r // point["B"] for r in range(point["H"])])


@pytest.fixture
def collector():
    """Puts the cyclic collector back as it was after the test."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """A row runs with the cyclic collector paused, and leaves it as the
    caller had it, however the row ends."""

    POINT = {"N_M": 32, "N_R": 32, "H": 256, "v": 1, "w": 1, "P": 4, "M": 48, "B": 4}

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request, collector):
        (gc.enable if request.param else gc.disable)()
        return request.param

    @pytest.mark.parametrize("algorithm,point,policy,status", [
        ("complete_sort", POINT, "crew", "ok"),
        ("complete_sort", dict(POINT, P=128), "crew", "skipped"),
        ("direct_shuffle", POINT, "erew", "failed"),   # a PolicyViolation
    ], ids=["ok", "skipped", "failed"])
    def test_state_restored(self, collecting, algorithm, point, policy, status):
        row = harness.run_point(algorithm, point, 0, policy)
        assert row["status"] == status
        assert gc.isenabled() is collecting

    def test_state_restored_when_a_step_raises(self, monkeypatch, collecting):
        def broken(*args):
            raise RuntimeError("not a SimulationError")

        monkeypatch.setattr(alg, "complete_sort", broken)
        with pytest.raises(RuntimeError, match="not a SimulationError"):
            harness.run_point("complete_sort", self.POINT, 0)
        assert gc.isenabled() is collecting

    def test_paused_while_the_pipeline_runs(self, monkeypatch, collecting):
        seen = []
        real = alg.complete_sort

        def watching(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(alg, "complete_sort", watching)
        assert harness.run_point("complete_sort", self.POINT, 0)["correct"] == "pass"
        assert seen == [False]
        assert gc.isenabled() is collecting


@pytest.mark.parametrize("algorithm", list(harness.PIPELINES))
def test_rows_leave_no_reference_cycles(collector, algorithm):
    """The premise of the pause: a row's objects are all freed by
    reference counting, so a paused collector leaves nothing behind."""
    point = {"N_M": 64, "N_R": 16, "H": 256, "v": 1, "w": 1, "P": 4, "M": 32, "B": 4}
    gc.disable()   # no automatic pass may collect the row's cycles first
    gc.collect()
    assert harness.run_point(algorithm, point, 0)["correct"] == "pass"
    assert gc.collect() == 0


class TestReport:
    @pytest.mark.parametrize("key,value", [("status", "failed"), ("correct", "fail"),
                                           ("potential", "fail")])
    def test_all_pass_fails_on(self, key, value):
        row = {"status": "ok", "correct": "pass", "potential": "pass"}
        assert Report([row]).all_pass()
        assert not Report([row, dict(row, **{key: value})]).all_pass()


class TestCalibrate:
    def synthetic(self, rows):
        return Report(rows=[{"algorithm": "x", "status": "ok", "P": 4,
                             "measured_io": m, "leading_term": lt,
                             "correct": "pass", "potential": "na"}
                            for m, lt in rows])

    def test_exact_leading_gives_unit_constants(self):
        rep = self.synthetic([(100.0, 100.0)] * 10)
        consts = calibrate(rep)
        assert consts["x"] == {"C1": 1.0, "C2": 0.0}

    def test_requires_enough_rows(self):
        rep = self.synthetic([(1.0, 1.0)] * 3)
        with pytest.raises(CalibrationError):
            calibrate(rep)

    def test_zero_leading_failure(self):
        rows = [(0.0, 0.0)] * 10          # measured 0 with no leading: fine
        rep = self.synthetic(rows)
        consts = calibrate(rep)
        assert consts["x"]["C2"] == 0.0
        # a zero-leading row with measured I/O pins C2 instead of failing
        rep2 = self.synthetic([(8.0, 0.0)] * 10)
        assert calibrate(rep2)["x"]["C2"] == 4.0

    def test_direct_shuffle_constant_near_two(self):
        spec = ExperimentSpec(
            grid={"N_M": [32], "N_R": [32], "H": [256, 512, 1024], "v": [1],
                  "w": [1], "P": [1, 2], "M": [24], "B": [4]},
            algorithms=["direct_shuffle"], seeds=[0, 1])
        consts = calibrate(run_sweep(spec))
        assert 1.0 <= consts["direct_shuffle"]["C1"] <= 2.5

    def test_prefix_sum_microbench_pins_c2(self):
        spec = ExperimentSpec(
            grid={"N_M": [4], "N_R": [4], "H": [16], "v": [1], "w": [1],
                  "P": [2, 4, 8, 16, 32], "M": [24], "B": [4]},
            algorithms=["prim_prefix_sum"], seeds=[0, 1])
        consts = calibrate(run_sweep(spec))
        assert consts["prim_prefix_sum"]["C1"] == 0.0
        assert 0 < consts["prim_prefix_sum"]["C2"] <= 4

    def test_constants_stable_across_reruns(self):
        spec = parse_spec_text(SMALL_GRID)
        spec.seeds = [0, 1, 2, 3, 4]
        a = calibrate(run_sweep(spec), min_rows=1)
        b = calibrate(run_sweep(spec), min_rows=1)
        assert a == b


class TestVerifyAndBounds:
    def test_verify_passes_on_small_grid(self):
        spec = parse_spec_text(SMALL_GRID)
        spec.algorithms = ["complete_sort", "direct_shuffle"]
        report, verdicts = harness.verify(spec)
        assert verdicts.all_ok(), verdicts.failures

    def test_budget_failures(self):
        spec = parse_spec_text(SMALL_GRID)
        spec.algorithms = ["complete_sort", "direct_shuffle"]
        constants = {"complete_sort": {"C1": 0.0, "C2": 40.0}}
        _, verdicts = harness.verify(spec, constants)
        assert (verdicts.budget_ok, verdicts.correctness_ok) == (False, True)
        assert verdicts.failures == [
            "complete_sort seed=0 H=256: 96 > 80.00",
            *["direct_shuffle: no calibrated constants"] * 2,
            f"calibrated constants exceed 32: {constants}"]

    def test_bounds_consistency_failure(self):
        row = dict(PRIMITIVE_POINT, status="ok", leading_term=1.0, P=4)
        assert check_bounds_consistency(Report([row])) == []
        failures = check_bounds_consistency(Report([row]), K=0.5)
        assert len(failures) == 5 and failures[0] == (
            "thm1:mixed vs table1:unordered/parallel at H=128 P=4: 8.0 > 0.5*(8.0+2.0)")

    def test_bounds_catalog_shape(self):
        spec = parse_spec_text(SMALL_GRID)
        text = harness.bounds_catalog(spec)
        lines = text.strip().split("\n")
        assert lines[0].startswith("formula_id,")
        assert len(lines) == 1 + 2 * 16
        assert any(line.split(",")[-1] == "False" for line in lines[1:])


class TestCli:
    def write_grid(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(SMALL_GRID)
        return str(path)

    def test_sweep_cli(self, tmp_path):
        grid = self.write_grid(tmp_path)
        out = tmp_path / "report.csv"
        assert cli_main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("algorithm,seed,")
        assert "complete_sort" in text

    def test_sweep_cli_algorithm_override_and_seed(self, tmp_path):
        grid = self.write_grid(tmp_path)
        out = tmp_path / "report.csv"
        assert cli_main(["sweep", "--grid", grid, "--out", str(out),
                         "--algorithms", "direct_shuffle", "--seed", "7"]) == 0
        lines = out.read_text().strip().split("\n")[1:]
        assert all(line.startswith("direct_shuffle,7,") for line in lines)

    def test_calibrate_cli(self, tmp_path):
        grid = self.write_grid(tmp_path)
        path = tmp_path / "grid.cfg"
        path.write_text(SMALL_GRID.replace("seeds = [0]",
                                           "seeds = [0, 1, 2, 3, 4]"))
        out = tmp_path / "constants.json"
        assert cli_main(["calibrate", "--grid", str(path),
                         "--out", str(out)]) == 0
        consts = json.loads(out.read_text())
        assert "complete_sort" in consts
        assert consts["complete_sort"]["C1"] <= 32

    def test_verify_cli(self, tmp_path):
        grid = self.write_grid(tmp_path)
        assert cli_main(["verify", "--grid", grid]) == 0

    def test_calibrate_cli_too_few_rows(self, tmp_path, capsys):
        assert cli_main(["calibrate", "--grid", self.write_grid(tmp_path)]) == 1
        assert capsys.readouterr() == (
            "", "calibration failed: complete_sort: 2 rows, need at least 10\n")

    def test_verify_cli_failed_erew_rows(self, tmp_path, capsys):
        assert cli_main(["verify", "--grid", self.write_grid(tmp_path), "--policy", "erew",
                         "--algorithms", "direct_shuffle"]) == 1
        assert capsys.readouterr() == (
            "budget: pass\ncorrectness: FAIL\npotential: pass\nbounds: pass\n",
            "  direct_shuffle failed: EREW: concurrent access to one block\n" * 2)

    def test_verify_cli_writes_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        assert cli_main(["verify", "--grid", self.write_grid(tmp_path), "--out", str(out)]) == 0
        assert out.read_text() == run_sweep(parse_spec_text(SMALL_GRID)).to_csv()

    def test_bounds_cli(self, tmp_path):
        grid = self.write_grid(tmp_path)
        out = tmp_path / "bounds.csv"
        assert cli_main(["bounds", "--grid", grid, "--out", str(out)]) == 0
        assert out.read_text().startswith("formula_id,")

    @pytest.mark.parametrize("text", ["v = [0]\n", "foo = 1\n", "out = report.csv\n", None,
                                      "H = [1k]\n", "seeds = [0, x]\n"],
                             ids=["value-below-one", "unknown-key", "out-key", "missing-file",
                                  "non-integer-value", "non-integer-seed"])
    def test_grid_file_error_is_a_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.cfg"
        if text is not None:
            path.write_text(text)
        for command in ("sweep", "calibrate", "verify", "bounds"):
            with pytest.raises(SystemExit) as exc:
                cli_main([command, "--grid", str(path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.splitlines()[-1].startswith(f"pemshuffle: error: {path}: ")
            if text is not None:
                assert f"{path}: line 1: " in err

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, target):
        grid = tmp_path / "grid.cfg"
        grid.write_text(SMALL_GRID.replace("seeds = [0]", "seeds = [0, 1, 2, 3, 4]"))
        if target == "directory":
            out, reason = tmp_path, os.strerror(errno.EISDIR)
        else:
            out, reason = tmp_path / "missing" / "x.csv", os.strerror(errno.ENOENT)
        for command in ("sweep", "calibrate", "verify", "bounds"):
            with pytest.raises(SystemExit) as exc:
                cli_main([command, "--grid", str(grid), "--out", str(out),
                          "--algorithms", "prim_prefix_sum"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.splitlines()[-1] == f"pemshuffle: error: --out {out}: {reason}"

    def test_unknown_algorithm_is_a_usage_error(self, tmp_path, capsys):
        grid = self.write_grid(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--grid", grid, "--algorithms", "complete_sort,nope"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            "pemshuffle: error: unknown algorithm 'nope'"

    @pytest.mark.parametrize("algorithms", [",", " , ", ""],
                             ids=["comma", "spaced-comma", "empty"])
    def test_empty_algorithm_list_is_a_usage_error(self, tmp_path, capsys, algorithms):
        grid = self.write_grid(tmp_path)
        for command in ("sweep", "calibrate", "verify", "bounds"):
            with pytest.raises(SystemExit) as exc:
                cli_main([command, "--grid", grid, "--algorithms", algorithms])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines()[-1] == \
                f"pemshuffle: error: --algorithms {algorithms!r} names no pipeline"

    @pytest.mark.parametrize("line", ["H = []", "seeds = []", "algorithms = []"],
                             ids=["no-H", "no-seed", "no-algorithm"])
    def test_empty_grid_list_is_a_usage_error(self, tmp_path, capsys, line):
        path = tmp_path / "grid.cfg"
        path.write_text(SMALL_GRID + line + "\n")
        for command in ("sweep", "calibrate", "verify", "bounds"):
            with pytest.raises(SystemExit) as exc:
                cli_main([command, "--grid", str(path)])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines()[-1] == \
                f"pemshuffle: error: {path}: an empty list leaves no row to run"

    def test_erew_policy_flag(self, tmp_path):
        grid = self.write_grid(tmp_path)
        out = tmp_path / "report.csv"
        # primitives are EREW-safe end to end
        assert cli_main(["sweep", "--grid", grid, "--out", str(out),
                         "--algorithms", "prim_prefix_sum,prim_gather",
                         "--policy", "erew"]) == 0
