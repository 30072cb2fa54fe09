"""CLI contract: schemas, exit codes, full-precision round-trips, and
byte-level reproducibility of seeded runs."""

import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bellodds import cli, simulate
from bellodds.bayes import kl_per_trial, required_trials
from bellodds.cli import main
from bellodds.scenarios import chained_pair, ghz_pair, hardy_optimize_r, hardy_q, scenario_pair
from bellodds.simulate import GENERATOR

ANALYZE_KEYS = {"scenario", "q", "r", "kl_nats", "target_d", "n_real", "n_ceil", "extras"}
SWEEP_HEADER = "k,theta,q,r,kl_nats,n_real"
COMPARE_HEADER = "scenario,q,r,n_real,n_kind"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "bellodds", *argv], capture_output=True, text=True
    )


class TestAnalyze:
    def test_ghz_schema_and_values(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--scenario", "ghz", "--target-d", "1e4")
        assert code == 0
        assert err == ""
        data = json.loads(out)
        assert set(data) == ANALYZE_KEYS
        assert data["scenario"] == "ghz"
        # repr-printed floats round-trip to the library values exactly
        assert data["q"] == 1.0 and data["r"] == 0.75
        assert data["kl_nats"] == kl_per_trial(ghz_pair())
        assert data["n_real"] == required_trials(ghz_pair(), 1e4)
        assert data["n_ceil"] == 33
        assert data["extras"] == {}

    def test_chained_extras(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--scenario", "chained", "--k", "4")
        assert code == 0
        data = json.loads(out)
        assert data["extras"]["k"] == 4
        assert data["extras"]["theta"] == math.pi / 8
        assert data["target_d"] == 1e4  # flag default

    def test_near_unit_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--scenario", "chained", "--k", "2", "--target-d", "1.0001"
        )
        assert code == 0
        data = json.loads(out)
        want = math.log(1.0001) / kl_per_trial(chained_pair(2))
        assert math.isclose(data["n_real"], want, rel_tol=1e-12)
        assert data["n_ceil"] == 1

    def test_hardy_paper_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--scenario", "hardy", "--hardy-mode", "paper", "--target-d", "1e4"
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["extras"]["r_opt"] - 0.03358) <= 1e-4
        assert data["extras"]["mode"] == "paper"
        assert data["r"] == data["extras"]["r_opt"]
        assert abs(data["n_real"] - 270.0) <= 1.0

    def test_hardy_literal_mode(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--scenario", "hardy", "--hardy-mode", "literal")
        assert code == 0
        data = json.loads(out)
        assert data["extras"]["r_opt"] == hardy_optimize_r("literal", 1e4).r_opt

    def test_target_does_not_key_the_scenario_cache(self, capsys):
        scenario_pair.cache_clear()
        for target in ("1e2", "1e8"):
            code, _, _ = run_cli(capsys, "analyze", "--scenario", "hardy", "--target-d", target)
            assert code == 0
        assert scenario_pair.cache_info().misses == 1

    def test_hardy_naive_reports_survival_count(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--scenario", "hardy-naive")
        assert code == 0
        data = json.loads(out)
        # unbounded per-trial information: the rate fields are null,
        # the survival count carries the story
        assert data["kl_nats"] is None and data["n_real"] is None and data["n_ceil"] is None
        assert data["q"] == hardy_q() and data["r"] == 0.0
        assert data["extras"]["naive_trials"] == 8
        assert data["extras"]["survival_threshold"] == 0.5
        assert math.isclose(data["extras"]["mean_trials_to_first_coincidence"], 1 / hardy_q())

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--scenario", "ghz", "--target-d", "1"),
            ("analyze", "--scenario", "ghz", "--target-d", "0.5"),
            ("analyze", "--scenario", "ghz", "--target-d", "inf"),
            ("analyze", "--scenario", "warp"),
            ("analyze", "--scenario", "chained", "--k", "1"),
            ("analyze",),
        ],
    )
    def test_usage_errors_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err != ""


class TestSweep:
    def test_header_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "chained", "--k-min", "2", "--k-max", "4",
            "--target-d", "1e4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["k"] for r in rows] == ["2", "3", "4"]
        for row in rows:
            k = int(row["k"])
            pair = chained_pair(k)
            assert float(row["q"]) == pair.q
            assert float(row["r"]) == pair.r
            assert float(row["kl_nats"]) == kl_per_trial(pair)
            assert float(row["n_real"]) == required_trials(pair, 1e4)
        assert abs(float(rows[0]["n_real"]) - 287.1538) < 1e-3
        assert abs(float(rows[1]["n_real"]) - 207.6361) < 1e-3
        assert abs(float(rows[2]["n_real"]) - 200.8207) < 1e-3

    def test_minimum_over_2_to_12_is_at_k4(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "chained", "--k-min", "2", "--k-max", "12"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        best = min(rows, key=lambda r: float(r["n_real"]))
        assert best["k"] == "4"

    def test_empty_range_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "chained", "--k-min", "3", "--k-max", "2")
        assert code == 1
        assert out == ""

    def test_k_min_below_two_exits_1_before_the_header(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--scenario", "chained", "--k-min", "1", "--k-max", "3")
        assert code == 1
        assert out == ""
        assert "--k-min must be an integer >= 2, got 1" in err

    def test_singleton_range(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "chained", "--k-min", "4", "--k-max", "4")
        assert code == 0
        assert [r["k"] for r in csv.DictReader(io.StringIO(out))] == ["4"]

    def test_non_chained_scenario_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--scenario", "ghz", "--k-min", "2", "--k-max", "4")
        assert code == 1

    def test_rows_bypass_the_scenario_cache(self, capsys):
        # a long range must not evict the specs that analyze and simulate resolved
        before = scenario_pair.cache_info()
        code, _, _ = run_cli(capsys, "sweep", "--scenario", "chained", "--k-min", "2", "--k-max", "12")
        after = scenario_pair.cache_info()
        assert code == 0
        assert (after.hits, after.misses) == (before.hits, before.misses)


class TestSimulate:
    def test_ghz_report_schema(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "ghz", "--reps", "5", "--max-trials", "100",
            "--seed", "42",
        )
        assert code == 0 and err == ""
        data = json.loads(out)
        assert set(data) == {
            "config", "generator", "mean_stop", "stddev_stop", "quantiles",
            "decision_counts", "mean_log_d_per_trial",
        }
        assert data["generator"] == GENERATOR
        assert data["mean_stop"] == 33.0
        assert data["quantiles"] == {"p05": 33.0, "p50": 33.0, "p95": 33.0}
        assert data["decision_counts"] == {"lr_rejected": 5, "qm_rejected": 0, "inconclusive": 0}
        cfg = data["config"]
        assert cfg["scenario"] == "ghz" and cfg["q"] == 1.0 and cfg["r"] == 0.75
        assert cfg["true_theory"] == "qm" and cfg["master_seed"] == 42
        assert cfg["prior_ratio"] == 100.0 and cfg["lower"] == 0.01 and cfg["upper"] == 1e6

    def test_trajectory_dump(self, capsys, tmp_path):
        path = tmp_path / "traj.jsonl"
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "ghz", "--reps", "5", "--max-trials", "100",
            "--seed", "42", "--dump-trajectories", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert set(rec) == {"replication", "stop_trial", "decision", "final_log_d"}
            assert rec["replication"] == i
            assert rec["stop_trial"] == 33
            assert rec["decision"] == "lr_rejected"
            assert math.isclose(rec["final_log_d"], 33 * math.log(4 / 3), rel_tol=1e-12)

    def test_dump_leaves_the_report_unchanged(self, capsys, tmp_path):
        argv = ("simulate", "--scenario", "chained", "--reps", "40", "--seed", "3")
        _, plain, _ = run_cli(capsys, *argv)
        _, dumped, _ = run_cli(capsys, *argv, "--dump-trajectories", str(tmp_path / "t.jsonl"))
        assert plain == dumped

    def test_infinite_evidence_dumps_null(self, capsys, tmp_path):
        path = tmp_path / "naive.jsonl"
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "hardy-naive", "--reps", "3", "--max-trials", "100000",
            "--upper", "1e30", "--seed", "42", "--dump-trajectories", str(path),
        )
        assert code == 0
        data = json.loads(out)
        assert data["mean_log_d_per_trial"] is None  # +inf serializes as null
        for line in path.read_text().splitlines():
            assert json.loads(line)["final_log_d"] is None

    def test_unwritable_dump_path_exits_1(self, tmp_path):
        proc = run_proc(
            "simulate", "--scenario", "ghz", "--reps", "3",
            "--dump-trajectories", str(tmp_path / "missing" / "t.jsonl"),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("bellodds: error: ") and "Traceback" not in proc.stderr

    def test_empty_dump_path_exits_1(self, capsys):
        # an empty path is a path that cannot be opened, not a missing flag
        code, out, err = run_cli(capsys, "simulate", "--scenario", "ghz", "--reps", "3", "--dump-trajectories", "")
        assert (code, out) == (1, "") and err.startswith("bellodds: error: ")

    def test_unwritable_dump_path_fails_before_the_walk(self, capsys, tmp_path, monkeypatch):
        def walk(config):
            raise AssertionError("walked before opening the dump file")

        monkeypatch.setattr(simulate, "replication_summaries", walk)
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "ghz", "--reps", "3",
            "--dump-trajectories", str(tmp_path / "missing" / "t.jsonl"),
        )
        assert (code, out) == (1, "") and err.startswith("bellodds: error: ")

    def test_dump_memory_does_not_grow_with_reps(self, capsys, tmp_path):
        # ghz walks stop at trial 33, so --max-trials 40 keeps the walk's
        # buffer small; rows built from whole columns would add about 36
        # bytes per replication
        argv = ["simulate", "--scenario", "ghz", "--reps", "20000", "--max-trials", "40", "--seed", "1"]
        run_cli(capsys, *argv[:3], "--reps", "200")  # fills the first-call caches
        peaks = []
        for dump in ([], ["--dump-trajectories", str(tmp_path / "t.jsonl")]):
            tracemalloc.start()
            try:
                assert main(argv + dump) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            capsys.readouterr()
        plain, dumped = peaks
        assert dumped <= plain + 200_000

    def test_same_seed_is_byte_identical(self):
        argv = ("simulate", "--scenario", "chained", "--k", "2", "--reps", "50",
                "--max-trials", "2000", "--seed", "7")
        first = run_proc(*argv)
        second = run_proc(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ("--scenario", "ghz", "--k", "7"),
            ("--scenario", "hardy", "--k", "2"),
            ("--scenario", "hardy-naive", "--k", "2"),
            ("--scenario", "chained", "--hardy-mode", "paper"),
            ("--scenario", "ghz", "--hardy-mode", "literal"),
            ("--scenario", "hardy-naive", "--hardy-mode", "paper"),
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_flag_the_scenario_ignores_exits_1(self, capsys, command, argv):
        extra = ("--reps", "2") if command == "simulate" else ()
        code, out, err = run_cli(capsys, command, *argv, *extra)
        assert code == 1
        assert out == ""
        assert "applies only to --scenario" in err

    def test_scenario_flag_defaults(self, capsys):
        _, plain, _ = run_cli(capsys, "simulate", "--scenario", "chained", "--reps", "3")
        _, explicit, _ = run_cli(capsys, "simulate", "--scenario", "chained", "--k", "2", "--reps", "3")
        assert plain == explicit and json.loads(plain)["config"]["scenario"] == "chained-k2"
        _, plain, _ = run_cli(capsys, "simulate", "--scenario", "hardy", "--reps", "3")
        _, explicit, _ = run_cli(capsys, "simulate", "--scenario", "hardy", "--hardy-mode", "paper", "--reps", "3")
        assert plain == explicit and json.loads(plain)["config"]["scenario"] == "hardy-paper"

    def test_bad_thresholds_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", "ghz", "--prior-ratio", "0.001", "--reps", "2"
        )
        assert code == 1 and err != ""
        code, _, err = run_cli(capsys, "simulate", "--scenario", "ghz", "--upper", "inf", "--reps", "2")
        assert code == 1 and "upper_threshold" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--reps", 0, ">= 1"),
            ("--reps", 2**32 + 1, f"<= {2**32}"),
            ("--seed", -1, ">= 0"),
            ("--seed", 2**64, f"<= {2**64 - 1}"),
            ("--max-trials", 0, ">= 1"),
            ("--max-trials", 2**53 + 1, f"<= {2**53}"),
        ],
    )
    def test_integer_flag_out_of_range_exits_1_naming_the_flag(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "simulate", "--scenario", "ghz", flag, str(value))
        assert code == 1
        assert out == ""
        assert f"{flag} must be an integer {message}, got {value}" in err


class TestCompare:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--target-d", "1e4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == COMPARE_HEADER
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["scenario"] for r in rows] == [
            "ghz", "chained-k2", "chained-k4", "hardy-paper", "hardy-naive",
        ]
        n = {r["scenario"]: float(r["n_real"]) for r in rows}
        assert abs(n["ghz"] - 32.0) <= 0.1
        assert abs(n["chained-k2"] - 287.1) <= 1.0
        assert abs(n["chained-k4"] - 200.8) <= 1.0
        assert abs(n["hardy-paper"] - 269.5) <= 1.0
        assert n["hardy-naive"] == 8.0
        kinds = {r["scenario"]: r["n_kind"] for r in rows}
        assert kinds["hardy-naive"] == "trials_to_half_survival"
        assert all(v == "trials_for_target_d" for s, v in kinds.items() if s != "hardy-naive")

    def test_text_matches_csv_numerically(self, capsys):
        code, csv_out, _ = run_cli(capsys, "compare", "--target-d", "1e4", "--format", "csv")
        assert code == 0
        code, text_out, _ = run_cli(capsys, "compare", "--target-d", "1e4", "--format", "text")
        assert code == 0
        csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
        text_rows = [line.split() for line in text_out.splitlines()[1:]]
        for c, t in zip(csv_rows, text_rows):
            assert c[0] == t[0]
            for j in (1, 2, 3):
                assert float(c[j]) == float(t[j])
            assert c[4] == t[4]

    def test_bad_target_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "--target-d", "0.9")
        assert code == 1


class TestExitCodes:
    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_missing_subcommand_exits_1(self, capsys):
        assert run_cli(capsys)[0] == 1

    @pytest.mark.parametrize("error", [RuntimeError, ArithmeticError])
    def test_numerical_failure_exits_2(self, capsys, monkeypatch, error):
        def fail(args):
            raise error("no finite answer")

        monkeypatch.setattr(cli, "cmd_analyze", fail)
        code, out, err = run_cli(capsys, "analyze", "--scenario", "ghz")
        assert (code, out, err) == (2, "", "bellodds: numerical failure: no finite answer\n")

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_overflowing_k_exits_2(self, capsys, tmp_path, command):
        # pi / (2k) overflows converting k to a float; simulate fails in its
        # config, before the dump file opens
        dump = tmp_path / "t.jsonl"
        argv = [command, "--scenario", "chained", "--k", str(10**309)]
        if command == "simulate":
            argv += ["--dump-trajectories", str(dump)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("bellodds: numerical failure: ") and err.count("\n") == 1
        assert not dump.exists()

    def test_module_entrypoint(self):
        proc = run_proc("analyze", "--scenario", "ghz")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n_ceil"] == 33

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare"],
            ["analyze", "--scenario", "ghz"],
            ["analyze", "--scenario", "hardy"],
            ["sweep", "--scenario", "chained", "--k-min", "2", "--k-max", "4"],
        ],
    )
    def test_closed_form_commands_leave_numpy_unloaded(self, argv):
        # only simulate walks with numpy; the other commands run without it
        probe = (
            "import sys\n"
            "from bellodds.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "sys.stderr.write(repr(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "[]")

    def test_json_reparse_is_lossless(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--scenario", "hardy")
        parsed = json.loads(out)
        assert json.loads(json.dumps(parsed)) == parsed


# stdout of the CLI, pinned byte for byte.  Unlike the tests above, these do not
# recompute the values through the library, so a change that moves both the
# library and the CLI still shows here.
GOLDEN = {
    ("compare",): (
        "scenario     q                    r                    n_real              n_kind\n"
        "ghz          1.0                  0.75                 32.01569111860438   trials_for_target_d\n"
        "chained-k2   0.1464466094067262   0.25                 287.15383057830115  trials_for_target_d\n"
        "chained-k4   0.03806023374435663  0.125                200.82073520208976  trials_for_target_d\n"
        "hardy-paper  0.09016994374947428  0.03358368136411277  269.61908033269566  trials_for_target_d\n"
        "hardy-naive  0.09016994374947428  0.0                  8.0                 trials_to_half_survival\n"
    ),
    ("compare", "--format", "csv"): (
        "scenario,q,r,n_real,n_kind\n"
        "ghz,1.0,0.75,32.01569111860438,trials_for_target_d\n"
        "chained-k2,0.1464466094067262,0.25,287.15383057830115,trials_for_target_d\n"
        "chained-k4,0.03806023374435663,0.125,200.82073520208976,trials_for_target_d\n"
        "hardy-paper,0.09016994374947428,0.03358368136411277,269.61908033269566,trials_for_target_d\n"
        "hardy-naive,0.09016994374947428,0.0,8.0,trials_to_half_survival\n"
    ),
    ("sweep", "--scenario", "chained", "--k-min", "2", "--k-max", "12"): (
        "k,theta,q,r,kl_nats,n_real\n"
        "2,0.7853981633974483,0.1464466094067262,0.25,0.03207458648010167,287.15383057830115\n"
        "3,0.5235987755982988,0.06698729810778065,0.16666666666666666,0.04435808735167085,207.63610249821232\n"
        "4,0.39269908169872414,0.03806023374435663,0.125,0.0458634929441307,200.82073520208976\n"
        "5,0.3141592653589793,0.024471741852423234,0.1,0.04416464940199189,208.54553351352504\n"
        "6,0.2617993877991494,0.017037086855465844,0.08333333333333333,0.041592205067574224,221.4439065448029\n"
        "7,0.2243994752564138,0.01253604390908819,0.07142857142857142,0.038907970154060154,236.72117397815623\n"
        "8,0.19634954084936207,0.009607359798384785,0.0625,0.03636631728410861,253.26568813721835\n"
        "9,0.17453292519943295,0.00759612349389599,0.05555555555555555,0.0340426795359204,270.5527443060944\n"
        "10,0.15707963267948966,0.006155829702431115,0.05,0.031946552747671796,288.30467076443534\n"
        "11,0.14279966607226333,0.005089279059533658,0.045454545454545456,0.030063589078071183,306.36196989182304\n"
        "12,0.1308996938995747,0.004277569313094809,0.041666666666666664,0.02837205359382445,324.6272019583713\n"
    ),
    ("analyze", "--scenario", "ghz"): (
        '{"scenario": "ghz", "q": 1.0, "r": 0.75, "kl_nats": 0.2876820724517809, "target_d": 10000.0, "n_real": 32.01569111860438, "n_ceil": 33, "extras": {}}\n'
    ),
    ("analyze", "--scenario", "chained", "--k", "2"): (
        '{"scenario": "chained", "q": 0.1464466094067262, "r": 0.25, "kl_nats": 0.03207458648010167, "target_d": 10000.0, "n_real": 287.15383057830115, "n_ceil": 288, "extras": {"k": 2, "theta": 0.7853981633974483}}\n'
    ),
    ("analyze", "--scenario", "chained", "--k", "4"): (
        '{"scenario": "chained", "q": 0.03806023374435663, "r": 0.125, "kl_nats": 0.0458634929441307, "target_d": 10000.0, "n_real": 200.82073520208976, "n_ceil": 201, "extras": {"k": 4, "theta": 0.39269908169872414}}\n'
    ),
    ("analyze", "--scenario", "hardy", "--hardy-mode", "paper"): (
        '{"scenario": "hardy", "q": 0.09016994374947428, "r": 0.03358368136411277, "kl_nats": 0.03416056593847554, "target_d": 10000.0, "n_real": 269.61908033269566, "n_ceil": 270, "extras": {"mode": "paper", "r_opt": 0.03358368136411277}}\n'
    ),
    ("analyze", "--scenario", "hardy", "--hardy-mode", "literal"): (
        '{"scenario": "hardy", "q": 0.09016994374947428, "r": 0.04760651934579552, "kl_nats": 0.01599609790805269, "target_d": 10000.0, "n_real": 575.786696538007, "n_ceil": 576, "extras": {"mode": "literal", "r_opt": 0.04760651934579552}}\n'
    ),
    ("analyze", "--scenario", "chained", "--k", "7", "--target-d", "1e8"): (
        '{"scenario": "chained", "q": 0.01253604390908819, "r": 0.07142857142857142, "kl_nats": 0.038907970154060154, "target_d": 100000000.0, "n_real": 473.44234795631246, "n_ceil": 474, "extras": {"k": 7, "theta": 0.2243994752564138}}\n'
    ),
    ("analyze", "--scenario", "hardy", "--hardy-mode", "literal", "--target-d", "1e8"): (
        '{"scenario": "hardy", "q": 0.09016994374947428, "r": 0.04760651934579552, "kl_nats": 0.01599609790805269, "target_d": 100000000.0, "n_real": 1151.573393076014, "n_ceil": 1152, "extras": {"mode": "literal", "r_opt": 0.04760651934579552}}\n'
    ),
    ("analyze", "--scenario", "hardy-naive"): (
        '{"scenario": "hardy-naive", "q": 0.09016994374947428, "r": 0.0, "kl_nats": null, "target_d": 10000.0, "n_real": null, "n_ceil": null, "extras": {"naive_trials": 8, "survival_threshold": 0.5, "mean_trials_to_first_coincidence": 11.09016994374947}}\n'
    ),
    ("simulate", "--scenario", "ghz", "--reps", "200", "--seed", "0"): (
        '{"config": {"scenario": "ghz", "q": 1.0, "r": 0.75, "true_theory": "qm", "prior_ratio": 100.0, "lower": 0.01, "upper": 1000000.0, "max_trials": 100000, "replications": 200, "master_seed": 0}, "generator": "numpy.random.Philox(master_seed).jumped(replication_index), a double per gap to the rarer outcome", "mean_stop": 33.0, "stddev_stop": 0.0, "quantiles": {"p05": 33.0, "p50": 33.0, "p95": 33.0}, "decision_counts": {"lr_rejected": 200, "qm_rejected": 0, "inconclusive": 0}, "mean_log_d_per_trial": 0.28768207245178096}\n'
    ),
    ("simulate", "--scenario", "chained", "--k", "2", "--reps", "200", "--seed", "0"): (
        '{"config": {"scenario": "chained-k2", "q": 0.1464466094067262, "r": 0.25, "true_theory": "qm", "prior_ratio": 100.0, "lower": 0.01, "upper": 1000000.0, "max_trials": 100000, "replications": 200, "master_seed": 0}, "generator": "numpy.random.Philox(master_seed).jumped(replication_index), a double per gap to the rarer outcome", "mean_stop": 278.465, "stddev_stop": 118.71505844037863, "quantiles": {"p05": 138.0, "p50": 248.5, "p95": 508.2499999999999}, "decision_counts": {"lr_rejected": 200, "qm_rejected": 0, "inconclusive": 0}, "mean_log_d_per_trial": 0.033279612354975924}\n'
    ),
    ("simulate", "--scenario", "chained", "--k", "2", "--true-theory", "lr", "--reps", "200", "--seed", "0"): (
        '{"config": {"scenario": "chained-k2", "q": 0.1464466094067262, "r": 0.25, "true_theory": "lr", "prior_ratio": 100.0, "lower": 0.01, "upper": 1000000.0, "max_trials": 100000, "replications": 200, "master_seed": 0}, "generator": "numpy.random.Philox(master_seed).jumped(replication_index), a double per gap to the rarer outcome", "mean_stop": 256.66, "stddev_stop": 124.01031080490705, "quantiles": {"p05": 107.75, "p50": 230.0, "p95": 508.04999999999995}, "decision_counts": {"lr_rejected": 0, "qm_rejected": 200, "inconclusive": 0}, "mean_log_d_per_trial": -0.036711770739963075}\n'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: "-".join(argv).replace("--", ""))
def test_golden_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == GOLDEN[argv]


def test_golden_dump(capsys, tmp_path):
    # the --dump-trajectories file, pinned byte for byte
    path = tmp_path / "t.jsonl"
    argv = ("simulate", "--scenario", "chained", "--k", "2", "--reps", "20", "--seed", "3", "--max-trials", "2000")
    code, _, err = run_cli(capsys, *argv, "--dump-trajectories", str(path))
    assert (code, err) == (0, "")
    golden = Path(__file__).parent / "golden" / "simulate_chained_k2_reps20_seed3.jsonl"
    assert path.read_bytes() == golden.read_bytes()
