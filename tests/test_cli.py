"""The command line front end: reports, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from reinsqp.cli import main
from reinsqp.tree import ScenarioTree

from conftest import coin2_data

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps(coin2_data()))
    return str(path)


def run_main(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_report(stdout: str) -> dict:
    payload = json.loads(stdout)
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestValidate:
    def test_clean_scenario(self, capsys, coin_file):
        rc, out, _ = run_main(capsys, "validate", "--input", coin_file)
        payload = parse_report(out)
        assert rc == 0
        assert payload["report_type"] == "validate"
        assert payload["ok"]
        assert payload["problems"] == []
        assert payload["hypotheses"]["h1_ok"]

    def test_broken_scenario_lists_problems(self, capsys, tmp_path):
        data = coin2_data()
        data["utilities"][0]["contract"] = 7
        data["constraints"]["e"] = None
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, out, _ = run_main(capsys, "validate", "--input", str(path))
        payload = parse_report(out)
        assert rc == 1
        assert not payload["ok"]
        assert len(payload["problems"]) == 2
        assert payload["hypotheses"] is None

    def test_reads_and_builds_once(self, capsys, coin_file, monkeypatch):
        calls = {"json.load": 0, "ScenarioTree": 0}
        load, init = json.load, ScenarioTree.__init__

        def counting_load(*args, **kwargs):
            calls["json.load"] += 1
            return load(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            calls["ScenarioTree"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(json, "load", counting_load)
        monkeypatch.setattr(ScenarioTree, "__init__", counting_init)
        rc, out, _ = run_main(capsys, "validate", "--input", coin_file)
        assert rc == 0
        assert parse_report(out)["hypotheses"] is not None
        assert calls == {"json.load": 1, "ScenarioTree": 1}

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run_main(
            capsys, "validate", "--input", str(tmp_path / "absent.json")
        )
        assert rc == 1
        assert "error:" in err

    def test_strict_flags_hypothesis_violation(self, capsys, tmp_path):
        data = coin2_data()
        # drop one settlement value so the issue-1 conditional moments differ
        data["utilities"] = [
            u for u in data["utilities"]
            if not (u["issue_time"] == 1 and u["node"] == 5)
        ]
        path = tmp_path / "tilted.json"
        path.write_text(json.dumps(data))
        rc, out, _ = run_main(capsys, "validate", "--input", str(path))
        payload = parse_report(out)
        assert rc == 0
        assert not payload["hypotheses"]["h1_ok"]
        rc, out, _ = run_main(capsys, "validate", "--strict", "--input", str(path))
        assert rc == 1


class TestVarianceCap:
    # the minimal variance at the coin's floor 3 is 18/17 ~ 1.0588
    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle",),
            ("oracle", "--form", "fixed-mean"),
            ("compare",),
            ("solve", "--max-iter", "300"),
            ("solve", "--form", "fixed-mean", "--max-iter", "300"),
        ],
        ids=["oracle", "oracle-fixed-mean", "compare", "solve", "solve-fixed-mean"],
    )
    def test_cap_below_the_minimal_variance_is_infeasible(self, capsys, coin_file, argv):
        rc, out, err = run_main(capsys, *argv, "--input", coin_file, "--sigma2", "0.5")
        assert rc == 2
        assert out == ""
        assert err == "infeasible: minimal attainable variance 1.05882 exceeds cap 0.5\n"

    def test_unconverged_ladder_does_not_decide_the_cap(self, capsys, coin_file):
        rc, _, err = run_main(capsys, "solve", "--input", coin_file, "--sigma2", "0.5")
        assert rc == 3
        assert err == (
            "numerical failure: ladder at mean floor 3 did not converge (KKT total "
            "0.00732623 after 25 cycles), so its variance 1.06585 does not bound "
            "the cap 0.5\n"
        )

    # the ladder gets the cycles it needs: an unconverged ladder's variance
    # does not decide a cap either way
    @pytest.mark.parametrize("command", ["solve", "oracle", "compare"])
    def test_cap_above_the_minimal_variance_passes(self, capsys, coin_file, command):
        rc, out, _ = run_main(
            capsys, command, "--input", coin_file, "--sigma2", "1.06", "--max-iter", "300"
        )
        assert rc == 0
        assert parse_report(out)["report_type"] == command


class TestSolve:
    def test_min_variance_report(self, capsys, coin_file):
        rc, out, _ = run_main(
            capsys, "solve", "--input", coin_file, "--max-iter", "300"
        )
        payload = parse_report(out)
        assert rc == 0
        assert payload["report_type"] == "solve"
        assert payload["form"] == "min-variance"
        assert payload["converged"]
        assert payload["kkt"]["converged"]
        assert payload["objective"]["mean"] == pytest.approx(3.0, abs=1e-6)
        assert payload["objective"]["variance"] == pytest.approx(18 / 17, rel=1e-6)
        top = payload["plan"]["stages"][0]["positions"][0][0]
        assert top == pytest.approx(21 / 17, abs=1e-6)
        assert payload["bisection"] is None

    def test_strict_without_convergence(self, capsys, coin_file):
        # the default cycle budget is far too small for the coin instance
        rc, out, err = run_main(capsys, "solve", "--strict", "--input", coin_file)
        payload = parse_report(out)
        assert rc == 3
        assert not payload["converged"]

    def test_short_budget_still_reports(self, capsys, coin_file):
        rc, out, _ = run_main(
            capsys, "solve", "--input", coin_file, "--max-iter", "2"
        )
        payload = parse_report(out)
        assert rc == 0
        assert not payload["converged"]
        assert payload["iterations"] == 2
        assert len(payload["history"]) == 3

    def test_fixed_mean_form(self, capsys, coin_file):
        rc, out, _ = run_main(
            capsys, "solve", "--input", coin_file,
            "--form", "fixed-mean", "--max-iter", "300",
        )
        payload = parse_report(out)
        assert rc == 0
        assert payload["converged"]
        assert payload["multipliers"]["mean"] == pytest.approx(57 / 17, abs=1e-5)

    def test_max_mean_needs_a_cap(self, capsys, coin_file):
        rc, _, err = run_main(
            capsys, "solve", "--input", coin_file, "--form", "max-mean"
        )
        assert rc == 1
        assert "variance cap" in err

    def test_max_mean_with_cap_override(self, capsys, coin_file):
        # the coin's minimal variance 18/17: the ladder converges at every
        # floor of the search within 300 cycles
        rc, out, _ = run_main(
            capsys, "solve", "--input", coin_file,
            "--form", "max-mean", "--sigma2", "1.0588235294117647", "--max-iter", "300",
        )
        payload = parse_report(out)
        assert rc == 0
        assert payload["bisection"] is not None
        assert payload["bisection"]["cap_binding"]
        assert payload["bisection"]["trace"]

    def test_mean_floor_override(self, capsys, coin_file):
        rc, out, _ = run_main(
            capsys, "solve", "--input", coin_file,
            "--e", "4.0", "--max-iter", "300",
        )
        payload = parse_report(out)
        assert rc == 0
        assert payload["objective"]["mean"] == pytest.approx(4.0, abs=1e-5)

    def test_output_file(self, capsys, coin_file, tmp_path):
        dest = tmp_path / "report.json"
        rc, out, _ = run_main(
            capsys, "solve", "--input", coin_file,
            "--max-iter", "10", "--output", str(dest),
        )
        assert rc == 0
        assert out == ""
        parse_report(dest.read_text())

    def test_infeasible_levels_exit_two(self, capsys, tmp_path):
        data = coin2_data()
        data["constraints"]["c"] = [0.1, 0.0]
        data["K0"] = 1.0
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(data))
        rc, _, err = run_main(capsys, "solve", "--input", str(path))
        assert rc == 2
        assert "infeasible:" in err

    def test_frontier_csv(self, capsys, coin_file, tmp_path):
        dest = tmp_path / "frontier.csv"
        rc, _, _ = run_main(
            capsys, "solve", "--input", coin_file,
            "--max-iter", "20", "--frontier-csv", str(dest),
            "--frontier-points", "4",
        )
        assert rc == 0
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "mean_floor,mean,variance,kkt_total,converged"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(3.0)
        assert float(first[2]) > 0

    def test_frontier_requires_min_variance(self, capsys, coin_file, tmp_path):
        rc, _, err = run_main(
            capsys, "solve", "--input", coin_file,
            "--form", "fixed-mean",
            "--frontier-csv", str(tmp_path / "x.csv"),
        )
        assert rc == 1
        assert "min-variance" in err


class TestOracle:
    @pytest.mark.parametrize("form", ["min-variance", "fixed-mean"])
    def test_forms_verify_and_exit_zero(self, capsys, coin_file, form):
        rc, out, _ = run_main(
            capsys, "oracle", "--strict", "--input", coin_file, "--form", form
        )
        payload = parse_report(out)
        assert rc == 0
        assert payload["report_type"] == "oracle"
        assert payload["kkt"]["converged"]
        assert payload["objective"]["mean"] == pytest.approx(3.0, abs=1e-8)

    def test_max_mean_reports_bisection(self, capsys, coin_file):
        rc, out, _ = run_main(
            capsys, "oracle", "--input", coin_file,
            "--form", "max-mean", "--sigma2", "1.06",
        )
        payload = parse_report(out)
        assert rc == 0
        assert payload["bisection"]["cap_binding"]
        assert payload["bisection"]["mean_floor"] > 2.9

    def test_mean_floor_override_moves_the_mean(self, capsys, coin_file):
        rc, out, _ = run_main(
            capsys, "oracle", "--input", coin_file, "--e", "4.0"
        )
        payload = parse_report(out)
        assert rc == 0
        assert payload["objective"]["mean"] == pytest.approx(4.0, abs=1e-8)

    def test_dense_cap_is_a_numerical_limit(self, capsys, tmp_path):
        # one root contract plus one per stage-1 node: 5001 coordinates, one
        # past the dense cap; the file itself is valid
        width = 5000
        nodes = [{"id": 0, "parent": None, "depth": 0, "prob": 1.0}]
        nodes += [{"id": v, "parent": 0, "depth": 1, "prob": 1.0 / width}
                  for v in range(1, width + 1)]
        nodes += [{"id": width + v, "parent": v, "depth": 2, "prob": 1.0}
                  for v in range(1, width + 1)]
        utilities = [{"issue_time": k, "contract": 0, "node": width + v, "value": 1.0}
                     for k in (0, 1) for v in range(1, width + 1)]
        data = {"N": 1, "T_bar": 1, "T": 1, "K0": 0.0, "nodes": nodes,
                "utilities": utilities,
                "constraints": {"c": [0.0, 0.0], "e": 1.0, "sigma2": None}}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        rc, _, err = run_main(capsys, "oracle", "--input", str(path))
        assert rc == 3
        assert "numerical failure: dense dimension 5001 exceeds cap 5000" in err


class TestSpectrum:
    def test_membership_report(self, capsys, coin_file):
        rc, out, _ = run_main(capsys, "spectrum", "--input", coin_file)
        payload = parse_report(out)
        assert rc == 0
        assert payload["positive_definite"]
        assert payload["membership"]["raw_max_distance"] < 1e-9
        assert payload["membership"]["centered_max_distance"] < 1e-9
        assert payload["sets"]["raw"] == [2.0, 2.5]


class TestCompare:
    # the max-mean cap is the coin's minimal variance 18/17, where the
    # ladder converges at every floor of the search within 300 cycles
    @pytest.mark.parametrize(
        "form, extra",
        [
            ("min-variance", ("--max-iter", "300")),
            ("fixed-mean", ("--max-iter", "300")),
            ("max-mean", ("--sigma2", "1.0588235294117647", "--max-iter", "300")),
        ],
        ids=["min-variance", "fixed-mean", "max-mean"],
    )
    def test_routes_agree_on_the_coin(self, capsys, coin_file, form, extra):
        rc, out, _ = run_main(
            capsys, "compare", "--input", coin_file, "--form", form, *extra
        )
        payload = parse_report(out)
        assert rc == 0
        assert payload["report_type"] == "compare"
        assert payload["form"] == form
        assert payload["solve"]["converged"] is True
        assert payload["deviation"]["plan_relative"] < 1e-5
        assert payload["deviation"]["variance"] < 1e-5


class TestSingularPivot:
    @pytest.fixture
    def twin_file(self, tmp_path):
        # the coin's one contract written twice: the stage profiles are
        # linearly dependent, so the elimination pivot is singular
        data = coin2_data()
        data["N"] = 2
        data["utilities"] += [dict(u, contract=1) for u in data["utilities"]]
        path = tmp_path / "twin.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("argv", [("solve", "--max-iter", "5"), ("compare",)],
                             ids=["solve", "compare"])
    def test_structured_route_is_a_numerical_failure(self, capsys, twin_file, argv):
        rc, out, err = run_main(capsys, *argv, "--input", twin_file)
        assert rc == 3
        assert out == ""
        assert "numerical failure: singular pivot at level 1" in err

    def test_oracle_still_solves(self, capsys, twin_file):
        rc, out, _ = run_main(capsys, "oracle", "--input", twin_file)
        assert rc == 0
        assert parse_report(out)["report_type"] == "oracle"


def exit_code(capsys, *argv):
    """``main``'s exit status, also when argparse exits, and its stderr."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    return rc, capsys.readouterr().err


class TestBadOptions:
    # out-of-range levels and options are bad input, caught where they
    # enter, never a traceback, a NaN report or another exit class
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--e", "nan"),
            ("oracle", "--e", "nan"),
            ("solve", "--e", "inf"),
            ("oracle", "--e", "inf"),
            ("solve", "--sigma2", "nan"),
            ("solve", "--sigma2", "inf"),
            ("oracle", "--form", "max-mean", "--sigma2", "nan"),
            ("solve", "--max-iter", "-1"),
            ("solve", "--frontier-points", "-1", "--frontier-csv", "frontier.csv"),
            ("solve", "--frontier-points", "0", "--frontier-csv", "frontier.csv"),
            ("oracle", "--tol-kkt", "nan", "--strict"),
            ("solve", "--tol-kkt", "0"),
            ("solve", "--seed", "-1"),
        ],
    )
    def test_out_of_range_exits_one(self, capsys, coin_file, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        rc, err = exit_code(capsys, *argv, "--input", coin_file)
        assert rc == 1
        assert "error: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "frontier.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [("solve",), ("solve", "--max-iter", "abc"), (), ("solve", "--no-such-option")],
        ids=["no-input", "not-an-int", "no-command", "unknown-option"],
    )
    def test_usage_errors_are_bad_input(self, capsys, coin_file, argv):
        extra = ("--input", coin_file) if len(argv) > 1 else ()
        rc, err = exit_code(capsys, *argv, *extra)
        assert rc == 1
        assert "usage: reinsqp" in err

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("solve", "--help")])
    def test_help_and_version_exit_zero(self, capsys, argv):
        assert exit_code(capsys, *argv)[0] == 0


class TestProcessLevel:
    def run(self, *argv, env_extra=None):
        env = dict(os.environ)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "reinsqp.cli", *argv],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )

    def test_import_leaves_scipy_optimize_unloaded(self):
        res = subprocess.run(
            [sys.executable, "-c", "import sys, reinsqp; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, cwd=ROOT,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_reports_are_byte_identical(self, coin_file):
        for command, *extra in (
            ("solve", "--max-iter", "40", "--seed", "7"),
            ("oracle", "--form", "max-mean", "--sigma2", "1.06"),
            ("compare", "--form", "fixed-mean"),
        ):
            args = (command, "--input", coin_file, *extra)
            first = self.run(*args)
            second = self.run(*args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout

    def test_huge_integer_is_a_problem_not_a_crash(self, tmp_path):
        data = coin2_data()
        data["utilities"][0]["value"] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        res = self.run("validate", "--input", str(path))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert json.loads(res.stdout)["problems"] == [
            "utilities[0].value must be a finite number"
        ]

    def test_node_id_past_int64_is_a_problem_not_a_crash(self, tmp_path):
        data = coin2_data()
        data["nodes"][3]["id"] = 2**70
        path = tmp_path / "huge-id.json"
        path.write_text(json.dumps(data))
        res = self.run("validate", "--input", str(path))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert f"node {2**70} has an id or parent outside the int64 range" in \
            json.loads(res.stdout)["problems"]

    def test_log_level_env(self, coin_file):
        args = ("solve", "--input", coin_file, "--max-iter", "2")
        quiet = self.run(*args)
        chatty = self.run(*args, env_extra={"REINSQP_LOG": "INFO"})
        assert "INFO reinsqp.cli" not in quiet.stderr
        assert "ladder finished" in chatty.stderr

    def test_non_finite_floor_is_bad_input(self, coin_file):
        res = self.run("solve", "--input", coin_file, "--e", "nan")
        assert res.returncode == 1
        assert res.stderr == "error: mean_floor must be finite, got nan\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "--e", "1e200"),
            ("oracle", "--e", "1e300"),
            ("oracle", "--form", "fixed-mean", "--e", "1e160"),
            ("compare", "--e", "1e300"),
        ],
        ids=["oracle-1e200", "oracle-1e300", "fixed-mean-1e160", "compare-1e300"],
    )
    def test_overflowing_dense_answer_is_a_numerical_failure(self, coin_file, argv):
        res = self.run(argv[0], "--input", coin_file, *argv[1:])
        assert res.returncode == 3
        assert res.stderr.startswith("numerical failure: dense QP answer overflows: mean 1.000e+")
        assert "Traceback" not in res.stderr and "Warning" not in res.stderr
        assert "Infinity" not in res.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ("--e", "1e300"),
            ("--form", "fixed-mean", "--e", "1e300"),
            ("--e", "1e200"),
        ],
        ids=["min-variance-1e300", "fixed-mean-1e300", "min-variance-1e200"],
    )
    def test_overflowing_structured_answer_is_a_numerical_failure(self, coin_file, argv):
        res = self.run("solve", "--input", coin_file, "--max-iter", "300", *argv)
        assert res.returncode == 3
        assert res.stderr.startswith("numerical failure: structured answer overflows: mean ")
        assert res.stderr.endswith(", variance inf\n")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr and "Warning" not in res.stderr
        assert res.stdout == ""

    def test_version(self):
        res = self.run("--version")
        assert res.returncode == 0
        assert res.stdout.startswith("reinsqp ")
