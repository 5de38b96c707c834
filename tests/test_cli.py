"""Command-line front end, exercised in process through main(argv)."""

import json
import os
import platform
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy
import pytest
import scipy

import gausscolloc.analysis as analysis_module
from gausscolloc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["nodes", "--N", "4"],
    ["props", "--n-max", "4"],
    ["solve", "--problem", "hager84-constrained", "--N", "8"],
    ["verify", "--suite", "interp"],
], ids=lambda argv: argv[0])
def test_out_holds_what_stdout_would(capsys, tmp_path, argv):
    _, printed, _ = _run(capsys, *argv)
    target = tmp_path / "out.txt"
    code, out, _ = _run(capsys, *argv, "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == printed
    manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
    assert manifest["command"] == argv[0]


@pytest.mark.parametrize("argv", [
    ["nodes", "--n", "5"],
    ["solve", "--problem", "hager84-constrained", "--N", "8", "--max-outer", "5"],
    ["props", "--n-max", "2", "--seed", "3"],
    ["solve", "--problem", "hager84-constrained", "--N", "8", "--max", "5"],
    ["verify", "--suite", "appendix1", "--se", "3", "--n-max", "4"],
    ["verify", "--suite", "appendix1", "--samples", "5"],
], ids=["nodes --n", "solve --max-outer", "props --seed", "solve --max", "verify --se",
        "verify --samples"])
def test_each_setting_has_one_spelling(capsys, argv):
    # the removed flags, aliases and prefixes of a flag are unknown, and only
    # verify takes the inert seed
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 3
    assert capsys.readouterr().err.startswith("usage: gausscolloc")


@pytest.mark.parametrize("argv", [
    ["nodes", "--N", "3", "--out"],
    ["solve", "--problem", "hager84-constrained", "--N", "8", "--dump-residual"],
], ids=lambda argv: argv[-1])
def test_missing_output_directory_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    # reported before the command runs, not as a traceback once its work is done
    def no_work(args):
        raise AssertionError(f"{args.command} ran")

    monkeypatch.setattr("gausscolloc.cli.cmd_nodes", no_work)
    monkeypatch.setattr("gausscolloc.cli.cmd_solve", no_work)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, *argv, str(target))
    assert code == 3
    assert out == ""
    assert f"directory of {str(target)!r} does not exist" in err
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ["nodes", "--N", "3", "--out"],
    ["solve", "--problem", "hager84-constrained", "--N", "8", "--dump-residual"],
], ids=lambda argv: argv[-1])
def test_directory_output_target_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    def no_work(args):
        raise AssertionError(f"{args.command} ran")

    monkeypatch.setattr("gausscolloc.cli.cmd_nodes", no_work)
    monkeypatch.setattr("gausscolloc.cli.cmd_solve", no_work)
    code, out, err = _run(capsys, *argv, str(tmp_path))
    assert code == 3
    assert out == ""
    assert f"{str(tmp_path)!r} is a directory" in err
    assert list(tmp_path.iterdir()) == []


def test_failed_output_write_is_usage_error(capsys, monkeypatch, tmp_path):
    def refuse(out, args):
        raise PermissionError(13, "Permission denied", str(out) + ".manifest.json")

    monkeypatch.setattr("gausscolloc.cli._write_manifest", refuse)
    code, out, err = _run(capsys, "nodes", "--N", "3", "--out", str(tmp_path / "n.csv"))
    assert code == 3
    assert out == ""
    assert "gausscolloc: error: cannot write output:" in err
    assert "Permission denied" in err


class TestNodes:
    def test_single_point_rule(self, capsys):
        code, out, _ = _run(capsys, "nodes", "--N", "1")
        assert code == 0
        assert out.splitlines() == ["i,node,weight", "1,0,2"]

    def test_two_point_rule_full_precision(self, capsys):
        code, out, _ = _run(capsys, "nodes", "--N", "2")
        assert code == 0
        lines = out.splitlines()
        # the weight lands one ulp above 1 under the reciprocal formula
        assert lines[1] == "1,-0.57735026918962573,1.0000000000000002"
        assert lines[2] == "2,0.57735026918962573,1.0000000000000002"

    def test_radau_weights_column_empty(self, capsys):
        code, out, _ = _run(capsys, "nodes", "--N", "2", "--kind", "radau")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "1,-0.33333333333333331,"
        assert lines[2] == "2,1,"

    def test_out_writes_csv_and_manifest(self, capsys, tmp_path):
        target = tmp_path / "rule.csv"
        code, out, _ = _run(capsys, "nodes", "--N", "3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("i,node,weight\n")
        manifest = json.loads((tmp_path / "rule.csv.manifest.json").read_text())
        assert manifest["command"] == "nodes"
        assert manifest["parameters"] == {"n": 3, "kind": "gauss"}
        assert "timestamp" in manifest

    @pytest.mark.parametrize("bad", ["0", "1001", "-4", "2.5"])
    def test_order_out_of_range_is_usage_error(self, capsys, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(["nodes", "--N", bad])
        assert excinfo.value.code == 3


class TestProps:
    def test_sweep_rows_and_verdicts(self, capsys):
        code, out, _ = _run(capsys, "props", "--n-max", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,p1_norm,p1_pass,p2_max_row_norm,p2_pass,last_row_gap"
        assert len(lines) == 9
        for row in lines[1:]:
            fields = row.split(",")
            assert fields[2] == "true" and fields[4] == "true"

    def test_order_one_norm_is_exact(self, capsys):
        _, out, _ = _run(capsys, "props", "--n-max", "1")
        assert out.splitlines()[1].startswith("1,1,true,")


class TestSolve:
    def test_benchmark_solve_payload(self, capsys):
        code, out, _ = _run(capsys, "solve", "--problem", "hager84-constrained",
                            "--N", "16")
        assert code == 0
        payload = json.loads(out)
        assert payload["problem"] == "hager84-constrained"
        assert payload["order"] == 16
        assert payload["converged"] is True
        assert payload["termination"] == "converged"
        assert payload["y_norm"] <= 1e-10
        assert abs(payload["objective"] - 2.7939778111277835) <= 1e-4
        assert payload["active_nodes"] == 8
        assert payload["residual_norms"]["control_residual"] <= 1e-10

    def test_dump_residual_file(self, capsys, tmp_path):
        dump = tmp_path / "residual.json"
        code, out, _ = _run(capsys, "solve", "--problem",
                            "hager84-unconstrained", "--N", "10",
                            "--dump-residual", str(dump))
        assert code == 0
        payload = json.loads(out)
        blob = json.loads(dump.read_text())
        assert set(blob) == {"initial", "state_defect", "endpoint_defect",
                             "costate_endpoint", "costate_defect",
                             "transversality", "control_residual", "norms",
                             "y_norm"}
        assert blob["y_norm"] == payload["y_norm"]
        assert len(blob["state_defect"]) == 10
        assert (tmp_path / "residual.json.manifest.json").exists()

    def test_out_reruns_identically(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for target in (first, second):
            code, _, _ = _run(capsys, "solve", "--problem",
                              "hager84-constrained", "--N", "12",
                              "--out", str(target))
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_problem_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "solve", "--problem", "brachistochrone",
                            "--N", "8")
        assert code == 3
        assert "brachistochrone" in err

    def test_exhausted_budget_exits_numeric(self, capsys):
        code, out, _ = _run(capsys, "solve", "--problem", "hager84-constrained",
                            "--N", "8", "--tol", "1e-30", "--max-iter", "2")
        assert code == 2
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["termination"] == "max_iter"
        assert payload["outer_iters"] == 2

    @pytest.mark.parametrize("flag,value", [
        ("--tol", "nan"), ("--tol", "-1"), ("--max-iter", "0"), ("--max-iter", "-3")])
    def test_invalid_setting_is_usage_error(self, capsys, flag, value):
        code, out, err = _run(capsys, "solve", "--problem", "hager84-constrained",
                              "--N", "8", flag, value)
        assert code == 3
        assert out == ""
        assert "must be" in err

    def test_max_iter_sets_the_budget(self, capsys):
        code, out, _ = _run(capsys, "solve", "--problem", "hager84-constrained",
                            "--N", "8", "--max-iter", "50")
        assert code == 0
        assert json.loads(out)["converged"] is True


class TestVerify:
    def test_appendix1_small_run(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "appendix1",
                            "--n-max", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "appendix1"
        assert payload["passed"] is True
        assert [r["order"] for r in payload["rows"]] == [2, 4, 8]

    def test_appendix2_single_function(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "appendix2",
                            "--function", "sinpi", "--n-max", "16")
        assert code == 0
        payload = json.loads(out)
        assert list(payload["functions"]) == ["sinpi"]
        assert payload["passed"] is True
        # the basis check is stated once, at the top, not per function
        assert payload["norms_ok"] is True and payload["max_offdiag"] <= 1e-10
        assert set(payload["functions"]["sinpi"]) == {"rows", "passed"}

    def test_n_max_help_names_the_suites_it_caps(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        entry = text.split("--n-max N_MAX ", 1)[1].split("--seed", 1)[0]
        assert "appendix1 and appendix2" in entry
        # interp runs each function's registered orders whatever --n-max says
        assert "interp" in entry

    def test_interp_all_functions(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "interp")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert set(payload["functions"]) == {"cospi", "abs52", "poly5"}

    def test_unknown_function_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "verify", "--suite", "interp",
                            "--function", "sawtooth")
        assert code == 3
        assert "sawtooth" in err

    @pytest.mark.parametrize("suite, n_max, smallest",
                             [("appendix1", "1", 2), ("appendix2", "3", 4)])
    def test_no_order_below_n_max_is_usage_error(self, capsys, suite, n_max, smallest):
        code, out, err = _run(capsys, "verify", "--suite", suite, "--n-max", n_max)
        assert code == 3
        assert out == ""
        assert f"{suite} has no order to check; its smallest order is {smallest}" in err

    def test_out_writes_payload_and_manifest(self, capsys, tmp_path):
        target = tmp_path / "a1.json"
        code, _, _ = _run(capsys, "verify", "--suite", "appendix1",
                          "--n-max", "4", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["passed"] is True
        manifest = json.loads((tmp_path / "a1.json.manifest.json").read_text())
        assert manifest["command"] == "verify"
        # the inert seed is a parameter like any other; no key of its own
        assert manifest["parameters"]["seed"] == 7
        assert "seed" not in manifest

    def test_seed_is_accepted_and_inert(self, capsys):
        # appendix1 draws nothing at random, so the flag changes no byte
        outs = [_run(capsys, "verify", "--suite", "appendix1", "--n-max", "8", *seed)
                for seed in ([], ["--seed", "11"])]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0


class TestConvergence:
    def test_stdout_csv_with_fit_comments(self, capsys):
        code, out, _ = _run(capsys, "convergence", "--problem",
                            "hager84-constrained", "--n-list", "4:4:24")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,err_x,err_u,err_lambda,residual_y,iters,wall_ms"
        data = [l for l in lines if not l.startswith("#")]
        comments = [l for l in lines if l.startswith("#")]
        assert len(data) == 7
        assert {c.split(":")[0] for c in comments} == \
            {"# err_x", "# err_u", "# err_lambda"}

    def test_comma_list_written_to_files(self, capsys, tmp_path):
        target = tmp_path / "study.csv"
        code, _, _ = _run(capsys, "convergence", "--problem",
                          "hager84-constrained",
                          "--n-list", "4,8,12,16,20",
                          "--out", str(target))
        assert code == 0
        assert target.read_text().count("\n") == 6
        fits = json.loads((tmp_path / "study.csv.fit.json").read_text())
        assert fits["err_x"]["slope"] < -1.0
        assert (tmp_path / "study.csv.manifest.json").exists()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_rows_survive_too_few_converged_orders(self, capsys, monkeypatch, tmp_path,
                                                    to_file):
        # orders above 12 report no convergence: 3 converge, 1 is left to fit
        real_solve = analysis_module.solve

        def solve_failing_above_12(problem, N, config=None):
            report = real_solve(problem, N, config=config)
            return replace(report, converged=report.converged and N <= 12)

        monkeypatch.setattr(analysis_module, "solve", solve_failing_above_12)
        target = tmp_path / "study.csv"
        argv = ["convergence", "--problem", "hager84-constrained", "--n-list", "4:4:24"]
        code, out, err = _run(capsys, *argv, *(["--out", str(target)] if to_file else []))
        assert code == 2
        assert "3 of 6 orders converged" in err
        rows = (target.read_text() if to_file else out).splitlines()
        assert rows[0] == "N,err_x,err_u,err_lambda,residual_y,iters,wall_ms"
        assert [int(r.split(",")[0]) for r in rows[1:]] == [4, 8, 12, 16, 20, 24]
        if to_file:
            assert out == ""
            assert json.loads((tmp_path / "study.csv.fit.json").read_text()) == {}

    def test_too_few_orders_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "convergence", "--problem",
                            "hager84-constrained", "--n-list", "4,8")
        assert code == 3
        assert "at least 3" in err

    def test_too_few_orders_is_rejected_before_solving(self, capsys, monkeypatch):
        def no_study(*args, **kwargs):
            raise AssertionError("convergence_study called")

        monkeypatch.setattr("gausscolloc.cli.convergence_study", no_study)
        code, out, err = _run(capsys, "convergence", "--problem",
                              "hager84-constrained", "--n-list", "4,8,12,16")
        assert code == 3
        assert out == ""
        assert "at least 5 orders, got 4" in err

    @pytest.mark.parametrize("n_list,bad", [
        ("4,8,12,16,1001", "1001"), ("0:4:40", "0"), ("996:4:1004", "1004")])
    def test_order_out_of_range_is_usage_error(self, capsys, n_list, bad):
        code, out, err = _run(capsys, "convergence", "--problem",
                              "hager84-constrained", "--n-list", n_list)
        assert code == 3
        assert out == ""
        assert f"between 1 and 1000, got {bad}" in err

    def test_repeated_orders_are_usage_error(self, capsys):
        # five copies of N = 10 would pass the count of five orders with one order to fit
        code, out, err = _run(capsys, "convergence", "--problem",
                              "hager84-constrained", "--n-list", "10,10,10,10,10")
        assert code == 3
        assert out == ""
        assert "orders must be distinct, got 10,10,10,10,10" in err

    def test_malformed_range_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "convergence", "--problem",
                            "hager84-constrained", "--n-list", "4:40")
        assert code == 3
        assert "start:step:stop" in err


def test_scipy_linalg_loads_only_to_factor():
    # a fresh interpreter: props, the verify suites and the built-in solves
    # factor nothing; a state that reads itself needs an LU
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import numpy as np
        from gausscolloc import ControlProblem, ControlSet, solve
        from gausscolloc.cli import main

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(list(argv))
            return code, out.getvalue()

        seen, outs = {"import": "scipy.linalg" in sys.modules}, {}
        for key, argv in (
                ("interp", ["verify", "--suite", "interp"]),
                ("appendix1", ["verify", "--suite", "appendix1", "--n-max", "4"]),
                ("appendix2", ["verify", "--suite", "appendix2", "--n-max", "8"]),
                ("props", ["props", "--n-max", "8"]),
                ("solve", ["solve", "--problem", "hager84-constrained", "--N", "10"]),
                ("unconstrained", ["solve", "--problem", "hager84-unconstrained",
                                   "--N", "10"])):
            code, outs[key] = run(*argv)
            assert code == 0
            seen[key] = "scipy.linalg" in sys.modules
        decay = ControlProblem(
            name="decay", n=1, m=1,
            dynamics=lambda X, U: U - X,
            dynamics_x=lambda X, U: -np.ones((len(X), 1, 1)),
            dynamics_u=lambda X, U: np.ones((len(X), 1, 1)),
            cost=lambda x: float(x[0] ** 2),
            cost_grad=lambda x: 2.0 * x,
            ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
            x0=np.array([1.0]),
            control_set=ControlSet.box(-1.0, 1.0))
        converged = [json.loads(outs[key])["converged"] for key in ("solve", "unconstrained")]
        converged.append(solve(decay, 8).converged)
        seen["self-reading"] = "scipy.linalg" in sys.modules
        print(json.dumps({"seen": seen, "converged": converged}))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["seen"] == {"import": False, "interp": False, "appendix1": False,
                              "appendix2": False, "props": False, "solve": False,
                              "unconstrained": False, "self-reading": True}
    assert result["converged"] == [True, True, True]


def test_manifest_records_numeric_environment(tmp_path):
    # a fresh interpreter, so the scipy version is seen to come without scipy
    script = textwrap.dedent("""
        import json, sys
        from gausscolloc.cli import main
        code = main(["props", "--n-max", "4", "--out", sys.argv[1]])
        print(json.dumps({"exit": code, "scipy_loaded": "scipy" in sys.modules}))
    """)
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    target = tmp_path / "props.csv"
    proc = subprocess.run([sys.executable, "-c", script, str(target)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"exit": 0, "scipy_loaded": False}
    manifest = json.loads((tmp_path / "props.csv.manifest.json").read_text())
    assert manifest["environment"] == {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2"}
