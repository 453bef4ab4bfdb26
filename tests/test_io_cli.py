import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genbounds
from genbounds.bounds import thm1_bound
from genbounds.cli import build_parser, main
from genbounds.info import Pmf
from genbounds.io import (
    canonical_json,
    file_sha256,
    load_problem,
    write_csv,
    write_report,
)
from genbounds.learning import FiniteLearningProblem, GibbsAlgorithm, gen_table, induced_joint
from genbounds.ratedistortion import rd_gen


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps(
            {
                "z_alphabet": 4,
                "w_alphabet": 4,
                "loss": [
                    [0.0, 0.4, 0.8, 1.0],
                    [0.4, 0.0, 0.6, 0.9],
                    [0.8, 0.6, 0.0, 0.3],
                    [1.0, 0.9, 0.3, 0.0],
                ],
                "mu": [0.4, 0.3, 0.2, 0.1],
                "B": 1.0,
            }
        )
    )
    return path


class TestIo:
    def test_report_round_trip(self, tmp_path):
        rep = thm1_bound(1.0, 0.5, 30, 0.1, 0.01)
        path = write_report(rep, tmp_path / "r.json")
        data = json.loads(path.read_text())
        assert data["bound_value"] == pytest.approx(rep.bound_value, abs=0)
        assert data["terms"]["rate_term"] == pytest.approx(rep.terms["rate_term"], abs=0)

    def test_csv_row_count_and_header(self, tmp_path):
        rows = [(1, 0.5), (2, 0.25), (3, 1 / 3)]
        path = write_csv(rows, ["n", "value"], tmp_path / "t.csv")
        with path.open() as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["n", "value"]
        assert len(parsed) == 4

    def test_hash_stability(self, tmp_path):
        data = {"a": 1.0 / 3.0, "b": [1, 2, {"c": math.pi}]}
        p1 = write_report(data, tmp_path / "a.json")
        p2 = write_report(data, tmp_path / "b.json")
        assert file_sha256(p1) == file_sha256(p2)

    def test_canonical_json_sorted_and_17g(self):
        text = canonical_json({"b": 0.1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert "0.1000000000000000" in text

    def test_problem_round_trip(self, problem_file):
        prob = load_problem(problem_file)
        assert prob.z_alphabet_size == 4 and prob.w_alphabet_size == 4
        assert np.asarray(prob.mu).tolist() == pytest.approx([0.4, 0.3, 0.2, 0.1])
        # the same rows flattened in row-major order load as the same table
        data = json.loads(problem_file.read_text())
        data["loss"] = np.ravel(data["loss"]).tolist()
        problem_file.write_text(json.dumps(data))
        assert np.array_equal(load_problem(problem_file).loss, prob.loss)

    def test_problem_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"z_alphabet": 1, "w_alphabet": 1, "loss": [[0]], "mu": [1], "junk": 2}))
        with pytest.raises(ValueError, match="unknown"):
            load_problem(path)


class TestCli:
    def test_bound_thm1_matches_library(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "bound", "--kind", "thm1", "--rate", "2.0", "--sigma", "1.0",
            "--n", "50", "--delta", "0.05", "--epsilon", "0.0", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["bound_value"] == pytest.approx(
            thm1_bound(2.0, 1.0, 50, 0.05, 0.0).bound_value, abs=0
        )
        assert (tmp_path / "manifest.json").exists()

    def test_same_seed_identical_hashes(self, tmp_path, problem_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "mc-validate", "--problem", str(problem_file), "--n", "10",
                "--delta", "0.1", "--trials", "300", "--seed", "42", "--out", str(out),
            ])
            assert code == 0
            outs.append(file_sha256(out / "validation.json"))
        assert outs[0] == outs[1]

    def test_mc_validate_bytes_pinned(self, tmp_path, problem_file):
        # recorded with one posterior and one bound per trial, drawn by Generator.choice
        out = tmp_path / "mc"
        code = main([
            "mc-validate", "--problem", str(problem_file), "--n", "5", "--delta", "0.9",
            "--trials", "1000", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert json.loads((out / "validation.json").read_text())["violations"] == 2
        assert file_sha256(out / "validation.json") == (
            "a85ffedea8644042992ca556aae535c0009e7825c6666e85ee13ba0e1c56ca61"
        )

    def test_covering_bytes_pinned(self, tmp_path):
        # recorded with one Philox stream drawn and searched per trial
        out = tmp_path / "cov"
        assert main(["covering", "--m-grid", "1,4,8", "--trials", "1500", "--seed", "3", "--out", str(out)]) == 0
        assert file_sha256(out / "covering.csv") == (
            "b7e3988e532a25ab392526e856572747149b8625f382c71da22cf61e5a45306a"
        )

    def test_counterexample_byte_determinism(self, tmp_path):
        # --trials and --seed are accepted but change no byte; the pinned file is
        # the exact table, whose bound and slope_fit columns keep the bits they
        # had while the study drew Monte Carlo trials, except n = 4's
        # exact_mean_gen and bound_expectation and with them slope_fit, which
        # moved in their last digits when the #bad = 0 cell got its push
        hashes = []
        for name, trials, seed in (("c1", "100", "9"), ("c2", "0", "0"), ("c3", "2000", "3")):
            out = tmp_path / name
            code = main([
                "counterexample", "--n-list", "4,5", "--trials", trials,
                "--seed", seed, "--out", str(out),
            ])
            assert code == 0
            hashes.append(file_sha256(out / "scaling.csv"))
        assert hashes == [hashes[0]] * 3
        assert hashes[0] == "0c30d64faf661c4e0a727e64bdce6054436b3972b479f745948ced0fe401f7b2"

    def test_counterexample_smoke_row(self, tmp_path, capsys):
        out = tmp_path / "ce"
        code = main([
            "counterexample", "--n-list", "4,5", "--trials", "50", "--out", str(out), "--seed", "3",
        ])
        assert code == 0
        assert "exact slope" in capsys.readouterr().out
        with (out / "scaling.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == [
            "n", "exact_mean_gen", "bound_expectation", "bound_tail", "event_probability", "slope_fit",
        ]
        assert [r["n"] for r in rows] == ["4", "5"]
        assert all(math.isfinite(float(v)) for r in rows for v in r.values())
        assert all(float(r["exact_mean_gen"]) <= float(r["bound_expectation"]) for r in rows)

    def test_counterexample_single_n_is_an_error(self, tmp_path, capsys):
        # one n value leaves the slope fit undefined
        out = tmp_path / "ce"
        assert main(["counterexample", "--n-list", "4", "--trials", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: n_list needs at least two")
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["-4"])
    def test_counterexample_bad_trials_is_an_error(self, tmp_path, capsys, trials):
        out = tmp_path / "ce"
        assert main(["counterexample", "--n-list", "2,3", "--trials", trials, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: trials must be at least 0")
        assert not out.exists()

    def test_trajectory_overflow_reads_diverged(self, tmp_path):
        out = tmp_path / "tr"
        code = main([
            "trajectory", "--model", "quadratic", "--lr-grid", "0.1,1e6", "--trials", "2",
            "--out", str(out),
        ])
        assert code == 0
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert [r[3] for r in rows[1:]] == ["ok", "diverged"]

    @pytest.mark.parametrize("bad", [["--trials", "0"], ["--trials", "-3"], ["--lr-grid", "nan"]])
    def test_trajectory_bad_input_is_an_error(self, tmp_path, capsys, bad):
        out = tmp_path / "tr"
        assert main(["trajectory", *bad, "--n", "6", "--steps", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_rd_curve_csv(self, tmp_path):
        out = tmp_path / "rd"
        code = main([
            "rd", "--source", "0.5,0.5", "--distortion", "hamming",
            "--epsilon-grid", "0.1,0.25", "--out", str(out),
        ])
        assert code == 0
        with (out / "rd_curve.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epsilon", "rate_nats", "lagrange", "iterations", "converged"]
        assert float(rows[1][1]) == pytest.approx(math.log(2) - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9)), abs=1e-4)
        # the multiplier at which a fair bit under Hamming distortion attains D is log((1 - D) / D)
        for eps, row in zip([0.1, 0.25], rows[1:]):
            assert float(row[2]) == pytest.approx(math.log((1 - eps) / eps), rel=1e-6)

    def test_rd_problem_rows_match_rd_gen(self, tmp_path, problem_file, capsys):
        grid = [0.1, 0.05, 0.0, -0.05, -0.1]
        out = tmp_path / "rdp"
        argv = ["rd", "--problem", str(problem_file), "--n", "3"]
        assert main(argv + ["--epsilon-grid=" + ",".join(map(str, grid)), "--out", str(out)]) == 0
        with (out / "rd_curve.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        prob = load_problem(problem_file)
        alg = GibbsAlgorithm(prior=Pmf.uniform(prob.w_alphabet_size), beta=1.0)
        joint, ctx = induced_joint(prob, alg, 3)
        gtab = gen_table(prob, ctx)
        assert len(rows) == len(grid)
        for eps, row in zip(grid, rows):
            sol = rd_gen(joint, gtab, eps)
            got = [float(row[0]), float(row[1]), float(row[2]), int(row[3]), row[4]]
            assert got == [eps, sol.rate_nats, sol.lagrange_lambda, sol.iterations, str(sol.converged)]
        rates = [float(row[1]) for row in rows]  # the grid falls, so the rates must not
        assert all(b >= a for a, b in zip(rates, rates[1:])) and rates[-1] > rates[0]
        # the distortion floor of this joint lies near epsilon = -0.12
        bad = tmp_path / "below"
        assert main(argv + ["--epsilon-grid=-0.15", "--out", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not bad.exists()

    def test_abbreviated_flag_is_rejected(self, tmp_path):
        # --config counts a flag as explicit only when it is spelled in full, so a
        # prefix such as --del would lose to the file's delta
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.5}))
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--kind", "thm1", "--config", str(cfg), "--del", "0.01", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rd", "sweep"])
    def test_unseeded_commands_take_no_seed(self, tmp_path, command):
        with pytest.raises(SystemExit):
            main([command, "--seed", "1", "--out", str(tmp_path / "flag")])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "config")]) == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rate": 1.0, "n": 100}))
        out = tmp_path / "r.json"
        code = main([
            "bound", "--kind", "eq4", "--config", str(cfg), "--sigma", "1.0",
            "--delta", "0.1", "--epsilon", "0.01", "--n", "100", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["bound_value"] == pytest.approx(0.26700, abs=1e-4)

    def test_empty_config_with_full_flags(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        out = tmp_path / "r.json"
        code = main([
            "bound", "--kind", "thm1", "--config", str(cfg), "--rate", "1.0",
            "--sigma", "0.5", "--n", "20", "--delta", "0.1", "--out", str(out),
        ])
        assert code == 0

    def test_manifest_config_round_trip(self, tmp_path):
        out = tmp_path / "rt"
        code = main([
            "bound", "--kind", "thm1", "--rate", "1.5", "--sigma", "0.5",
            "--n", "30", "--delta", "0.05", "--out", str(out), "--seed", "17",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        # replaying the snapshot reproduces the identical report
        out2 = tmp_path / "rt2"
        cfg_file = tmp_path / "replay.json"
        snapshot = {k: v for k, v in cfg.items() if k not in ("out", "config", "command")}
        cfg_file.write_text(json.dumps(snapshot))
        code = main(["bound", "--config", str(cfg_file), "--kind", "thm1", "--out", str(out2)])
        assert code == 0
        assert file_sha256(out / "report.json") == file_sha256(out2 / "report.json")

    def test_explicit_flag_beats_config_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10, "rate": 9.0}))
        out = tmp_path / "r.json"
        code = main([
            "bound", "--kind", "thm1", "--config", str(cfg), "--rate", "2.0",
            "--sigma", "1.0", "--delta", "0.05", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        # --rate 2.0 on the command line wins over rate 9.0 in the file;
        # n comes from the file
        assert data["bound_value"] == pytest.approx(
            thm1_bound(2.0, 1.0, 10, 0.05, 0.0).bound_value, abs=0
        )

    def test_missing_problem_is_a_clean_error(self, tmp_path):
        code = main(["bound", "--kind", "eq21", "--out", str(tmp_path / "x.json")])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--kind", "eq22", "--problem", "{dir}", "--out", "{tmp}/x"],
            ["bound", "--kind", "thm1", "--config", "{dir}", "--out", "{tmp}/x"],
            ["bound", "--kind", "thm1", "--out", "{file}/report.json"],
            ["bound", "--kind", "thm1", "--out", "{file}/sub/report.json"],
        ],
        ids=["problem-dir", "config-dir", "out-parent-file", "out-under-file"],
    )
    def test_unreadable_input_or_unwritable_output_is_a_clean_error(self, tmp_path, capsys, argv):
        # an IsADirectoryError, FileExistsError or NotADirectoryError ended in a traceback
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        names = {"dir": tmp_path / "dir", "file": tmp_path / "file", "tmp": tmp_path}
        assert main([a.format(**names) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_repeated_calls_match_fresh_parser_calls(self, tmp_path, problem_file):
        # main builds its parser once per process: no call, whether it reads a config, fails in argparse
        # or exits 1, may leave state in it that changes a later call's outputs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.2}))
        exact = ["bound", "--kind", "eq22", "--problem", str(problem_file), "--n", "4", "--seed", "3"]
        with_config, without = [*exact, "--config", str(cfg)], exact
        out = tmp_path / "run"

        def outputs(argv):
            assert main([*argv, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["wall_time_s"]
            return (out / "report.json").read_bytes(), manifest

        def fresh(argv):
            build_parser.cache_clear()
            return outputs(argv)

        expected = [fresh(with_config), fresh(without)]
        assert expected[0][0] != expected[1][0]  # the config's delta reaches the report
        parser = build_parser()
        subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)][0].choices
        defaults = {(name, a.dest): a.default for name, p in subparsers.items() for a in p._actions}
        assert outputs(with_config) == expected[0]
        assert outputs(without) == expected[1]
        with pytest.raises(SystemExit) as exc:
            main([*with_config, "--delta", "x", "--out", str(out)])
        assert exc.value.code == 2
        assert main([*exact[:4], str(tmp_path / "missing.json"), "--out", str(out)]) == 1
        assert outputs(with_config) == expected[0]
        assert outputs(without) == expected[1]
        assert build_parser() is parser
        assert {(name, a.dest): a.default for name, p in subparsers.items() for a in p._actions} == defaults

    def test_import_builds_no_parser(self):
        probe = "import genbounds.cli as cli; assert cli.build_parser.cache_info().currsize == 0"
        src = Path(genbounds.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", probe], check=True, env={**os.environ, "PYTHONPATH": path})

    def test_unknown_config_key_errors(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        code = main(["bound", "--kind", "thm1", "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 1
        # names in the parsed namespace that are no flag: "func" raised a TypeError, and
        # "command" ran sweep while the manifest recorded rd
        for values in ({"func": 1}, {"command": "rd"}, {"config": "other.json"}):
            capsys.readouterr()
            cfg.write_text(json.dumps(values))
            out = tmp_path / "sweep"
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("error: unknown config key(s)")
            assert not out.exists()

    def test_config_values_converted_like_flags(self, tmp_path, problem_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "5", "rate": "2"}))
        out = tmp_path / "r.json"
        assert main(["bound", "--kind", "thm1", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["bound_value"] == thm1_bound(2.0, 0.5, 5, 0.05, 0.0).bound_value
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["n"] == 5 and manifest["config"]["rate"] == 2.0

        capsys.readouterr()
        bad_runs = [
            (["bound", "--kind", "thm1"], {"n": "five"}),
            (["bound", "--kind", "thm1"], {"n": 5.5}),
            (["bound", "--kind", "thm1"], {"n": None}),
            (["sweep"], {"kind": "eq21"}),
            (["mc-validate", "--problem", str(problem_file)], {"kind": "thm5i"}),
        ]
        for argv, values in bad_runs:
            cfg.write_text(json.dumps(values))
            bad = tmp_path / "bad"
            assert main(argv + ["--config", str(cfg), "--out", str(bad)]) == 1, values
            assert capsys.readouterr().err.startswith("error: config key "), values
            assert not bad.exists()

    def test_duplicate_config_key_errors(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"rate": 1.0, "rate": 2.0}')
        code = main(["bound", "--kind", "thm1", "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_validation_failure_exit_code(self, tmp_path, problem_file):
        # delta tiny and epsilon very negative forces violations -> exit 2
        out = tmp_path / "v"
        code = main([
            "mc-validate", "--problem", str(problem_file), "--kind", "eq4",
            "--n", "4", "--delta", "0.001", "--epsilon", "-0.9",
            "--trials", "300", "--seed", "1", "--out", str(out),
        ])
        assert code == 2

    def test_trajectory_csv(self, tmp_path):
        out = tmp_path / "tr"
        code = main([
            "trajectory", "--model", "logistic", "--lr-grid", "0.1,0.4",
            "--trials", "6", "--n", "10", "--steps", "40", "--out", str(out),
        ])
        assert code == 0
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lr", "mean_gen", "rd_nats", "flag"]
        assert len(rows) == 3

    def test_trajectory_spec_file(self, tmp_path):
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps({"model": "logistic", "mu": [0.5, 0.5], "w_max": 2.0}))
        out = tmp_path / "tr2"
        code = main([
            "trajectory", "--spec", str(spec), "--lr-grid", "0.1,0.3",
            "--trials", "4", "--n", "8", "--steps", "30", "--out", str(out),
        ])
        assert code == 0
        assert (out / "sweep.csv").exists()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": "logistic", "nope": 1}))
        assert main(["trajectory", "--spec", str(bad), "--out", str(out)]) == 1

    def test_covering_csv(self, tmp_path):
        out = tmp_path / "cov"
        code = main([
            "covering", "--m-grid", "2,4", "--trials", "200", "--out", str(out), "--seed", "2",
        ])
        assert code == 0
        with (out / "covering.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "trials", "failures", "exponent", "censored"]

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-3"], ["--m-grid", "0,2"]])
    def test_covering_degenerate_input_is_an_error(self, tmp_path, capsys, flags):
        out = tmp_path / "cov"
        assert main(["covering", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--kind", "thm1", "--n-grid", "10,20,40", "--rate", "1.0",
            "--sigma", "0.5", "--out", str(out),
        ])
        assert code == 0
        with (out / "sweep_bounds.csv").open() as fh:
            rows = list(csv.reader(fh))
        vals = [float(r[1]) for r in rows[1:]]
        assert vals == sorted(vals, reverse=True)

    def test_eq21_bound_runs(self, tmp_path, problem_file):
        out = tmp_path / "eq21.json"
        code = main([
            "bound", "--kind", "eq21", "--problem", str(problem_file), "--n", "3",
            "--delta", "0.1", "--epsilon", "0.01", "--beta", "1.0", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["extra"]["sup_rd"] >= data["extra"]["baseline_rd"] - 1e-12

    def test_thm5_and_pacbayes_kinds(self, tmp_path, problem_file):
        for kind in ("thm5i", "thm5ii", "eq22", "prop5i", "prop5ii"):
            out = tmp_path / f"{kind}.json"
            code = main([
                "bound", "--kind", kind, "--problem", str(problem_file), "--n", "3",
                "--delta", "0.1", "--beta", "0.8", "--lam", "1.0", "--out", str(out),
            ])
            assert code == 0, kind
            assert math.isfinite(json.loads(out.read_text())["bound_value"])

    @pytest.mark.parametrize("kind", ["thm5i", "thm5ii", "eq22", "prop5i", "prop5ii"])
    def test_one_kernel_call_on_the_type_table(self, tmp_path, problem_file, monkeypatch, kind):
        # prop5ii reads the posterior rows that induced_joint computed; eq22 and prop5 add one row for the dataset
        rows = []
        kernel = GibbsAlgorithm.posteriors

        def counted(self, prob, counts):
            rows.append(len(counts))
            return kernel(self, prob, counts)

        monkeypatch.setattr(GibbsAlgorithm, "posteriors", counted)
        argv = ["bound", "--kind", kind, "--problem", str(problem_file), "--n", "30", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert [r for r in rows if r > 1] == [5456]

    @pytest.mark.parametrize("kind", ["thm5i", "thm5ii", "eq22", "prop5i", "prop5ii", "eq21"])
    def test_zero_mass_symbol(self, tmp_path, kind):
        # types that hold a zero-mass symbol have no conditional row: thm5i failed with
        # "distortion violated: E[f-g]=nan" and thm5ii divided 0 by 0
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "z_alphabet": 3, "w_alphabet": 3, "loss": [[0.0, 0.5, 1.0], [0.5, 0.0, 0.7], [1.0, 0.7, 0.0]],
            "mu": [0.5, 0.5, 0.0], "B": 1.0,
        }))
        out = tmp_path / "report.json"
        assert main(["bound", "--kind", kind, "--problem", str(problem), "--n", "3", "--out", str(out)]) == 0
        assert math.isfinite(json.loads(out.read_text())["bound_value"])

    def test_nan_bound_is_an_error(self, tmp_path):
        out = tmp_path / "nan"
        assert main(["bound", "--kind", "thm1", "--rate", "nan", "--out", str(out)]) == 1
        assert main(["bound", "--kind", "thm1", "--sigma", "nan", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--kind", "thm5i", "--n", "3", "--lam", "nan"],
            ["trajectory", "--epsilon", "nan", "--lr-grid", "0.1", "--trials", "2", "--steps", "10"],
            ["sweep", "--n-grid", ""],
            ["rd", "--epsilon-grid", ""],
            ["covering", "--m-grid", ""],
        ],
        ids=["lam-nan", "trajectory-epsilon-nan", "sweep-empty", "rd-empty", "covering-empty"],
    )
    def test_nan_and_empty_grids_are_errors(self, tmp_path, problem_file, capsys, argv):
        # NaN used to mean "unset" and an empty grid wrote a header-only table
        if argv[0] == "bound":
            argv = argv + ["--problem", str(problem_file)]
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["bound", "rd", "mc-validate", "covering", "trajectory", "counterexample", "sweep"]
    )
    def test_help_prints(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--out" in capsys.readouterr().out

    def test_book_cap_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "cov"
        assert main(["covering", "--m-grid", "40", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: book of ") and "exceeds the cap" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["bound", "--kind", "thm5i"], ["rd"]], ids=["bound", "rd"])
    def test_enumeration_cap_is_a_clean_error(self, tmp_path, problem_file, capsys, argv):
        out = tmp_path / "x"
        assert main([*argv, "--problem", str(problem_file), "--n", "2000", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: 1337337001 types exceed the cap 4194304\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, edit, message",
        [
            (["bound", "--kind", "thm5i", "--problem"], {"B": "x"}, "problem file key 'B' must be a finite number"),
            (["rd", "--problem"], {"z_alphabet": None}, "problem file key 'z_alphabet' must be a whole number"),
            (["rd", "--problem"], {"loss": [[0, 1], [2]]}, "problem file key 'loss' must be an array of finite"),
            (["rd", "--problem"], [], "a problem file holds one JSON object"),
            (["trajectory", "--spec"], {"model": "logistic", "w_max": None}, "trajectory spec key 'w_max' must be"),
            (["trajectory", "--spec"], {"model": [1]}, "unknown trajectory model [1]"),
            (["trajectory", "--spec"], {"model": "logistic", "w_max": 1000}, "trajectory spec values overflow"),
            (["sweep", "--config"], [1], "a config holds one JSON object"),
            (["rd", "--distortion"], {"a": 1}, "distortion file "),
        ],
        ids=["B-text", "z-null", "loss-ragged", "problem-list", "w_max-null", "model-list", "w_max-overflow",
             "config-list", "distortion-object"],
    )
    def test_malformed_input_file_is_a_clean_error(self, tmp_path, problem_file, capsys, argv, edit, message):
        # a problem edit updates the fixture's problem; any other file, or a non-object problem, is the edit itself
        data = {**json.loads(problem_file.read_text()), **edit} if argv[-1] == "--problem" and edit else edit
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "x"
        assert main([*argv, str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


SUBCOMMANDS = {
    "bound": (["bound", "--kind", "thm1"], "report.json"),
    "rd": (["rd", "--epsilon-grid", "0.1"], "rd_curve.csv"),
    "mc-validate": (["mc-validate", "--n", "5", "--trials", "100"], "validation.json"),
    "covering": (["covering", "--m-grid", "2", "--trials", "20"], "covering.csv"),
    "trajectory": (
        ["trajectory", "--lr-grid", "0.1,0.4", "--trials", "2", "--n", "6", "--steps", "10"],
        "sweep.csv",
    ),
    "counterexample": (["counterexample", "--n-list", "4,5", "--trials", "0"], "scaling.csv"),
    "sweep": (["sweep", "--n-grid", "10,20"], "sweep_bounds.csv"),
}


@pytest.mark.parametrize("as_file", [False, True], ids=["dir", "file"])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_output_and_manifest_paths(tmp_path, problem_file, command, as_file):
    argv, default_name = SUBCOMMANDS[command]
    if command == "mc-validate":
        argv = argv + ["--problem", str(problem_file)]
    target = tmp_path / "run" / ("x" + Path(default_name).suffix if as_file else default_name)
    out = target if as_file else target.parent
    assert main(argv + ["--out", str(out)]) == 0
    assert target.is_file()
    manifest = json.loads((target.parent / "manifest.json").read_text())
    assert manifest["outputs"] == [{"path": str(target), "sha256": file_sha256(target)}]
    assert sorted(p.name for p in target.parent.iterdir()) == sorted([target.name, "manifest.json"])
