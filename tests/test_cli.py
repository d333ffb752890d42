import json
import math
import shutil
import time
from unittest import mock

import numpy as np
import pytest

from delange import cli, contour, perron, sieve
from delange.cli import OPTIONS, _build_parser, _resolve, main, parse_csv
from delange.families import family_from_spec, g_series_by_euler_product
from delange.series import g_lambda_coeffs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_console_script_smoke():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "delange.cli", "sum", "--family", "divisor:2",
         "--x", "10", "--y", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "14"
    assert "elapsed" in proc.stderr


def test_seed_option_is_gone(capsys):
    # nothing in the package is random, so there is no seed to set
    with pytest.raises(SystemExit) as exc:
        main(["theta", "--kappa", "1", "--delta", "0", "--seed", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


class TestTheta:
    def test_spec_example(self, capsys):
        code, out, _ = run(
            capsys, "theta", "--kappa", "1", "--delta", "0",
            "--eta1", "0.3333333", "--eps", "0.01",
        )
        assert code == 0
        assert "branch = case1" in out
        val = float(out.splitlines()[0].split("=")[1])
        assert val == pytest.approx(0.62656, abs=5e-5)

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "theta", "--kappa", "1")
        assert code == 2
        assert "delta" in err

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "theta", "--kappa", "1", "--delta", "0.5",
            "--regime", "lindelof_halasz_turan",
        )
        assert code == 1
        assert "delta" in err

    @pytest.mark.parametrize(
        "kappa, delta", [("nan", "0"), ("inf", "0"), ("1", "nan"), ("1", "inf")]
    )
    def test_non_finite_input_exits_1(self, capsys, kappa, delta):
        code, out, err = run(capsys, "theta", "--kappa", kappa, "--delta", delta)
        assert code == 1
        assert "finite" in err
        assert out == ""


class TestSum:
    def test_spec_example(self, capsys):
        code, out, _ = run(capsys, "sum", "--family", "divisor:2", "--x", "10", "--y", "4")
        assert code == 0
        assert out.splitlines()[0] == "14"

    def test_bad_window(self, capsys):
        code, _, err = run(capsys, "sum", "--family", "one", "--x", "4", "--y", "10")
        assert code == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_exits_1(self, capsys, monkeypatch, workers):
        # once printed 812 and exited 0, running serially
        monkeypatch.setattr(sieve, "primes_up_to", mock.Mock(side_effect=AssertionError("sieved")))
        code, out, err = run(capsys, "sum", "--family", "divisor:2", "--x", "1000", "--y", "100",
                             "--workers", workers)
        assert code == 1
        assert out == ""
        assert "workers must be at least 1" in err

    @pytest.mark.parametrize("x, y", [("nan", "3"), ("inf", "3"), ("10", "nan"), ("10", "inf")])
    def test_non_finite_window_exits_1(self, capsys, x, y):
        code, out, err = run(capsys, "sum", "--family", "one", "--x", x, "--y", y)
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [("predict", "--family", "one", "--x", "nan", "--y", "10"),
         ("perron-check", "--family", "one", "--x", "1000", "--y", "inf"),
         ("hankel-check", "--kappa", "1", "--x", "inf", "--y", "10")],
    )
    def test_non_finite_window_exits_1_in_other_commands(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    def test_non_integer_bound_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--family", "one", "--x", "10.5", "--y", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("x, y", [("1e5", "1e1"), ("1.5e3", "3"), ("1E2", "10")])
    def test_exponent_notation_denoting_an_integer(self, capsys, x, y):
        code, out, _ = run(capsys, "sum", "--family", "one", "--x", x, "--y", y)
        assert code == 0
        assert out.splitlines()[0] == str(int(float(y)))

    @pytest.mark.parametrize("raw", ["1.05e1", "1e-3", "abc", "1e999999999"])
    def test_non_integer_exponent_notation_is_usage_error(self, raw):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--family", "one", "--x", raw, "--y", "3"])
        assert exc.value.code == 2

    def test_window_bound_is_exact(self):
        from delange.cli import _window_bound

        assert _window_bound("1e12") == 10**12 and type(_window_bound("1e12")) is int
        assert _window_bound("9007199254740993") == 2**53 + 1  # not a double
        assert _window_bound("9.007199254740993e15") == 2**53 + 1
        assert _window_bound("12345678901234567890123") == 12345678901234567890123
        assert math.isnan(_window_bound("nan")) and _window_bound("inf") == math.inf

    def test_height_past_the_sieve_reach_exits_1(self, capsys):
        x = (10**8 + 1) ** 2 - 1  # first x + y whose square root passes the bound
        code, out, err = run(capsys, "sum", "--family", "one", "--x", str(x), "--y", "1")
        assert code == 1
        assert out == ""
        assert "reach" in err

    @pytest.mark.parametrize(
        "argv, message",
        [(("sum", "--family", "divisor:inf", "--x", "100", "--y", "10"), "finite"),
         (("sum", "--family", "omega:1e300", "--x", "100", "--y", "10"), "not finite"),
         (("sum", "--family", "divisor:1e200", "--x", "1000000", "--y", "1000"), "overflows"),
         (("perron-check", "--family", "divisor:inf", "--x", "1000", "--y", "100", "--T", "50"), "finite")],
    )
    def test_family_values_past_the_double_range_exit_1(self, capsys, argv, message):
        # these printed nan or inf and exited 0, or ended in an OverflowError traceback
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err and len(err.strip().splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, message",
        [(("perron-check", "--family", "omega:1e300", "--x", "1000", "--y", "100", "--T", "50"),
          "exceeds the bound"),
         (("perron-check", "--family", "divisor:1e300", "--x", "1000", "--y", "100", "--T", "50"),
          "exceeds the bound"),
         (("predict", "--family", "omega:1e300", "--x", "1000000", "--y", "10000"), "exceeds the bound"),
         (("hankel-check", "--u", "1e6", "--kappa", "0.5", "--l", "300"), "past the double range"),
         (("hankel-check", "--u", "100", "--kappa", "0.5", "--l", "300"), "Gamma(300.5)"),
         (("hankel-check", "--u", "1e300", "--kappa", "400"), "past the double range")],
    )
    def test_parameters_past_the_analytic_reach_exit_1(self, capsys, argv, message):
        # OverflowError tracebacks (omega:1e300, --l 300) or a RuntimeWarning
        # before the error line (divisor:1e300, --kappa 400)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err and len(err.strip().splitlines()) == 1

    def test_parameters_past_the_analytic_reach_still_sum(self, capsys):
        # f = 25^omega(n) over 11, 12, 13
        code, out, _ = run(capsys, "sum", "--family", "omega:25", "--x", "10", "--y", "3")
        assert code == 0
        assert out.strip() == "675"

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "sum", "--family", "mertens", "--x", "10", "--y", "4")
        assert code == 1
        assert "mertens" in err

    def test_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "sum.json"
        code, _, _ = run(
            capsys, "sum", "--family", "sqfree", "--x", "10", "--y", "10",
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["sum_re"] == 6.0
        assert doc["config"]["subcommand"] == "sum"


class TestCoeffs:
    def test_squarefree_lambda0(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--family", "sqfree", "--J", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda_l"][0][0] == pytest.approx(0.6079271, abs=1e-6)
        assert doc["J"] == 8

    @pytest.mark.parametrize("spec", ["sqfree", "one"])
    def test_reports_the_euler_product_tail_bound(self, capsys, spec):
        # the a-posteriori error of the background series, as the library reports it
        code, out, _ = run(capsys, "coeffs", "--family", spec, "--J", "8")
        assert code == 0
        _, want = g_series_by_euler_product(family_from_spec(spec), 8)
        doc = json.loads(out)
        assert doc["background_error"] == want
        assert "tail_bound" not in doc
        assert (want > 0) == (spec == "sqfree")  # `one` has no background product

    @pytest.mark.parametrize("spec", ["sqfree", "omega:1.5"])
    def test_highest_order_reports_a_finite_error(self, capsys, spec):
        code, out, _ = run(capsys, "coeffs", "--family", spec, "--J", "65")
        assert code == 0
        doc = json.loads(out)
        assert doc["J"] == 65
        assert math.isfinite(doc["background_error"])

    def test_cutoff_option_is_gone(self, capsys, tmp_path):
        # the background series has no prime cutoff to set
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--family", "sqfree", "--cutoff", "2000"])
        assert exc.value.code == 2
        capsys.readouterr()
        cfg = tmp_path / "coeffs.cfg"
        cfg.write_text("family=sqfree\ncutoff=2000\n")
        code, _, err = run(capsys, "coeffs", "--config", str(cfg))
        assert code == 2
        assert "cutoff" in err

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--family", "sqfree"),
        ("predict", "--family", "sqfree", "--x", "100000", "--y", "1000"),
    ])
    def test_negative_order_exits_1_naming_J(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--J", "-1")
        assert code == 1
        assert out == ""
        assert "J=-1" in err


class TestPredictCmd:
    def test_prints_value_and_bound(self, capsys):
        code, out, _ = run(
            capsys, "predict", "--family", "divisor:2", "--x", "10000000",
            "--y", "100000", "--N", "1",
        )
        assert code == 0
        val = float(out.splitlines()[0].split("=")[1])
        assert val == pytest.approx(1.72725e6, rel=1e-4)
        assert "remainder_bound" in out

    @pytest.mark.parametrize("spec", ["sqfree", "one"])
    def test_reports_the_background_error(self, capsys, tmp_path, spec):
        # the coefficients' error, as coeffs reports it, on stdout and in --out
        p = tmp_path / "p.json"
        code, out, _ = run(capsys, "predict", "--family", spec, "--x", "100000", "--y", "1000",
                           "--out", str(p))
        assert code == 0
        want = g_lambda_coeffs(family_from_spec(spec), 8).background_error
        assert out.splitlines()[2] == f"background_error = {want!r}"
        assert json.loads(p.read_text())["background_error"] == want
        assert (want > 0) == (spec == "sqfree")

    @pytest.mark.parametrize("flag, value", [("--a1", "nan"), ("--a2", "inf"), ("--M", "inf")])
    def test_non_finite_remainder_constant_exits_1(self, capsys, flag, value):
        code, out, err = run(
            capsys, "predict", "--family", "one", "--x", "100000", "--y", "100", flag, value,
        )
        assert code == 1
        assert out == ""
        assert "must be finite" in err


    @pytest.mark.parametrize(
        "x, texp, message",
        [("1000000", "inf", "(0, 1]"), ("1000000", "-1", "(0, 1]"), ("1000000", "nan", "(0, 1]"),
         ("1e400", "0.5", "64-bit")],
    )
    def test_theta_exp_outside_its_range_exits_1(self, capsys, x, texp, message):
        # inf and x = 1e400 ended in an OverflowError traceback, -1 used y = 1 with exit 0
        code, out, err = run(capsys, "predict", "--family", "one", "--x", x, "--theta-exp", texp)
        assert code == 1
        assert out == ""
        assert message in err and len(err.strip().splitlines()) == 1

    def test_theta_exp_gives_the_experiment_window(self, capsys, tmp_path):
        p = tmp_path / "p.json"
        code, _, _ = run(capsys, "predict", "--family", "one", "--x", "1e6", "--theta-exp", "0.5",
                         "--out", str(p))
        assert code == 0
        doc = json.loads(p.read_text())
        assert (doc["x"], doc["y"]) == (10**6, 1000)
        assert doc["config"]["y"] is None and doc["config"]["theta_exp"] == 0.5


class TestExperimentCmd:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_exits_1(self, capsys, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(sieve, "primes_up_to", mock.Mock(side_effect=AssertionError("sieved")))
        code, out, err = run(capsys, "experiment", "--family", "divisor:2", "--x-grid", "1e4,1e5",
                             "--workers", workers, "--out", str(tmp_path / "e.csv"))
        assert code == 1
        assert out == ""
        assert "workers must be at least 1" in err

    @pytest.mark.parametrize(
        "grid, message", [("inf", "must be finite"), ("1e4,nan", "must be finite"),
                          ("1e400", "64-bit")],
    )
    def test_grid_point_outside_the_window_range_exits_1(self, capsys, tmp_path, grid, message):
        code, out, err = run(
            capsys, "experiment", "--family", "one", "--x-grid", grid,
            "--out", str(tmp_path / "e.csv"),
        )
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("grid", ["100000.7", "1e4,1.5e-1", "1e4,abc"])
    def test_non_integer_grid_is_usage_error(self, capsys, tmp_path, grid):
        code, out, err = run(
            capsys, "experiment", "--family", "one", "--x-grid", grid,
            "--out", str(tmp_path / "e.csv"),
        )
        assert code == 2
        assert "--x-grid" in err

    def test_grid_point_past_double_precision_is_kept(self, capsys, tmp_path):
        p = tmp_path / "e.csv"
        code, _, _ = run(
            capsys, "experiment", "--family", "one", "--x-grid", "9007199254740993",
            "--theta-exp", "0.1", "--out", str(p),
        )
        assert code == 0
        records, _ = parse_csv(str(p))
        assert records[0].x == 2**53 + 1

    @pytest.mark.parametrize("flag", ["--a1", "--a2", "--M"])
    def test_non_finite_remainder_constant_exits_1(self, capsys, tmp_path, flag):
        code, out, err = run(
            capsys, "experiment", "--family", "one", "--x-grid", "1e4", flag, "nan",
            "--out", str(tmp_path / "e.csv"),
        )
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    def test_csv_roundtrip_and_determinism(self, capsys, tmp_path):
        p1 = tmp_path / "a.csv"
        argv = [
            "experiment", "--family", "divisor:2", "--x-grid", "1e4,1e5",
            "--theta-exp", "0.8", "--N", "1", "--out", str(p1),
        ]
        assert main(argv) == 0
        first = p1.read_bytes()
        assert main(argv) == 0
        capsys.readouterr()
        assert p1.read_bytes() == first
        records, config = parse_csv(str(p1))
        assert [r.x for r in records] == [10**4, 10**5]
        assert config["family"] == "divisor:2"
        header = p1.read_text().splitlines()
        assert any(ln.startswith("# theta_exp=0.8") for ln in header)

    def test_imaginary_fields_are_kept_as_zero(self, capsys, tmp_path):
        # every value is a float; the _im fields and columns and the [re, im]
        # pairs of coeffs stay, with 0.0, so the formats read as before
        commands = {
            "sum": (("sum", "--family", "omega:0.5", "--x", "1000", "--y", "100"),
                    ["config", "family", "sum_im", "sum_re", "x", "y"]),
            "predict": (("predict", "--family", "sqfree", "--x", "1000000", "--y", "10000"),
                        ["N", "background_error", "config", "family", "predicted_im",
                         "predicted_re", "remainder_bound", "x", "y"]),
            "perron-check": (("perron-check", "--family", "one", "--x", "1000", "--y", "100",
                              "--T", "50"),
                             ["T_used", "config", "nodes", "quadrature_delta", "reference",
                              "rel_dev", "value_im", "value_re"]),
            "hankel-check": (("hankel-check", "--u", "1e6", "--kappa", "0.5"),
                             ["config", "nodes", "quadrature_delta", "reference", "rel_dev",
                              "value_im", "value_re"]),
            "coeffs": (("coeffs", "--family", "omega:0.5", "--J", "4"),
                       ["J", "background_error", "config", "g_l", "gamma_j", "kappa",
                        "lambda_l", "w"]),
        }
        for name, (argv, keys) in commands.items():
            out = tmp_path / f"{name}.json"
            assert main([*argv, "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert list(doc) == keys, name
            for key in keys:
                if key.endswith("_im"):
                    assert doc[key] == 0.0 and type(doc[key]) is float, (name, key)
            if name == "coeffs":
                pairs = [doc["w"], *doc["gamma_j"], *doc["g_l"], *doc["lambda_l"]]
                assert all(len(p) == 2 and p[1] == 0.0 for p in pairs)
        csv = tmp_path / "e.csv"
        assert main(["experiment", "--family", "one", "--x-grid", "1e4", "--out", str(csv)]) == 0
        capsys.readouterr()
        rows = [ln.split(",") for ln in csv.read_text().splitlines() if not ln.startswith("#")]
        assert rows[0] == cli.CSV_HEADER.split(",")
        assert rows[1][5] == rows[1][7] == "0.0"  # exact_im, predicted_im

    def test_emit_parse_identity(self, tmp_path, fam_div2):
        from delange.cli import emit_csv
        from delange.meanvalue import run_experiment

        records = run_experiment(fam_div2, [10**4, 10**5], 0.8, 1)
        p = tmp_path / "r.csv"
        emit_csv(records, str(p), {"family": "divisor:2"})
        back, config = parse_csv(str(p))
        assert back == records  # exact, down to float bits via repr round-trip
        assert config == {"family": "divisor:2"}

    @pytest.mark.parametrize("grid", ["", ",", " , ", "config"], ids=["blank", "comma", "spaced", "config"])
    def test_empty_grid_is_usage_error(self, capsys, monkeypatch, tmp_path, grid):
        # refused before the coefficients are built or any window is summed
        monkeypatch.setattr(cli, "g_lambda_coeffs", mock.Mock(side_effect=AssertionError("built")))
        monkeypatch.setattr(cli.mv, "run_experiment", mock.Mock(side_effect=AssertionError("ran")))
        p = tmp_path / "empty.csv"
        if grid == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("x_grid=,\n")
            argv = ("--config", str(cfg))
        else:
            argv = ("--x-grid", grid)
        code, out, err = run(capsys, "experiment", "--family", "one", *argv, "--out", str(p))
        assert code == 2
        assert out == ""
        assert "--x-grid" in err
        assert not p.exists()


@pytest.mark.parametrize(
    "argv, name",
    [(("theta", "--kappa", "1", "--delta", "0", "--config", "{missing}/run.cfg"),
      "{missing}/run.cfg"),
     (("contour", "--zeros", "{missing}/zeros.txt", "--out", "{tmp}/k.json"),
      "{missing}/zeros.txt"),
     (("experiment", "--family", "one", "--x-grid", "1e4", "--out", "{missing}/e.csv"),
      "{missing}/e.csv"),
     (("contour", "--zeros", "{table}", "--out", ""), "''")],
)
def test_missing_or_unwritable_file_exits_1(capsys, tmp_path, zero_table_path, argv, name):
    # each of these ended in a FileNotFoundError traceback
    where = dict(missing=tmp_path / "missing", tmp=tmp_path, table=zero_table_path)
    code, _, err = run(capsys, *(a.format(**where) for a in argv))
    assert code == 1
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert name.format(**where) in err


@pytest.mark.parametrize(
    "argv, name",
    [(("experiment", "--family", "divisor:2", "--x-grid", "1e13", "--theta-exp", "0.55",
       "--N", "1", "--out", "{missing}/e.csv"), "{missing}/e.csv"),
     (("experiment", "--family", "divisor:2", "--x-grid", "1e13", "--theta-exp", "0.55",
       "--out", "{tmp}"), "is a directory"),
     (("contour", "--zeros", "{table}", "--out", "{missing}/c.json"), "{missing}/c.json"),
     (("contour", "--zeros", "{table}", "--out", "{tmp}/c.json", "--emit-csv", "{missing}/c.csv"),
      "{missing}/c.csv"),
     (("contour", "--zeros", "{table}", "--out", "{tmp}/c.json", "--emit-csv", "{tmp}"),
      "is a directory"),
     (("perron-check", "--family", "one", "--x", "100000", "--y", "10000", "--T", "5e4",
       "--out", "{missing}/p.json"), "{missing}/p.json")],
)
def test_unwritable_output_fails_before_the_work(capsys, tmp_path, zero_table_path, argv, name):
    # experiment sieved for 2.2 s and contour built and validated its whole
    # path (writing --out before it failed on --emit-csv) before the path was tried
    where = dict(missing=tmp_path / "missing", tmp=tmp_path, table=zero_table_path)
    t0 = time.perf_counter()
    code, out, err = run(capsys, *(a.format(**where) for a in argv))
    assert time.perf_counter() - t0 < 0.5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert name.format(**where) in err
    assert list(tmp_path.iterdir()) == []  # no file left behind


def test_output_in_a_directory_that_refuses_writes(capsys, tmp_path, monkeypatch):
    # permission bits do not bind the superuser, so the refusal is simulated
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    code, out, err = run(capsys, "theta", "--kappa", "1", "--delta", "0",
                         "--out", str(tmp_path / "t.json"))
    assert code == 1 and out == ""
    assert "permission denied" in err
    assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa=2\ndelta=1\neps=0.01\n")
        code, out, _ = run(capsys, "theta", "--config", str(cfg), "--kappa", "10")
        assert code == 0
        # kappa comes from the flag (case 2), delta from the config
        assert "branch = case2" in out

    def test_config_supplies_missing(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa=1\ndelta=0\n")
        code, out, _ = run(capsys, "theta", "--config", str(cfg))
        assert code == 0
        assert "branch = case1" in out

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa 1\n")
        code, _, err = run(capsys, "theta", "--config", str(cfg), "--delta", "0")
        assert code == 2

    def test_unparsable_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa=abc\ndelta=0\n")
        code, _, err = run(capsys, "theta", "--config", str(cfg))
        assert code == 2
        assert "kappa" in err

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        # a misspelt key must not be dropped silently
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa=1\ndelta=0\nkapa=3\n")
        code, out, err = run(capsys, "theta", "--config", str(cfg))
        assert code == 2
        assert "'kapa'" in err and not out

    @pytest.mark.parametrize(
        "cmd, line",
        [(("theta", "--kappa", "1", "--delta", "0"), "regime=bogus")],
    )
    def test_value_outside_the_choices_is_usage_error(self, capsys, tmp_path, cmd, line):
        # the same check as the flag's argparse choices, and the same exit code
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run(capsys, *cmd, "--config", str(cfg))
        assert code == 2
        assert line.split("=")[0] in err

    def test_config_is_an_option_of_the_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa=1\ndelta=0\n")
        # before the subcommand it would be ignored, so it is not accepted there
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "theta"])
        assert exc.value.code == 2
        capsys.readouterr()


# One working command per subcommand ({o}: output directory, {z}: zero table),
# and a value off the default for each option that command leaves out.
CLI_CASES = {
    "coeffs": ({"--family": "sqfree", "--J": "8", "--out": "{o}/c.json"}, {}),
    "sum": ({"--family": "divisor:2", "--x": "1e4", "--y": "100", "--out": "{o}/s.json"},
            {"--workers": "2"}),
    "predict": (
        {"--family": "divisor:2", "--x": "1e7", "--theta-exp": "0.6", "--out": "{o}/p.json"},
        {"--y": "1e5", "--N": "1", "--J": "10", "--a1": "2", "--a2": "0.25", "--M": "0.5"},
    ),
    "theta": ({"--kappa": "1", "--delta": "0", "--out": "{o}/t.json"},
              {"--regime": "zero_density_hypothesis", "--eta1": "0.3", "--eps": "0.02"}),
    "experiment": (
        {"--family": "one", "--x-grid": "1e4,1e5", "--out": "{o}/e.csv"},
        {"--theta-exp": "0.7", "--N": "1", "--J": "10", "--a1": "2", "--a2": "0.25",
         "--M": "0.5", "--workers": "2"},
    ),
    "contour": (
        {"--zeros": "{z}", "--T": "32768", "--cstar": "0.1", "--out": "{o}/k.json"},
        {"--alpha": "0.65", "--eta": "0.05", "--corner-eps": "0.001", "--logx": "12",
         "--emit-csv": "{o}/k.csv"},
    ),
    "perron-check": (
        # the coarse rule moves this line by at most 3.1e-13 with any one sample
        {"--family": "one", "--x": "100", "--y": "10", "--T": "50", "--out": "{o}/pc.json"},
        {"--nodes-per-unit": "40", "--abs-tol": "5e-4", "--b-offset": "1.5", "--zeros": "{z}"},
    ),
    "hankel-check": (
        {"--u": "1e6", "--kappa": "0.5", "--out": "{o}/h.json"},
        {"--l": "1", "--r": "0.1", "--x": "10000", "--y": "1000", "--nodes-per-unit": "40",
         "--abs-tol": "5e-4"},
    ),
}


@pytest.mark.parametrize(
    "sub, flag", [(sub, row[0]) for sub, rows in OPTIONS.items() for row in rows]
)
def test_config_value_matches_the_flag(capsys, tmp_path, zero_table_path, sub, flag):
    # every option of the table: the same value through --config resolves to
    # what the flag gives and writes byte-identical output
    base, samples = CLI_CASES[sub]
    out_dir = tmp_path / "o"
    given = {f: v.format(o=out_dir, z=zero_table_path) for f, v in {**base, **samples}.items()}
    value = given[flag]
    key = flag[2:].replace("-", "_")
    argv = [sub] + [a for f in base if f != flag for a in (f, given[f])]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    runs = []
    for extra in ([flag, value], ["--config", str(cfg)]):
        resolved = _resolve(_build_parser().parse_args(argv + extra))
        out_dir.mkdir()
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        runs.append((resolved, out, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}))
        shutil.rmtree(out_dir)
    assert runs[0] == runs[1]
    default = {f: d for f, _, d in OPTIONS[sub]}[flag]
    assert runs[0][0][key] not in (default, None)
    assert runs[0][2]  # an output file was written


class TestContourCmd:
    def test_json_and_csv_outputs(self, capsys, tmp_path):
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("0.8 5000.0\n0.7 9000.0\n")
        out_json = tmp_path / "contour.json"
        out_csv = tmp_path / "contour.csv"
        code, out, _ = run(
            capsys, "contour", "--zeros", str(zeros), "--T", "65536",
            "--alpha", "0.6", "--cstar", "0.1", "--out", str(out_json),
            "--emit-csv", str(out_csv),
        )
        assert code == 0
        assert "PASS" in out
        doc = json.loads(out_json.read_text())
        assert doc["validation"]["clearance_ok"] is True
        assert doc["config"]["alpha"] == 0.6
        assert len(doc["vertices"]) == len(doc["piece_labels"]) + 1
        rows = out_csv.read_text().splitlines()
        assert rows[rows.index("re,im,label") + 1].count(",") == 2

    def test_rerun_byte_identical(self, capsys, tmp_path):
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("0.8 5000.0\n")
        out_json = tmp_path / "contour.json"
        argv = [
            "contour", "--zeros", str(zeros), "--T", "65536", "--alpha", "0.6",
            "--cstar", "0.1", "--out", str(out_json),
        ]
        assert main(argv) == 0
        first = out_json.read_bytes()
        assert main(argv) == 0
        capsys.readouterr()
        assert out_json.read_bytes() == first

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--cstar", "nan", "must be finite"), ("--cstar", "inf", "must be finite"),
         ("--cstar", "-1", "must be positive"), ("--logx", "nan", "must be finite"),
         ("--logx", "-1", "at least 1"), ("--logx", "0", "at least 1"),
         ("--T", "inf", "must be finite"), ("--T", "nan", "must be finite"),
         ("--eta", "nan", "must be finite"), ("--corner-eps", "inf", "must be finite"),
         ("--T", "512", "T must be at least 2^10"), ("--alpha", "0.4", "alpha must lie in (1/2, 1)"),
         ("--eta", "0.3", "eta must lie in (0, alpha - 1/2]"),
         ("--corner-eps", "1", "corner_eps must lie in (0, H/4)")],
    )
    def test_nonsense_parameter_exits_1(self, capsys, tmp_path, zero_table_path, flag, value, message):
        argv = {"--zeros": zero_table_path, "--T": "65536", "--cstar": "0.1", flag: value}
        out_json = tmp_path / "c.json"
        code, out, err = run(
            capsys, "contour", *[a for kv in argv.items() for a in kv], "--out", str(out_json),
        )
        assert code == 1
        assert out == ""
        assert message in err
        assert not out_json.exists()

    @pytest.mark.parametrize(
        "argv, text, lineno",
        [(("contour", "--T", "65536", "--out", "c.json"), "nan 5000\n0.8 nan\n0.9 inf\n", 1),
         (("contour", "--T", "65536", "--out", "c.json"), "0.7 9000\n0.9 inf\n", 2),
         (("perron-check", "--family", "one", "--x", "10000", "--y", "1000", "--T", "100"),
          "14.134725\nnan\n", 2)],
    )
    def test_non_finite_zero_table_entry_exits_1(self, capsys, tmp_path, argv, text, lineno):
        # these rows were dropped silently: contour reported PASS, perron-check ran on
        zeros = tmp_path / "zeros.txt"
        zeros.write_text(text)
        argv = [str(tmp_path / a) if a == "c.json" else a for a in argv]
        code, out, err = run(capsys, *argv, "--zeros", str(zeros))
        assert code == 1
        assert out == ""
        assert f"line {lineno}: not a finite number" in err
        assert not (tmp_path / "c.json").exists()

    def test_height_above_the_ceiling_exits_1(self, capsys, tmp_path, zero_table_path):
        # this asked numpy for an 842 GiB level array and ended in a traceback
        out_json = tmp_path / "c.json"
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "contour", "--zeros", zero_table_path, "--T", "1e12", "--out", str(out_json),
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: T=1e+12 exceeds the contour's ceiling 2^20 = 1048576"
        ]
        assert not out_json.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--T", "1e12", "T=1e+12 exceeds the contour's ceiling 2^20 = 1048576"),
         ("--alpha", "0.4", "alpha must lie in (1/2, 1)"),
         ("--cstar", "-1", "c_star=-1.0 must be positive")],
    )
    def test_bad_parameters_are_refused_before_the_table_is_read(
        self, capsys, tmp_path, zero_table_path, monkeypatch, flag, value, message
    ):
        def unread(*args):
            raise AssertionError("the zero table was read")

        monkeypatch.setattr(contour, "load_zeros", unread)
        out_json = tmp_path / "c.json"
        argv = {"--zeros": zero_table_path, "--T": "65536", flag: value}
        code, out, err = run(
            capsys, "contour", *[a for kv in argv.items() for a in kv], "--out", str(out_json),
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]
        assert not out_json.exists()

    def test_degenerate_exit(self, capsys, tmp_path):
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("0.95 300.0\n")
        code, _, err = run(
            capsys, "contour", "--zeros", str(zeros), "--T", "65536",
            "--alpha", "0.6", "--cstar", "1.0", "--out", str(tmp_path / "c.json"),
        )
        assert code == 1
        assert "beta" in err


class TestQuadratureCmds:
    def test_perron_check_json(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        code, text, _ = run(
            capsys, "perron-check", "--family", "one", "--x", "10000", "--y", "1000",
            "--T", "500", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["reference"] == 1000.0
        assert doc["rel_dev"] <= 0.05
        assert doc["nodes"] > 0

    def test_quadrature_delta_is_reported(self, capsys, tmp_path, fam_one):
        # the fine-coarse distance that abs_tol bounds goes to --out; stdout is unchanged
        out = tmp_path / "p.json"
        code, text, _ = run(
            capsys, "perron-check", "--family", "one", "--x", "10000", "--y", "1000",
            "--T", "500", "--out", str(out),
        )
        assert code == 0
        assert text.startswith("perron = ") and len(text.splitlines()) == 1
        b = 1.0 + perron.DEFAULT_B_OFFSET / math.log(10000)
        fine, coarse = perron._line_pair(fam_one, 10000.0, 1000.0, b, 500.0,
                                         perron.DEFAULT_QUADRATURE)
        doc = json.loads(out.read_text())
        assert doc["quadrature_delta"] == abs(fine - coarse)
        assert 0.0 < doc["quadrature_delta"] <= 1e-3

    @staticmethod
    def hankel_delta(capsys, tmp_path, args):
        """The quadrature_delta hankel-check reports, and |fine - coarse| of
        _hankel_value's real estimates for the same loop."""
        out = tmp_path / "h.json"
        code, text, _ = run(capsys, "hankel-check", *args, "--out", str(out))
        assert code == 0
        assert text.startswith("loop = ") and len(text.splitlines()) == 1
        a = dict(zip(args[::2], args[1::2]))
        spec = perron.QuadratureSpec(nodes_per_unit=int(a.get("--nodes-per-unit", 32)))
        if "--u" in a:
            lu = math.log(float(a["--u"]))
            weight, r = (lambda s: np.exp((s - 1.0) * lu)), 1.0 / lu
        else:
            x, y = float(a["--x"]), float(a["--y"])
            weight, r = (lambda s: perron._kernel(s, x, y)), 1.0 / math.log(x)
        fine, coarse = perron._hankel_value(weight, float(a["--kappa"]), 0, r, spec)
        return json.loads(out.read_text())["quadrature_delta"], abs(fine - coarse)

    @pytest.mark.parametrize(
        "args", [("--u", "1e6", "--kappa", "0.5"), ("--kappa", "2", "--x", "10000", "--y", "1000"),
                 ("--u", "1e6", "--kappa", "0.5", "--nodes-per-unit", "24")]
    )
    def test_hankel_quadrature_delta_is_reported(self, capsys, tmp_path, args):
        delta, gap = self.hankel_delta(capsys, tmp_path, args)
        assert delta == gap <= 1e-3

    @pytest.mark.parametrize(
        "args", [("--kappa", "2", "--x", "10000", "--y", "1000"),
                 ("--u", "1e6", "--kappa", "0.5", "--nodes-per-unit", "24")]
    )
    def test_hankel_quadrature_delta_is_positive_on_a_real_gap(self, capsys, tmp_path, args):
        # at the default density the u = 1e6 loop's two real estimates agree to
        # the bit; at 24 a unit they differ by 2.8e-17
        delta, gap = self.hankel_delta(capsys, tmp_path, args)
        assert 0.0 < delta == gap <= 1e-3

    def test_perron_check_nudges_T(self, capsys, zero_table_path):
        code, out, err = run(
            capsys, "perron-check", "--family", "one", "--x", "10000", "--y", "1000",
            "--T", "14.2", "--zeros", zero_table_path,
        )
        assert code == 0
        assert "nudged" in err

    @pytest.mark.parametrize("args", [("--u", "1e6"), ("--x", "10000", "--y", "1000")])
    def test_hankel_exponent_past_the_double_range_exits_1(self, capsys, args):
        # pi (l - kappa) overflows: a typed refusal on one line, not a math-domain traceback
        code, out, err = run(capsys, "hankel-check", *args, "--kappa", "1e308")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_hankel_check_loop(self, capsys, tmp_path):
        out = tmp_path / "h.json"
        code, _, _ = run(
            capsys, "hankel-check", "--u", "1e6", "--kappa", "0.5", "--l", "0",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rel_dev"] <= 1e-3
        assert doc["reference"] == pytest.approx(
            math.log(1e6) ** -0.5 / math.sqrt(math.pi), rel=1e-12
        )

    @pytest.mark.parametrize("height", ["inf", "nan", "2e5"])
    def test_perron_check_rejects_bad_T(self, capsys, height):
        code, out, err = run(
            capsys, "perron-check", "--family", "one", "--x", "10000", "--y", "1000",
            "--T", height,
        )
        assert code == 1
        assert out == ""
        assert "must be finite and at most" in err

    def test_perron_check_sqfree_above_its_reach(self, capsys):
        code, out, err = run(
            capsys, "perron-check", "--family", "sqfree", "--x", "1000", "--y", "100",
            "--T", "6e4",
        )
        assert code == 1
        assert out == ""
        assert "squarefree_omega_power" in err and "T=60000" in err

    @pytest.mark.parametrize(
        "args",
        [("--u", "nan", "--kappa", "0.5"), ("--u", "inf", "--kappa", "0.5"),
         ("--u", "1e6", "--kappa", "0.5", "--r", "nan"),
         ("--kappa", "nan", "--x", "10000", "--y", "1000")],
    )
    def test_hankel_check_rejects_non_finite(self, capsys, args):
        code, out, err = run(capsys, "hankel-check", *args)
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize(
        "argv, message",
        [(("hankel-check", "--u", "1e6", "--kappa", "0.5", "--r", "-0.1"), "loop radius"),
         (("hankel-check", "--u", "1e6", "--kappa", "0.5", "--r", "0"), "loop radius"),
         (("hankel-check", "--u", "1e6", "--kappa", "0.5", "--r", "0.9"), "loop radius"),
         (("hankel-check", "--kappa", "0.5", "--x", "1", "--y", "1"), "loop radius"),
         (("hankel-check", "--kappa", "0.5", "--x", "3", "--y", "2"), "loop radius"),
         (("perron-check", "--family", "one", "--x", "10000", "--y", "1000", "--b-offset", "-2"),
          "b_offset"),
         (("perron-check", "--family", "one", "--x", "10000", "--y", "1000", "--b-offset", "0"),
          "b_offset"),
         (("perron-check", "--family", "one", "--x", "10000", "--y", "1000", "--b-offset", "inf"),
          "b_offset"),
         (("perron-check", "--family", "one", "--x", "1000", "--y", "100", "--T", "100",
           "--nodes-per-unit", "1001"), "nodes_per_unit=1001 exceeds 1000"),
         (("hankel-check", "--u", "1e6", "--kappa", "0.5", "--nodes-per-unit", "1001"),
          "nodes_per_unit=1001 exceeds 1000"),
         (("perron-check", "--family", "one", "--x", "1000", "--y", "100", "--T", "1e5",
           "--nodes-per-unit", "62"), "needs 6510147 nodes"),
         (("perron-check", "--family", "one", "--x", "1000", "--y", "100", "--T", "100",
           "--nodes-per-unit", "61"), "nodes_per_unit=61 must be even")],
    )
    def test_malformed_quadrature_exits_1(self, capsys, tmp_path, argv, message):
        # each of these printed nan, a wrong number or a ZeroDivisionError traceback
        out_path = tmp_path / "q.json"
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert message in err and len(err.strip().splitlines()) == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("family", ["omega:3", "divisor:3"])
    def test_large_kappa_line_converges_at_the_default_tolerance(self, capsys, tmp_path, family):
        # the coarse rule moved these lines by 1.5e-3 and 5.4e-3 before the
        # first panel was split; the exit was 1 against abs_tol = 1e-3
        out = tmp_path / "p.json"
        code, text, err = run(capsys, "perron-check", "--family", family, "--x", "100000",
                              "--y", "10000", "--T", "1000", "--out", str(out))
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert doc["config"]["abs_tol"] == 1e-3
        assert doc["quadrature_delta"] <= 1e-8
        assert doc["rel_dev"] <= 1e-3

    @pytest.mark.parametrize(
        "cmd",
        [("perron-check", "--family", "one", "--x", "100", "--y", "10", "--T", "50"),
         ("hankel-check", "--u", "1e6", "--kappa", "0.5")],
        ids=["perron-check", "hankel-check"],
    )
    def test_checks_have_no_scheme_option(self, capsys, tmp_path, cmd):
        # both quadratures always use composite Gauss-Kronrod panels
        with pytest.raises(SystemExit) as exc:
            main([*cmd, "--scheme", "gauss_segment"])
        assert exc.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme=gauss_segment\n")
        code, _, err = run(capsys, *cmd, "--config", str(cfg))
        assert code == 2 and "'scheme'" in err
        out = tmp_path / "q.json"
        assert main([*cmd, "--out", str(out)]) == 0
        assert "scheme" not in json.loads(out.read_text())["config"]

    def test_hankel_check_window_mode_records_every_option(self, capsys, tmp_path):
        out = tmp_path / "h.json"
        code, _, _ = run(
            capsys, "hankel-check", "--kappa", "1", "--x", "10000", "--y", "1000",
            "--out", str(out),
        )
        assert code == 0
        config = json.loads(out.read_text())["config"]
        assert config["r"] is None  # the loop radius is unused in window mode, and recorded
        assert set(config) == {"subcommand", "out", "u", "kappa", "l", "r", "x", "y",
                               "nodes_per_unit", "abs_tol"}

    def test_hankel_check_window_mode(self, capsys):
        code, out, _ = run(
            capsys, "hankel-check", "--kappa", "1", "--l", "0",
            "--x", "10000", "--y", "1000",
        )
        assert code == 0
        assert "rel_dev = " in out
