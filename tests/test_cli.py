import json
import math

import pytest

from delange.cli import main, parse_csv
from delange.families import family_from_spec, g_series_by_euler_product


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

    @pytest.mark.parametrize("flag, value", [("--a1", "nan"), ("--a2", "inf"), ("--M", "inf")])
    def test_non_finite_remainder_constant_exits_1(self, capsys, flag, value):
        code, out, err = run(
            capsys, "predict", "--family", "one", "--x", "100000", "--y", "100", flag, value,
        )
        assert code == 1
        assert out == ""
        assert "must be finite" in err


class TestExperimentCmd:
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

    def test_emit_parse_identity(self, tmp_path, fam_div2):
        from delange.cli import emit_csv
        from delange.meanvalue import run_experiment

        records = run_experiment(fam_div2, [10**4, 10**5], 0.8, 1)
        p = tmp_path / "r.csv"
        emit_csv(records, str(p), {"family": "divisor:2"})
        back, config = parse_csv(str(p))
        assert back == records  # exact, down to float bits via repr round-trip
        assert config == {"family": "divisor:2"}

    def test_header_only_for_empty_grid(self, capsys, tmp_path):
        p = tmp_path / "empty.csv"
        code, _, _ = run(
            capsys, "experiment", "--family", "one", "--x-grid", "",
            "--out", str(p),
        )
        assert code == 0
        body = [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
        assert body == ["family,x,y,N,exact_re,exact_im,predicted_re,predicted_im,remainder_bound,rel_error"]


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
        [(("theta", "--kappa", "1", "--delta", "0"), "regime=bogus"),
         (("perron-check", "--family", "one", "--x", "1000", "--y", "100"), "scheme=bogus")],
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
         ("--eta", "nan", "must be finite"), ("--corner-eps", "inf", "must be finite")],
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

    def test_perron_check_nudges_T(self, capsys, zero_table_path):
        code, out, err = run(
            capsys, "perron-check", "--family", "one", "--x", "10000", "--y", "1000",
            "--T", "14.2", "--zeros", zero_table_path,
        )
        assert code == 0
        assert "nudged" in err

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

    def test_hankel_check_has_no_scheme_option(self, capsys, tmp_path):
        # the Hankel loop always uses composite Gauss panels
        with pytest.raises(SystemExit) as exc:
            main(["hankel-check", "--u", "1e6", "--kappa", "0.5", "--scheme", "trapezoid"])
        assert exc.value.code == 2
        out = tmp_path / "h.json"
        assert main(["hankel-check", "--u", "1e6", "--kappa", "0.5", "--out", str(out)]) == 0
        assert "scheme" not in json.loads(out.read_text())["config"]

    def test_hankel_check_window_mode(self, capsys):
        code, out, _ = run(
            capsys, "hankel-check", "--kappa", "1", "--l", "0",
            "--x", "10000", "--y", "1000",
        )
        assert code == 0
        assert "rel_dev = " in out
