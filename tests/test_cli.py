import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from privacy_lab import MarketParams, posterior_slope, report, solve_closed_form
from privacy_lab.cli import main

SQRT2 = math.sqrt(2.0)
ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as e:  # argparse rejects the arguments
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEquilibriumCommand:
    def test_human_output(self, capsys):
        rc, out, _ = run(capsys, "equilibrium", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1")
        assert rc == 0
        assert "λ" in out and "β" in out
        assert "0.353553" in out and "1.41421" in out

    def test_oracle_discrepancy_is_tiny(self, capsys):
        rc, out, _ = run(capsys, "equilibrium", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1",
                         "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["relative_discrepancy"] < 1e-12

    def test_validation_error_names_field(self, capsys):
        rc, _, err = run(capsys, "equilibrium", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "-1")
        assert rc == 2
        assert "sigma_eps" in err

    def test_missing_required_parameter(self, capsys):
        rc, _, err = run(capsys, "equilibrium", "--sigma-u", "1")
        assert rc == 2
        assert "sigma-v" in err

    def test_calibrated_lambda(self, capsys):
        rc, out, _ = run(capsys, "equilibrium", "--sigma-v", "3000", "--sigma-u", "1000",
                         "--sigma-eps", "1414.2136")
        assert rc == 0
        assert "0.866025" in out

    def test_json_output_round_trips_as_config(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "equilibrium", "--sigma-v", "2", "--sigma-u", "0.5", "--sigma-eps", "1.5",
                         "--format", "json")
        assert rc == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(out)
        rc2, out2, _ = run(capsys, "equilibrium", "--config", str(cfg), "--format", "json")
        assert rc2 == 0
        assert json.loads(out2) == json.loads(out)

    def test_simulate_json_output_round_trips_as_config(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "simulate", "--sigma-v", "2", "--sigma-u", "0.5", "--sigma-eps", "1.5", "--p0", "-3",
                         "--n-paths", "3000", "--seed", "5", "--chunk-size", "1024", "--format", "json")
        assert rc == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(out)
        rc2, out2, _ = run(capsys, "simulate", "--config", str(cfg), "--format", "json")
        assert rc2 == 0
        assert json.loads(out2) == json.loads(out)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"market": {"sigma_v": 1.0, "sigma_u": 1.0, "sigma_eps": 0.0}}))
        rc, out, _ = run(capsys, "equilibrium", "--config", str(cfg), "--sigma-eps", "1", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["market"]["sigma_eps"] == 1.0
        assert math.isclose(payload["closed_form"]["lambda"], 0.35355339059327373, rel_tol=1e-15)

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        rc, _, err = run(capsys, "equilibrium", "--config", str(cfg))
        assert rc == 2


class TestDecomposeCommand:
    def test_btc_subsidy_line(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--sigma-v", "3000", "--sigma-u", "1000", "--sigma-eps", "1000")
        assert rc == 0
        assert "1,060,660" in out

    def test_zero_noise_zero_fee_floor(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "0")
        assert rc == 0
        assert "f = 0" in out

    def test_net_informed_reverts_to_classical(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1")
        assert rc == 0
        assert "net π_I = 0.5" in out

    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1",
                         "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert math.isclose(payload["subsidy"], 0.35355339059327373, rel_tol=1e-14)
        assert math.isclose(payload["fee"]["net_pi_I"], 0.5, rel_tol=1e-12)


class TestFeeCommand:
    def test_human(self, capsys):
        rc, out, _ = run(capsys, "fee", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1")
        assert rc == 0
        assert "0.183544" in out  # break-even rate


class TestSweepCommand:
    def test_csv_to_stdout(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--sigma-v", "1", "--sigma-u", "1",
                         "--sigma-eps-values", "0,0.5,1.0")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("sigma_eps,lambda,beta")
        assert len(lines) == 4

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        rc, out, _ = run(capsys, "sweep", "--sigma-v", "1", "--sigma-u", "1",
                         "--sigma-eps-values", "0,1", "--output", str(dest))
        assert rc == 0
        assert dest.read_text().startswith("sigma_eps,lambda")

    def test_missing_values(self, capsys):
        rc, _, err = run(capsys, "sweep", "--sigma-v", "1", "--sigma-u", "1")
        assert rc == 2

    def test_config_driven_sweep(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "market": {"sigma_v": 1.0, "sigma_u": 1.0},
            "sweep": {"sigma_eps_values": [0.0, 2.0], "outputs": ["equilibrium"]},
        }))
        rc, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert rc == 0
        assert len(out.strip().split("\n")) == 3


class TestSimulateCommand:
    def test_all_checks_pass(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1",
                         "--n-paths", "200000", "--seed", "42")
        assert rc == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_large_price_level_passes(self, capsys):
        # the simulator plays v - p0, so a level of 1e16 rounds no value draw away
        rc, out, _ = run(capsys, "simulate", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "0.5",
                         "--p0", "1e16", "--n-paths", "1000000", "--seed", "42")
        assert rc == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_tiny_sigmas_pass_the_regression_checks(self, capsys):
        # the co-moments are ~1e-200, whose square underflows; the residual
        # variance never forms it, so Var(p|v) and the slope ses read true
        _, out, _ = run(capsys, "simulate", "--sigma-v", "1e-100", "--sigma-u", "1e-100", "--sigma-eps", "1e-100",
                        "--n-paths", "10000", "--seed", "42", "--format", "json")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("λ (OLS slope)", "E[p|v] slope", "Var(p|v)"):
            assert checks[name]["pass"], checks[name]

    def test_statistical_failure_exits_three(self, capsys):
        # seed 315 at n=2000 puts one estimate just past 3 se of its target
        rc, out, _ = run(capsys, "simulate", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1",
                         "--n-paths", "2000", "--seed", "315")
        assert rc == 3
        assert "FAIL" in out

    def test_beta_scale_reports_projection_slope(self, capsys):
        params = MarketParams(1.0, 1.0, 1.0)
        predicted = posterior_slope(params, 1.2 * solve_closed_form(params).beta)
        rc, out, _ = run(capsys, "simulate", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1",
                         "--n-paths", "200000", "--seed", "42", "--beta-scale", "1.2", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        slope_check = next(c for c in payload["checks"] if "OLS" in c["name"])
        assert math.isclose(slope_check["expected"], predicted, rel_tol=1e-12)
        assert payload["all_pass"]

    def test_batched_maker_check(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--sigma-v", "1", "--sigma-u", "1", "--batched", "--tau", "4",
                         "--n-paths", "200000", "--seed", "42")
        assert rc == 0
        assert "π_M" in out
        assert out.count("PASS") == 3

    def test_deterministic_given_flags(self, capsys):
        args = ("simulate", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1",
                "--n-paths", "50000", "--seed", "9", "--format", "json")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert (rc1, out1) == (rc2, out2)


class TestReproducePaperCommand:
    def test_bundle(self, capsys, tmp_path):
        outdir = tmp_path / "bundle"
        rc, out, _ = run(capsys, "reproduce-paper", "--outdir", str(outdir))
        assert rc == 0
        assert "verified" in out

        table1 = (outdir / "table1.csv").read_text().strip().split("\n")
        header = table1[0].split(",")
        by = lambda line: dict(zip(header, line.split(",")))
        row = next(by(l) for l in table1[1:] if float(by(l)["sigma_eps"]) == 2.0)
        assert (round(float(row["lambda"]), 3), round(float(row["beta"]), 3), round(float(row["subsidy"]), 3)) \
            == (0.224, 2.236, 0.894)

        sidecar = json.loads((outdir / "figure1.json").read_text())
        assert abs(sidecar["inflection"] - 1.4142135623730951) < 1e-15

        fee = json.loads((outdir / "fee_comparison.json").read_text())
        assert abs(fee["shortfall_pct"] - 6.07) < 0.01

    def test_json_format(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "reproduce-paper", "--outdir", str(tmp_path / "b"), "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["mismatches"] == []

    # one pinned constant of the bundle at a time, set to a value its
    # artifact does not meet, and the artifact its check names
    @pytest.mark.parametrize("name,value,artifact", [
        ("TABLE1_EXPECTED", report.TABLE1_EXPECTED[:-1] + ((5.0, 0.098, 5.099, 2.452),), "table1.csv"),
        ("TABLE2_EXPECTED", ((0.1, 30_000.0, 0.006),) + report.TABLE2_EXPECTED[1:], "table2.csv"),
        ("FIGURE1_MAX_SIGMA_EPS", 4.0, "figure1.csv"),
        ("FEE_COMPARISON_VOLUME_USD", 2e9, "fee_comparison.json"),
        ("FEE_COMPARISON_EXPECTED_SUBSIDY", 2e6, "fee_comparison.json"),
        ("FEE_COMPARISON_SHORTFALL_RANGE", (7.0, 9.0), "fee_comparison.json"),
        # a constant that builds a table, cut short: the row count names it
        ("TABLE1_SIGMA_EPS", report.TABLE1_SIGMA_EPS[:3], "table1.csv"),
        ("BTC_RATIOS", report.BTC_RATIOS[:2], "table2.csv"),
        ("FIGURE1_POINTS", 11, "figure1.csv"),
    ])
    def test_mismatch_exits_three_naming_the_artifact(self, capsys, monkeypatch, tmp_path, name, value, artifact):
        monkeypatch.setattr(report, name, value)
        rc, out, _ = run(capsys, "reproduce-paper", "--outdir", str(tmp_path / "text"))
        assert rc == 3
        mismatches = out.split("MISMATCHES:\n", 1)[1].splitlines()
        assert mismatches and all(line.startswith(f"  {artifact}") for line in mismatches)

        rc, out, _ = run(capsys, "reproduce-paper", "--outdir", str(tmp_path / "json"), "--format", "json")
        assert rc == 3
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["mismatches"] and all(m.startswith(artifact) for m in payload["mismatches"])


MARKET = ("--sigma-v", "1", "--sigma-u", "1")
CONFIGS = {
    "market.json": {"market": 5},
    "sim.json": {"sim": [1]},
    "sweep.json": {"sweep": 3},
    "sweep_values.json": {"sweep": {"sigma_eps_values": 5}},
    "fractional_paths.json": {"sim": {"n_paths": 1000.9, "seed": 3}},
    "fractional_seed.json": {"sim": {"n_paths": 1000, "seed": 3.7}},
    "boolean_sigma.json": {"market": {"sigma_v": True, "sigma_u": 1.0}},
    "outputs_string.json": {"sweep": {"sigma_eps_values": [0, 1], "outputs": "fee"}},
    "huge_sigma.json": {"market": {"sigma_v": 10**400, "sigma_u": 1}},
    "huge_values.json": {"sweep": {"sigma_eps_values": [0, 10**400]}},
    "array.json": [1, 2],
    "typo_market.json": {"market": {"sigma_v": 1, "sigma_u": 1, "sigma_esp": 2}},
    "typo_sim.json": {"sim": {"n_path": 500}},
    "typo_sweep.json": {"sweep": {"sigma_eps_values": [0, 1], "output": ["fee"]}},
    "noisy_market.json": {"market": {"sigma_v": 1, "sigma_u": 1, "sigma_eps": 0.5}},
    "sweep_params_base.json": {"sweep": {"params_base": {}}},
}
# config files that are no JSON text json.load can take
RAW_CONFIGS = {
    "latin1.json": '{"market": {"sigma_v": 1, "sigma_u": 1, "note": "\xe9"}}'.encode("latin-1"),
    "deep.json": b"[" * 200_000 + b"]" * 200_000,
    "long_int.json": b'{"market": {"sigma_v": 1' + b"0" * 5000 + b', "sigma_u": 1}}',
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv,field", [
        (("equilibrium", "--sigma-v", "0", "--sigma-u", "1"), "sigma_v"),
        (("equilibrium", "--sigma-v", "1", "--sigma-u", "nan"), "sigma_u"),
        (("equilibrium", *MARKET, "--p0", "inf"), "p0"),
        (("equilibrium", *MARKET, "--output", "{tmp}/missing/out.json"), "--output"),
        (("decompose", "--sigma-v", "1", "--sigma-u", "0"), "sigma_u"),
        (("decompose", *MARKET, "--sigma-eps", "-1"), "sigma_eps"),
        (("fee", "--sigma-v", "-2", "--sigma-u", "1"), "sigma_v"),
        (("fee", "--config", "{tmp}/missing.json"), "config"),
        (("sweep", *MARKET, "--sigma-eps-values", "1,0"), "sigma_eps_values"),
        (("sweep", *MARKET, "--sigma-eps-values", "0,x"), "sigma-eps-values"),
        (("sweep", *MARKET, "--sigma-eps-values", "0,1", "--outputs", "volatility"), "outputs"),
        (("simulate", *MARKET, "--n-paths", "0"), "n_paths"),
        (("simulate", *MARKET, "--n-paths", "1"), "n_paths"),
        (("simulate", *MARKET, "--n-paths", "50"), "n_paths"),
        (("simulate", *MARKET, "--n-paths", "1000", "--seed", "-1"), "seed"),
        (("simulate", *MARKET, "--n-paths", "1000", "--chunk-size", "0"), "chunk_size"),
        (("simulate", *MARKET, "--n-paths", "1000", "--batched", "--tau", "0"), "tau"),
        (("simulate", *MARKET, "--n-paths", "1", "--batched"), "n_paths"),
        (("simulate", *MARKET, "--n-paths", "1000", "--beta-scale", "-1"), "beta"),
        (("reproduce-paper", "--outdir", "{tmp}/file"), "--outdir"),
        (("equilibrium", "--config", "{tmp}/market.json"), "market"),
        (("simulate", *MARKET, "--n-paths", "1000", "--config", "{tmp}/sim.json"), "sim"),
        (("sweep", *MARKET, "--sigma-eps-values", "0,1", "--config", "{tmp}/sweep.json"), "sweep"),
        (("sweep", *MARKET, "--config", "{tmp}/sweep_values.json"), "sigma_eps_values"),
        (("reproduce-paper", "--config", "{tmp}/file", "--outdir", "{tmp}/bundle"), "--config"),
        (("simulate", *MARKET, "--n-paths", "1000", "--tau", "4"), "--tau"),
        (("simulate", *MARKET, "--n-paths", "1000", "--batched", "--beta-scale", "2"), "--beta-scale"),
        (("PRIVACY_LAB_THREADS=lots", "simulate", *MARKET, "--n-paths", "1000"), "PRIVACY_LAB_THREADS"),
        (("simulate", *MARKET, "--n-paths", "1000", "--beta-scale", "-1e0"), "beta"),
        (("equilibrium", *MARKET, "--p0", "-inf"), "p0"),
        (("simulate", *MARKET, "--config", "{tmp}/fractional_paths.json"), "n_paths"),
        (("simulate", *MARKET, "--config", "{tmp}/fractional_seed.json"), "seed"),
        (("equilibrium", "--config", "{tmp}/boolean_sigma.json"), "sigma_v"),
        (("sweep", *MARKET, "--config", "{tmp}/outputs_string.json"), "outputs"),
        (("reproduce-paper", "--outdir", "{tmp}/bundle", "--format", "csv"), "--format"),
        (("equilibrium", "--config", "{tmp}/huge_sigma.json"), "sigma_v"),
        (("sweep", *MARKET, "--config", "{tmp}/huge_values.json"), "sigma_eps_values"),
        (("equilibrium", "--config", "{tmp}/latin1.json"), "config"),
        (("equilibrium", "--config", "{tmp}/deep.json"), "config"),
        (("equilibrium", "--config", "{tmp}/long_int.json"), "config"),
        (("equilibrium", "--config", "{tmp}/array.json"), "config"),
        (("PRIVACY_LAB_THREADS=-1", "simulate", *MARKET, "--n-paths", "1000"), "PRIVACY_LAB_THREADS"),
        # an unknown key is named, quoted, apart from the valid keys it resembles
        (("equilibrium", "--config", "{tmp}/typo_market.json"), "'sigma_esp'"),
        (("simulate", *MARKET, "--config", "{tmp}/typo_sim.json"), "'n_path'"),
        (("sweep", *MARKET, "--config", "{tmp}/typo_sweep.json"), "'output'"),
        (("simulate", *MARKET, "--sigma-eps", "5", "--batched", "--tau", "4", "--n-paths", "1000"), "--sigma-eps"),
        (("simulate", "--config", "{tmp}/noisy_market.json", "--batched", "--n-paths", "1000"), "--sigma-eps"),
        (("PRIVACY_LAB_THREADS=65", "simulate", *MARKET, "--n-paths", "1000"), "PRIVACY_LAB_THREADS"),
        # the sweep block's keys are SweepSpec's fields after params_base, which is the market block
        (("sweep", *MARKET, "--sigma-eps-values", "0,1", "--config", "{tmp}/sweep_params_base.json"), "'params_base'"),
    ])
    def test_bad_input_exits_two_naming_the_field(self, capsys, monkeypatch, tmp_path, argv, field):
        (tmp_path / "file").write_text("")
        for name, cfg in CONFIGS.items():
            (tmp_path / name).write_text(json.dumps(cfg))
        for name, raw in RAW_CONFIGS.items():
            (tmp_path / name).write_bytes(raw)
        while "=" in argv[0]:  # leading NAME=value words set the environment, as in a shell
            monkeypatch.setenv(*argv[0].split("=", 1))
            argv = argv[1:]
        rc, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert rc == 2
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflowing moments
    @pytest.mark.parametrize("sigmas", [
        ("--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1e160"),
        ("--sigma-v", "1e160", "--sigma-u", "1"),
        ("--sigma-v", "1", "--sigma-u", "1e-160", "--sigma-eps", "1e-160"),
        ("--sigma-v", "1e-200", "--sigma-u", "1e-200"),
        ("--sigma-v", "1", "--sigma-u", "1", "--beta-scale", "1e8"),  # a residual sum of squares below 0
    ])
    def test_extreme_magnitude_simulate_never_tracebacks(self, capsys, sigmas):
        # valid inputs whose sample moments can overflow, or underflow to a
        # regressor without spread: the run reports its checks, failing
        # those whose estimate or se is not finite
        rc, out, err = run(capsys, "simulate", *sigmas, "--n-paths", "1000", "--format", "json")
        assert rc in (0, 3)
        assert "Traceback" not in err
        for check in json.loads(out)["checks"]:
            if not (math.isfinite(check["estimate"]) and math.isfinite(check["se"])):
                assert check["z"] == math.inf and not check["pass"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflowing P&L
    def test_out_of_range_pnl_fails_its_checks_in_both_interpreter_modes(self, capsys):
        # beta*(v - p0) ~ 1e300 takes the P&L products beyond the double range:
        # the zero-sum check leaves those paths to the checks, with or without -O
        argv = ("simulate", "--sigma-v", "1", "--sigma-u", "1", "--beta-scale", "1e300", "--n-paths", "1000")
        rc, out, err = run(capsys, *argv)
        assert rc == 3
        assert "Traceback" not in err
        assert sum(line.endswith("FAIL") for line in out.splitlines()) == 6
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "privacy_lab.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stdout == out

    def test_huge_sigma_eps_sweep_is_finite(self, capsys):
        rc, out, _ = run(capsys, "sweep", *MARKET, "--sigma-eps-values", "0,1e160", "--format", "json")
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert all(math.isfinite(v) for r in rows for k, v in r.items() if k != "note")
        assert math.isclose(rows[1]["subsidy"], 5e159, rel_tol=1e-15)

    @pytest.mark.parametrize("sigmas", [
        ("--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1e308"),
        ("--sigma-v", "1", "--sigma-u", "1e308", "--sigma-eps", "1"),
    ])
    def test_noise_near_the_double_limit_solves(self, capsys, sigmas):
        # 2*hypot(sigma_u, sigma_eps) overflows here, but lam = 5e-309 is a double
        rc, out, err = run(capsys, "equilibrium", *sigmas, "--format", "json")
        assert rc == 0, err
        assert json.loads(out)["closed_form"]["lambda"] == 5e-309

    @pytest.mark.parametrize("value", ["-6.9e-06", "-6.90107641116476e-06", "-1E+2", "-.5"])
    def test_negative_values_in_exponent_form(self, capsys, value):
        rc, out, err = run(capsys, "simulate", *MARKET, "--p0", value, "--n-paths", "1000", "--format", "json")
        assert rc == 0, err
        assert json.loads(out)["market"]["p0"] == float(value)

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_non_numeric_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equilibrium", "--sigma-v", "lots"])
        assert exc.value.code == 2
