"""Command-line front end tests: artifact writing, overrides,
determinism, and the printed rate/validation reports."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddls.cli import build_parser, main
from ddls.codec import codebook_from_json
from ddls.core import ChargeCode
from ddls.errors import ConfigurationError
from ddls.simkit import ScenarioConfig, compare, load_scenario, save_scenario

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "desk_day.json"


def tiny_config(**overrides):
    base = dict(
        seed=7,
        interval_s=900.0,
        horizon_epochs=10,
        codebook=(ChargeCode(1, (2.0,)), ChargeCode(2, (1.0, 1.0))),
        arrival_rates_per_hour=4.0,
        zic_kw=4.0,
        price_up=1.0,
        price_dn=1.0,
        delay_prices=0.05,
        lookahead=4,
        deadline_epochs=4,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def write_config(tmp_path, name="scenario.json", **overrides):
    path = tmp_path / name
    save_scenario(tiny_config(**overrides), path)
    return path


def parsed_stdout(capsys) -> dict:
    pairs = {}
    for line in capsys.readouterr().out.splitlines():
        parts = line.split()
        if len(parts) == 2:
            pairs[parts[0]] = parts[1]
    return pairs


class TestParsing:
    def test_help_documents_every_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--out", "--seed", "--strategy",
                     "--schedulers", "--lookahead"):
            assert flag in out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([])
        assert err.value.code != 0

    def test_config_flag_required(self):
        with pytest.raises(SystemExit) as err:
            main(["run"])
        assert err.value.code != 0


class TestRun:
    def test_writes_artifacts_and_reports(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--out", str(out)])
        assert rc == 0
        for name in ("metrics.csv", "trajectory.csv", "feedback.csv"):
            assert (out / name).exists()
        report = parsed_stdout(capsys)
        assert report["strategy"] == "ddls"
        assert float(report["total_cost"]) >= 0.0
        assert int(report["served"]) > 0

    def test_missing_config_file_fails_with_diagnostic(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_json_fails_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_same_seed_gives_byte_identical_csvs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
        for name in ("metrics.csv", "trajectory.csv", "feedback.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_the_draw(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out1),
                     "--seed", "1"]) == 0
        assert main(["run", "--config", str(config), "--out", str(out2),
                     "--seed", "2"]) == 0
        assert (out1 / "metrics.csv").read_text() != (out2 / "metrics.csv").read_text()

    def test_strategy_override(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--out", str(out),
                   "--strategy", "uncontrolled"])
        assert rc == 0
        first_row = (out / "metrics.csv").read_text().splitlines()[1]
        assert first_row.startswith("uncontrolled,")

    def test_capacity_cap_that_breaks_the_deadline_fails_the_run(self, tmp_path, capsys):
        config = write_config(tmp_path, capacity_cap=0)
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "4-epoch deadline (capacity cap 0" in capsys.readouterr().err

    def test_desk_trajectories_never_print_negative_zero(self, tmp_path):
        # where the load meets the supply exactly, max(-(flex - zic), 0.0)
        # is -0.0, which %.9g prints as "-0"; dn must come out as 0
        for result in compare(load_scenario(DESK_CONFIG)):
            path = tmp_path / f"{result.metrics.strategy}.csv"
            result.trajectory.to_csv(path)
            text = path.read_text()
            assert not re.search(r"(^|,)-0(,|$)", text, re.M), result.metrics.strategy


class TestCompare:
    def test_writes_summary_for_all_strategies(self, tmp_path, capsys):
        config = write_config(tmp_path, n_schedulers=2)
        out = tmp_path / "out"
        rc = main(["compare", "--config", str(config), "--out", str(out)])
        assert rc == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("strategy,total_cost,cost_savings_vs_uncontrolled")
        assert (out / "metrics.csv").exists()
        assert "strategy" in capsys.readouterr().out

    def test_strategy_subset(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["compare", "--config", str(config), "--out", str(out),
                   "--strategies", "uncontrolled,ddls"])
        assert rc == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        uncontrolled = lines[1].split(",")
        assert uncontrolled[0] == "uncontrolled"
        assert float(uncontrolled[2]) == 0.0

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = main(["compare", "--config", str(config), "--out", str(tmp_path / "o"),
                   "--strategies", "magic"])
        assert rc == 1
        assert "unknown strategies" in capsys.readouterr().err

    @pytest.mark.parametrize("strategies", ["ddls,ddls", "ddls,price", "uncontrolled,ddls,ddls",
                                            "uncontrolled,uncontrolled"])
    def test_repeated_or_baseline_less_strategies_rejected(self, strategies, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        rc = main(["compare", "--config", str(config), "--out", str(out),
                   "--strategies", strategies])
        assert rc == 1
        captured = capsys.readouterr()
        assert "--strategies" in captured.err and strategies in captured.err
        assert not captured.out
        assert not out.exists()


class TestCodebook:
    def test_exports_json_and_prints_table(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["codebook", "--config", str(config), "--out", str(out)])
        assert rc == 0
        quantizer = codebook_from_json(out / "codebook.json")
        assert quantizer.n_codes == 2
        assert "id rate_kw duration_epochs" in capsys.readouterr().out


class TestRates:
    def test_reproduces_hand_computed_budget(self, tmp_path, capsys):
        # 32 codes at 1.5 arrivals/hour each and 15-minute epochs give 12
        # expected arrivals per interval; with a 16-slot arrival window the
        # per-home rate is 12 * log2(16 * 32) / 900 = 0.12 bit/s.
        codebook = tuple(ChargeCode(i, (1.0,)) for i in range(1, 33))
        config = write_config(
            tmp_path,
            codebook=codebook,
            arrival_rates_per_hour=1.5,
            delay_prices=0.05,
            deadline_epochs=4,
            lookahead=4,
        )
        rc = main(["rates", "--config", str(config), "--out", str(tmp_path / "o"),
                   "--window", "16"])
        assert rc == 0
        report = parsed_stdout(capsys)
        assert float(report["arrivals_per_interval"]) == pytest.approx(12.0)
        assert float(report["uplink_hems_bit_per_s"]) == pytest.approx(0.12, rel=1e-6)
        expected_cems = 16.0 * math.log2(2.0 * math.pi * math.e * 12.0)
        assert float(report["uplink_cems_bits_per_interval"]) == pytest.approx(
            expected_cems, rel=1e-6)
        assert float(report["feedback_bit_per_s"]) >= 0.0

    def test_single_code_window_one_needs_no_bits(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            codebook=(ChargeCode(1, (1.0,)),),
            deadline_epochs=4,
        )
        rc = main(["rates", "--config", str(config), "--out", str(tmp_path / "o"),
                   "--window", "1"])
        assert rc == 0
        assert float(parsed_stdout(capsys)["uplink_hems_bit_per_s"]) == 0.0

    def test_rate_is_linear_in_arrival_intensity(self, tmp_path, capsys):
        low = write_config(tmp_path, "low.json", arrival_rates_per_hour=2.0)
        high = write_config(tmp_path, "high.json", arrival_rates_per_hour=4.0)
        assert main(["rates", "--config", str(low), "--out", str(tmp_path / "o")]) == 0
        low_rate = float(parsed_stdout(capsys)["uplink_hems_bit_per_s"])
        assert main(["rates", "--config", str(high), "--out", str(tmp_path / "o")]) == 0
        high_rate = float(parsed_stdout(capsys)["uplink_hems_bit_per_s"])
        assert high_rate == pytest.approx(2.0 * low_rate, rel=1e-6)


    @pytest.mark.parametrize("flag, value", [
        ("--cutoff-variance", "nan"), ("--cutoff-variance", "inf"),
        ("--cutoff-correlation", "nan"),
    ])
    def test_non_finite_cutoff_statistics_fail(self, tmp_path, capsys, flag, value):
        config = write_config(tmp_path)
        rc = main(["rates", "--config", str(config), "--out", str(tmp_path / "o"), flag, value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {flag} must be finite, got {value}\n"
        assert "feedback_bit_per_s" not in captured.out


class TestValidate:
    def test_valid_config_prints_ok(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = main(["validate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_short_deadline_reported(self, tmp_path, capsys):
        raw = tiny_config().to_dict()
        raw["deadline_epochs"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "deadline" in capsys.readouterr().err

    def test_negative_price_reported(self, tmp_path, capsys):
        raw = tiny_config().to_dict()
        raw["price_up"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "price" in capsys.readouterr().err

    def test_override_is_validated_too(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = main(["validate", "--config", str(config), "--out", str(tmp_path / "o"),
                   "--lookahead", "1"])
        assert rc == 1
        assert "lookahead" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1]", '"abc"', "5"])
    def test_non_object_scenario_reported(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: a scenario must be a JSON object, not ")

    def test_config_that_is_not_utf8_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path} is not valid JSON: ")

    def test_directory_config_reported(self, tmp_path, capsys):
        rc = main(["validate", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("key, value", [
        ("zic_kw", [4.0] * 5 + [math.nan] + [4.0] * 4),
        ("price_up", math.inf),
        ("delay_prices", [0.05, math.nan]),
        ("seed", -1),
        ("arrival_rates_per_hour", [4.0, math.nan]),
        ("interval_s", math.nan),
        ("capacity_cap", -1),
        ("zic_kw", "abc"),
        ("arrival_rates_per_hour", "x"),
        ("delay_prices", [0.1, "a"]),
        ("capacity_cap", "5"),
        ("interval_s", "900"),
        ("capacity_cap", True),
    ])
    def test_bad_values_rejected_at_load(self, key, value, tmp_path, capsys):
        raw = tiny_config().to_dict()
        raw[key] = value
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("horizon_epochs", 10.0),
        ("lookahead", 4.5),
        ("deadline_epochs", 4.5),
        ("n_schedulers", 2.5),
        ("start_lag", 1.0),
        ("start_lag", True),
    ])
    def test_non_integer_structural_fields_rejected_at_load(self, key, value, tmp_path,
                                                             capsys):
        raw = tiny_config().to_dict()
        raw[key] = value
        with pytest.raises(ConfigurationError, match=key):
            ScenarioConfig.from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"{key} must be an integer" in capsys.readouterr().err


# SHA-256 of every CSV ``ddls run`` writes for desk seed 0.  A change that
# moves a schedule on purpose records new digests and says why.
DESK_SEED0_DIGESTS = {
    "uncontrolled/metrics.csv":
        "c50339ee8305deed8c8b35b2d799ecf4eb7a98257bf4b693396b9b7812d96153",
    "uncontrolled/trajectory.csv":
        "ef74b06b6524fe7a735d7d7cb3c5bf37bc3da0c6bb47bbb4f189b02b501bcce7",
    "uncontrolled/feedback.csv":
        "7d06934976c000d36d550898cbc758464e7678ad95ea5580186debcece125bb9",
    "ddls/metrics.csv":
        "02debc3f7e489d4cb5c173b7323d315b6561d2173aed8fb4b92afcc34e0f933c",
    "ddls/trajectory.csv":
        "5fc2b7406b7d7f93315358d674a37d57716e21f6d0ee733d7cfcaebcec1491a2",
    "ddls/feedback.csv":
        "0496479f130d33b8547e7e4e8392a45dc865d561b920478417fb90f1889fd4e9",
    "distributed/metrics.csv":
        "721cb3afd47d456c1ddbb9c1c651e0da08e51e30e624d5b78f984005f151b99a",
    "distributed/trajectory.csv":
        "136c6e83b4ebb4e1641b4707b98bd3b6f8747a8750ec454caa1d9e60aaea9ac3",
    "distributed/feedback.csv":
        "f11fd4414c4a739405d76dbca09bf7db60e528dfe1683eb436484c559725ed60",
    "price/metrics.csv":
        "08ee3394c0501b89adc7727a557937753efcc08088d24b32f1f909e29bff2772",
    "price/trajectory.csv":
        "f88cefe4ae0c547e271952413a5220a23cc8600eab5568ee922921edcecec164",
    "price/feedback.csv":
        "6b7fe0146bed2c99cd87cb25b03c3757718e5fcbf82191f7680ad19402edff30",
}


@pytest.mark.parametrize("strategy", ["uncontrolled", "ddls", "distributed", "price"])
def test_desk_day_csvs_match_their_recorded_digests(strategy, tmp_path, capsys):
    out = tmp_path / strategy
    assert main(["run", "--config", str(DESK_CONFIG), "--seed", "0",
                 "--strategy", strategy, "--out", str(out)]) == 0
    for name in ("metrics.csv", "trajectory.csv", "feedback.csv"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == DESK_SEED0_DIGESTS[f"{strategy}/{name}"], name


# Runs in a fresh interpreter: every command that solves no LP leaves
# scipy.optimize and scipy.sparse unloaded; a ddls and a distributed day then
# load only the HiGHS binding (its extension module and the submodules it
# registers), never call linprog and answer every window warm.
_SCIPY_ON_DEMAND = """
import sys
from ddls import cli, lp, scheduler

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "optimize"],
                                                                   ["scipy", "sparse"]))

assert not loaded(), loaded()
for command in (["validate"], ["codebook"], ["rates"], ["run", "--strategy", "uncontrolled"],
                ["run", "--strategy", "price"]):
    assert cli.main([*command, "--config", CONFIG, "--out", OUT]) == 0, command
    assert not loaded(), (command, loaded())

calls, models = [], []
linprog = lp._solve_linprog
lp._solve_linprog = lambda program: calls.append(1) or linprog(program)

class NotedModel(lp.Model):
    def __init__(self, template):
        super().__init__(template)
        models.append(self)

scheduler.Model = NotedModel
for strategy in ("ddls", "distributed"):
    assert cli.main(["run", "--strategy", strategy, "--config", CONFIG, "--out", OUT]) == 0
    # the binding's submodules (``_core.cb``, ...) enter sys.modules; the binding does not
    others = [m for m in loaded() if m.split(".")[:4] != ["scipy", "optimize", "_highspy", "_core"]]
    assert lp._CORE not in loaded() and not others, (strategy, loaded())
assert lp._load_highs() is not None
assert len(models) == 1 + 8 and not calls, (len(models), len(calls))
assert all(m.cold_retries == 0 for m in models)

import scipy.optimize._highspy as h
from scipy.optimize._highspy import _core
assert h._core is lp._load_highs() and _core is lp._load_highs()
"""


def test_commands_that_solve_nothing_never_load_scipy_optimize(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = f"CONFIG, OUT = {str(DESK_CONFIG)!r}, {str(tmp_path)!r}\n" + _SCIPY_ON_DEMAND
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-2000:]



# Runs a desk distributed day in a grandchild and prints the grandchild's
# peak RSS: a child exec'd from a large process inherits that process's peak,
# so the measuring process in between must stay small.
_PEAK_OF_A_DISTRIBUTED_DAY = """
import resource, subprocess, sys
day = ("from ddls import cli; "
       f"cli.main(['run', '--strategy', 'distributed', '--config', {CONFIG!r}, '--out', {OUT!r}])")
subprocess.run([sys.executable, "-c", day], check=True, capture_output=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_a_desk_distributed_day_peaks_under_64_mb(tmp_path):
    """numpy and the HiGHS binding, not scipy.optimize and scipy.sparse."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = (f"CONFIG, OUT = {str(DESK_CONFIG)!r}, {str(tmp_path)!r}\n"
              + _PEAK_OF_A_DISTRIBUTED_DAY)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) / 1024 < 64  # ru_maxrss is in KiB on Linux