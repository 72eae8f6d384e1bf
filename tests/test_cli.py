"""Command line entry points, exit codes, and manifest reproducibility."""

import json
import math

import pytest

from levamp import cli
from levamp.cli import main

R12 = math.sqrt(12.0)


def run_cli(*argv):
    return main(list(argv))


def test_amplified_preset_writes_the_standard_bundle(tmp_path):
    out = tmp_path / "amp"
    rc = run_cli(
        "run", "fig3-amplified", "--trials", "12", "--seed", "7", "--out", str(out)
    )
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["ensemble.csv", "manifest.json", "schedule.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == [
        "code_version", "command", "outputs", "params", "results", "run", "seed",
    ]
    assert manifest["command"] == "run fig3-amplified"
    assert manifest["seed"] == 7
    assert manifest["run"]["n_trials"] == 12
    assert manifest["params"]["p_zp_kev_c"] == pytest.approx(7.92, rel=1e-12)
    assert manifest["outputs"] == ["ensemble.csv", "manifest.json", "schedule.json"]
    header = (out / "ensemble.csv").read_text().splitlines()[0]
    assert header == "trial_index,q_est,p_est,q_true,p_true"
    schedule = json.loads((out / "schedule.json").read_text())
    assert [seg["kind"] for seg in schedule] == [
        "feedback_hold", "soft", "kick", "soft", "readout",
    ]


@pytest.mark.parametrize("preset", cli.PRESETS)
def test_every_preset_records_its_command(preset, tmp_path):
    out = tmp_path / preset
    assert run_cli("run", preset, "--trials", "12", "--seed", "2", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == f"run {preset}"


def test_reruns_and_worker_counts_are_byte_identical(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for path, workers in zip(dirs, ("2", "2", "1")):
        rc = run_cli(
            "run", "fig3-amplified", "--trials", "24", "--seed", "11",
            "--workers", workers, "--out", str(path),
        )
        assert rc == 0
    ref_csv = (dirs[0] / "ensemble.csv").read_bytes()
    ref_manifest = (dirs[0] / "manifest.json").read_bytes()
    for path in dirs[1:]:
        assert (path / "ensemble.csv").read_bytes() == ref_csv
        assert (path / "manifest.json").read_bytes() == ref_manifest


def test_conventional_preset_reads_back_the_kick(tmp_path):
    out = tmp_path / "conv"
    rc = run_cli(
        "run", "fig3-conventional", "--trials", "60", "--seed", "5", "--out", str(out)
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["signal_mean"] == pytest.approx(12.0, abs=1.2)
    schedule = json.loads((out / "schedule.json").read_text())
    assert all(seg["kind"] != "soft" for seg in schedule)


def test_sensitivity_preset_hits_the_expected_band(tmp_path):
    out = tmp_path / "fig5"
    rc = run_cli("run", "fig5-sensitivity", "--seed", "42", "--out", str(out))
    assert rc == 0
    lines = (out / "sensitivity.csv").read_text().strip().splitlines()
    assert lines[0] == "r,sigma_tot,dp_min_zp,dp_min_kev_c,db_vs_ideal,db_vs_pzp"
    assert len(lines) == 4
    last = [float(tok) for tok in lines[3].split(",")]
    assert last[0] == pytest.approx(R12, rel=1e-6)
    assert 5.8 < last[3] < 7.7
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["dp_min_kev_c_r_3.4641"] == pytest.approx(
        last[3], rel=1e-6
    )


def test_sweep_r_orders_displacement_by_gain(tmp_path):
    out = tmp_path / "sweep"
    rc = run_cli(
        "sweep-r", "--trials", "30", "--seed", "3", "--out", str(out)
    )
    assert rc == 0
    lines = (out / "scaling.csv").read_text().strip().splitlines()
    assert lines[0] == "r,tau_s,dq_mean,dq_se"
    assert len(lines) == 4
    dq = [float(line.split(",")[2]) for line in lines[1:]]
    assert dq[0] < dq[1] < dq[2]


def test_sweep_tau_fits_the_slope(tmp_path):
    out = tmp_path / "sweeptau"
    rc = run_cli(
        "sweep-tau", "--r", "2", "--trials", "30", "--seed", "9", "--out", str(out)
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["k_r_2"] == pytest.approx(2.0 * 1.2e7, rel=0.15)
    lines = (out / "scaling.csv").read_text().strip().splitlines()
    assert len(lines) == 6


@pytest.mark.parametrize(
    "argv, key, grid",
    [(("sweep-r", "--tau-ns", "500"), "tau_grid_ns", [500.0]),
     (("sweep-tau", "--r", "2"), "r_grid", [2.0])],
)
def test_sweep_manifests_list_the_grid_that_ran(argv, key, grid, tmp_path):
    out = tmp_path / "sweep"
    assert run_cli(*argv, "--trials", "10", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run"][key] == grid


def test_default_output_directory_is_named_after_the_preset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run_cli("run", "fig3-amplified", "--trials", "12", "--seed", "1")
    assert rc == 0
    assert (tmp_path / "levamp_fig3-amplified" / "manifest.json").exists()


def test_config_file_feeds_the_run(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"n_trials": 14, "eta": 0.5}')
    out = tmp_path / "cfged"
    rc = run_cli(
        "run", "fig3-amplified", "--config", str(cfg), "--seed", "2", "--out", str(out)
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run"]["n_trials"] == 14
    assert manifest["params"]["eta"] == 0.5


def test_unknown_flags_exit_with_usage_error(tmp_path, capsys):
    rc = run_cli("run", "fig3-amplified", "--bogus-flag", "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "bogus-flag" in capsys.readouterr().err


def test_bad_config_exits_with_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"eta": 1.5}')
    rc = run_cli(
        "run", "fig3-amplified", "--config", str(cfg), "--out", str(tmp_path / "x")
    )
    assert rc == 1
    assert "eta must be in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "fig3-amplified", "--trials", "1"),
        ("sweep-tau", "--r", "7"),
        ("run", "no-such-preset"),
        ("sweep-tau", "--r", "nan"),
        ("sweep-r", "--tau-ns", "nan"),
        ("sweep-r", "--tau-ns", "-5"),
        ("run", "fig3-amplified", "--trials", "9"),
        ("run", "fig3-amplified", "--seed", "-1"),
        ("run", "fig3-amplified", "--config", '{"kappa_imp": 1e308, "pulse_voltage_v": 1e10}'),
        # kappa_imp * pulse_voltage_v overflows, so even a 0 ns pulse has no
        # finite kick: the grid check also covers the fixed fig3 pulse.
        ("run", "fig3-amplified", "--config",
         '{"kappa_imp": 1e308, "pulse_voltage_v": 1e10, "tau_grid_ns": [0.0]}'),
        ("sweep-r", "--tau-ns", "1e10", "--config", '{"kappa_imp": 1e300, "pulse_voltage_v": 1e8}'),
        ("run", "fig3-amplified", "--workers", "0"),
        ("run", "fig3-amplified", "--workers", "-4"),
    ],
)
def test_invalid_requests_exit_with_usage_error(argv, tmp_path, capsys):
    """Every fault is a usage error raised before the output directory exists."""
    argv = list(argv)
    if "--config" in argv:
        at = argv.index("--config") + 1
        (tmp_path / "cfg.json").write_text(argv[at])
        argv[at] = str(tmp_path / "cfg.json")
    rc = run_cli(*argv, "--out", str(tmp_path / "y"))
    assert rc == 1
    assert not (tmp_path / "y").exists()
    flag = next((a for a in argv if a.startswith("--")), None)
    if flag is not None:
        key = {"--trials": "n_trials", "--r": "r_grid", "--tau-ns": "tau_grid_ns", "--seed": "seed",
               "--config": "tau_grid_ns", "--workers": "workers"}[flag]
        assert f"config key '{key}'" in capsys.readouterr().err


def test_oversized_readout_exits_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "big.json"
    cfg.write_text('{"readout_periods": 1e9, "dt_per_period": 1000000}')
    rc = run_cli("run", "fig3-amplified", "--config", str(cfg), "--out", str(tmp_path / "y"))
    assert rc == 1
    assert not (tmp_path / "y").exists()
    assert "'readout_periods' and 'dt_per_period'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("run", "selftest"), ("selftest", "--seed", "1")])
def test_selftest_has_one_entry_point_taking_only_a_config(argv, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the selftest ran")

    monkeypatch.setattr(cli.selftest_mod, "run_all", never)
    assert run_cli(*argv) == 1


def test_runtime_value_errors_are_runtime_failures(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("numerical fault")

    monkeypatch.setattr(cli, "run_ensemble", broken)
    rc = run_cli("run", "fig3-amplified", "--trials", "12", "--out", str(tmp_path / "z"))
    assert rc == 2
    assert "runtime failure: numerical fault" in capsys.readouterr().err


def test_blocked_output_path_is_a_runtime_failure(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")
    rc = run_cli(
        "run", "fig3-amplified", "--trials", "12", "--out", str(blocker)
    )
    assert rc == 2
    assert "runtime failure" in capsys.readouterr().err
