"""Command-line front end: parsing, config merge, modes, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from softgrand import cli
from softgrand.channel import ChannelParams, bsc_crossover, capacity_markers
from softgrand.cli import (ConfigError, RunConfig, main, parse_and_validate)
from softgrand.codes import make_rlc
from softgrand.harness import DECODERS, _point_key, _trial_batch, oracle_exact_accounting


class TestFlagParsing:
    def test_full_sweep_invocation(self):
        cfg = parse_and_validate([
            "--mode", "sweep", "--code", "rlc:128:116",
            "--tau", "none,0,1,2", "--ebn0", "0:0.5:8",
            "--trials", "100", "--seed", "7"])
        assert cfg.mode == "sweep"
        assert (cfg.code_kind, cfg.n, cfg.k, cfg.code_seed) == ("rlc", 128, 116, 1)
        assert cfg.taus == (None, 0.0, 1.0, 2.0)
        assert len(cfg.ebn0_points) == 17
        assert cfg.ebn0_points[0] == 0.0 and cfg.ebn0_points[-1] == 8.0
        assert cfg.decoder == "orbgrand"
        assert (cfg.trials, cfg.seed, cfg.workers) == (100, 7, 1)
        assert cfg.out == "." and cfg.trials_csv is False
        assert cfg.code_string() == "rlc:128:116:1"
        assert cfg.tau_string() == "none,0,1,2"

    def test_crc_code_string(self):
        cfg = parse_and_validate(["--mode", "markers",
                                  "--code", "crc:64:52:0xbae"])
        assert (cfg.code_kind, cfg.n, cfg.k, cfg.poly) == ("crc", 64, 52, 0xBAE)
        assert cfg.code_string() == "crc:64:52:0xbae"
        assert cfg.ebn0_points == ()

    def test_ebn0_forms(self):
        single = parse_and_validate(["--mode", "sweep", "--code", "rlc:16:8",
                                     "--ebn0", "3"])
        assert single.ebn0_points == (3.0,)
        commas = parse_and_validate(["--mode", "sweep", "--code", "rlc:16:8",
                                     "--ebn0", "1,2.5,-3"])
        assert commas.ebn0_points == (1.0, 2.5, -3.0)
        ranged = parse_and_validate(["--mode", "sweep", "--code", "rlc:16:8",
                                     "--ebn0", "1:0.25:2"])
        assert ranged.ebn0_points == (1.0, 1.25, 1.5, 1.75, 2.0)

    def test_tau_forms(self):
        cfg = parse_and_validate(["--mode", "sweep", "--code", "rlc:16:8",
                                  "--ebn0", "1", "--tau", "none,0,1.5"])
        assert cfg.taus == (None, 0.0, 1.5)

    def test_decoder_selection(self):
        cfg = parse_and_validate(["--mode", "sweep", "--code", "rlc:16:8",
                                  "--ebn0", "1", "--decoder", "grand"])
        assert cfg.decoder == "grand"

    @pytest.mark.parametrize("argv, fragment", [
        (["--code", "rlc:16:8", "--ebn0", "1"], "--mode is required"),
        (["--mode", "sweep", "--ebn0", "1"], "--code is required"),
        (["--mode", "sweep", "--code", "rlc:16:8"], "--ebn0 is required"),
        (["--mode", "sweep", "--code", "rlc:16"], "rlc code wants"),
        (["--mode", "sweep", "--code", "crc:64:52", "--ebn0", "1"],
         "crc code wants"),
        (["--mode", "sweep", "--code", "crc:64:52:0xzz", "--ebn0", "1"],
         "bad polynomial"),
        (["--mode", "sweep", "--code", "turbo:16:8", "--ebn0", "1"],
         "unknown code kind"),
        (["--mode", "sweep", "--code", "rlc:16:8", "--ebn0", "oops"],
         "bad ebn0"),
        (["--mode", "sweep", "--code", "rlc:16:8", "--ebn0", "5:0:7"],
         "bad ebn0"),
        (["--mode", "sweep", "--code", "rlc:16:8", "--ebn0", "5:1:3"],
         "bad ebn0"),
        (["--mode", "sweep", "--code", "rlc:16:8", "--ebn0", "1",
          "--tau", "hot"], "bad tau"),
        (["--mode", "sweep", "--code", "rlc:16:8", "--ebn0", "1",
          "--trials", "0"], "trials"),
        (["--mode", "sweep", "--code", "rlc:16:8", "--ebn0", "1",
          "--seed", "-3"], "seed"),
        (["--mode", "sweep", "--code", "rlc:16:8", "--ebn0", "1",
          "--workers", "0"], "workers"),
        (["--mode", "fig1", "--code", "rlc:16:8", "--ebn0", "1,2"],
         "exactly one"),
        (["--mode", "oracle", "--code", "rlc:8:4", "--ebn0", "1,2"],
         "exactly one"),
        (["--mode", "fig1", "--code", "rlc:16:8", "--ebn0", "1", "--tau", "2"],
         "tau=none only"),
        (["--mode", "fig1", "--code", "rlc:16:8", "--ebn0", "1", "--tau", "none,0"],
         "tau=none only"),
        (["--mode", "oracle", "--code", "rlc:8:4", "--ebn0", "1", "--tau", "-1.5"],
         "tau=none only"),
        (["--mode", "markers", "--code", "rlc:x:8"], "bad N"),
        (["--mode", "markers", "--code", "crc:16:x:0x5"], "bad K"),
        (["--mode", "markers", "--code", "rlc:16:8:y"], "bad seed"),
        (["--mode", "sweep", "--code", "rlc:16:8:1", "--ebn0", "1", "--tau", "1,1"],
         "distinct labels"),
        (["--mode", "sweep", "--code", "rlc:16:8:1", "--ebn0", "1", "--tau", "none,none"],
         "distinct labels"),
        (["--mode", "sweep", "--code", "rlc:16:8:1", "--ebn0", "1",
          "--tau", "1,1.0000000000001"], "distinct labels"),
    ])
    def test_rejected_invocations(self, argv, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_and_validate(argv)


class TestConfigFile:
    def _write(self, tmp_path, payload):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_config_supplies_everything(self, tmp_path):
        path = self._write(tmp_path, {
            "mode": "sweep", "code": "rlc:16:8:9", "tau": "none,1",
            "ebn0": [1.0, 2.0], "trials": 50, "seed": 3})
        cfg = parse_and_validate(["--config", path])
        assert cfg.code_seed == 9
        assert cfg.taus == (None, 1.0)
        assert cfg.ebn0_points == (1.0, 2.0)
        assert cfg.trials == 50 and cfg.seed == 3

    def test_flags_override_config(self, tmp_path):
        path = self._write(tmp_path, {
            "mode": "sweep", "code": "rlc:16:8", "ebn0": "2", "trials": 50})
        cfg = parse_and_validate(["--config", path, "--trials", "75",
                                  "--ebn0", "4"])
        assert cfg.trials == 75
        assert cfg.ebn0_points == (4.0,)

    def test_unknown_keys_rejected(self, tmp_path):
        path = self._write(tmp_path, {"mode": "markers", "code": "rlc:16:8",
                                      "frobnicate": 1})
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_and_validate(["--config", path])

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_and_validate(["--config", str(p)])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_and_validate(["--config", str(tmp_path / "absent.json")])

    @pytest.mark.parametrize("mode, tau", [("fig1", "1"), ("fig1", 2.5), ("oracle", "none,0")])
    def test_tau_rejected_where_only_none_decodes(self, tmp_path, capsys, mode, tau):
        path = self._write(tmp_path, {"mode": mode, "code": "rlc:8:4", "ebn0": "1",
                                      "tau": tau, "trials": 5})
        assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "tau=none only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tau_none_accepted_in_fig1_and_oracle(self, tmp_path):
        for mode in ("fig1", "oracle"):
            path = self._write(tmp_path, {"mode": mode, "code": "rlc:8:4", "ebn0": "1",
                                          "tau": "none"})
            assert parse_and_validate(["--config", path]).taus == (None,)

    def test_trials_csv_via_config(self, tmp_path):
        path = self._write(tmp_path, {"mode": "sweep", "code": "rlc:16:8",
                                      "ebn0": "1", "trials_csv": True})
        assert parse_and_validate(["--config", path]).trials_csv is True

    @pytest.mark.parametrize("payload, message", [
        ({"trials": 2.5}, "trials must be an integer"),
        ({"workers": True}, "workers must be an integer"),
        ({"trials_csv": "false"}, "trials_csv must be true or false"),
        ({"ebn0": [1, True]}, "ebn0 list items must be numbers"),
        ({"ebn0": []}, "needs at least one ebn0 point"),
        ({"decoder": ["grand"]}, "decoder must be a string"),
        ({"out": None}, "out must be a string"),
        ({"mode": 1}, "mode must be a string"),
        ({"code": 16}, "code must be a string"),
        ({"tau": True}, "tau must be a string or a number"),
        ({"tau": [1, 2]}, "tau must be a string or a number"),
        ({"version": 1}, "version must be a string"),
    ])
    def test_wrong_json_types_exit_2(self, tmp_path, capsys, payload, message):
        path = self._write(tmp_path, {"mode": "sweep", "code": "rlc:16:8:1",
                                      "ebn0": "1", **payload})
        assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, name, extra", [
        ("sweep", "sweep.csv", ["--tau", "none,1", "--ebn0", "2,3", "--trials-csv"]),
        ("fig1", "fig1.csv", ["--ebn0", "-6"]),
    ])
    def test_sidecar_config_replays_the_run(self, tmp_path, capsys, mode, name, extra):
        argv = ["--mode", mode, "--code", "rlc:16:8:4", "--trials", "40", "--seed", "11",
                *extra]
        assert main(argv + ["--out", str(tmp_path / "first")]) == 0
        side = json.loads((tmp_path / "first" / f"{name}.json").read_text())
        assert "version" in side["config"]
        path = self._write(tmp_path, side["config"])
        assert main(["--config", path, "--out", str(tmp_path / "again")]) == 0
        outputs = [name, "trials.csv"] if mode == "sweep" else [name]
        for out in outputs:
            assert ((tmp_path / "first" / out).read_bytes()
                    == (tmp_path / "again" / out).read_bytes())
        capsys.readouterr()

    @pytest.mark.parametrize("mode", ["fig1", "oracle", "markers"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_trials_csv_only_in_sweep_mode(self, tmp_path, capsys, mode, via_config):
        keys = {"mode": mode, "code": "rlc:8:4:3", "ebn0": "1", "trials": 5}
        if via_config:
            argv = ["--config", self._write(tmp_path, {**keys, "trials_csv": True})]
        else:
            argv = [arg for key, v in keys.items() for arg in (f"--{key}", str(v))]
            argv.append("--trials-csv")
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "--trials-csv is for mode sweep only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMainExitCodes:
    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_config_errors_exit_2(self, capsys):
        assert main(["--mode", "sweep", "--code", "rlc:16:8"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_argparse_rejections_exit_2(self):
        with pytest.raises(SystemExit) as e:
            main(["--mode", "bogus", "--code", "rlc:16:8", "--ebn0", "1"])
        assert e.value.code == 2

    def test_unbuildable_code_exits_2(self, capsys):
        # polynomial width must equal the redundancy: 0x5 spans 3 bits, not 12
        assert main(["--mode", "markers", "--code", "crc:64:52:0x5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_improbable_rlc_shape_exits_2(self, capsys):
        # k = 1 needs the one column of A to be all ones over 63 rows, which
        # no bounded number of random draws finds.
        assert main(["--mode", "markers", "--code", "rlc:64:1:1"]) == 2
        assert "could not draw an A matrix" in capsys.readouterr().err

    def test_statistical_guard_exits_3(self, capsys):
        assert main(["--mode", "fig1", "--code", "rlc:16:8:4",
                     "--ebn0", "12", "--trials", "5"]) == 3
        assert "guard failure" in capsys.readouterr().err


class TestUnusableOut:
    """An --out that cannot be a directory exits 2 before anything decodes."""

    @pytest.mark.parametrize("mode", ["sweep", "fig1"])
    @pytest.mark.parametrize("under_file", [False, True])
    def test_exits_2_before_decoding(self, mode, under_file, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("decoded for an unusable --out")

        monkeypatch.setattr(cli, "run_sweep", never)
        monkeypatch.setattr(cli, "collect_error_query_distribution", never)
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "sub" if under_file else blocker
        assert main(["--mode", mode, "--code", "rlc:16:8:4", "--ebn0", "3",
                     "--trials", "5", "--out", str(out)]) == 2
        assert "cannot use --out" in capsys.readouterr().err
        assert blocker.read_text() == "kept"


class TestGrandAtHighEbn0:
    """Where the BSC crossover underflows to 0, --decoder grand still decodes."""

    def test_sweep_at_40_db(self, tmp_path, capsys):
        assert main(["--mode", "sweep", "--code", "rlc:16:8:1", "--ebn0", "40",
                     "--decoder", "grand", "--trials", "5", "--out", str(tmp_path),
                     "--trials-csv"]) == 0
        assert bsc_crossover(ChannelParams(ebn0_db=40.0, rate=0.5)) == 0.0
        rows = (tmp_path / "trials.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3:6] for row in rows] == [["correct", "1", "8"]] * 5
        capsys.readouterr()

    def test_oracle_at_60_db(self, capsys):
        assert main(["--mode", "oracle", "--code", "rlc:8:4:3", "--ebn0", "60",
                     "--decoder", "grand"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestRejectedValues:
    """Non-finite thresholds or Eb/N0 and over-wide codes exit 2, no numbers."""

    SWEEP = ["--mode", "sweep", "--code", "rlc:16:8", "--trials", "5"]

    @pytest.mark.parametrize("extra", [
        ["--ebn0", "3", "--tau", "nan"],
        ["--ebn0", "3", "--tau", "inf"],
        ["--ebn0", "3", "--tau=-inf"],
        ["--ebn0", "3", "--tau", "none,0,nan"],
        ["--ebn0", "nan"],
        ["--ebn0=-inf"],
        ["--ebn0", "3,nan,4"],
        ["--ebn0", "nan:1:3"],
        ["--ebn0", "0:1:inf"],
        ["--ebn0", "0:nan:3"],
        ["--ebn0", "0:inf:3"],
    ])
    def test_non_finite_flags(self, extra, tmp_path, capsys):
        assert main(self.SWEEP + extra + ["--out", str(tmp_path)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("extra", [
        ["--ebn0", "4000"],
        ["--ebn0", "3080"],
        ["--ebn0=-3080"],
        ["--ebn0", "1,300.5"],
        ["--ebn0", "290:5:400"],
        ["--ebn0", "290:10.000000001:300"],  # last point rounds past 300
    ])
    def test_out_of_range_ebn0(self, extra, tmp_path, capsys):
        assert main(self.SWEEP + extra + ["--out", str(tmp_path)]) == 2
        assert "must lie within" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("payload", [
        {"tau": "0,inf", "ebn0": "3"},
        {"tau": float("nan"), "ebn0": "3"},
        {"ebn0": [3.0, float("nan")]},
        {"ebn0": float("inf")},
        {"ebn0": "1:0.5:nan"},
    ])
    def test_non_finite_config_values(self, payload, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(mode="sweep", code="rlc:16:8", **payload)))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("ebn0, count", [
        ("1:1e-300:2", "1e+300"),  # built whole, this range never ended
        ("1:1e-7:2", "1e+07"),
        ("0:0.01:100", "10001"),
    ])
    def test_too_many_ebn0_points(self, ebn0, count, tmp_path, capsys):
        assert main(self.SWEEP + ["--ebn0", ebn0, "--out", str(tmp_path)]) == 2
        assert f"has {count} points, more than 10000" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_ebn0_range_at_the_point_limit(self):
        cfg = parse_and_validate(self.SWEEP + ["--ebn0", "0:0.01:99.99"])
        assert len(cfg.ebn0_points) == 10_000

    def test_none_is_the_only_never_abandon(self):
        cfg = parse_and_validate(self.SWEEP + ["--ebn0", "3", "--tau", "None,1e300"])
        assert cfg.taus == (None, 1e300)

    @pytest.mark.parametrize("mode", ["sweep", "fig1"])
    def test_redundancy_beyond_packed_words(self, mode, capsys):
        assert main(["--mode", mode, "--code", "rlc:128:60:1", "--ebn0", "8",
                     "--trials", "5"]) == 2
        assert "n-k <= 63" in capsys.readouterr().err

    def test_markers_accept_any_redundancy(self):
        assert main(["--mode", "markers", "--code", "rlc:128:60:1"]) == 0


class TestMarkersMode:
    def test_prints_both_thresholds(self, capsys):
        assert main(["--mode", "markers", "--code", "rlc:128:116"]) == 0
        out = capsys.readouterr().out
        markers = capacity_markers(116 / 128)
        assert f"{markers['shannon_ebn0_db']:.6f}" in out
        assert f"{markers['mincap_ebn0_db']:.6f}" in out
        assert "rate = 116/128" in out


class TestOracleMode:
    def test_small_code_passes(self, capsys):
        assert main(["--mode", "oracle", "--code", "rlc:8:4:3",
                     "--ebn0", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("decoder", ["orbgrand", "grand"])
    def test_checks_a_sweep_trial_under_its_decoders_ledger(self, decoder, capsys,
                                                            monkeypatch):
        seen = []

        def spy(code, obs, order_kind):
            seen.append((obs, order_kind))
            return oracle_exact_accounting(code, obs, order_kind)

        monkeypatch.setattr(cli, "oracle_exact_accounting", spy)
        assert main(["--mode", "oracle", "--code", "rlc:8:4:3", "--ebn0", "2",
                     "--seed", "7", "--decoder", decoder]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        code = make_rlc(8, 4, 3)
        params = ChannelParams(ebn0_db=2.0, rate=code.rate)
        _, (hard, reliab) = _trial_batch(code, params, 7, _point_key(2.0), 0, 1)
        ((obs, order_kind),) = seen
        assert order_kind == DECODERS[decoder][0]
        assert np.array_equal(obs.hard, hard[0])
        if decoder == "orbgrand":
            assert np.array_equal(obs.reliab, reliab[0])
        else:
            p = bsc_crossover(params)
            np.testing.assert_allclose(obs.reliab, math.log((1 - p) / p), rtol=1e-14)

    def test_large_code_rejected(self, capsys):
        assert main(["--mode", "oracle", "--code", "rlc:16:8",
                     "--ebn0", "2"]) == 2
        assert "n <= 12" in capsys.readouterr().err


class TestSweepMode:
    def test_end_to_end_files(self, tmp_path, capsys):
        argv = ["--mode", "sweep", "--code", "rlc:16:8:4", "--tau", "none,2",
                "--ebn0", "3", "--trials", "50", "--seed", "11",
                "--out", str(tmp_path / "run1"), "--trials-csv"]
        assert main(argv) == 0
        sweep = tmp_path / "run1" / "sweep.csv"
        lines = sweep.read_text().splitlines()
        assert lines[0].startswith("policy,ebn0_db,trials")
        assert len(lines) == 3  # header + one row per policy
        assert {row.split(",")[0] for row in lines[1:]} == {"tau=none", "tau=2"}

        side = json.loads((tmp_path / "run1" / "sweep.csv.json").read_text())
        assert side["config"]["code"] == "rlc:16:8:4"
        assert side["config"]["trials"] == 50
        assert side["config"]["mode"] == "sweep"
        assert "version" in side["config"]
        assert set(side["markers"]) == {"shannon_ebn0_db", "mincap_ebn0_db"}
        assert len(side["parity_check_sha256"]) == 64
        assert side["numpy"] == np.__version__

        trials = (tmp_path / "run1" / "trials.csv").read_text().splitlines()
        assert trials[0].startswith("policy,ebn0_db,trial")
        assert len(trials) == 1 + 2 * 50

        # identical invocation reproduces the files byte for byte
        argv2 = argv[:]
        argv2[argv.index(str(tmp_path / "run1"))] = str(tmp_path / "run2")
        assert main(argv2) == 0
        assert sweep.read_bytes() == (tmp_path / "run2" / "sweep.csv").read_bytes()
        capsys.readouterr()


    def test_confidence_only_for_trials_csv(self, tmp_path, monkeypatch, capsys):
        asked = []
        sweep = cli.run_sweep

        def spy(*args, **kwargs):
            asked.append(kwargs["confidence"])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "run_sweep", spy)
        argv = ["--mode", "sweep", "--code", "rlc:16:8:4", "--tau", "none,2",
                "--ebn0", "1", "--trials", "50", "--seed", "11"]
        assert main(argv + ["--out", str(tmp_path / "full"), "--trials-csv"]) == 0
        assert main(argv + ["--out", str(tmp_path / "lean")]) == 0
        assert asked == [True, False]
        assert ((tmp_path / "full" / "sweep.csv").read_bytes()
                == (tmp_path / "lean" / "sweep.csv").read_bytes())
        assert not (tmp_path / "lean" / "trials.csv").exists()
        capsys.readouterr()


class TestFig1Mode:
    def test_end_to_end_files(self, tmp_path, capsys):
        assert main(["--mode", "fig1", "--code", "rlc:16:8:4",
                     "--ebn0", "-6", "--trials", "60", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fig1.csv").read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,sample_mean"
        total = 0
        for row in lines[1:]:
            lo, hi, count, mean = row.split(",")
            assert int(hi) == 2 * int(lo)
            total += int(count)
            float(mean)
        assert total == 60
        side = json.loads((tmp_path / "fig1.csv.json").read_text())
        fig1 = side["fig1"]
        assert fig1["samples"] == 60
        assert fig1["model_mean"] == 256.0
        assert fig1["trials"] >= 60
        assert 0 < fig1["ks_distance_vs_geometric"] < 1
        out = capsys.readouterr().out
        assert "incorrect decodings" in out


class TestRunConfigEcho:
    def test_echo_is_json_ready(self):
        cfg = RunConfig(mode="sweep", code_kind="crc", n=64, k=52, code_seed=0,
                        poly=0xBAE, decoder="grand", taus=(None, 2.0),
                        ebn0_points=(1.0,), trials=10, seed=0, workers=1,
                        out=".", trials_csv=False)
        echo = cfg.echo()
        assert echo["code"] == "crc:64:52:0xbae"
        assert echo["tau"] == "none,2"
        assert echo["decoder"] == "grand"
        json.dumps(echo)  # serializable as-is


# Imports the CLI in a fresh interpreter, then blocks scipy and runs each
# mode that builds capacity markers or flip probabilities.
NO_SCIPY_SCRIPT = """
import sys
import softgrand.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
sys.modules["scipy"] = None
out = sys.argv[1]
for argv in (
    ["--mode", "sweep", "--code", "rlc:16:8:4", "--tau", "none,2", "--ebn0", "3",
     "--trials", "20", "--trials-csv", "--out", out + "/sweep"],
    ["--mode", "fig1", "--code", "rlc:16:8:4", "--ebn0", "-6", "--trials", "10",
     "--out", out + "/fig1"],
    ["--mode", "sweep", "--decoder", "grand", "--code", "rlc:16:8:4", "--ebn0", "3",
     "--trials", "20", "--out", out + "/grand"],
    ["--mode", "oracle", "--code", "rlc:8:4:3", "--ebn0", "2"],
):
    assert softgrand.cli.main(argv) == 0, argv
"""


def test_runs_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    got = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
