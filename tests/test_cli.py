import argparse
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dynphase
from dynphase import cli, exceptions
from dynphase.cli import main
from dynphase.serialization import dump_json, load_json, vector_to_json


def gen_instance(tmp_path, kind="harmonic", d=4, L=6, seed=0, extra=()):
    path = tmp_path / f"{kind}-{d}-{L}-{seed}.json"
    code = main(["gen", kind, str(d), str(L), "--seed", str(seed), "--output", str(path), *extra])
    assert code == 0
    return path


class TestGen:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "random-diag", "3", "5", "--seed", "7", "--output", str(a)]) == 0
        assert main(["gen", "random-diag", "3", "5", "--seed", "7", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_kinds_generate(self, tmp_path):
        for kind, d in [
            ("random-diag", 3),
            ("jordan", 4),
            ("circulant", 3),
            ("harmonic", 4),
            ("rotation", 2),
        ]:
            path = gen_instance(tmp_path, kind, d, d + 2)
            obj = load_json(path)
            assert "frame" in obj and "x" in obj and "config" in obj

    def test_rotation_requires_dim_two(self, tmp_path):
        assert main(["gen", "rotation", "3", "5", "--output", str(tmp_path / "r.json")]) == 2

    def test_malformed_angles_exit_code(self):
        assert main(["gen", "harmonic", "4", "6", "--angles", "0.1"]) == 2

    def test_real_mode_angles_checked_before_writing(self, tmp_path, capsys):
        path = tmp_path / "tilted.json"
        args = ["gen", "rotation", "2", "4", "--real", "--output", str(path)]
        assert main([*args, "--angles", "0.3,1.5"]) == 2
        assert "real mode needs alpha1 to be a multiple of pi" in capsys.readouterr().err
        assert not path.exists()
        # alpha1 = pi is on the real line: sign -1
        assert main([*args, "--angles", "3.141592653589793,1.5"]) == 0
        assert main(["verify", str(path)]) == 0


class TestAnalyze:
    def test_harmonic_full_spark(self, tmp_path, capsys):
        instance = gen_instance(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["analyze", str(instance), "--output", str(report_path)])
        assert code == 0
        report = load_json(report_path)
        assert report["outcome"]["is_frame"] is True
        assert report["outcome"]["spark"]["full_spark"] is True
        assert report["wall_time_ms"] is None

    def test_repeated_eigenvalue_not_a_frame(self, tmp_path):
        instance = {
            "frame": {
                "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "phi": [[1.0, 0.0], [1.0, 0.0]],
                "L": 4,
            },
            "config": {"angles": [0.0, 1.5707963267948966]},
        }
        path = tmp_path / "identity.json"
        dump_json(instance, path)
        report_path = tmp_path / "report.json"
        assert main(["analyze", str(path), "--no-spark", "--output", str(report_path)]) == 0
        assert load_json(report_path)["outcome"]["is_frame"] is False

    def test_budget_exceeded_exit_code(self, tmp_path):
        # a dense operator: its C(12,4) minors must be enumerated
        instance = gen_instance(tmp_path, "random-diag", 4, 12)
        assert main(["analyze", str(instance), "--budget", "3"]) == 3

    def test_structural_certificate_ignores_budget(self, tmp_path):
        instance = gen_instance(tmp_path, "harmonic", 4, 12)
        report_path = tmp_path / "report.json"
        code = main(["analyze", str(instance), "--budget", "3", "--output", str(report_path)])
        assert code == 0
        spark = load_json(report_path)["outcome"]["spark"]
        assert spark == {"full_spark": True, "witness": None, "min_abs_det": None}

    def test_malformed_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["analyze", str(bad)]) == 2

    def test_empty_harmonic_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        dump_json({"frame": {"harmonic": {"d": 0, "L": 0}}}, path)
        assert main(["analyze", str(path)]) == 2
        assert "frame.harmonic: dim must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_overflowing_orbit_exit_code(self, tmp_path, capsys, command):
        # diag(1e200, 1): column 2 overflows; analyze must not report bounds=(nan, nan)
        instance = {
            "frame": {
                "A": [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "phi": [[1.0, 0.0], [1.0, 0.0]],
                "L": 3,
            },
        }
        path = tmp_path / "overflow.json"
        dump_json(instance, path)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, str(path)]) == 2
        assert "frame: orbit column A^2 phi is not finite" in capsys.readouterr().err

    def test_failing_witness_in_text_output(self, tmp_path, capsys):
        # diag(1, -1) from the ones vector: columns 0 and 2 coincide
        instance = {
            "frame": {
                "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                "phi": [[1.0, 0.0], [1.0, 0.0]],
                "L": 3,
            },
        }
        path = tmp_path / "flip.json"
        dump_json(instance, path)
        assert main(["analyze", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "dim=2 length=3"
        assert lines[-1] == "full_spark=False witness=[0, 2]"


class TestMeasureRecover:
    def test_round_trip(self, tmp_path):
        instance = gen_instance(tmp_path, "random-diag", 4, 7, seed=3)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance), "--output", str(ms_path)]) == 0
        report_path = tmp_path / "rec.json"
        est_path = tmp_path / "est.json"
        code = main(
            [
                "recover",
                str(ms_path),
                str(instance),
                "--output",
                str(report_path),
                "--estimate",
                str(est_path),
            ]
        )
        assert code == 0
        report = load_json(report_path)
        assert report["outcome"]["recovery_status"] == "Recovered"
        assert report["outcome"]["global_phase_error"] <= 1e-7
        estimate = load_json(est_path)
        assert estimate["status"] == "Recovered"
        assert len(estimate["estimate"]) == 4

    def test_zero_signal_measures_zero(self, tmp_path):
        instance_path = gen_instance(tmp_path, "harmonic", 3, 5)
        obj = load_json(instance_path)
        obj["x"] = vector_to_json(np.zeros(3))
        dump_json(obj, instance_path)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance_path), "--output", str(ms_path)]) == 0
        ms = load_json(ms_path)
        assert all(v == 0.0 for v in ms["base"])
        report_path = tmp_path / "rec.json"
        assert (
            main(["recover", str(ms_path), str(instance_path), "--output", str(report_path)])
            == 0
        )
        assert load_json(report_path)["outcome"]["recovery_status"] == "Recovered"

    def test_mismatched_length_rejected(self, tmp_path):
        instance = gen_instance(tmp_path, "harmonic", 4, 6)
        other = gen_instance(tmp_path, "harmonic", 4, 7)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(other), "--output", str(ms_path)]) == 0
        assert main(["recover", str(ms_path), str(instance)]) == 2

    def test_null_measurement_value_exit_code(self, tmp_path):
        instance = gen_instance(tmp_path, "harmonic", 4, 6)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance), "--output", str(ms_path)]) == 0
        obj = load_json(ms_path)
        obj["aligned"][0]["value"] = None
        dump_json(obj, ms_path)
        assert main(["recover", str(ms_path), str(instance)]) == 2

    def test_external_signal_override(self, tmp_path):
        instance = gen_instance(tmp_path, "harmonic", 3, 5)
        x_path = tmp_path / "x.json"
        dump_json(vector_to_json(np.array([1.0, 2.0, 3.0])), x_path)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance), "--x", str(x_path), "--output", str(ms_path)]) == 0
        ms = load_json(ms_path)
        assert ms["L"] == 5 and len(ms["base"]) == 5

    def test_failed_recovery_exit_code(self, tmp_path):
        from dynphase.experiments import signal_with_zero_pattern
        from dynphase.serialization import frame_from_spec

        instance = gen_instance(tmp_path, "harmonic", 4, 5)
        obj = load_json(instance)
        frame = frame_from_spec(obj["frame"])
        # zeros at indices 1 and 3 cut every offset-1 chain below size 2
        x = signal_with_zero_pattern(frame, (1, 3), np.random.default_rng(5))
        obj["x"] = vector_to_json(x)
        dump_json(obj, instance)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance), "--output", str(ms_path)]) == 0
        assert main(["recover", str(ms_path), str(instance)]) == 1

    def test_config_overrides(self, tmp_path):
        overrides = ["--angles", "0.1,1.2", "--jumps", "1", "--zero-tol", "1e-8"]
        instance = gen_instance(tmp_path, "harmonic", 4, 6, extra=overrides)
        config = load_json(instance)["config"]
        assert (config["J"], config["zero_tol"]) == (1, 1e-8)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance), "--output", str(ms_path)]) == 0
        # same seed, default config: recovery takes the angles and jumps from the set
        plain = tmp_path / "plain.json"
        assert main(["gen", "harmonic", "4", "6", "--output", str(plain)]) == 0
        assert main(["recover", str(ms_path), str(plain)]) == 0
        report_path = tmp_path / "rec.json"
        args = ["recover", str(ms_path), str(plain), "--zero-tol", "1e-8"]
        assert main([*args, "--output", str(report_path)]) == 0
        assert load_json(report_path)["outcome"]["global_phase_error"] <= 1e-7

    def test_real_set_recovers_against_a_complex_config(self, tmp_path):
        real = gen_instance(tmp_path, "rotation", 2, 4, extra=("--real",))
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(real), "--output", str(ms_path)]) == 0
        # the real instance's frame and signal under the complex default config
        plain = gen_instance(tmp_path, "rotation", 2, 4, seed=1)
        obj = load_json(real)
        obj["config"] = load_json(plain)["config"]
        assert obj["config"]["real_mode"] is False
        dump_json(obj, plain)
        report_path = tmp_path / "rec.json"
        assert main(["recover", str(ms_path), str(plain), "--output", str(report_path)]) == 0
        outcome = load_json(report_path)["outcome"]
        assert outcome["recovery_status"] == "Recovered"
        assert outcome["global_phase_error"] <= 1e-7

    def test_recover_takes_no_angles_or_jumps(self, tmp_path, capsys):
        instance = gen_instance(tmp_path, "harmonic", 4, 6)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance), "--output", str(ms_path)]) == 0
        for option in (["--jumps", "1"], ["--angles", "0.1,1.2"]):
            with pytest.raises(SystemExit) as exc:
                main(["recover", str(ms_path), str(instance), *option])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    def test_invalid_noise_rejected(self, tmp_path, capsys):
        instance = gen_instance(tmp_path, "harmonic", 3, 5)
        capsys.readouterr()
        assert main(["measure", str(instance)]) == 0
        plain = capsys.readouterr().out
        assert main(["measure", str(instance), "--noise", "0"]) == 0
        assert capsys.readouterr().out == plain
        for noise in ("-1", "nan", "inf"):
            assert main(["measure", str(instance), "--noise", noise]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("error: --noise must be finite and >= 0")

    def test_signal_sampled_from_seed(self, tmp_path):
        instance = gen_instance(tmp_path, "harmonic", 4, 6, seed=3)
        stored = tmp_path / "stored.json"
        assert main(["verify", str(instance), "--output", str(stored)]) == 0
        obj = load_json(instance)
        del obj["x"]
        dump_json(obj, instance)
        sampled = tmp_path / "sampled.json"
        assert main(["verify", str(instance), "--output", str(sampled)]) == 0
        assert load_json(sampled)["outcome"] == load_json(stored)["outcome"]
        del obj["seed"]
        dump_json(obj, instance)
        assert main(["verify", str(instance)]) == 2

    def test_gen_and_measure_write_to_stdout(self, tmp_path, capsys):
        instance = gen_instance(tmp_path, "harmonic", 3, 5)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance), "--output", str(ms_path)]) == 0
        capsys.readouterr()
        assert main(["gen", "harmonic", "3", "5"]) == 0
        assert capsys.readouterr().out == instance.read_text(encoding="utf-8")
        assert main(["measure", str(instance)]) == 0
        assert capsys.readouterr().out == ms_path.read_text(encoding="utf-8")

    def test_json_format_stdout(self, tmp_path, capsys):
        instance = gen_instance(tmp_path, "harmonic", 3, 5)
        capsys.readouterr()
        assert main(["analyze", str(instance), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "analyze"
        assert report["outcome"]["is_frame"] is True

    def test_noisy_measurement_still_recovers(self, tmp_path):
        instance = gen_instance(tmp_path, "random-diag", 3, 6, seed=9)
        ms_path = tmp_path / "noisy.json"
        assert main(["measure", str(instance), "--noise", "1e-10", "--output", str(ms_path)]) == 0
        report_path = tmp_path / "rec.json"
        assert main(["recover", str(ms_path), str(instance), "--output", str(report_path)]) == 0
        report = load_json(report_path)
        assert report["outcome"]["recovery_status"] == "Recovered"
        assert report["outcome"]["global_phase_error"] <= 1e-6


class TestVerify:
    def test_determinism_byte_identical(self, tmp_path):
        instance = gen_instance(tmp_path, "random-diag", 3, 6, seed=11)
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert main(["verify", str(instance), "--output", str(r1)]) == 0
        assert main(["verify", str(instance), "--output", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_real_rotation_verify(self, tmp_path):
        instance = gen_instance(tmp_path, "rotation", 2, 4, extra=("--real",))
        report_path = tmp_path / "report.json"
        assert main(["verify", str(instance), "--output", str(report_path)]) == 0
        report = load_json(report_path)
        assert report["outcome"]["recovery_status"] == "Recovered"
        assert report["outcome"]["global_phase_error"] <= 1e-8

    def test_harmonic_beyond_enumeration_budget(self, tmp_path):
        # C(30,10) = 30,045,015 minors exceed the default budget of 2,000,000
        instance = gen_instance(tmp_path, "harmonic", 10, 30)
        report_path = tmp_path / "report.json"
        assert main(["verify", str(instance), "--output", str(report_path)]) == 0
        outcome = load_json(report_path)["outcome"]
        assert outcome["spark"] == {"full_spark": True, "witness": None, "min_abs_det": None}
        assert outcome["recovery_status"] == "Recovered"

    def test_shared_harmonic_frame_keeps_json_bytes(self, tmp_path, capsys):
        paths = [gen_instance(tmp_path, "harmonic", 16, 72, seed=seed) for seed in (5, 6)]
        capsys.readouterr()

        def verify(path):
            assert main(["verify", str(path), "--format", "json"]) == 0
            return capsys.readouterr().out

        dynphase.harmonic_frame.cache_clear()
        shared = [verify(path) for path in paths]
        assert dynphase.harmonic_frame.cache_info().hits >= 1  # the second file reused the frame
        for path, out in zip(paths, shared):
            dynphase.harmonic_frame.cache_clear()
            assert verify(path) == out
        assert shared[0] != shared[1]


class TestBench:
    def test_small_grid(self, tmp_path):
        report_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--dims",
                "4",
                "--lengths",
                "5:6",
                "--seed",
                "1",
                "--output",
                str(report_path),
            ]
        )
        assert code == 0
        rows = load_json(report_path)["outcome"]["rows"]
        by_length = {row["L"]: row for row in rows}
        assert by_length[6]["success_rate"] == 1.0
        assert by_length[6]["at_or_above_min_length"] is True
        assert by_length[5]["success_rate"] < 1.0
        assert by_length[5]["at_or_above_min_length"] is False

    def test_jump_improves_short_grid(self, tmp_path):
        out0 = tmp_path / "j0.json"
        out1 = tmp_path / "j1.json"
        base = ["bench", "--dims", "4", "--lengths", "5:5", "--seed", "2"]
        assert main(base + ["--jumps", "0", "--output", str(out0)]) == 0
        assert main(base + ["--jumps", "1", "--output", str(out1)]) == 0
        rate0 = load_json(out0)["outcome"]["rows"][0]["success_rate"]
        rate1 = load_json(out1)["outcome"]["rows"][0]["success_rate"]
        assert rate1 == 1.0 > rate0

    def test_text_table_shows_skipped_patterns(self, tmp_path, capsys, monkeypatch):
        from dynphase import cli

        realizable = cli.signal_with_zero_pattern

        def one_unrealizable(frame, pattern, rng):
            return None if pattern == (2,) else realizable(frame, pattern, rng)

        monkeypatch.setattr(cli, "signal_with_zero_pattern", one_unrealizable)
        report_path = tmp_path / "bench.json"
        capsys.readouterr()
        assert main(["bench", "--dims", "4", "--lengths", "6:6", "--output", str(report_path)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[-1] == "skipped"
        json_row = load_json(report_path)["outcome"]["rows"][0]
        assert json_row["skipped"] == 1
        assert int(row.split()[6].rstrip("*")) == json_row["skipped"]

    def test_timing_counts_only_measure_and_recovery(self, tmp_path, monkeypatch):
        # a fake clock: each draw of the sampler takes 1 s, each measure 2 ms
        now = [0.0]
        sample, measure = cli.signal_with_zero_pattern, cli.measure

        def slow_sample(*args):
            now[0] += 1.0
            return sample(*args)

        def slow_measure(*args):
            now[0] += 0.002
            return measure(*args)

        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(cli, "signal_with_zero_pattern", slow_sample)
        monkeypatch.setattr(cli, "measure", slow_measure)
        path = tmp_path / "bench.json"
        argv = ["bench", "--dims", "4", "--lengths", "6:6", "--timings", "--output", str(path)]
        assert main(argv) == 0
        (row,) = load_json(path)["outcome"]["rows"]
        assert row["attempts"] > 0
        assert row["mean_ms_per_recovery"] == pytest.approx(2.0)

    def test_length_list_matches_range(self, tmp_path):
        reports = []
        for lengths in ("5:6", "5,6"):
            path = tmp_path / f"bench-{len(reports)}.json"
            assert main(["bench", "--dims", "4", "--lengths", lengths, "--output", str(path)]) == 0
            reports.append(load_json(path))
        assert [row["L"] for row in reports[1]["outcome"]["rows"]] == [5, 6]
        assert reports[0] == reports[1]

    def test_budget_guard(self):
        assert main(["bench", "--dims", "4", "--lengths", "6:9", "--budget", "10"]) == 3

    def test_budget_checked_before_any_recovery(self, capsys, monkeypatch):
        def no_recovery(*args):
            raise AssertionError("bench started a recovery")

        monkeypatch.setattr(cli, "recover_full_spark", no_recovery)
        # 4/6: 42, 4/7: 64, 6/6: 63 and 6/7: 120 zero patterns of at most d-1 zeros
        assert main(["bench", "--dims", "4,6", "--lengths", "6:7", "--budget", "200"]) == 3
        assert capsys.readouterr().err == "error: bench grid needs 289 recoveries, budget is 200\n"
        args = ["bench", "--dims", "4", "--lengths", "6:6", "--trials", "3", "--budget", "125"]
        assert main(args) == 3
        assert "needs 126 recoveries" in capsys.readouterr().err

    def test_grid_that_runs_nothing_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "recover_full_spark", None)  # no recovery may start
        assert main(["bench", "--dims", "4", "--lengths", "7:5"]) == 2
        assert capsys.readouterr().err == "error: --lengths 7:5 names no length\n"
        for trials in ("0", "-2"):
            assert main(["bench", "--dims", "4", "--lengths", "6:6", "--trials", trials]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: --trials must be >= 1, got {trials}\n"

    def test_jumps_out_of_range(self, capsys):
        assert main(["bench", "--dims", "4", "--jumps", "3"]) == 2
        assert "jumps must lie in 0..2 for dim=4, got 3" in capsys.readouterr().err
        # invalid input is reported before the budget is checked
        assert main(["bench", "--dims", "4", "--jumps", "3", "--budget", "1"]) == 2

    def test_jumps_message_matches_measure(self, tmp_path, capsys):
        instance = gen_instance(tmp_path, "harmonic", 4, 8)
        assert main(["measure", str(instance), "--jumps", "3"]) == 2
        measured = capsys.readouterr().err
        assert main(["bench", "--dims", "4", "--jumps", "3"]) == 2
        assert capsys.readouterr().err == measured
        generated = tmp_path / "jumps.json"
        assert main(["gen", "harmonic", "4", "8", "--jumps", "3", "--output", str(generated)]) == 2
        assert capsys.readouterr().err == measured
        assert not generated.exists()
        assert measured == "error: jumps must lie in 0..2 for dim=4, got 3\n"

    def test_lengths_below_dim_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "recover_full_spark", None)  # no recovery may start
        assert main(["bench", "--dims", "4", "--lengths", "2:3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: every length must be >= dim, got L=2 for dim=4\n"
        # a later dimension is checked before the first one runs
        assert main(["bench", "--dims", "4,6", "--lengths", "5:6"]) == 2
        assert "got L=5 for dim=6" in capsys.readouterr().err
        assert main(["bench", "--dims", "6,2", "--jumps", "1", "--lengths", "6:6"]) == 2
        assert "for dim=2, got 1" in capsys.readouterr().err


class TestMain:
    def test_repeated_calls_give_identical_output(self, tmp_path, capsys):
        instance = gen_instance(tmp_path)
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(["verify", str(instance), "--format", "json", "--no-spark"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    def test_command_looked_up_per_call(self, tmp_path, monkeypatch):
        instance = gen_instance(tmp_path)
        assert main(["verify", str(instance), "--no-spark"]) == 0
        seen = []
        monkeypatch.setattr(cli, "_cmd_verify", lambda args: seen.append(args.instance) or 7)
        assert main(["verify", str(instance), "--no-spark"]) == 7
        assert seen == [str(instance)]

    @pytest.mark.parametrize(
        "error",
        [cls for cls in vars(exceptions).values() if isinstance(cls, type)]
        + [np.linalg.LinAlgError, ValueError, FileNotFoundError],
        ids=lambda cls: cls.__name__,
    )
    def test_exit_codes(self, monkeypatch, capsys, error):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_analyze", fail)
        code = 3 if error is exceptions.BudgetExceededError else 2
        assert main(["analyze", "unread.json"]) == code
        assert capsys.readouterr().err == "error: boom\n"

    def test_runtime_error_propagates(self, monkeypatch):
        # gen's RuntimeError when random_signal_for gives up is a defect, not exit 2
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_analyze", fail)
        with pytest.raises(RuntimeError, match="boom"):
            main(["analyze", "unread.json"])


class TestReportShape:
    @staticmethod
    def report(tmp_path, argv):
        path = tmp_path / "report.json"
        assert main([*argv, "--output", str(path)]) == 0
        return load_json(path)

    @pytest.mark.parametrize("command", ["analyze", "recover", "verify"])
    def test_wall_time_only_under_timings(self, tmp_path, command):
        instance = gen_instance(tmp_path)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance), "--output", str(ms_path)]) == 0
        argv = [command, *([str(ms_path)] if command == "recover" else []), str(instance)]
        plain = self.report(tmp_path, argv)
        timed = self.report(tmp_path, [*argv, "--timings"])
        for report in (plain, timed):
            assert list(report) == ["command", "inputs", "outcome", "wall_time_ms"]
            assert report["command"] == command
        assert plain["wall_time_ms"] is None
        assert isinstance(timed["wall_time_ms"], float) and timed["wall_time_ms"] >= 0.0
        assert {**timed, "wall_time_ms": None} == plain

    def test_bench_never_reports_wall_time(self, tmp_path):
        argv = ["bench", "--dims", "4", "--lengths", "6:6"]
        for extra in ([], ["--timings"]):
            report = self.report(tmp_path, [*argv, *extra])
            assert list(report) == ["command", "inputs", "outcome", "wall_time_ms"]
            assert report["command"] == "bench" and report["wall_time_ms"] is None


class TestInputFiles:
    @pytest.mark.parametrize("command", ["analyze", "verify", "recover"])
    def test_reported_hash_is_of_the_parsed_bytes(self, tmp_path, monkeypatch, command):
        instance = gen_instance(tmp_path)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance), "--output", str(ms_path)]) == 0
        inputs = {"instance": instance}
        if command == "recover":
            inputs = {"measurements": ms_path, **inputs}
        expected = {
            f"{name}_sha256": hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in inputs.items()
        }
        parse = cli.load_json

        def parse_then_replace(path, *args):
            obj = parse(path, *args)
            # the same JSON with other bytes, written as soon as the file was parsed
            Path(path).write_text(" " + Path(path).read_text(encoding="utf-8"), encoding="utf-8")
            return obj

        monkeypatch.setattr(cli, "load_json", parse_then_replace)
        report_path = tmp_path / "report.json"
        assert main([command, *map(str, inputs.values()), "--output", str(report_path)]) == 0
        assert load_json(report_path)["inputs"] == expected

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_missing_and_malformed_files(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path / "absent.json")]) == 2
        assert "No such file" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"frame":\n  oops}', encoding="utf-8")
        assert main([command, str(bad)]) == 2
        assert "invalid JSON at line 2, column 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_file_that_is_not_utf8(self, tmp_path, capsys, command):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"frame": "\u00ff"}'.encode("latin-1"))
        assert main([command, str(latin1)]) == 2
        assert f"error: {latin1}: not UTF-8 at byte 11: invalid start byte" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["analyze", "verify", "recover"])
    def test_integer_past_the_double_range_exit_code(self, tmp_path, capsys, command):
        instance = gen_instance(tmp_path, "random-diag", 3, 5, seed=1)
        ms_path = tmp_path / "ms.json"
        assert main(["measure", str(instance), "--output", str(ms_path)]) == 0
        # a 401-digit JSON integer where a double belongs
        if command == "recover":
            obj = load_json(ms_path)
            obj["base"][0] = 10**400
            dump_json(obj, ms_path)
            args, message = [ms_path, instance], "measurements.base: expected a list of reals"
        else:
            obj = load_json(instance)
            obj["frame"]["phi"][0] = [10**400, 0.0]
            dump_json(obj, instance)
            args, message = [instance], "frame.phi: expected a [re, im] pair, got [1000"
        capsys.readouterr()
        assert main([command, *map(str, args)]) == 2
        assert capsys.readouterr().err.startswith("error: " + message)


class TestPackage:
    def test_every_public_name_resolves(self):
        missing = [name for name in dynphase.__all__ if not hasattr(dynphase, name)]
        assert missing == []

    def test_readme_synopsis_lists_every_option(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
        synopsis = {line.split()[1]: line for line in block.splitlines()}
        (commands,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(synopsis) == set(commands.choices)
        missing = [
            (name, option)
            for name, sub in commands.choices.items()
            for action in sub._actions
            if action.dest != "help"
            for option in action.option_strings
            if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", synopsis[name])
        ]
        assert missing == []

    def test_readme_tolerance_table_lists_every_constant(self):
        # every public upper-case numeric module constant is a row with its
        # owner and value, and every name in the table is such a constant
        defined = {}
        for path in sorted(Path(dynphase.__file__).parent.glob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    name = getattr(node.targets[0], "id", "")
                    try:
                        value = ast.literal_eval(node.value)
                    except ValueError:
                        continue
                    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
                    if numeric and re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
                        defined[name] = (path.stem, value)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| Constant | Value | Owner | Rule |", 1)[1].split("\n\n", 1)[0]
        listed = {}
        for row in table.splitlines()[2:]:
            names_cell, values_cell, owner_cell = row.split("|")[1:4]
            names = re.findall(r"`([A-Z][A-Z0-9_]*)`", names_cell)
            values = [ast.literal_eval(v) for v in re.findall(r"`([^`]+)`", values_cell)]
            if names:
                assert len(names) == len(values), row
                listed.update((n, (owner_cell.strip(" `"), v)) for n, v in zip(names, values))
        assert "DEFAULT_ZERO_TOL" in defined and "RECOVERY_TOL" in listed
        assert listed == defined


class TestConsoleEntry:
    def test_module_invocation(self):
        # the child must import the package this process imported, installed or not
        paths = [str(Path(dynphase.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        out = subprocess.run(
            [sys.executable, "-m", "dynphase", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        )
        assert out.returncode == 0
        assert "dynphase" in out.stdout
