import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dynphase
from dynphase import cli
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
        instance = gen_instance(tmp_path, "harmonic", 4, 12)
        assert main(["analyze", str(instance), "--budget", "3"]) == 3

    def test_malformed_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["analyze", str(bad)]) == 2


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
        assert main(["recover", str(ms_path), str(instance), "--method", "full-spark"]) == 1

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

    def test_auto_and_generic_agree_on_dense_data(self, tmp_path):
        # an ill-conditioned orbit, where the normal equations lose the signal
        instance = gen_instance(tmp_path, "jordan", 16, 24, seed=7)
        outcomes = []
        for method in ("auto", "generic"):
            path = tmp_path / f"{method}.json"
            args = ["verify", str(instance), "--no-spark", "--method", method]
            assert main(args + ["--output", str(path)]) == 0
            outcomes.append(load_json(path)["outcome"])
        assert outcomes[0] == outcomes[1]
        assert outcomes[0]["recovery_status"] == "Recovered"
        assert outcomes[0]["global_phase_error"] <= 1e-7

    def test_real_rotation_verify(self, tmp_path):
        instance = gen_instance(tmp_path, "rotation", 2, 4, extra=("--real",))
        report_path = tmp_path / "report.json"
        assert main(["verify", str(instance), "--output", str(report_path)]) == 0
        report = load_json(report_path)
        assert report["outcome"]["recovery_status"] == "Recovered"
        assert report["outcome"]["global_phase_error"] <= 1e-8


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

    def test_budget_guard(self):
        assert main(["bench", "--dims", "4", "--lengths", "6:9", "--budget", "10"]) == 3


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


class TestPackage:
    def test_every_public_name_resolves(self):
        missing = [name for name in dynphase.__all__ if not hasattr(dynphase, name)]
        assert missing == []


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
