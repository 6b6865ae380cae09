"""The two-tree comparison scripts and the benchmark recorder under ``scripts/``.

The comparison rules are pinned on made-up record pairs fed to each
script's ``compare``; ``compare_spark.py`` also runs end to end on this
tree against itself. The benchmark tracer's bindings in
``perfbench/spans.py`` must still name library functions.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dynphase import build, harmonic_frame
from dynphase.experiments import signal_with_zero_pattern, zero_patterns

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))  # the scripts import their shared runner from there
bench_record = importlib.import_module("bench_record")
compare_recovery = importlib.import_module("compare_recovery")
compare_spark = importlib.import_module("compare_spark")
two_trees = importlib.import_module("two_trees")
_spans_spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spans_spec)
_spans_spec.loader.exec_module(spans)

#: Tracer bindings that name functions the library no longer has; the
#: benchmark's next change drops them.
STALE_BINDINGS = {
    ("dynphase.retrieval", "recover_generic"),
    ("dynphase.retrieval", "recover_real"),
    ("dynphase.retrieval", "recover_product"),
    ("dynphase.retrieval", "recover_product_real"),
    ("dynphase.retrieval", "dual"),
    ("dynphase.cli", "recover_generic"),
    ("dynphase.cli", "recover_real"),
}


class TestInputs:
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("dim, length", [(1, 1), (3, 2), (4, 9), (6, 40)])
    def test_orbit_is_the_frame_synthesis_byte_for_byte(self, dim, length, real):
        rng = np.random.default_rng(100 * dim + length)
        a, phi = rng.standard_normal((dim, dim)), rng.standard_normal(dim)
        if not real:
            a, phi = a + 1j * rng.standard_normal((dim, dim)), phi + 1j * rng.standard_normal(dim)
        a = a / np.max(np.abs(np.linalg.eigvals(a)))
        frame = build(a, phi, length)
        orbit = two_trees.orbit(a, phi, length)
        assert orbit.tobytes() == frame.synthesis().tobytes()
        assert two_trees.orbit_diff(frame, orbit) == 0.0

    def test_orbit_diff_is_relative_per_column(self):
        nilpotent = np.diag(np.ones(2), 1)  # columns 3.. of its orbit are zero
        frame = build(nilpotent, np.ones(3), 5)
        assert two_trees.orbit_diff(frame, two_trees.orbit(nilpotent, np.ones(3), 5)) == 0.0
        scaled = two_trees.orbit(nilpotent, np.ones(3), 5) * (1 + 1e-12)
        assert two_trees.orbit_diff(frame, scaled) == pytest.approx(1e-12, rel=1e-3)

    @pytest.mark.parametrize("dim", [4, 5])
    def test_signal_is_signal_with_zero_pattern_bit_for_bit(self, dim):
        frame = harmonic_frame(dim, dim + 2)
        ours, theirs = np.random.default_rng(dim), np.random.default_rng(dim)
        for zeros in zero_patterns(dim + 2, dim - 1):
            x = two_trees.signal(frame.synthesis(), zeros, ours)
            expected = signal_with_zero_pattern(frame, zeros, theirs)
            assert (x is None and expected is None) or x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [4, 5])
    def test_real_signal_vanishes_on_the_pattern(self, dim):
        V = two_trees.orbit(np.diag(np.linspace(0.6, 1.5, dim)), np.ones(dim), dim + 2)
        rng = np.random.default_rng(dim)
        for zeros in zero_patterns(dim + 2, dim - 1):
            x = two_trees.signal(V, zeros, rng, real=True)
            if x is None:
                continue
            coeffs = np.abs(V.real.T @ x)
            others = np.delete(coeffs, list(zeros))
            assert x.dtype == float and np.linalg.norm(x) == pytest.approx(1.0)
            assert np.all(coeffs[list(zeros)] < 1e-12) and others.min() > 1e-3 * others.max()


def spark_record(key="harmonic d=4 L=6", **checks):
    return {"key": key, "input": "0" * 64, **checks}


def spark_status(old, new, **extra):
    """Exit status of comparing one spark record whose checks are ``old`` and ``new``."""
    return compare_spark.compare([spark_record(**old, **extra)], [spark_record(**new, **extra)])


class TestCompareSpark:
    @pytest.mark.parametrize("check", ["full_spark", "criterion", "analyze"])
    @pytest.mark.parametrize("move, status", [(1e-15, 0), (2e-15, 1)])
    def test_min_abs_det_may_move_by_1e_15(self, check, move, status):
        old, new = [False, [0, 1, 2, 3], "0.0"], [False, [0, 1, 2, 3], repr(move)]
        assert spark_status({check: old}, {check: new}, diagonal=False) == status

    @pytest.mark.parametrize(
        "new",
        [[False, [0, 1, 2, 4], "0.0"], [True, None, "0.0"], "BudgetExceededError"],
        ids=["witness", "verdict", "exception"],
    )
    def test_changed_outcome_fails(self, new):
        old = [False, [0, 1, 2, 3], "0.0"]
        assert spark_status({"full_spark": old}, {"full_spark": new}) == 1

    def test_changed_exception_type_fails(self):
        old, new = {"criterion": "ValueError"}, {"criterion": "OverflowError"}
        assert spark_status(old, new) == 1
        assert spark_status(old, old) == 0

    @pytest.mark.parametrize(
        "check, diagonal, status",
        [("analyze", True, 0), ("analyze", False, 1), ("full_spark", True, 1)],
    )
    def test_structural_allowance_is_for_diagonal_analyze(self, check, diagonal, status, capsys):
        old, new = [True, None, "0.125"], [True, None, None]
        assert spark_status({check: old}, {check: new}, diagonal=diagonal) == status
        listed = "1 diagonal analyze records certified by structure" in capsys.readouterr().out
        assert listed == (status == 0)

    def test_structural_allowance_needs_a_pass(self):
        old, new = [False, [0, 1, 2, 3], "0.0"], [True, None, None]
        assert spark_status({"analyze": old}, {"analyze": new}, diagonal=True) == 1

    def test_changed_key_list_exits_1(self, capsys):
        old = [spark_record("a", full_spark=[True, None, "0.5"])]
        new = [spark_record("b", full_spark=[True, None, "0.5"])]
        assert compare_spark.compare(old, new) == 1
        assert compare_spark.compare(old, old + old) == 1
        assert "grids differ" in capsys.readouterr().out

    def test_changed_input_fails(self):
        old = spark_record(full_spark=[True, None, "0.5"])
        new = {**old, "input": "1" * 64}
        assert compare_spark.compare([old], [new]) == 1

    @pytest.mark.parametrize("stale_tree", ["OLD", "NEW"])
    def test_warm_run_that_differs_fails(self, stale_tree, capsys):
        # a warm certificate differing from the cold one marks a stale plan
        record = spark_record(full_spark=[True, None, "0.5"], warm=[])
        stale = {**record, "warm": ["full_spark"]}
        pair = (stale, record) if stale_tree == "OLD" else (record, stale)
        assert compare_spark.compare([pair[0]], [pair[1]]) == 1
        assert f"{stale_tree} warm run differs in ['full_spark']" in capsys.readouterr().out
        assert compare_spark.compare([record], [record]) == 0


def signal_record(**fields):
    entry = {
        "key": "complex d=4 L=6 J=0 zeros=(1,)",
        "x": [[1.0, 0.0], [0.0, 0.0]],
        "status": "Recovered",
        "used": [0, 2, 3, 4, 5],
        "size": 4,
        "estimate": [[1.0, 0.0], [0.0, 0.0]],
    }
    return {**entry, **fields}


class TestCompareRecovery:
    @pytest.mark.parametrize(
        "field, value",
        [("status", "Failed"), ("status", "ValueError"), ("used", [0, 2, 3, 4]), ("size", 3)],
    )
    def test_changed_outcome_fails(self, field, value):
        old = signal_record()
        assert compare_recovery.compare([old], [old]) == 0
        assert compare_recovery.compare([old], [signal_record(**{field: value})]) == 1

    @pytest.mark.parametrize("gap, status", [(1e-10, 0), (2e-10, 1)])
    def test_estimates_may_differ_by_1e_10(self, gap, status):
        new = signal_record(estimate=[[1.0, 0.0], [gap, 0.0]])
        assert compare_recovery.compare([signal_record()], [new]) == status

    def test_estimates_compared_free_of_a_global_phase(self):
        new = signal_record(estimate=[[0.0, 1.0], [0.0, 0.0]])
        assert compare_recovery.compare([signal_record()], [new]) == 0

    def test_zero_signal_compared_bit_for_bit(self, capsys):
        old = signal_record(bits=[bytes(16).hex(), (0.0).hex()])
        new = signal_record(bits=[bytes(16).hex(), (-0.0).hex()])
        assert compare_recovery.compare([old], [old]) == 0
        assert compare_recovery.compare([old], [new]) == 1
        assert "estimate or residual bits differ" in capsys.readouterr().out

    def test_changed_input_signal_fails(self, capsys):
        new = signal_record(x=[[1.0, 0.0], [1e-300, 0.0]])
        assert compare_recovery.compare([signal_record()], [new]) == 1
        assert "input signals differ" in capsys.readouterr().out

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_changed_instance_text_fails(self, index):
        texts = ["{}\n", "{}\n", "exit 0\n"]
        old = {"key": "instance harmonic d=2 seed=0", "instance": texts, "status": "ok"}
        changed = list(texts)
        changed[index] += " "
        assert compare_recovery.compare([old], [old]) == 0
        assert compare_recovery.compare([old], [{**old, "instance": changed}]) == 1

    def test_changed_instance_status_fails(self):
        old = {"key": "instance jordan d=8 seed=3", "instance": None, "status": "RuntimeError"}
        assert compare_recovery.compare([old], [{**old, "status": "ValueError"}]) == 1

    @pytest.mark.parametrize("rel, status", [(0.9e-9, 0), (1.1e-9, 1)])
    def test_bounds_may_differ_by_1e_9_relative(self, rel, status):
        old = {"key": "analysis harmonic d=2 seed=0", "analysis": [True, 1.0, 2.0]}
        new = {**old, "analysis": [True, 1.0, 2.0 / (1 - rel)]}
        assert compare_recovery.compare([old], [new]) == status

    def test_changed_is_frame_fails(self):
        old = {"key": "analysis harmonic d=2 seed=0", "analysis": [True, 1.0, 2.0]}
        assert compare_recovery.compare([old], [{**old, "analysis": [False, 1.0, 2.0]}]) == 1

    def test_changed_key_list_exits_1(self, capsys):
        old = [signal_record()]
        assert compare_recovery.compare(old, [signal_record(key="real d=4 L=6 J=0 zeros=()")]) == 1
        assert compare_recovery.compare(old, []) == 1
        assert "grids differ" in capsys.readouterr().out


def test_tracer_bindings_resolve():
    # a binding that names nothing leaves its per-layer metric at 0
    unresolved = {
        (path, attr)
        for path, attr, _ in spans.BINDINGS
        if getattr(spans._resolve(path), attr, None) is None
    }
    assert unresolved <= STALE_BINDINGS


def test_compare_spark_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, "scripts/compare_spark.py", "src", "src"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("\n0 mismatches\n")


class TestBenchRecordArguments:
    @pytest.fixture(autouse=True)
    def no_runs(self, monkeypatch):
        def run_once(*args, **kwargs):
            raise AssertionError("a run started before the arguments were checked")

        monkeypatch.setattr(bench_record, "run_once", run_once)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["out.json", "a=.", "--seeds", "105-101"], "no seeds"),
            (["out.json", "a=.", "b=..", "a=../.."], "repeated LABEL"),
            (["out.json", "tree"], "LABEL=TREE"),
        ],
    )
    def test_rejected_before_any_run(self, argv, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_record.main([str(tmp_path / argv[0]), *argv[1:]])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / argv[0]).exists()

    def test_seed_ranges(self):
        assert bench_record.parse_seeds("101-105") == [101, 102, 103, 104, 105]
        assert bench_record.parse_seeds("7") == [7]
