import json
import math

import numpy as np
import pytest

from dynphase import (
    JordanSpec,
    MeasurementConfig,
    PolarizationAngles,
    SchemaError,
    harmonic_frame,
    measure,
)
from dynphase.serialization import (
    Instance,
    dump_json,
    frame_from_spec,
    instance_to_json,
    json_to_config,
    json_to_instance,
    json_to_jordan_spec,
    json_to_matrix,
    json_to_measurement_set,
    json_to_vector,
    jordan_spec_to_json,
    load_json,
    matrix_to_json,
    measurement_set_to_json,
    vector_to_json,
)
from oracles import random_unitary


class TestScalarRoundTrips:
    def test_vector_round_trip(self):
        rng = np.random.default_rng(100)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.array_equal(json_to_vector(vector_to_json(v)), v)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(101)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.array_equal(json_to_matrix(matrix_to_json(m)), m)

    def test_round_trip_is_bit_exact_through_text(self):
        rng = np.random.default_rng(102)
        v = rng.standard_normal(4) * 1e-7 + 1j * rng.standard_normal(4) * 1e9
        text = dump_json(vector_to_json(v))
        assert np.array_equal(json_to_vector(json.loads(text)), v)

    def test_malformed_pair_rejected(self):
        with pytest.raises(SchemaError):
            json_to_vector([[1.0, 2.0], [3.0]])
        with pytest.raises(SchemaError):
            json_to_vector([[1.0, True]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(SchemaError):
            json_to_matrix([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])


class TestJordanSpecSchema:
    def test_round_trip(self):
        rng = np.random.default_rng(103)
        spec = JordanSpec(
            np.array([0.9, -0.4 + 0.3j]), (2, 1), random_unitary(rng, 3)
        )
        parsed = json_to_jordan_spec(jordan_spec_to_json(spec))
        assert np.array_equal(parsed.eigenvalues, spec.eigenvalues)
        assert parsed.multiplicities == spec.multiplicities
        assert np.array_equal(parsed.basis, spec.basis)

    def test_bad_multiplicities_rejected(self):
        obj = jordan_spec_to_json(JordanSpec(np.array([1.0]), (2,), np.eye(2)))
        obj["multiplicities"] = [0, 2]
        with pytest.raises(SchemaError):
            json_to_jordan_spec(obj)


class TestFrameSpecs:
    def test_harmonic_variant(self):
        frame = frame_from_spec({"harmonic": {"d": 3, "L": 5}})
        assert frame.dim == 3 and frame.length == 5

    def test_explicit_operator_variant(self):
        spec = {
            "A": matrix_to_json(np.eye(2)),
            "phi": vector_to_json(np.array([1.0, 2.0])),
            "L": 3,
        }
        frame = frame_from_spec(spec)
        assert np.allclose(frame.synthesis(), [[1, 1, 1], [2, 2, 2]])

    def test_circulant_variant(self):
        spec = {
            "circulant": vector_to_json(np.array([0.0, 1.0, 0.0])),
            "phi": vector_to_json(np.array([1.0, 0.0, 0.0])),
            "L": 3,
        }
        frame = frame_from_spec(spec)
        assert np.allclose(frame.synthesis(), np.eye(3))

    def test_jordan_variant(self):
        spec = {
            "jordan": jordan_spec_to_json(JordanSpec(np.array([0.5]), (2,), np.eye(2))),
            "phi": vector_to_json(np.array([0.0, 1.0])),
            "L": 2,
        }
        frame = frame_from_spec(spec)
        assert np.allclose(frame.operator, [[0.5, 1.0], [0.0, 0.5]])

    def test_unknown_variant_rejected(self):
        with pytest.raises(SchemaError):
            frame_from_spec({"mystery": 1, "phi": [[1.0, 0.0]], "L": 2})


class TestInstanceSchema:
    def test_round_trip(self):
        rng = np.random.default_rng(104)
        config = MeasurementConfig(
            angles=PolarizationAngles(0.1, 1.2), jumps=1, zero_tol=1e-8
        )
        signal = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        instance = Instance({"harmonic": {"d": 3, "L": 6}}, config, signal, seed=42)
        parsed = json_to_instance(instance_to_json(instance))
        assert parsed.frame_spec == instance.frame_spec
        assert parsed.config == config
        assert np.array_equal(parsed.signal, signal)
        assert parsed.seed == 42

    def test_frame_built_once(self):
        obj = {"frame": {"harmonic": {"d": 3, "L": 6}}, "seed": 1}
        instance = json_to_instance(obj)
        frame = instance.build_frame()
        assert frame is instance.build_frame()
        assert np.array_equal(frame.synthesis(), harmonic_frame(3, 6).synthesis())

    def test_signal_dimension_checked(self):
        obj = {
            "frame": {"harmonic": {"d": 3, "L": 6}},
            "x": vector_to_json(np.ones(2)),
            "config": {"angles": [0.0, math.pi / 2]},
        }
        with pytest.raises(SchemaError):
            json_to_instance(obj)

    def test_real_mode_needs_alpha1_on_the_real_line(self):
        with pytest.raises(SchemaError, match="real mode needs alpha1 to be a multiple of pi"):
            json_to_config({"angles": [0.3, 1.5], "real_mode": True})
        config = json_to_config({"angles": [math.pi, 1.5], "real_mode": True})
        assert config.angles.real_sign == -1

    def test_inadmissible_angles_rejected(self):
        obj = {
            "frame": {"harmonic": {"d": 2, "L": 4}},
            "config": {"angles": [0.0, math.pi]},
        }
        with pytest.raises(SchemaError):
            json_to_instance(obj)

    @pytest.mark.parametrize(
        "frame, extra",
        [
            ({"harmonic": {"d": 3, "L": 6}}, {"config": {"zero_tol": [1]}}),
            ({"harmonic": {"d": 3, "L": 6}}, {"config": {"zero_tol": "1e-9"}}),
            ({"harmonic": {"d": 3, "L": 6}}, {"config": {"J": True}}),
            ({"harmonic": {"d": True, "L": 4}}, {}),
            ({"A": [[[1.0, 0.0]]], "phi": [[1.0, 0.0]], "L": True}, {}),
            ({"harmonic": {"d": 3, "L": 6}}, {"seed": True}),
            (
                {
                    "jordan": {
                        "eigenvalues": [[0.5, 0.0]],
                        "multiplicities": [True],
                        "basis": [[[1.0, 0.0]]],
                    },
                    "phi": [[1.0, 0.0]],
                    "L": 2,
                },
                {},
            ),
        ],
        ids=[
            "zero_tol-list",
            "zero_tol-string",
            "J-bool",
            "harmonic-d-bool",
            "frame-L-bool",
            "seed-bool",
            "multiplicity-bool",
        ],
    )
    def test_non_numeric_fields_rejected(self, frame, extra):
        with pytest.raises(SchemaError):
            json_to_instance({"frame": frame, **extra})


class TestMeasurementSetSchema:
    def test_round_trip(self):
        rng = np.random.default_rng(105)
        frame = harmonic_frame(3, 5)
        cfg = MeasurementConfig(jumps=1)
        ms = measure(rng.standard_normal(3) + 1j * rng.standard_normal(3), frame, cfg)
        parsed = json_to_measurement_set(measurement_set_to_json(ms))
        assert parsed.length == ms.length and parsed.jumps == ms.jumps
        assert np.array_equal(parsed.base, ms.base)
        assert dict(parsed.aligned) == dict(ms.aligned)

    def test_incomplete_grid_rejected(self):
        obj = {
            "L": 3,
            "J": 0,
            "angles": [0.0, math.pi / 2],
            "base": [1.0, 1.0, 1.0],
            "aligned": [{"l": 0, "j": 1, "k": 1, "value": 1.0}],
        }
        with pytest.raises(SchemaError):
            json_to_measurement_set(obj)

    @pytest.mark.parametrize("extra", [(7, 1, 1), (0, 1, 3), (-1, 1, 1), (0, 2, 1)])
    def test_key_outside_grid_rejected(self, extra):
        frame = harmonic_frame(3, 3)
        obj = measurement_set_to_json(measure(np.ones(3), frame, MeasurementConfig()))
        l, j, k = extra
        obj["aligned"].append({"l": l, "j": j, "k": k, "value": 1.0})
        with pytest.raises(SchemaError):
            json_to_measurement_set(obj)

    @pytest.mark.parametrize(
        "field, bad",
        [("value", None), ("value", "1.5"), ("value", True), ("l", True), ("k", True)],
    )
    def test_non_numeric_entry_rejected(self, field, bad):
        frame = harmonic_frame(3, 4)
        obj = measurement_set_to_json(measure(np.ones(3), frame, MeasurementConfig()))
        # l = k = 1 here, so a bool True in place of either aliases the entry's own key
        entry = next(e for e in obj["aligned"] if e["l"] == 1 and e["k"] == 1)
        entry[field] = bad
        with pytest.raises(SchemaError):
            json_to_measurement_set(obj)

    def test_duplicate_entry_rejected(self):
        frame = harmonic_frame(3, 4)
        obj = measurement_set_to_json(measure(np.ones(3), frame, MeasurementConfig()))
        first = obj["aligned"][0]
        obj["aligned"].append({**first, "value": first["value"] + 1200.0})
        with pytest.raises(SchemaError, match=r"aligned\[6\]: duplicate entry \(0, 1, 1\)"):
            json_to_measurement_set(obj)

    def test_negative_value_rejected(self):
        obj = {
            "L": 2,
            "J": 0,
            "angles": [0.0, math.pi / 2],
            "base": [1.0, -1.0],
            "aligned": [
                {"l": 0, "j": 1, "k": 1, "value": 1.0},
                {"l": 0, "j": 1, "k": 2, "value": 1.0},
            ],
        }
        with pytest.raises(SchemaError):
            json_to_measurement_set(obj)


class TestLoadJson:
    def test_parse_error_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"frame": \n  oops}')
        with pytest.raises(SchemaError) as exc:
            load_json(bad)
        assert "line 2" in str(exc.value)

    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "ok.json"
        dump_json({"a": [1.5, 2.5]}, path)
        assert load_json(path) == {"a": [1.5, 2.5]}
