import json
import math
import tracemalloc

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
from dynphase.instances import make_instance
from dynphase.serialization import (
    Instance,
    dump_json,
    frame_from_spec,
    instance_to_json,
    json_to_complex,
    json_to_config,
    json_to_instance,
    json_to_jordan_spec,
    json_to_matrix,
    json_to_measurement_set,
    json_to_vector,
    jordan_spec_to_json,
    load_json,
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
        assert np.array_equal(json_to_matrix(vector_to_json(m)), m)

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


#: JSON numbers at the edges of the double range: ints (also past 2^53 and
#: 2^64), both zeros, subnormals and the largest finite magnitudes.
EDGE_NUMBERS = [
    0, 1, -7, 2**53 + 1, 2**64 + 5, -(2**70) + 3, 0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308, 0.1
]

#: One malformed cell of each kind, with the text that names it.
MALFORMED = {
    "bool": [1.0, True],
    "string": ["1.0", 0.0],
    "null": [None, 0.0],
    "one-element": [1.0],
    "three-element": [1.0, 0.0, 2.0],
    "bare-number": 1.5,
    "dict": {"re": 1.0, "im": 0.0},
}


def per_cell(cells, where="vector"):
    """The per-cell rule, one :func:`json_to_complex` call per cell."""
    return np.array([json_to_complex(c, where) for c in cells], dtype=complex)


def per_value_pairs(arr):
    """Nested ``[re, im]`` pairs built one ``complex`` value at a time."""
    if np.ndim(arr) > 1:
        return [per_value_pairs(row) for row in arr]
    return [[complex(z).real, complex(z).imag] for z in arr]


def edge_cells():
    return [[a, b] for a in EDGE_NUMBERS for b in EDGE_NUMBERS[::-1]]


class TestWholeArrayDecode:
    @pytest.mark.parametrize("form", ["lists", "tuples", "numpy-floats", "mixed"])
    def test_vector_equals_the_per_cell_rule_bit_for_bit(self, form):
        cells = edge_cells()
        if form == "tuples":
            cells = [tuple(c) for c in cells]
        elif form == "numpy-floats":
            cells = [[np.float64(a), np.float64(b)] for a, b in cells]
        elif form == "mixed":
            cells[5] = tuple(cells[5])
            cells[-1] = [np.float64(cells[-1][0]), cells[-1][1]]
        decoded = json_to_vector(cells)
        assert decoded.dtype == complex and decoded.shape == (len(cells),)
        assert decoded.tobytes() == per_cell(cells).tobytes()

    def test_matrix_equals_the_per_cell_rule_bit_for_bit(self):
        rows = [[[a, b] for b in EDGE_NUMBERS] for a in EDGE_NUMBERS]
        decoded = json_to_matrix(rows)
        expected = np.array([per_cell(row) for row in rows])
        assert decoded.shape == (len(EDGE_NUMBERS), len(EDGE_NUMBERS))
        assert decoded.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("kind", list(MALFORMED))
    def test_malformed_cell_named_in_the_error(self, kind, position):
        bad = MALFORMED[kind]
        cells = [[float(i), -1.0] for i in range(5)]
        cells[position] = bad
        with pytest.raises(SchemaError) as exc:
            json_to_vector(cells, "x")
        assert str(exc.value) == f"x: expected a [re, im] pair, got {bad!r}"
        with pytest.raises(SchemaError) as exc:
            json_to_matrix([[[0.0, 0.0]] * 5, cells, [[1.0, 1.0]] * 5], "A")
        assert str(exc.value) == f"A: expected a [re, im] pair, got {bad!r}"

    def test_first_of_several_malformed_cells_is_named(self):
        cells = [[0.0, 0.0], [1.0, None], [2.0, 0.0], [True, 1.0]]
        with pytest.raises(SchemaError, match=r"got \[1\.0, None\]"):
            json_to_vector(cells)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_ragged_or_non_list_row_rejected(self, position):
        rows = [[[1.0, 0.0], [2.0, 0.0]] for _ in range(3)]
        rows[position] = rows[position][:1]
        with pytest.raises(SchemaError, match="A: rows must be nonempty and equally long"):
            json_to_matrix(rows, "A")
        rows[position] = (1.0, 0.0)
        with pytest.raises(SchemaError, match="A: expected a nonempty list of rows"):
            json_to_matrix(rows, "A")

    @pytest.mark.parametrize("obj", [[], (), {"0": [1.0, 0.0]}, 1.0, None])
    def test_non_list_or_empty_vector_rejected(self, obj):
        with pytest.raises(SchemaError, match="v: expected a nonempty list of"):
            json_to_vector(obj, "v")

    def test_encoders_give_the_text_of_one_pair_per_value(self):
        floats = [float(v) for v in EDGE_NUMBERS]
        m = np.array([[complex(a, b) for b in floats] for a in floats])
        for arr in (m, m[:, 3], m.T, m.real):
            text = dump_json(vector_to_json(arr))
            assert text == dump_json(per_value_pairs(arr))
        assert "-0.0" in dump_json(vector_to_json(m[:, 7]))


#: The smallest integer magnitude ``float`` cannot convert.
PAST_DOUBLE = 2**1024 - 2**970


class TestIntegersPastTheDoubleRange:
    """A JSON integer no double can hold is not a number to any decoder."""

    BIG = pytest.mark.parametrize(
        "big", [PAST_DOUBLE, -PAST_DOUBLE, 10**400], ids=["past-max", "past-min", "401-digits"]
    )

    def test_largest_convertible_integer_decodes(self):
        cells = [[PAST_DOUBLE - 1, 1 - PAST_DOUBLE], [0, 1.5]]
        decoded = json_to_vector(cells)
        assert decoded.tobytes() == per_cell(cells).tobytes()
        assert decoded[0] == complex(1.7976931348623157e308, -1.7976931348623157e308)

    @BIG
    def test_vector_and_matrix_cells(self, big):
        cells = [[1.0, 0.0], [2, big], [0.0, 2.0]]
        # lists of ints and floats take the whole-array path, tuples the per-cell one
        for form in (cells, [tuple(c) for c in cells]):
            with pytest.raises(SchemaError, match=r"^x: expected a \[re, im\] pair, got "):
                json_to_vector(form, "x")
            with pytest.raises(SchemaError, match=r"^A: expected a \[re, im\] pair, got "):
                json_to_matrix([[[0.0, 0.0]] * 3, form], "A")
        with pytest.raises(SchemaError, match=r"^z: expected a \[re, im\] pair, got "):
            json_to_complex([big, 0.0], "z")

    @BIG
    def test_config_fields(self, big):
        with pytest.raises(SchemaError, match=r"^config\.zero_tol: expected a real number$"):
            json_to_config({"zero_tol": big})
        with pytest.raises(SchemaError, match=r"^config\.angles: expected \[alpha1, alpha2\]$"):
            json_to_config({"angles": [0.0, big]})

    @BIG
    def test_measurement_set_fields(self, big):
        obj = measurement_set_to_json(measure(np.ones(3), harmonic_frame(3, 5), MeasurementConfig()))
        bad = json.loads(json.dumps(obj))
        bad["base"][2] = big
        with pytest.raises(SchemaError, match=r"^measurements\.base: expected a list of reals$"):
            json_to_measurement_set(bad)
        bad = json.loads(json.dumps(obj))
        bad["aligned"][1]["value"] = big
        with pytest.raises(SchemaError, match=r"^measurements\.aligned\[1\]\.value: expected"):
            json_to_measurement_set(bad)
        bad = json.loads(json.dumps(obj))
        bad["angles"][0] = big
        with pytest.raises(SchemaError, match=r"^measurements\.angles: expected \[alpha1"):
            json_to_measurement_set(bad)


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

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError, match=r"^jordan: expected an object$"):
            json_to_jordan_spec([1.0, 2.0])

    @pytest.mark.parametrize("key", ["eigenvalues", "multiplicities", "basis"])
    def test_missing_key_rejected(self, key):
        obj = jordan_spec_to_json(JordanSpec(np.array([1.0]), (2,), np.eye(2)))
        del obj[key]
        with pytest.raises(SchemaError, match=rf"^frame\.jordan: missing key '{key}'$"):
            json_to_jordan_spec(obj, "frame.jordan")


class TestFrameSpecs:
    def test_harmonic_variant(self):
        frame = frame_from_spec({"harmonic": {"d": 3, "L": 5}})
        assert frame.dim == 3 and frame.length == 5

    def test_explicit_operator_variant(self):
        spec = {
            "A": vector_to_json(np.eye(2)),
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

    def test_overflowing_orbit_rejected(self):
        spec = {"A": vector_to_json(np.diag([1e200, 1.0])), "phi": [[1.0, 0.0]] * 2, "L": 3}
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SchemaError, match=r"^frame: orbit column A\^2 phi is not finite"):
                frame_from_spec(spec)

    def test_unknown_variant_rejected(self):
        with pytest.raises(SchemaError):
            frame_from_spec({"mystery": 1, "phi": [[1.0, 0.0]], "L": 2})

    def test_missing_generator_rejected(self):
        with pytest.raises(SchemaError, match=r"^frame: missing generator field 'phi'$"):
            frame_from_spec({"A": vector_to_json(np.eye(2)), "L": 3})

    def test_empty_harmonic_rejected(self):
        with pytest.raises(ValueError, match=r"^dim must be >= 1$"):
            harmonic_frame(0, 0)
        with pytest.raises(SchemaError, match=r"^frame\.harmonic: dim must be >= 1$"):
            frame_from_spec({"harmonic": {"d": 0, "L": 0}})

    def test_short_harmonic_rejected(self):
        with pytest.raises(
            SchemaError, match=r"^frame\.harmonic: need length >= dim, got dim=4, length=3$"
        ):
            frame_from_spec({"harmonic": {"d": 4, "L": 3}})

    @pytest.mark.parametrize(
        "variant, message",
        [
            ({"A": []}, r"^frame\.A: expected a nonempty list of rows$"),
            ({"circulant": 3}, r"^frame\.circulant: expected a nonempty list of \[re, im\] pairs$"),
            (
                {"jordan": {"eigenvalues": [[1.0, 0.0]], "multiplicities": [1], "basis": [[1.0]]}},
                r"^frame\.jordan\.basis: expected a \[re, im\] pair, got 1\.0$",
            ),
            (
                {"jordan": {"eigenvalues": [[1.0, 0.0], [2.0, 0.0]], "multiplicities": [1, 1],
                            "basis": vector_to_json(np.ones((2, 2)))}},
                r"^frame\.jordan: similarity basis is numerically singular$",
            ),
        ],
    )
    def test_field_errors_keep_one_prefix(self, variant, message):
        spec = {**variant, "phi": [[1.0, 0.0], [0.0, 1.0]], "L": 3}
        with pytest.raises(SchemaError, match=message):
            frame_from_spec(spec)


_REAL = PolarizationAngles(math.pi, math.pi / 2)


class TestConfigStoresJsonTypes:
    """A config keeps the plain values its JSON holds and refuses what that JSON refuses."""

    @staticmethod
    def _text(config):
        instance = Instance({"harmonic": {"d": 4, "L": 8}}, config, seed=3)
        return dump_json(instance_to_json(instance))

    @pytest.mark.parametrize(
        "given, plain",
        [
            ({"jumps": np.int64(1)}, {"jumps": 1}),
            ({"jumps": np.uint8(2)}, {"jumps": 2}),
            ({"zero_tol": np.float64(1e-6)}, {"zero_tol": 1e-6}),
            ({"zero_tol": np.float32(0.25)}, {"zero_tol": 0.25}),
            ({"angles": _REAL, "real_mode": np.True_}, {"angles": _REAL, "real_mode": True}),
            ({"real_mode": np.False_}, {"real_mode": False}),
        ],
    )
    def test_numpy_scalars_round_trip_as_plain_values(self, given, plain):
        config = MeasurementConfig(**given)
        want = MeasurementConfig(**plain)
        assert [type(getattr(config, f)) for f in ("jumps", "zero_tol", "real_mode")] == [
            int,
            float,
            bool,
        ]
        text = self._text(config)
        assert text == self._text(want)
        assert json_to_instance(json.loads(text)).config == want

    @pytest.mark.parametrize(
        "given",
        [
            {"jumps": True},
            {"jumps": False},
            {"jumps": np.True_},
            {"real_mode": 1},
            {"real_mode": 0},
            {"real_mode": np.int64(1)},
            {"real_mode": "yes"},
            {"real_mode": None},
            {"angles": (0.0, 1.5)},
        ],
    )
    def test_values_the_schema_refuses_raise(self, given):
        with pytest.raises(TypeError):
            MeasurementConfig(**given)


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

    def test_equality_and_hash_do_not_raise(self):
        a = make_instance("harmonic", 4, 6, seed=1)
        b = make_instance("harmonic", 4, 6, seed=1)
        assert a == a and a != b  # identity, as for the other array-holding dataclasses
        assert hash(a) == hash(a) and len({a, b}) == 2

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

    @pytest.mark.parametrize("bad", [1, 0, "true", None])
    def test_non_boolean_real_mode_rejected(self, bad):
        with pytest.raises(SchemaError, match=r"^config\.real_mode: expected a boolean$"):
            json_to_config({"real_mode": bad})

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

    def test_base_text_and_values_unchanged(self):
        frame = harmonic_frame(3, 5)
        x = np.array([1.0, 0.0, -1.0])
        ms = measure(x, frame, MeasurementConfig())
        obj = measurement_set_to_json(ms)
        assert json.dumps(obj["base"]) == json.dumps([float(v) for v in ms.base])
        # ints, numpy floats and an int past 2^53 decode as float(v) does
        obj["base"] = [2**53 + 1, np.float64(0.25), 0, 1e-300, 3.5]
        parsed = json_to_measurement_set(obj)
        assert parsed.base.tobytes() == np.array([float(v) for v in obj["base"]]).tobytes()

    @pytest.mark.parametrize("bad", [True, "1.0", None, [1.0]])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_non_numeric_base_rejected(self, bad, position):
        obj = measurement_set_to_json(measure(np.ones(3), harmonic_frame(3, 5), MeasurementConfig()))
        obj["base"][position] = bad
        with pytest.raises(SchemaError, match=r"measurements\.base: expected a list of reals"):
            json_to_measurement_set(obj)

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError, match=r"^measurements: expected an object$"):
            json_to_measurement_set([1.0, 2.0])

    @pytest.mark.parametrize("key", ["L", "J", "angles", "base", "aligned"])
    def test_missing_key_rejected(self, key):
        obj = measurement_set_to_json(measure(np.ones(3), harmonic_frame(3, 5), MeasurementConfig()))
        del obj[key]
        with pytest.raises(SchemaError, match=rf"^measurements: missing key '{key}'$"):
            json_to_measurement_set(obj)

    @pytest.mark.parametrize("field, bad", [("L", 5.0), ("L", True), ("J", "0"), ("J", None)])
    def test_non_integer_length_or_jumps_rejected(self, field, bad):
        obj = measurement_set_to_json(measure(np.ones(3), harmonic_frame(3, 5), MeasurementConfig()))
        obj[field] = bad
        with pytest.raises(SchemaError, match=r"^measurements: 'L' and 'J' must be integers$"):
            json_to_measurement_set(obj)

    @pytest.mark.parametrize("bad", [{}, "[]", None])
    def test_non_list_aligned_rejected(self, bad):
        obj = measurement_set_to_json(measure(np.ones(3), harmonic_frame(3, 5), MeasurementConfig()))
        obj["aligned"] = bad
        with pytest.raises(SchemaError, match=r"^measurements\.aligned: expected a list$"):
            json_to_measurement_set(obj)

    @pytest.mark.parametrize("missing", ["l", "j", "k", "value", None])
    def test_entry_without_its_keys_rejected(self, missing):
        obj = measurement_set_to_json(measure(np.ones(3), harmonic_frame(3, 5), MeasurementConfig()))
        if missing is None:
            obj["aligned"][2] = [0, 1, 1, 1.0]  # not an object
        else:
            del obj["aligned"][2][missing]
        with pytest.raises(
            SchemaError, match=r"^measurements\.aligned\[2\]: expected keys l, j, k, value$"
        ):
            json_to_measurement_set(obj)

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
        # of two missing cells, the first in (l, j, k) order is named
        frame = harmonic_frame(3, 4)
        obj = measurement_set_to_json(measure(np.ones(3), frame, MeasurementConfig(jumps=1)))
        obj["aligned"] = [
            e for e in obj["aligned"] if (e["l"], e["j"], e["k"]) not in {(2, 1, 2), (0, 2, 1)}
        ]
        with pytest.raises(SchemaError, match=r"aligned grid incomplete: missing \(0, 2, 1\)$"):
            json_to_measurement_set(obj)

    def test_large_jumps_load_without_a_per_cell_walk(self):
        # L = 3 has six cells whatever J is; the padded grid holds 2 (J + 1) (L - 1)
        cells = [(0, 1), (1, 1), (0, 2)]
        obj = {
            "L": 3,
            "J": 10_000,
            "angles": [0.0, math.pi / 2],
            "base": [1.0, 1.0, 1.0],
            "aligned": [{"l": l, "j": j, "k": k, "value": 1.0} for l, j in cells for k in (1, 2)],
        }
        tracemalloc.start()
        try:
            ms = json_to_measurement_set(obj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ms.grid.shape == (10_001, 2, 2)
        assert len(ms.aligned) == 6
        assert peak < 4 * ms.grid.nbytes

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


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: json_to_config([]), "config: expected an object", id="config"),
        pytest.param(lambda: frame_from_spec([]), "frame: expected an object", id="frame"),
        pytest.param(
            lambda: json_to_instance([]),
            "instance: expected an object with a 'frame' field",
            id="instance",
        ),
        pytest.param(
            lambda: json_to_instance({"x": []}),
            "instance: expected an object with a 'frame' field",
            id="instance-without-frame",
        ),
    ],
)
def test_non_objects_rejected(call, message):
    with pytest.raises(SchemaError) as exc:
        call()
    assert str(exc.value) == message
