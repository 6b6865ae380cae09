"""JSON schemas for every value that crosses the CLI boundary.

Complex numbers travel as ``[re, im]`` pairs, vectors as lists of pairs,
matrices as row-major lists of rows. Serialization relies on Python's
shortest round-trip float formatting, so dump -> load is bit-exact for
doubles and byte-identical across runs given identical values. Complex data
crosses as whole arrays; :func:`json_to_complex` defines a valid cell, and
decoders run it per cell unless every cell is a list of two exact ints or
floats (as ``json.loads`` gives them). A JSON integer too large for a double
is not a number to any decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .exceptions import SchemaError
from .frames import DynamicalFrame, build, circulant, harmonic_frame
from .polarization import PolarizationAngles
from .retrieval import MeasurementConfig, MeasurementSet, RecoveryResult
from .spectral import JordanSpec, assemble
from .validation import frozen_copy


#: The smallest integer magnitude that ``float`` rounds past the largest double.
_INT_OVERFLOW = 2**1024 - 2**970


def _is_real(value: Any) -> bool:
    """A JSON number a double can hold; ``bool`` is an ``int`` but not a number here."""
    return isinstance(value, float) or (_is_int(value) and abs(value) < _INT_OVERFLOW)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_pair(obj: Any) -> bool:
    """A list or tuple of two JSON numbers: a complex cell or an angle pair."""
    return isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_real, obj))


class _Schema:
    """A ``ValueError`` of the block as ``SchemaError`` at ``where``; a ``SchemaError`` passes."""

    def __init__(self, where: str):
        self.where = where

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ValueError) and not isinstance(exc, SchemaError):
            raise SchemaError(f"{self.where}: {exc}") from exc


def json_to_complex(obj: Any, where: str = "value") -> complex:
    if not _is_pair(obj):
        raise SchemaError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def vector_to_json(v) -> list:
    """A complex array as ``[re, im]`` pairs nested like its axes (rows for a matrix)."""
    arr = np.ascontiguousarray(v, dtype=complex)
    return arr.view(float).reshape(*arr.shape, 2).tolist()


def json_to_vector(obj: Any, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a nonempty list of [re, im] pairs")
    if set(map(type, obj)) == {list} and set(map(len, obj)) == {2}:
        flat = list(chain.from_iterable(obj))
        if set(map(type, flat)) <= {int, float}:
            try:
                return np.array(flat, dtype=float).view(complex)
            except OverflowError:
                pass  # an int past the double range; the per-cell rule names its cell
    return np.array([json_to_complex(p, where) for p in obj], dtype=complex)


def json_to_matrix(obj: Any, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError(f"{where}: expected a nonempty list of rows")
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise SchemaError(f"{where}: rows must be nonempty and equally long")
    return json_to_vector(list(chain.from_iterable(obj)), where).reshape(len(obj), width)


def jordan_spec_to_json(spec: JordanSpec) -> dict:
    return {
        "eigenvalues": vector_to_json(spec.eigenvalues),
        "multiplicities": list(spec.multiplicities),
        "basis": vector_to_json(spec.basis),
    }


def json_to_jordan_spec(obj: Any, where: str = "jordan") -> JordanSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    for key in ("eigenvalues", "multiplicities", "basis"):
        if key not in obj:
            raise SchemaError(f"{where}: missing key {key!r}")
    mults = obj["multiplicities"]
    if not isinstance(mults, list) or not all(_is_int(m) and m >= 1 for m in mults):
        raise SchemaError(f"{where}.multiplicities: expected positive integers")
    with _Schema(where):
        return JordanSpec(
            json_to_vector(obj["eigenvalues"], f"{where}.eigenvalues"),
            tuple(mults),
            json_to_matrix(obj["basis"], f"{where}.basis"),
        )


def angles_to_json(angles: PolarizationAngles) -> list[float]:
    return [angles.alpha1, angles.alpha2]


def json_to_angles(obj: Any, where: str = "angles") -> PolarizationAngles:
    if not _is_pair(obj):
        raise SchemaError(f"{where}: expected [alpha1, alpha2]")
    with _Schema(where):
        return PolarizationAngles(float(obj[0]), float(obj[1]))


def config_to_json(config: MeasurementConfig) -> dict:
    return {
        "angles": angles_to_json(config.angles),
        "J": config.jumps,
        "zero_tol": config.zero_tol,
        "real_mode": config.real_mode,
    }


def json_to_config(obj: Any, where: str = "config") -> MeasurementConfig:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    angles = json_to_angles(obj["angles"], f"{where}.angles") if "angles" in obj else None
    kwargs: dict[str, Any] = {}
    if angles is not None:
        kwargs["angles"] = angles
    if "J" in obj:
        if not _is_int(obj["J"]) or obj["J"] < 0:
            raise SchemaError(f"{where}.J: expected a nonnegative integer")
        kwargs["jumps"] = obj["J"]
    if "zero_tol" in obj:
        if not _is_real(obj["zero_tol"]):
            raise SchemaError(f"{where}.zero_tol: expected a real number")
        kwargs["zero_tol"] = float(obj["zero_tol"])
    if "real_mode" in obj:
        if not isinstance(obj["real_mode"], bool):
            raise SchemaError(f"{where}.real_mode: expected a boolean")
        kwargs["real_mode"] = obj["real_mode"]
    with _Schema(where):
        return MeasurementConfig(**kwargs)


def frame_from_spec(spec: Any, where: str = "frame") -> DynamicalFrame:
    """Build the orbit described by one of the four frame schema variants."""
    if not isinstance(spec, dict):
        raise SchemaError(f"{where}: expected an object")
    if "harmonic" in spec:
        h = spec["harmonic"]
        if not isinstance(h, dict) or not _is_int(h.get("d")) or not _is_int(h.get("L")):
            raise SchemaError(f"{where}.harmonic: expected integer fields 'd' and 'L'")
        with _Schema(f"{where}.harmonic"):
            return harmonic_frame(h["d"], h["L"])
    if not _is_int(spec.get("L")) or spec["L"] < 1:
        raise SchemaError(f"{where}: missing positive integer field 'L'")
    if "phi" not in spec:
        raise SchemaError(f"{where}: missing generator field 'phi'")
    phi = json_to_vector(spec["phi"], f"{where}.phi")
    length = spec["L"]
    with _Schema(where):
        if "A" in spec:
            return build(json_to_matrix(spec["A"], f"{where}.A"), phi, length)
        if "jordan" in spec:
            return build(assemble(json_to_jordan_spec(spec["jordan"], f"{where}.jordan")), phi, length)
        if "circulant" in spec:
            return build(circulant(json_to_vector(spec["circulant"], f"{where}.circulant")), phi, length)
    raise SchemaError(
        f"{where}: expected one of the variants 'A', 'jordan', 'circulant', 'harmonic'"
    )


@dataclass(frozen=True, eq=False)
class Instance:
    """A frame description plus measurement config, optional signal and seed."""

    frame_spec: dict
    config: MeasurementConfig
    signal: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.signal is not None:
            object.__setattr__(self, "signal", frozen_copy(np.asarray(self.signal, dtype=complex)))

    def build_frame(self) -> DynamicalFrame:
        """The described frame, built on the first call and kept (frames are immutable)."""
        frame = self.__dict__.get("_frame")
        if frame is None:
            frame = frame_from_spec(self.frame_spec)
            if self.signal is not None and self.signal.size != frame.dim:
                raise SchemaError(
                    f"signal has dim {self.signal.size} but the frame has dim {frame.dim}"
                )
            object.__setattr__(self, "_frame", frame)
        return frame


def instance_to_json(instance: Instance) -> dict:
    out: dict[str, Any] = {"frame": instance.frame_spec}
    if instance.signal is not None:
        out["x"] = vector_to_json(instance.signal)
    if instance.seed is not None:
        out["seed"] = instance.seed
    out["config"] = config_to_json(instance.config)
    return out


def json_to_instance(obj: Any) -> Instance:
    if not isinstance(obj, dict) or "frame" not in obj:
        raise SchemaError("instance: expected an object with a 'frame' field")
    config = json_to_config(obj["config"]) if "config" in obj else MeasurementConfig()
    signal = json_to_vector(obj["x"], "instance.x") if "x" in obj else None
    seed = obj.get("seed")
    if seed is not None and not _is_int(seed):
        raise SchemaError("instance.seed: expected an integer")
    instance = Instance(obj["frame"], config, signal, seed)
    instance.build_frame()  # validates the frame spec and dimension consistency
    return instance


def measurement_set_to_json(ms: MeasurementSet) -> dict:
    return {
        "L": ms.length,
        "J": ms.jumps,
        "angles": angles_to_json(ms.angles),
        "base": ms.base.tolist(),
        "aligned": [{"l": l, "j": j, "k": k, "value": v} for (l, j, k), v in ms.aligned.items()],
    }


def json_to_measurement_set(obj: Any) -> MeasurementSet:
    if not isinstance(obj, dict):
        raise SchemaError("measurements: expected an object")
    for key in ("L", "J", "angles", "base", "aligned"):
        if key not in obj:
            raise SchemaError(f"measurements: missing key {key!r}")
    if not _is_int(obj["L"]) or not _is_int(obj["J"]):
        raise SchemaError("measurements: 'L' and 'J' must be integers")
    base = obj["base"]
    if not isinstance(base, list) or not all(map(_is_real, base)):
        raise SchemaError("measurements.base: expected a list of reals")
    entries = obj["aligned"]
    if not isinstance(entries, list):
        raise SchemaError("measurements.aligned: expected a list")
    aligned: dict[tuple[int, int, int], float] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {"l", "j", "k", "value"} <= set(entry):
            raise SchemaError(f"measurements.aligned[{i}]: expected keys l, j, k, value")
        if not all(_is_int(entry[f]) for f in ("l", "j", "k")):
            raise SchemaError(f"measurements.aligned[{i}]: l, j, k must be integers")
        if not _is_real(entry["value"]):
            raise SchemaError(f"measurements.aligned[{i}].value: expected a real number")
        key = (entry["l"], entry["j"], entry["k"])
        if key in aligned:
            raise SchemaError(f"measurements.aligned[{i}]: duplicate entry {key}")
        aligned[key] = float(entry["value"])
    angles = json_to_angles(obj["angles"], "measurements.angles")
    with _Schema("measurements"):
        return MeasurementSet(obj["L"], obj["J"], angles, base, aligned)


def recovery_result_to_json(result: RecoveryResult) -> dict:
    return {
        "estimate": vector_to_json(result.estimate),
        "status": result.status.value,
        "used_indices": list(result.used_indices),
        "component_size": result.component_size,
        "residual": result.residual,
    }


def dump_json(obj: Any, path: str | Path | None = None) -> str:
    """Canonical serialization: 2-space indent, trailing newline."""
    text = json.dumps(obj, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def load_json(path: str | Path, data: bytes | None = None) -> Any:
    """Parse a UTF-8 JSON file, or its bytes ``data``; errors give the byte, or line and column."""
    raw = Path(path).read_bytes() if data is None else data
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
