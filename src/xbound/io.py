"""Density-matrix file format and run manifests.

A density matrix is stored as a JSON object::

    {
      "dimA": <int>,              subsystem A dimension
      "dimB": <int>,              subsystem B dimension
      "re": [[...], ...],         real parts, (dimA*dimB) x (dimA*dimB), row-major
      "im": [[...], ...]          imaginary parts, same shape
    }

The row/column index of |i,k> is i*dimB + k (A-index major).

Files are decoded by orjson; whatever it rejects is handed to json.loads,
which defines the format: it also reads the NaN/Infinity tokens that
save_density writes for non-finite entries and overflowing literals such as
1e400, which validation then rejects as NonFinite.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .errors import StateValidationError
from .linalg import DEFAULT_TOL, DensityMatrix, Tolerances, validate_density


# orjson 3.8 recurses once per nesting level, with no limit, and overflows the
# C stack (a segfault) at about 150,000 levels on an 8 MB stack.  A document
# with more brackets than this goes to json.loads, which raises RecursionError
# instead; a state file has 2*dim + 3 of them.
_ORJSON_MAX_BRACKETS = 1024


def _decode(data: bytes):
    """The JSON value of a state file's bytes (see the module docstring)."""
    chars = np.frombuffer(data, dtype=np.uint8)  # counts 4x faster than bytes.count
    brackets = np.count_nonzero(chars == ord("[")) + np.count_nonzero(chars == ord("{"))
    if brackets <= _ORJSON_MAX_BRACKETS:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return json.loads(data.decode("utf-8"))


def load_density(path: str | Path, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Parse and validate a density-matrix JSON file."""
    try:
        payload = _decode(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the
        # int-string digit limit.
        raise StateValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise StateValidationError("top level must be a JSON object")
    for key in ("dimA", "dimB", "re", "im"):
        if key not in payload:
            raise StateValidationError(f"missing required key {key!r}")
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateValidationError(
            f"re/im must be rectangular arrays of numbers: {exc}"
        ) from exc
    if re.shape != im.shape:
        raise StateValidationError(
            f"re/im shapes differ: {re.shape} vs {im.shape}"
        )
    # Each part as it stands: a zero keeps its sign, a non-finite part is rejected.
    mat = np.empty(re.shape, dtype=complex)
    mat.real, mat.imag = re, im
    return validate_density(mat, payload["dimA"], payload["dimB"], tol)


def save_density(q: DensityMatrix, path: str | Path) -> None:
    """Write a density matrix in the JSON file format."""
    payload = {
        "dimA": q.dimA,
        "dimB": q.dimB,
        "re": q.mat.real.tolist(),
        "im": q.mat.imag.tolist(),
    }
    Path(path).write_text(json.dumps(payload))


def save_unitaries(uA: np.ndarray, uB: np.ndarray, path: str | Path) -> None:
    """Write a local-unitary pair as JSON (same re/im layout as density files)."""
    payload = {
        "uA": {"re": uA.real.tolist(), "im": uA.imag.tolist()},
        "uB": {"re": uB.real.tolist(), "im": uB.imag.tolist()},
    }
    Path(path).write_text(json.dumps(payload))


@dataclass(frozen=True)
class RunManifest:
    """Provenance record accompanying generated output files."""

    command: str
    input_hash: str
    seed: int
    tolerances: dict
    version: str
    timestamp: str


def make_manifest(command: str, input_hash: str, seed: int,
                  tol: Tolerances = DEFAULT_TOL) -> RunManifest:
    return RunManifest(
        command=command,
        input_hash=input_hash,
        seed=seed,
        tolerances=asdict(tol),
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def write_manifest(manifest: RunManifest, out_path: str | Path) -> Path:
    """Write the sidecar manifest for an output file and return its path."""
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True))
    return path


def hash_file(path: str | Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def hash_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
