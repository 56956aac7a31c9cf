"""Density-matrix file format and run manifests.

A density matrix is stored as a JSON object::

    {
      "dimA": <int>,              subsystem A dimension
      "dimB": <int>,              subsystem B dimension
      "re": [[...], ...],         real parts, (dimA*dimB) x (dimA*dimB), row-major
      "im": [[...], ...]          imaginary parts, same shape
    }

The row/column index of |i,k> is i*dimB + k (A-index major).  Every re/im
entry must be a JSON number: a string, true, false or null is rejected.

Files are decoded by orjson; whatever it rejects is handed to json.loads,
which defines the format: it also reads the NaN/Infinity tokens that
save_density writes for non-finite entries and overflowing literals such as
1e400, which validation then rejects as NonFinite.  A file whose dimA or
dimB orjson reads as a float is decoded again by json.loads, since orjson
reads an integer beyond 64 bits as a float and json.loads as an int.
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
    # "[" (0x5B) and "{" (0x7B) are the two bytes that bit 0x20 maps to 0x7B.
    # Compared in place, the count makes one temporary the size of the file.
    chars = np.frombuffer(data, dtype=np.uint8) | 0x20
    if np.count_nonzero(np.equal(chars, 0x7B, out=chars.view(bool))) <= _ORJSON_MAX_BRACKETS:
        try:
            payload = orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
        else:
            # orjson reads an integer beyond 64 bits as a float; json.loads keeps it an int.
            if (not isinstance(payload, dict)
                    or float not in (type(payload.get("dimA")), type(payload.get("dimB")))):
                return payload
    return json.loads(data.decode("utf-8"))


def _rectangular(part, dtype=None) -> np.ndarray:
    """np.asarray(part, dtype), or a StateValidationError if numpy cannot make one."""
    try:
        return np.asarray(part, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateValidationError(f"re/im must be rectangular arrays of numbers: {exc}") from exc


def _numbers_only(data: bytes) -> bool:
    """Whether a state file's entries can only be numbers, read from its bytes.

    So it is when its only strings are the four required keys (8 quote
    marks) and it holds no true, false or null: those are the JSON literals
    with a "u" or an "l", and no number, NaN, Infinity or required key has
    either letter.  Each test is one memchr scan.
    """
    if b"u" in data or b"l" in data:
        return False
    end = -1
    for _ in range(9):
        end = data.find(b'"', end + 1)
        if end < 0:
            return True
    return False


def _parts(re, im, numbers_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """re and im as float arrays of one shape, or a StateValidationError.

    Every entry must be a JSON number.  Told the dtype, numpy also reads a
    string, true, false or null as a number, so unless _numbers_only vouches
    for the file each entry's type is checked first.
    """
    if numbers_only:
        try:
            parts = np.array((re, im), dtype=float)
            return parts[0], parts[1]
        except (TypeError, ValueError, OverflowError):
            pass  # the checks below say what is wrong
    out = []
    for part in (re, im):
        _rectangular(part)
        bad = [v for v in np.array(part, dtype=object).flat if type(v) not in (int, float)]
        if bad:
            raise StateValidationError(f"re/im entries must be numbers, got {json.dumps(bad[0])}")
        out.append(_rectangular(part, float))
    if out[0].shape != out[1].shape:
        raise StateValidationError(f"re/im shapes differ: {out[0].shape} vs {out[1].shape}")
    return out[0], out[1]


def load_density(path: str | Path, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Parse and validate a density-matrix JSON file."""
    try:
        with open(path, "rb", buffering=0) as fh:  # one read; a buffer would only copy
            data = fh.read()
        payload = _decode(data)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the
        # int-string digit limit.
        raise StateValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise StateValidationError("top level must be a JSON object")
    for key in ("dimA", "dimB", "re", "im"):
        if key not in payload:
            raise StateValidationError(f"missing required key {key!r}")
    re, im = _parts(payload["re"], payload["im"], _numbers_only(data))
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
    """Provenance record accompanying generated output files.

    Every field is immutable, so a manifest hashes; write_manifest renders
    the Tolerances as a dict of its fields.
    """

    command: str
    input_hash: str
    seed: int
    tolerances: Tolerances
    version: str
    timestamp: str


def make_manifest(command: str, input_hash: str, seed: int,
                  tol: Tolerances = DEFAULT_TOL) -> RunManifest:
    return RunManifest(
        command=command,
        input_hash=input_hash,
        seed=seed,
        tolerances=tol,
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
