"""The state-file decoder: the matrix it hands to validation is the one that
json.loads and np.asarray make of the same file, each part as it stands, bit
for bit, and every entry must be a JSON number.  And the run manifest written
beside an output."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbound import NonFinite, StateValidationError, sample_random_density
from xbound import io as xio
from xbound.cli import main
from xbound.io import load_density, make_manifest, save_density, write_manifest
from xbound.linalg import DEFAULT_TOL, Tolerances
from xbound.reference_states import maximally_mixed

# The shapes of the bound-nxn benchmark workload.
SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4), (3, 5), (5, 5), (6, 6), (8, 8)]


def stdlib_matrix(path) -> np.ndarray:
    with open(path) as fh:
        payload = json.loads(fh.read())
    re = np.asarray(payload["re"], dtype=float)
    mat = np.zeros(re.shape, dtype=complex)
    mat.real, mat.imag = re, np.asarray(payload["im"], dtype=float)
    return mat


def decoded_matrix(path) -> np.ndarray:
    """The matrix load_density hands to validate_density."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xio, "validate_density", lambda m, dimA, dimB, tol: seen.append(m))
        load_density(path)
    return seen[0]


def assert_bitwise_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("rank", [1, 2, "full"])
def test_round_trip_matches_stdlib(tmp_path, dims, rank):
    d = dims[0] * dims[1]
    q = sample_random_density(*dims, d if rank == "full" else rank, seed=[d, 7])
    path = tmp_path / "state.json"
    save_density(q, path)
    back = load_density(path)
    assert (back.dimA, back.dimB) == dims
    assert_bitwise_equal(back.mat, stdlib_matrix(path))
    assert_bitwise_equal(back.mat.real, q.mat.real)
    assert_bitwise_equal(back.mat.imag, q.mat.imag)


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and their neighbours
    st.floats(min_value=1e308, max_value=1.7976931348623157e308),
    st.floats(min_value=-1.7976931348623157e308, max_value=-1e308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


def literal(x) -> str:
    return x if isinstance(x, str) else json.dumps(x)


entry = st.one_of(
    finite,
    st.integers(min_value=-2**1023, max_value=2**1023),
    # non-shortest decimal forms, which must round like float() does
    st.builds(lambda x, p: f"{x:.{p}e}", finite, st.integers(0, 30)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), note=st.booleans(), data=st.data())
def test_entries_match_stdlib(tmp_path_factory, n, note, data):
    # A file with a string besides its keys has each entry's type checked
    # before conversion; the matrix is the same.
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(2 * n)]
    text = "{%s}" % ", ".join([
        f'"dimA": {n}', '"dimB": 1',
        '"re": [%s]' % ", ".join("[%s]" % ", ".join(map(literal, r)) for r in rows[:n]),
        '"im": [%s]' % ", ".join("[%s]" % ", ".join(map(literal, r)) for r in rows[n:]),
    ] + ['"note": "a full state"'] * note)
    path = tmp_path_factory.getbasetemp() / "entries.json"
    path.write_text(text)
    assert_bitwise_equal(decoded_matrix(path), stdlib_matrix(path))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_non_finite_tokens_rejected(tmp_path, token):
    # json.dumps writes NaN and Infinity for non-finite entries, and 1e400
    # overflows to inf; each must reach validation and be rejected there.
    m = maximally_mixed(2, 2).mat
    re = [[json.dumps(x) for x in row] for row in m.real.tolist()]
    re[1][2] = token
    text = '{"dimA": 2, "dimB": 2, "re": [%s], "im": %s}' % (
        ", ".join("[%s]" % ", ".join(r) for r in re), json.dumps(m.imag.tolist()))
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    assert not np.isfinite(decoded_matrix(path)[1, 2])
    with pytest.raises(NonFinite):
        load_density(path)


def state_text(token: str, fill: str = "0.0") -> str:
    """A 1x2 state file, diag(1, 0), with token as its re[0][1] and re[1][0]."""
    re = [["1.0", token], [token, fill]]
    return '{"dimA": 1, "dimB": 2, "re": [%s], "im": [[0.0, 0.0], [0.0, 0.0]]}' % (
        ", ".join("[%s]" % ", ".join(r) for r in re))


@pytest.mark.parametrize("text,shown", [
    # numpy parsed each string as a number, so these files were bounded.
    (state_text('"0.0"'), '"0.0"'),
    (state_text('" 0e-1 "'), '" 0e-1 "'),
    # Booleans alone or among numbers were read as 1.0 and 0.0.
    ('{"dimA": 1, "dimB": 2, "re": [[true, false], [false, false]], '
     '"im": [[false, false], [false, false]]}', "true"),
    (state_text("false"), "false"),
    (state_text("0.0", fill="false"), "false"),
    # null was read as NaN, and rejected as NonFinite.
    (state_text("null"), "null"),
    (state_text("{}"), "{}"),
    (state_text("0.0", fill='"0"').replace('"im"', '"note": "x", "im"'), '"0"'),
], ids=["string", "spaced-string", "all-booleans", "boolean", "boolean-among-numbers", "null",
        "object", "string-beside-an-extra-key"])
def test_entries_must_be_numbers(tmp_path, text, shown):
    path = tmp_path / "state.json"
    path.write_text(text)
    with pytest.raises(StateValidationError) as info:
        load_density(path)
    assert type(info.value) is StateValidationError
    assert str(info.value) == f"re/im entries must be numbers, got {shown}"


def test_numbers_only_gate():
    # The files that skip the per-entry check: no string but the four keys,
    # and no true, false or null.
    assert xio._numbers_only(state_text("0.0").encode())
    assert xio._numbers_only(state_text("NaN").encode())
    assert xio._numbers_only(state_text("-Infinity").encode())
    for token in ('"0.0"', "true", "false", "null"):
        assert not xio._numbers_only(state_text(token).encode())
    assert not xio._numbers_only(state_text("0").replace('"im"', '"x": 1, "im"').encode())


@pytest.mark.parametrize("key", ["dimA", "dimB"])
@pytest.mark.parametrize("literal", ["18446744073709551616", "-9223372036854775809", "10" * 15])
def test_dims_beyond_64_bits_stay_integers(tmp_path, capsys, key, literal):
    # orjson reads these literals as floats and json.loads as ints; the file
    # holds an integer, so the error is about its size, not its type.
    m = maximally_mixed(2, 2).mat
    text = json.dumps({"dimA": 2, "dimB": 2, "re": m.real.tolist(), "im": m.imag.tolist()})
    path = tmp_path / "state.json"
    path.write_text(text.replace(f'"{key}": 2', f'"{key}": {literal}'))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xio, "validate_density", lambda m, dimA, dimB, tol: seen.append((dimA, dimB)))
        load_density(path)
    assert seen == [{"dimA": (int(literal), 2), "dimB": (2, int(literal))}[key]]
    assert main(["bound", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: WrongDimensions: ")
    assert "must be an integer" not in err and literal in err
    # A dimension written as a float still is one.
    path.write_text(path.read_text().replace(literal, "2.0"))
    assert main(["bound", str(path)]) == 2
    assert f"{key} must be an integer, got 2.0" in capsys.readouterr().err


def test_negative_zero_keeps_its_sign(tmp_path):
    # re + 1j * im would turn a -0.0 real part with a non-negative imaginary
    # part into +0.0.
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps({"dimA": 1, "dimB": 2, "re": [[0.5, -0.0], [-0.0, 0.5]],
                                "im": [[0.0, 0.0], [-0.0, 0.0]]}))
    mat = load_density(path).mat
    assert np.signbit(mat.real).tolist() == [[False, True], [True, False]]
    assert np.signbit(mat.imag).tolist() == [[False, False], [True, False]]


def test_manifest_hashes_and_writes_its_tolerances_as_a_dict(tmp_path):
    tol = Tolerances.uniform(1e-6)
    m = make_manifest("bound", "sha256:0", 7, tol)
    assert m.tolerances is tol
    assert hash(m) == hash(m) and len({m, m}) == 1
    assert make_manifest("bound", "sha256:0", 7).tolerances is DEFAULT_TOL
    written = json.loads(write_manifest(m, tmp_path / "out.json").read_text())
    assert sorted(written) == ["command", "input_hash", "seed", "timestamp", "tolerances",
                               "version"]
    assert written["tolerances"] == {"herm": 1e-6, "trace": 1e-6, "psd": 1e-6, "norm": 1e-6,
                                     "unitary": 1e-6}
