"""The state-file decoder: the matrix it hands to validation is the one that
json.loads and np.asarray make of the same file, each part as it stands, bit
for bit."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbound import NonFinite, sample_random_density
from xbound import io as xio
from xbound.io import load_density, save_density
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
@given(n=st.integers(1, 3), data=st.data())
def test_entries_match_stdlib(tmp_path_factory, n, data):
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(2 * n)]
    text = "{%s}" % ", ".join([
        f'"dimA": {n}', '"dimB": 1',
        '"re": [%s]' % ", ".join("[%s]" % ", ".join(map(literal, r)) for r in rows[:n]),
        '"im": [%s]' % ", ".join("[%s]" % ", ".join(map(literal, r)) for r in rows[n:]),
    ])
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


def test_negative_zero_keeps_its_sign(tmp_path):
    # re + 1j * im would turn a -0.0 real part with a non-negative imaginary
    # part into +0.0.
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps({"dimA": 1, "dimB": 2, "re": [[0.5, -0.0], [-0.0, 0.5]],
                                "im": [[0.0, 0.0], [-0.0, 0.0]]}))
    mat = load_density(path).mat
    assert np.signbit(mat.real).tolist() == [[False, True], [True, False]]
    assert np.signbit(mat.imag).tolist() == [[False, False], [True, False]]
