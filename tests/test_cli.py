import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xbound
from xbound import (
    InvariantViolation,
    IsotropicState,
    conjugate_by_local_unitary,
    isotropic_matrix,
    projector,
    pure_state,
    sample_haar_unitary,
)
from xbound.cli import main
from xbound.io import load_density, save_density
from xbound.linalg import DEFAULT_TOL, Tolerances
from xbound.reference_states import bell_phi_plus, maximally_mixed


# (re, im) of 2x2 matrices whose finite entries near the float limit overflow
# a naive check: in re - re^T, in the trace, and in the modulus of the
# difference even after halving.
HUGE_ENTRIES = [
    ([[0.5, 1.7e308], [-1.7e308, 0.5]], [[0.0, 0.0], [0.0, 0.0]]),
    ([[1.7e308, 0.0], [0.0, 1.7e308]], [[0.0, 0.0], [0.0, 0.0]]),
    ([[0.5, 1.7e308], [-1.7e308, 0.5]], [[0.0, 1.7e308], [1.7e308, 0.0]]),
]


def run_cli(*args):
    """Run `python -m xbound.cli` with args in a child process."""
    src = str(Path(xbound.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "xbound.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)


def write_matrix(path, m, dims=(2, 2)):
    """Write m as a state file as it stands, valid or not, without making a state."""
    m = np.asarray(m, dtype=complex)
    path.write_text(json.dumps({"dimA": dims[0], "dimB": dims[1],
                                "re": m.real.tolist(), "im": m.imag.tolist()}))


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_density(projector(bell_phi_plus()), path)
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    save_density(maximally_mixed(2, 2), path)
    return str(path)


class TestBound:
    def test_bell(self, bell_file, capsys):
        code = main(["bound", bell_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound=1.000000" in out
        assert "exact=1.000000" in out
        assert "verdict=entangled" in out

    def test_maximally_mixed_inconclusive(self, mixed_file, capsys):
        code = main(["bound", mixed_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "bound=0.000000" in out
        assert "verdict=inconclusive" in out

    def test_isotropic_d3(self, tmp_path, capsys):
        path = tmp_path / "iso.json"
        save_density(isotropic_matrix(IsotropicState(d=3, F=0.5)), path)
        code = main(["bound", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound=0.166667" in out

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dimA": 2, "dimB": 2}')
        code = main(["bound", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "re" in err

    def test_not_a_state(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        write_matrix(path, np.diag([1.0, 1.0, -1.0, 0.0]))
        code = main(["bound", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "NotPositive" in err

    def test_dims_mismatch(self, bell_file, capsys):
        code = main(["bound", bell_file, "--dims", "3,3"])
        assert code == 2

    def test_bound_above_exact_exits_3(self, bell_file, capsys, monkeypatch):
        # A 2x2 bound above its exact value is a bug, not a verdict.
        monkeypatch.setattr("xbound.two_qubit._wootters", lambda mats: np.zeros(mats.shape[:-2]))
        code = main(["bound", bell_file])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: InvariantViolation:")

    def test_missing_file(self, capsys):
        assert main(["bound", "/nonexistent/state.json"]) == 2

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (8, 8)])
    def test_pure_product_inconclusive(self, tmp_path, capsys, dims):
        # The pair margin of a product state is exactly 0 but evaluates to a
        # few ulps either side; roundoff must not certify entanglement.
        rng = np.random.default_rng(dims)
        path = tmp_path / "product.json"
        for _ in range(10):
            a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            save_density(projector(pure_state(v, *dims)), path)
            code = main(["bound", str(path)])
            out = capsys.readouterr().out
            assert code == 1
            assert "verdict=inconclusive" in out

    def test_options_do_not_carry_over(self, tmp_path, capsys, monkeypatch):
        # The parser is built once per process; each call must still start
        # from the defaults.
        path = tmp_path / "loose.json"
        m = np.eye(4) / 4
        m[0, 0] += 1e-4  # trace off by 1e-4: accepted at --tol 1e-3 only
        write_matrix(path, m)
        assert main(["--tol", "1e-3", "bound", str(path), "--dims", "2,2"]) == 1
        capsys.readouterr()
        assert main(["bound", str(path)]) == 2
        assert "TraceNotOne" in capsys.readouterr().err

        seen = []
        monkeypatch.setattr("xbound.cli.load_density",
                            lambda p, tol: seen.append(tol) or maximally_mixed(3, 3))
        assert main(["--tol", "1e-3", "bound", str(path), "--dims", "2,2"]) == 2
        assert main(["bound", str(path)]) == 1
        assert seen == [Tolerances.uniform(1e-3), DEFAULT_TOL]

    def test_non_finite_entry(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        m = np.eye(4) / 4
        m[1, 2] = np.nan
        write_matrix(path, m)
        code = main(["bound", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: NonFinite:")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol(self, tmp_path, capsys, tol):
        # With a NaN or infinite tolerance this trace-12 matrix used to pass
        # validation; certify and fuzz, which read no state, used to exit 0.
        path = tmp_path / "threes.json"
        path.write_text(json.dumps({
            "dimA": 2, "dimB": 2, "re": [[3.0] * 4] * 4, "im": [[0.0] * 4] * 4,
        }))
        out = tmp_path / "out.json"
        for argv in (["bound", str(path)],
                     ["certify", "--q14", "0.5", "--d22", "0.1", "--d33", "0.1"],
                     ["isotropic-sweep", "--d", "3", "--steps", "3", "--out", str(out)],
                     ["fuzz", "--trials", "2"],
                     ["optimize-basis", str(path), "--out", str(out)]):
            code = main(["--tol", tol, *argv])
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.err.startswith("error: OutOfRange: tolerance herm must be finite")
            assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["threes.json"]

    def test_manifest_records_applied_tolerances(self, bell_file, tmp_path):
        # optimize-basis validates its input at --tol; the sweep builds its
        # states at the defaults, so --tol does not reach its manifest.
        assert main(["--tol", "1e-3", "optimize-basis", bell_file,
                     "--out", str(tmp_path / "u.json")]) == 0
        assert main(["--tol", "0.5", "isotropic-sweep", "--d", "2", "--steps", "2",
                     "--out", str(tmp_path / "s.csv")]) == 0
        for name, tol in (("u.json", Tolerances.uniform(1e-3)), ("s.csv", DEFAULT_TOL)):
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            assert manifest["tolerances"] == dataclasses.asdict(tol)

    @pytest.mark.parametrize("payload", [
        {"dimA": 2, "dimB": 2, "re": [["x", 0, 0, 0]] + [[0] * 4] * 3, "im": [[0] * 4] * 4},
        {"dimA": 2, "dimB": 2, "re": [[1, 0, 0]] + [[0] * 4] * 3, "im": [[0] * 4] * 4},
        {"dimA": 2.5, "dimB": 2, "re": [[1] + [0] * 3] + [[0] * 4] * 3, "im": [[0] * 4] * 4},
        # Each of the next five ended in a traceback with exit 1.
        "[" * 100_000,
        '{"dimA": 2, "dimB": 2, "re": %s, "im": [[0]]}' % ("[" * 5000 + "]" * 5000),
        '{"dimA": 1, "dimB": 1, "re": [[%d]], "im": [[0]]}' % 10**400,
        '{"dimA": 1, "dimB": 1, "re": [[%s]], "im": [[0]]}' % ("1" * 5001),
        {"dimA": 2, "dimB": 2, "im": [[0.0] * 4] * 4,
         "re": [[1e308, 0, 0, 0], [0, -1e308, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]},
    ], ids=["non-numeric-re", "ragged-rows", "non-integer-dimA", "deep-unclosed", "deep-re",
            "int-overflows-float", "int-digit-limit", "hermitian-part-overflows"])
    def test_malformed_entries(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code = main(["bound", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("diag,off,shown", [
        # The strings and the booleans were read as numbers; null exited 2 as NonFinite.
        ('"0.25"', "0", '"0.25"'),
        ('" 2.5e-1 "', "0", '" 2.5e-1 "'),
        ("0.25", "null", "null"),
        ("0.25", "false", "false"),
        ("true", "false", "true"),
    ], ids=["string", "spaced-string", "null", "boolean-among-numbers", "booleans"])
    def test_non_number_entries(self, tmp_path, capsys, diag, off, shown):
        path = tmp_path / "strings.json"
        re = [[diag if i == j else off for j in range(4)] for i in range(4)]
        path.write_text('{"dimA": 2, "dimB": 2, "re": [%s], "im": %s}' % (
            ", ".join("[%s]" % ", ".join(r) for r in re), json.dumps([[0] * 4] * 4)))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: StateValidationError: re/im entries must be numbers, got {shown}\n")

    @pytest.mark.parametrize("key,value", [("dimA", 2.0), ("dimB", True), ("dimA", "2")])
    def test_non_integer_dims(self, tmp_path, capsys, key, value):
        path = tmp_path / "dims.json"
        doc = {"dimA": 2, "dimB": 2, "re": (np.eye(4) / 4).tolist(), "im": [[0.0] * 4] * 4}
        doc[key] = value
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: WrongDimensions: {key} must be an integer, got {value!r}\n")

    def test_deep_document_does_not_crash(self, tmp_path):
        # orjson 3.8 overflows the C stack on a document a million levels
        # deep; run in a child process so that a crash cannot take the test
        # run with it.
        path = tmp_path / "deep.json"
        path.write_text("[" * 1_000_000 + "]" * 1_000_000)
        proc = run_cli("bound", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: StateValidationError: not valid JSON:")

    @pytest.mark.parametrize("dims,re,im", [
        ((2, 2), [[1e308, 0, 0, 0], [0, -1e308, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
         [[0.0] * 4] * 4),
        ((2, 2), (np.eye(4) / 4).tolist(), [[0.0, math.inf, 0.0, 0.0]] + [[0.0] * 4] * 3),
        *(((1, 2), re, im) for re, im in HUGE_ENTRIES),
    ], ids=["hermitian-part-overflows", "infinite-imaginary-part", "difference-overflows",
            "trace-overflows", "modulus-overflows"])
    def test_overflow_prints_only_the_error(self, tmp_path, dims, re, im):
        # numpy's RuntimeWarnings about the overflow must not reach the
        # user's stderr ahead of the error line.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"dimA": dims[0], "dimB": dims[1], "re": re, "im": im}))
        proc = run_cli("bound", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1


# Arbitrary JSON values, with NaN and infinities (json.dumps writes them as
# tokens) and integers far outside the float range.
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=5)
    | st.integers(min_value=-10**400, max_value=10**400),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8,
)
small_dims = st.integers(2, 3)


@st.composite
def matrices(draw, dims):
    """re/im of a square matrix of dims' size: a state, or a perturbed one."""
    if all(type(x) is int and 0 < x < 4 for x in dims):
        d = dims[0] * dims[1]
    else:
        d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((d, draw(st.integers(1, d)), 2)) @ [1, 1j]
    m = g @ g.conj().T
    m /= np.trace(m).real
    if draw(st.booleans()):
        m[draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))] += draw(
            st.floats(-1e-7, 1e-7) | st.floats() | st.complex_numbers())
    return m.real.tolist(), m.imag.tolist()


@st.composite
def state_documents(draw) -> bytes:
    dims = tuple(draw(json_values if draw(st.integers(0, 4)) == 4 else small_dims)
                 for _ in range(2))
    re, im = draw(matrices(dims))
    doc = {"dimA": dims[0], "dimB": dims[1], "re": re, "im": im}
    for key in ("dimA", "dimB", "re", "im"):
        choice = draw(st.sampled_from(["keep"] * 6 + ["replace", "drop"]))
        if choice == "replace":
            doc[key] = draw(json_values)
        elif choice == "drop":
            del doc[key]
    text = json.dumps(doc).encode()
    if draw(st.integers(0, 3)) == 3:  # cut or splice the text
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.binary(max_size=8)) + text[i + draw(st.integers(0, 8)):]
    return text


def _state_text(diag, entry=None) -> bytes:
    """A diagonal 2x2 state file, with one literal in place of re[1][2]."""
    re = [[json.dumps(diag[i] if i == j else 0.0) for j in range(4)] for i in range(4)]
    if entry is not None:
        re[1][2] = entry
    return ('{"dimA": 2, "dimB": 2, "re": [%s], "im": %s}' % (
        ", ".join("[%s]" % ", ".join(r) for r in re), json.dumps([[0.0] * 4] * 4))).encode()


def _huge_text(n) -> bytes:
    """The 1x2 state file of HUGE_ENTRIES[n]."""
    re, im = HUGE_ENTRIES[n]
    return json.dumps({"dimA": 1, "dimB": 2, "re": re, "im": im}).encode()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=state_documents() | st.binary(max_size=64) | json_values.map(
    lambda v: json.dumps(v).encode()))
@example(text=json.dumps({"dimA": 2, "dimB": 2, "re": [[0.5, 0, 0, 0.5], [0] * 4, [0] * 4,
                                                      [0.5, 0, 0, 0.5]],
                          "im": [[0] * 4] * 4}).encode())
@example(text=_state_text([0.25] * 4))
@example(text=_state_text([0.5, 0.5, 0.5, -0.5]))
@example(text=_state_text([0.25] * 4, "NaN"))
@example(text=_state_text([0.25] * 4, "-1e400"))
@example(text=_state_text([0.25] * 4, str(10**400)))
@example(text=_huge_text(0))
@example(text=_huge_text(1))
@example(text=_huge_text(2))
def test_bound_exit_code_contract(tmp_path_factory, text):
    # Every input ends in exit 0, 1 or 2, never in an exception.
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["bound", str(path)])
    assert code in (0, 1, 2)


class TestCertify:
    def test_bell_elements(self, capsys):
        code = main(["certify", "--q14", "0.5", "--d22", "0", "--d33", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "entangled" in out and "C1=1" in out

    def test_inconclusive(self, capsys):
        code = main(["certify", "--q14", "0.1", "--d22", "0.25", "--d33", "0.25"])
        out = capsys.readouterr().out
        assert code == 1
        assert "inconclusive" in out

    def test_chi_elements(self, capsys):
        code = main(["certify", "--q14", "0.25",
                     "--d22", "0.333333", "--d33", "0.166667"])
        out = capsys.readouterr().out
        assert code == 0
        assert "entangled" in out
        c1 = float(out.split("C1=")[1])
        assert c1 == pytest.approx(0.0286, abs=1e-3)

    def test_product_elements_inconclusive(self, capsys):
        # ab, a^2 and b^2 are a real product state's elements (a + b <= 1);
        # c1 evaluates to 5.6e-17.
        code = main(["certify", "--q14", "0.16420283047872095",
                     "--d22", "0.08611617344785373", "--d33", "0.31309530437450656"])
        assert code == 1
        assert capsys.readouterr().out.startswith("inconclusive")

    @pytest.mark.parametrize("elements", [("1", "0", "0"), ("0.9", "0.1", "0.1")])
    def test_no_such_state(self, capsys, elements):
        # |Q14| <= sqrt(Q11 Q44) <= (1 - Q22 - Q33) / 2 holds for every state.
        q14, d22, d33 = elements
        code = main(["certify", "--q14", q14, "--d22", d22, "--d33", d33])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: OutOfRange: no state has these elements")

    def test_out_of_range(self, capsys):
        code = main(["certify", "--q14", "-1", "--d22", "0", "--d33", "0"])
        assert code == 2

    def test_nan_element(self, capsys):
        code = main(["certify", "--q14", "nan", "--d22", "0.1", "--d33", "0.1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_huge_q14(self, capsys):
        # No element of a state exceeds 1; this margin would overflow to C1=inf.
        code = main(["certify", "--q14", "1e308", "--d22", "0.5", "--d33", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: OutOfRange: |q14|")


def _run_main(argv, codes) -> int:
    """Exit code of main(argv), checked against the contract; any exception propagates.

    The code must be one of codes, stderr empty or one `error:` line, and
    stdout empty after an exit 2.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes
    lines = err.getvalue().splitlines()
    assert not lines or (len(lines) == 1 and lines[0].startswith("error:")), lines
    assert code != 2 or out.getvalue() == ""
    return code


cli_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 2.2e-308, 0.0, -0.0, 1.0])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(q14=cli_floats, d22=cli_floats, d33=cli_floats)
@example(q14=1e308, d22=0.5, d33=0.5)
@example(q14=5e-324, d22=5e-324, d33=2.2e-308)
@example(q14=0.5, d22=0.0, d33=0.0)
@example(q14=1.0, d22=1.0, d33=1.0)
def test_certify_exit_code_contract(q14, d22, d33):
    _run_main(["certify", f"--q14={q14!r}", f"--d22={d22!r}", f"--d33={d33!r}"], (0, 1, 2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(trials=st.integers(-2, 4), dims=st.tuples(st.integers(-1, 3), st.integers(-1, 3)),
       seed=st.integers(-2, 2**70))
@example(trials=4, dims=(2, 2), seed=2**70)
@example(trials=4, dims=(3, 3), seed=2**64)
@example(trials=3, dims=(2, 3), seed=0)
@example(trials=2, dims=(3, 2), seed=2**32)
@example(trials=4, dims=(-1, 3), seed=0)
@example(trials=-2, dims=(2, 2), seed=0)
@example(trials=4, dims=(2, 2), seed=-2)
def test_fuzz_exit_code_contract(trials, dims, seed):
    _run_main([f"--seed={seed}", "fuzz", f"--trials={trials}", f"--dims={dims[0]},{dims[1]}"],
              (0, 2))


# A Bell state in a random local basis, and a 3x3 state that optimize-basis
# does not take.
ROTATED_BELL = conjugate_by_local_unitary(projector(bell_phi_plus()), sample_haar_unitary(2, 11),
                                          sample_haar_unitary(2, 12))
BASIS_INPUTS = {"bell": ROTATED_BELL, "3x3": maximally_mixed(3, 3)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(state=st.sampled_from(sorted(BASIS_INPUTS)), restarts=st.integers(-2, 3),
       seed=st.integers(-2, 3))
@example(state="bell", restarts=0, seed=0)
@example(state="bell", restarts=1, seed=-1)
@example(state="3x3", restarts=2, seed=1)
@example(state="bell", restarts=3, seed=3)
def test_optimize_basis_exit_code_contract(state, restarts, seed):
    # Exit 2 exactly for a bad input, which leaves no output behind.
    bad = state == "3x3" or restarts < 1 or seed < 0
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "state.json", Path(tmp) / "u.json"
        save_density(BASIS_INPUTS[state], path)
        code = _run_main([f"--seed={seed}", "optimize-basis", str(path),
                          f"--restarts={restarts}", "--out", str(out)], (2,) if bad else (0,))
        assert sorted(p.name for p in Path(tmp).iterdir()) == (
            ["state.json"] if code == 2 else ["state.json", "u.json", "u.json.manifest.json"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(-1, 4), steps=st.integers(-1, 4))
@example(d=1, steps=5)
@example(d=0, steps=1)
@example(d=4, steps=2)
def test_isotropic_sweep_exit_code_contract(d, steps):
    bad = d < 2 or steps < 2
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        code = _run_main(["isotropic-sweep", f"--d={d}", f"--steps={steps}", "--out", str(out)],
                         (2,) if bad else (0,))
        assert sorted(p.name for p in Path(tmp).iterdir()) == (
            [] if code == 2 else ["sweep.csv", "sweep.csv.manifest.json"])


class TestIsotropicSweep:
    def test_d3_sweep(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = main(["isotropic-sweep", "--d", "3", "--steps", "11",
                     "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "F,exact,bound,bound_from_matrix"
        assert len(lines) == 12
        rows = {float(l.split(",")[0]): l.split(",") for l in lines[1:]}
        f1 = rows[1.0]
        assert float(f1[1]) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
        assert float(f1[2]) == pytest.approx(2.0 / 3.0, abs=1e-9)
        for f, row in rows.items():
            assert abs(float(row[2]) - float(row[3])) < 1e-10
        assert (tmp_path / "sweep.csv.manifest.json").exists()

    def test_d2_bound_tight_at_f1(self, tmp_path):
        out_csv = tmp_path / "sweep2.csv"
        assert main(["isotropic-sweep", "--d", "2", "--steps", "5",
                     "--out", str(out_csv)]) == 0
        last = out_csv.read_text().strip().splitlines()[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(1.0, abs=1e-12)
        assert float(last[2]) == pytest.approx(1.0, abs=1e-12)

    def test_bad_params(self, capsys):
        assert main(["isotropic-sweep", "--d", "1", "--steps", "5",
                     "--out", "/tmp/x.csv"]) == 2

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # --d 100000 asks for a 10^10 x 10^10 matrix; the allocation failure
        # is stood in for here, never made.
        def no_memory(s):
            raise MemoryError("Unable to allocate the state")
        monkeypatch.setattr("xbound.cli.isotropic_matrix", no_memory)
        out_csv = tmp_path / "sweep.csv"
        code = main(["isotropic-sweep", "--d", "100000", "--steps", "2",
                     "--out", str(out_csv)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: MemoryError: Unable to allocate the state\n"
        assert not out_csv.exists()


class TestFuzz:
    def test_small_fuzz_clean(self, capsys):
        code = main(["--seed", "42", "fuzz", "--trials", "50", "--dims", "2,2"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == 0
        assert report["trials"] == 50

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--trials", "0"],
        ["fuzz", "--trials", "5", "--dims", "0,2"],
        ["fuzz", "--trials", str(2**32 + 1)],
    ], ids=["zero-trials", "zero-dim", "too-many-trials"])
    def test_bad_params(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_deterministic(self, capsys):
        main(["--seed", "5", "fuzz", "--trials", "30", "--dims", "2,2"])
        first = capsys.readouterr().out
        main(["--seed", "5", "fuzz", "--trials", "30", "--dims", "2,2"])
        second = capsys.readouterr().out
        assert first == second


class TestOptimizeBasis:
    def test_rotated_bell(self, tmp_path, capsys):
        q = projector(bell_phi_plus())
        rotated = conjugate_by_local_unitary(
            q, sample_haar_unitary(2, 11), sample_haar_unitary(2, 12)
        )
        path = tmp_path / "rot.json"
        save_density(rotated, path)
        out_json = tmp_path / "u.json"
        code = main(["optimize-basis", str(path), "--restarts", "10",
                     "--out", str(out_json)])
        out = capsys.readouterr().out
        assert code == 0
        opt = float(out.split("optimized_bound=")[1].splitlines()[0])
        assert opt == pytest.approx(1.0, abs=1e-6)
        payload = json.loads(out_json.read_text())
        uA = np.array(payload["uA"]["re"]) + 1j * np.array(payload["uA"]["im"])
        assert np.abs(uA.conj().T @ uA - np.eye(2)).max() < 1e-8

    def test_wrong_dims(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_density(maximally_mixed(3, 3), path)
        assert main(["optimize-basis", str(path)]) == 2

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_non_positive_restarts(self, bell_file, tmp_path, capsys, restarts):
        out_json = tmp_path / "u.json"
        code = main(["optimize-basis", bell_file, "--restarts", restarts,
                     "--out", str(out_json)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""
        assert not out_json.exists()

    def test_invariant_violation_exits_3(self, bell_file, tmp_path, capsys, monkeypatch):
        def broken(q, cfg):
            raise InvariantViolation("optimized bound exceeds exact concurrence")
        monkeypatch.setattr("xbound.cli.optimize_basis", broken)
        code = main(["optimize-basis", bell_file, "--out", str(tmp_path / "u.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: InvariantViolation:")


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [
        ["bound", "{bell}"],
        ["certify", "--q14", "0.25", "--d22", "0.1", "--d33", "0.1"],
        ["isotropic-sweep", "--d", "3", "--steps", "5", "--out", "{out}"],
        ["fuzz", "--trials", "3"],
        ["fuzz", "--trials", "3", "--dims", "3,3"],
        ["optimize-basis", "{bell}", "--out", "{out}"],
    ], ids=["bound", "certify", "isotropic-sweep", "fuzz", "fuzz-3x3", "optimize-basis"])
    def test_exits_2(self, bell_file, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        argv = [a.format(bell=bell_file, out=out) for a in argv]
        code = main(["--seed", "-1", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: OutOfRange: --seed must be >= 0")
        assert captured.out == ""
        assert not out.exists()


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        q = isotropic_matrix(IsotropicState(d=3, F=0.7))
        path = tmp_path / "state.json"
        save_density(q, path)
        back = load_density(path)
        assert back.dimA == back.dimB == 3
        assert np.allclose(back.mat, q.mat, atol=1e-15)
