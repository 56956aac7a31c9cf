import json
import math

import numpy as np
import pytest

from xbound import (
    IsotropicState,
    conjugate_by_local_unitary,
    isotropic_matrix,
    projector,
    pure_state,
    sample_haar_unitary,
)
from xbound.cli import main
from xbound.io import load_density, save_density
from xbound.reference_states import bell_phi_plus, maximally_mixed


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
        m = np.diag([1.0, 1.0, -1.0, 0.0]).astype(complex)
        path.write_text(json.dumps({
            "dimA": 2, "dimB": 2,
            "re": m.real.tolist(), "im": m.imag.tolist(),
        }))
        code = main(["bound", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "NotPositive" in err

    def test_dims_mismatch(self, bell_file, capsys):
        code = main(["bound", bell_file, "--dims", "3,3"])
        assert code == 2

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

    @pytest.mark.parametrize("payload", [
        {"dimA": 2, "dimB": 2, "re": [["x", 0, 0, 0]] + [[0] * 4] * 3, "im": [[0] * 4] * 4},
        {"dimA": 2, "dimB": 2, "re": [[1, 0, 0]] + [[0] * 4] * 3, "im": [[0] * 4] * 4},
        {"dimA": 2.5, "dimB": 2, "re": [[1] + [0] * 3] + [[0] * 4] * 3, "im": [[0] * 4] * 4},
    ], ids=["non-numeric-re", "ragged-rows", "non-integer-dimA"])
    def test_malformed_entries(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = main(["bound", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")


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

    def test_out_of_range(self, capsys):
        code = main(["certify", "--q14", "-1", "--d22", "0", "--d33", "0"])
        assert code == 2

    def test_nan_element(self, capsys):
        code = main(["certify", "--q14", "nan", "--d22", "0.1", "--d33", "0.1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


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
    ], ids=["zero-trials", "zero-dim"])
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


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        q = isotropic_matrix(IsotropicState(d=3, F=0.7))
        path = tmp_path / "state.json"
        save_density(q, path)
        back = load_density(path)
        assert back.dimA == back.dimB == 3
        assert np.allclose(back.mat, q.mat, atol=1e-15)
