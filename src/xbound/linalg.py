"""Dense complex linear algebra: state validation, partial trace, random sampling.

All matrices are plain numpy arrays in the row-major product basis with the
A-index major, i.e. the basis vector |i, k> sits at flat index i * dimB + k.
For two qubits this is the ordering {|00>, |01>, |10>, |11>}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InvalidRank,
    NonFinite,
    NotHermitian,
    NotPositive,
    NotUnitary,
    OutOfRange,
    StateNormError,
    TraceNotOne,
    WrongDimensions,
)

@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by validation routines."""

    herm: float = 1e-8
    trace: float = 1e-8
    psd: float = 1e-8
    norm: float = 1e-10
    unitary: float = 1e-8

    def __post_init__(self) -> None:
        # A NaN tolerance would make every residual comparison pass.
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise OutOfRange(f"tolerance {f.name} must be finite and > 0, got {v}")

    @classmethod
    def uniform(cls, tol: float) -> "Tolerances":
        return cls(herm=tol, trace=tol, psd=tol, norm=tol, unitary=tol)


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite density matrix of shape (dimA*dimB, dimA*dimB)."""

    dimA: int
    dimB: int
    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.dimA * self.dimB


@dataclass(frozen=True)
class PureState:
    """Normalized bipartite pure state; amps[i*dimB + k] is the |i,k> amplitude."""

    dimA: int
    dimB: int
    amps: np.ndarray

    @property
    def dim(self) -> int:
        return self.dimA * self.dimB


def validate_density(
    m: np.ndarray, dimA: int, dimB: int, tol: Tolerances = DEFAULT_TOL
) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; return a DensityMatrix.

    Raises NonFinite for a NaN or infinite entry, and NotHermitian /
    TraceNotOne / NotPositive naming the violated invariant together with the
    measured residual.
    """
    m = np.asarray(m, dtype=complex)
    d = dimA * dimB
    if m.shape != (d, d):
        raise WrongDimensions(
            f"expected a {d}x{d} matrix for dims ({dimA},{dimB}), got {m.shape}"
        )
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains non-finite entries")
    herm_resid = np.abs(m - m.conj().T).max()
    if herm_resid > tol.herm:
        raise NotHermitian(f"Hermiticity residual {herm_resid:.3e} > {tol.herm:.1e}")
    tr_resid = abs(np.trace(m) - 1.0)
    if tr_resid > tol.trace:
        raise TraceNotOne(f"trace deviates from 1 by {tr_resid:.3e} > {tol.trace:.1e}")
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if evals.min() < -tol.psd:
        raise NotPositive(
            f"minimum eigenvalue {evals.min():.3e} < -{tol.psd:.1e}"
        )
    return DensityMatrix(dimA=dimA, dimB=dimB, mat=m)


def pure_state(amps: np.ndarray, dimA: int, dimB: int, tol: Tolerances = DEFAULT_TOL) -> PureState:
    """Wrap an amplitude vector as a PureState, checking shape and norm."""
    amps = np.asarray(amps, dtype=complex).ravel()
    if amps.size != dimA * dimB:
        raise WrongDimensions(
            f"expected {dimA * dimB} amplitudes for dims ({dimA},{dimB}), got {amps.size}"
        )
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > tol.norm:
        raise StateNormError(f"norm deviates from 1 by {abs(nrm - 1.0):.3e}")
    return PureState(dimA=dimA, dimB=dimB, amps=amps)


def projector(psi: PureState) -> DensityMatrix:
    """Density matrix |psi><psi| of a pure state."""
    m = np.outer(psi.amps, psi.amps.conj())
    return DensityMatrix(dimA=psi.dimA, dimB=psi.dimB, mat=m)


def partial_trace_B(q: DensityMatrix) -> np.ndarray:
    """Reduced density matrix Tr_B of subsystem A (dimA x dimA)."""
    t = q.mat.reshape(q.dimA, q.dimB, q.dimA, q.dimB)
    return np.trace(t, axis1=1, axis2=3)


def sample_random_density(dimA: int, dimB: int, rank: int, seed) -> DensityMatrix:
    """Random mixed state of prescribed rank via the Ginibre construction.

    G is a (dimA*dimB) x rank matrix of independent standard complex Gaussians
    and the state is G G^dag / Tr[G G^dag].  Deterministic for a fixed seed.
    """
    d = dimA * dimB
    if not 1 <= rank <= d:
        raise InvalidRank(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(dimA=dimA, dimB=dimB, mat=m)


def sample_haar_pure(dimA: int, dimB: int, seed) -> PureState:
    """Haar-random pure state: normalized vector of standard complex Gaussians."""
    d = dimA * dimB
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return PureState(dimA=dimA, dimB=dimB, amps=v)


def sample_haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase-fixed R."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def conjugate_by_local_unitary(
    q: DensityMatrix, uA: np.ndarray, uB: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> DensityMatrix:
    """Return (uA (x) uB) q (uA (x) uB)^dag after checking both factors are unitary."""
    uA = np.asarray(uA, dtype=complex)
    uB = np.asarray(uB, dtype=complex)
    for name, u, d in (("uA", uA, q.dimA), ("uB", uB, q.dimB)):
        if u.shape != (d, d):
            raise WrongDimensions(f"{name} must be {d}x{d}, got {u.shape}")
        resid = np.abs(u.conj().T @ u - np.eye(d)).max()
        if resid > tol.unitary:
            raise NotUnitary(f"{name} unitarity residual {resid:.3e} > {tol.unitary:.1e}")
    u = np.kron(uA, uB)
    return DensityMatrix(dimA=q.dimA, dimB=q.dimB, mat=u @ q.mat @ u.conj().T)


def clipped_sqrt(x: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Square root with small negatives (roundoff) clipped to zero first."""
    return np.sqrt(np.clip(x, floor, None))
