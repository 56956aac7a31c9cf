"""Closed-form state families used as golden tests.

Isotropic states in d x d, the two-qubit Werner family, Bell states, and the
pure state whose projector saturates the X bound while having a nonzero O part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .linalg import DensityMatrix, PureState, _check_int


@dataclass(frozen=True)
class IsotropicState:
    """U (x) U* invariant d x d state with fidelity F to |psi_+>."""

    d: int
    F: float

    def __post_init__(self) -> None:
        _check_int("d", self.d, OutOfRange)
        if self.d < 2:
            raise OutOfRange(f"d must be >= 2, got {self.d}")
        if not 0.0 <= self.F <= 1.0:
            raise OutOfRange(f"F must lie in [0, 1], got {self.F}")


def maximally_entangled(d: int) -> PureState:
    """|psi_+> = (1/sqrt(d)) sum_i |i,i>."""
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1.0 / math.sqrt(d)
    return PureState(dimA=d, dimB=d, amps=amps)


def isotropic_matrix(s: IsotropicState) -> DensityMatrix:
    """Realize the isotropic state (1-F)/(d^2-1) (I - P_+) + F P_+."""
    d = s.d
    psi = maximally_entangled(d).amps
    proj = np.outer(psi, psi.conj())
    a = (1.0 - s.F) / (d * d - 1.0)
    m = a * (np.eye(d * d) - proj) + s.F * proj
    return DensityMatrix(d, d, m)


def isotropic_exact_concurrence(s: IsotropicState) -> float:
    """Known exact concurrence max{0, sqrt(2d/(d-1)) (F - 1/d)}."""
    return max(0.0, math.sqrt(2.0 * s.d / (s.d - 1.0)) * (s.F - 1.0 / s.d))


def isotropic_bound_closed_form(s: IsotropicState) -> float:
    """Closed form of the pair bound for isotropic states: max{0, 2/(d-1) (F - 1/d)}."""
    return max(0.0, 2.0 / (s.d - 1.0) * (s.F - 1.0 / s.d))


def chi_state() -> PureState:
    """Two-qubit pure state (1/2, 1/sqrt3, 1/sqrt6, 1/2).

    Its projector is not an X matrix, yet the X bound equals the exact
    concurrence 1/2 - sqrt(2)/3.
    """
    amps = np.array(
        [0.5, 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(6.0), 0.5], dtype=complex
    )
    return PureState(dimA=2, dimB=2, amps=amps)


def bell_phi_plus() -> PureState:
    """(|00> + |11>)/sqrt(2)."""
    return PureState(dimA=2, dimB=2, amps=np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def singlet() -> PureState:
    """(|01> - |10>)/sqrt(2)."""
    return PureState(dimA=2, dimB=2, amps=np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2))


def werner_state(p: float) -> DensityMatrix:
    """p |psi_-><psi_-| + (1-p) I/4; concurrence max{0, (3p-1)/2}."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p}")
    psi = singlet().amps
    m = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(2, 2, m)


def werner_exact_concurrence(p: float) -> float:
    """Closed form max{0, (3p-1)/2} for the Werner family."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p}")
    return max(0.0, (3.0 * p - 1.0) / 2.0)


def maximally_mixed(dimA: int, dimB: int) -> DensityMatrix:
    """I/(dimA*dimB)."""
    d = dimA * dimB
    return DensityMatrix(dimA, dimB, np.eye(d) / d)
