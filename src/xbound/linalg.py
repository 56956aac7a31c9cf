"""Dense complex linear algebra: state validation, partial trace, random sampling.

All matrices are plain numpy arrays in the row-major product basis with the
A-index major, i.e. the basis vector |i, k> sits at flat index i * dimB + k.
For two qubits this is the ordering {|00>, |01>, |10>, |11>}.

Random states are Ginibre states (_ginibre).  The fuzzer's trial t draws from
np.random.SeedSequence([seed, t]); _stream_states derives the PCG64 states of
a whole run of such streams at once (numpy's SeedSequence hash vectorized in
uint32, then PCG64's seeding), and _trial_densities samples those trials
stacked, bit for bit as sample_random_density would one at a time, and
returns their Ginibre factors too.  _qr is the package's one QR; with
_isometry_grad it is the package's only caller of scipy.linalg.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import InitVar, dataclass, fields

import numpy as np
from scipy.linalg import lapack

from .errors import (
    InvalidRank,
    InvariantViolation,
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Bipartite density matrix of shape (dimA*dimB, dimA*dimB), validated on construction.

    Raises WrongDimensions for a non-integer dim, one below 1 or a matrix of
    another shape, NonFinite for a NaN or infinite entry, and NotHermitian /
    TraceNotOne / NotPositive with the measured residual, at the tolerances
    in tol.  Positivity is a minimum eigenvalue >= -tol.psd; a Cholesky
    factorization settles it, and eigenvalues are computed only when it
    fails.  The state keeps a read-only complex copy of mat, and int dims.
    It compares and hashes by identity (eq=False): equality of arrays has no
    single truth value.
    """

    dimA: int
    dimB: int
    mat: np.ndarray
    tol: InitVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self, tol: Tolerances) -> None:
        _check_dims(self.dimA, self.dimB)
        dimA, dimB = int(self.dimA), int(self.dimB)  # a numpy integer is stored as an int
        m = np.array(self.mat, dtype=complex)
        d = dimA * dimB
        if m.shape != (d, d):
            raise WrongDimensions(
                f"expected a {d}x{d} matrix for dims ({dimA},{dimB}), got {m.shape}"
            )
        if not np.isfinite(m).all():
            raise NonFinite("matrix contains non-finite entries")
        # On m scaled down by a power of two above 2d (exact) no residual overflows,
        # which numpy would warn of; Python floats scale it back up silently.
        scale = 2.0 ** (2 * d).bit_length()
        ms = m * (1.0 / scale)
        herm_resid = float(np.abs(ms - ms.conj().T).max()) * scale
        if herm_resid > tol.herm:
            raise NotHermitian(f"Hermiticity residual {herm_resid:.3e} > {tol.herm:.1e}")
        tr_resid = float(abs(ms.trace() - 1.0 / scale)) * scale
        if tr_resid > tol.trace:
            raise TraceNotOne(f"trace deviates from 1 by {tr_resid:.3e} > {tol.trace:.1e}")
        h = m * 0.5
        h += h.conj().T  # m/2 + m^dag/2: cannot overflow; (m + mh) / 2 on normal entries
        # h + s·I has a Cholesky factor iff lambda_min(h) > -s.  With s = psd/2
        # the other half of the tolerance covers the rounding of the factorization
        # and of eigvalsh (of order d·eps·|h|, 1e-14 at d = 64), so every state
        # accepted here has an eigvalsh minimum >= -psd; the rest, and every
        # state near the boundary, are decided by that eigenvalue.
        shifted = h.copy()
        shifted.reshape(-1)[:: d + 1] += tol.psd / 2
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            try:
                lam = np.linalg.eigvalsh(h).min()
            except np.linalg.LinAlgError as exc:  # eigvalsh did not converge
                raise NotPositive(f"eigenvalues not computable: {exc}") from exc
            if not lam >= -tol.psd:  # a NaN minimum is rejected too
                raise NotPositive(f"minimum eigenvalue {lam:.3e} < -{tol.psd:.1e}")
        m.flags.writeable = False
        object.__setattr__(self, "dimA", dimA)
        object.__setattr__(self, "dimB", dimB)
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized bipartite pure state, validated on construction.

    amps[i*dimB + k] is the |i,k> amplitude.  Raises WrongDimensions for a
    non-integer dim, one below 1 or an amplitude count other than dimA*dimB,
    NonFinite for a NaN or infinite amplitude, and StateNormError for a norm
    more than tol.norm from 1.  The state keeps a read-only, raveled complex
    copy of amps, and int dims.  Like a DensityMatrix, it compares and
    hashes by identity.
    """

    dimA: int
    dimB: int
    amps: np.ndarray
    tol: InitVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self, tol: Tolerances) -> None:
        _check_dims(self.dimA, self.dimB)
        dimA, dimB = int(self.dimA), int(self.dimB)
        amps = np.array(self.amps, dtype=complex).ravel()
        if amps.size != dimA * dimB:
            raise WrongDimensions(
                f"expected {dimA * dimB} amplitudes for dims ({dimA},{dimB}), got {amps.size}"
            )
        if not np.isfinite(amps).all():
            raise NonFinite("amplitudes contain non-finite entries")
        resid = abs(math.hypot(*amps.view(float).tolist()) - 1.0)
        if not resid <= tol.norm:  # a NaN norm is rejected too
            raise StateNormError(f"norm deviates from 1 by {resid:.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "dimA", dimA)
        object.__setattr__(self, "dimB", dimB)
        object.__setattr__(self, "amps", amps)


def _check_int(name: str, value, error: type) -> None:
    """Raise error unless value is an int or a numpy integer; a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")


def _check_dims(dimA: int, dimB: int) -> None:
    _check_int("dimA", dimA, WrongDimensions)
    _check_int("dimB", dimB, WrongDimensions)
    if dimA < 1 or dimB < 1:
        raise WrongDimensions(f"dims must be positive, got ({dimA},{dimB})")


def validate_density(
    m: np.ndarray, dimA: int, dimB: int, tol: Tolerances = DEFAULT_TOL
) -> DensityMatrix:
    """Check m as a state of dims (dimA, dimB) and return it: DensityMatrix(dimA, dimB, m, tol)."""
    return DensityMatrix(dimA, dimB, m, tol)


def pure_state(amps: np.ndarray, dimA: int, dimB: int, tol: Tolerances = DEFAULT_TOL) -> PureState:
    """Check amps as a pure state of dims (dimA, dimB): PureState(dimA, dimB, amps, tol)."""
    return PureState(dimA, dimB, amps, tol)


def projector(psi: PureState) -> DensityMatrix:
    """Density matrix |psi><psi| of a pure state."""
    m = np.outer(psi.amps, psi.amps.conj())
    return DensityMatrix(psi.dimA, psi.dimB, m)


def partial_trace_B(q: DensityMatrix) -> np.ndarray:
    """Reduced density matrix Tr_B of subsystem A (dimA x dimA)."""
    t = q.mat.reshape(q.dimA, q.dimB, q.dimA, q.dimB)
    return np.trace(t, axis1=1, axis2=3)


def _ginibre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States G G^dag / Tr[G G^dag] of a stack x of shape (n, 2, d, rank), with G and the traces.

    G = x[:, 0] + i x[:, 1]: one draw of standard normals of shape
    (2, d, rank) holds the real parts of G and then its imaginary parts.
    """
    g = x[:, 0] + 1j * x[:, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    tr = np.trace(m, axis1=-2, axis2=-1).real
    return m / tr[:, None, None], g, tr


def _check_ranks(ranks, d: int) -> None:
    for rank in ranks:
        _check_int("rank", rank, InvalidRank)
        if not 1 <= rank <= d:
            raise InvalidRank(f"rank must be in [1, {d}], got {rank}")


def sample_random_density(dimA: int, dimB: int, rank: int, seed) -> DensityMatrix:
    """Random mixed state of prescribed rank via the Ginibre construction.

    G is a (dimA*dimB) x rank matrix of independent standard complex Gaussians
    and the state is G G^dag / Tr[G G^dag].  Deterministic for a fixed seed,
    which may be anything np.random.default_rng accepts.
    """
    _check_dims(dimA, dimB)
    d = dimA * dimB
    _check_ranks([rank], d)
    x = np.random.default_rng(seed).standard_normal((1, 2, d, rank))
    return DensityMatrix(dimA, dimB, _ginibre(x)[0][0])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its default
# pool of four 32-bit words, and the multiplier of PCG64's 128-bit LCG.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _stream_states(seed: int, ts) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of np.random.PCG64(np.random.SeedSequence([seed, t])) for each t in ts.

    SeedSequence's entropy words are the little-endian 32-bit words of seed
    ([0] for 0) followed by t.  Its mix_entropy and generate_state(4,
    np.uint64) run here in uint32 arithmetic over all of ts at once; their
    four 64-bit words w0..w3 then seed PCG64 as numpy does, with
    initstate = w0 w1 and inc = (w2 w3) << 1 | 1, and two LCG steps from 0.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    ts = np.asarray(ts, dtype=np.int64)
    if ts.min() < 0 or ts.max() > _MASK32:
        raise OutOfRange(f"trial index must be in [0, 2**32), got {ts.min()}..{ts.max()}")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = [np.full(ts.shape, w, dtype=np.uint32) for w in words] + [ts.astype(np.uint32)]
    entropy += [np.zeros(ts.shape, dtype=np.uint32)] * (4 - len(entropy))
    hash_const = _HASH_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))

    hash_const = _HASH_INIT_B
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        halves.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    w0, w1, w2, w3 = ((halves[2 * k] | halves[2 * k + 1] << np.uint64(32)).tolist()
                      for k in range(4))
    out = []
    for a, b, c, e in zip(w0, w1, w2, w3):
        inc = ((c << 64 | e) << 1 | 1) & _MASK128
        out.append((((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128, inc))
    return out


def _trial_densities(dimA: int, dimB: int, seed: int, start: int, ranks) -> tuple[np.ndarray, list]:
    """Matrices of trials start, start+1, ... as sample_random_density draws them, stacked.

    Trial start + i has rank ranks[i] and the stream of
    SeedSequence([seed, start + i]), and its matrix equals
    sample_random_density(dimA, dimB, ranks[i], SeedSequence([seed, start + i])).mat
    bit for bit.  The streams' states come from _stream_states; the first
    one is checked against numpy's own seeding, so a numpy release that
    seeds differently raises InvariantViolation rather than changing the
    states.  Trials of one rank are built together by _ginibre; the second
    result holds, per rank, the trials' indices idx, their Ginibre factors
    G (shape (idx.size, dimA*dimB, rank)) and traces Tr[G G^dag], so that
    matrix idx[j] is G[j] G[j]^dag / Tr[j].
    """
    d = dimA * dimB
    ranks = np.asarray(ranks)
    levels = np.unique(ranks)
    _check_ranks(levels, d)
    states = _stream_states(seed, np.arange(start, start + ranks.size))
    bitgen = np.random.PCG64(np.random.SeedSequence([seed, start]))
    numpy_state = bitgen.state["state"]
    if states[0] != (numpy_state["state"], numpy_state["inc"]):
        raise InvariantViolation(
            f"derived PCG64 state of trial {start} (seed {seed}) differs from numpy's"
        )
    rng = np.random.Generator(bitgen)
    # One dict serves every trial: the setter only reads it.
    inner = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    out = np.empty((ranks.size, d, d), dtype=complex)
    factors = []
    for rank in levels:
        idx = np.flatnonzero(ranks == rank)
        x = np.empty((idx.size, 2, d, rank))
        for xj, i in zip(x, idx.tolist()):
            inner["state"], inner["inc"] = states[i]
            bitgen.state = full
            rng.standard_normal(out=xj)
        out[idx], g, tr = _ginibre(x)
        factors.append((idx, g, tr))
    return out, factors


def sample_haar_pure(dimA: int, dimB: int, seed) -> PureState:
    """Haar-random pure state: normalized vector of standard complex Gaussians."""
    _check_dims(dimA, dimB)
    d = dimA * dimB
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return PureState(dimA=dimA, dimB=dimB, amps=v)


def sample_haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary: Q of the sign-fixed QR (_qr) of a Ginibre matrix (Mezzadri 2007)."""
    _check_dims(dim, dim)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return _qr(z)[0]


@functools.cache
def _strict_lower(r: int) -> np.ndarray:
    """Read-only mask of the strictly lower triangle of an r x r matrix."""
    mask = np.tri(r, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _qr(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q and R of an m x r complex z = QR (m >= r) with R's (real) diagonal made non-negative.

    Householder QR (LAPACK's zgeqrf, whose R has a real diagonal) flips the
    sign of a column of Q between z = I and any z perturbed below the
    diagonal; fixing the sign makes Q smooth in z, and unique for a z of
    full rank.
    """
    r = z.shape[1]
    qr, tau, _, _ = lapack.zgeqrf(z)
    iso, _, _ = lapack.zungqr(qr, tau)
    sign = np.copysign(1.0, qr.diagonal().real)
    tri = qr[:r] * sign[:, None]
    tri[_strict_lower(r)] = 0.0
    return iso * sign, tri


def _isometry(params: np.ndarray, m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """_qr of the m x r complex z that params holds: its real parts, then its imaginary parts."""
    n = m * r
    z = np.empty((m, r), dtype=complex)
    z.real = params[:n].reshape(m, r)
    z.imag = params[n:].reshape(m, r)
    return _qr(z)


def _isometry_grad(iso: np.ndarray, tri: np.ndarray, g_iso: np.ndarray) -> np.ndarray:
    """Back-propagate a gradient g_iso of Q = _isometry(params, m, r)[0] to params.

    iso and tri are the Q and R that _isometry returned.  Gradients are
    d/dRe + i d/dIm, as in highdim._column_concurrence; a singular R raises
    LinAlgError.
    """
    m, r = iso.shape
    n = m * r
    # With b = iso^dag g_iso, the gradient in z is (g_iso - iso h) R^-dag,
    # h the Hermitian matrix with b's upper triangle and real diagonal.
    h = iso.conj().T @ g_iso
    np.copyto(h, h.conj().T, where=_strict_lower(r))
    h.imag.flat[:: r + 1] = 0.0
    g_zh, info = lapack.ztrtrs(tri, (g_iso - iso @ h).conj().T)
    if info:
        raise np.linalg.LinAlgError(f"singular R in the isometry (ztrtrs info {info})")
    grad = np.empty(2 * n)
    grad[:n].reshape(m, r)[...] = g_zh.real.T
    np.negative(g_zh.imag.T, out=grad[n:].reshape(m, r))
    return grad


def _local_product(uA: np.ndarray, uB: np.ndarray) -> np.ndarray:
    """uA (x) uB: each entry the one product np.kron forms, without its overhead."""
    dA, dB = len(uA), len(uB)
    return (uA[:, None, :, None] * uB[None, :, None, :]).reshape(dA * dB, dA * dB)


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
    u = _local_product(uA, uB)
    return DensityMatrix(q.dimA, q.dimB, u @ q.mat @ u.conj().T, tol)


def clipped_sqrt(x: np.ndarray) -> np.ndarray:
    """Square root with small negatives (roundoff) clipped to zero first."""
    return np.sqrt(np.clip(x, 0.0, None))
