"""Exact sector statevector for the cluster-Jastrow ansatz and its sampling.

The state lives in one (n_alpha, n_beta) particle-number sector, stored as a
(beta-strings x alpha-strings) amplitude array A in canonical ordering.  A
real orthogonal orbital rotation Q, a+_p -> sum_r Q[r, p] a+_r, acts on each
spin channel through its compound matrix (the Thouless/Loewdin form of a
one-body rotation on determinants):

    U_s[I, J] = det Q[occ I, occ J]   (occupied orbitals in ascending order),
    A -> U_beta A U_alpha^T .

The compounds are built one string level at a time by Laplace expansion, and
U(Q^T) = U(Q)^T, so one compound per channel occupation serves both
rotations of an ansatz layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .determinants import Determinant, half_strings
from .errors import ValidationError, check_cap
from .model import SectorSpec, read_text
from .reference import LucjParameters

# the largest shot count the multinomial draw takes (a signed 64-bit count)
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class SectorStatevector:
    """Normalized amplitudes over the canonical sector basis."""

    spec: SectorSpec
    amplitudes: np.ndarray  # shape (n_beta_strings, n_alpha_strings)

    def __post_init__(self):
        spec = self.spec
        amps = np.asarray(self.amplitudes, dtype=complex)
        shape = (comb(spec.n_orbitals, spec.n_beta), comb(spec.n_orbitals, spec.n_alpha))
        if amps.shape != shape:
            raise ValidationError(f"amplitudes: expected shape {shape}, got {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValidationError("amplitudes have non-finite entries")
        object.__setattr__(self, "amplitudes", amps)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(f"statevector norm {norm} deviates from 1")

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amplitudes) ** 2
        return p / p.sum()


@dataclass(frozen=True)
class SampleSet:
    """Multiset of sampled configurations."""

    n_orbitals: int
    counts: dict[Determinant, int]
    shots: int
    seed: int | None
    provenance: str  # "simulated" or "file"
    discarded_fraction: float | None = None

    def __post_init__(self):
        if any(c <= 0 for c in self.counts.values()):
            raise ValidationError("sample counts must be positive")
        if sum(self.counts.values()) != self.shots:
            raise ValidationError("sample counts do not add up to the shot total")


def rotation_bytes(m: int, occupations: set[int]) -> int:
    """Estimated peak allocation of ``_compounds``: the kept compounds plus
    five arrays of the largest level, and 64 KiB of words and indices."""
    sizes = [comb(m, n) for n in range(max(occupations) + 1)]
    return 8 * (sum(sizes[n] ** 2 for n in occupations) + 5 * max(sizes) ** 2) + 2**16


def _compounds(q: np.ndarray, occupations: set[int]) -> dict[int, np.ndarray]:
    """Compound matrices U_n[I, J] = det q[occ I, occ J] for each n in ``occupations``.

    Level n follows from level n - 1 by Laplace expansion along the row of
    the highest occupied orbital h of I, with J_k the k-th occupied orbital
    of J:

        det q[I, J] = sum_k (-1)^(n-1+k) q[h, J_k] det q[I - h, J - J_k] .
    """
    m = len(q)
    check_cap("the orbital rotation", rotation_bytes(m, occupations))
    prev_words = np.zeros(1, dtype=np.int64)
    prev = np.ones((1, 1))
    out = {0: prev} if 0 in occupations else {}
    for n in range(1, max(occupations) + 1):
        words = half_strings(m, n)
        occ = np.nonzero((words[:, None] >> np.arange(m)) & 1)[1].reshape(len(words), n)
        rows = prev[np.searchsorted(prev_words, words ^ (1 << occ[:, -1]))]
        high = q[occ[:, -1]]
        cur = np.zeros((len(words), len(words)))
        for k in range(n):
            term = high[:, occ[:, k]]
            term *= rows[:, np.searchsorted(prev_words, words ^ (1 << occ[:, k]))]
            if (n - 1 + k) % 2:
                cur -= term
            else:
                cur += term
        if n in occupations:
            out[n] = cur
        prev, prev_words = cur, words
    return out


def _rotate(amps: np.ndarray, u_beta: np.ndarray, u_alpha: np.ndarray) -> np.ndarray:
    """u_beta @ amps @ u_alpha.T for real compounds and complex amplitudes.

    A C-ordered complex (r, c) array is a real (r, 2c) array, so each product
    is one real GEMM, with no complex copy of the compound.
    """
    left = (u_beta @ np.ascontiguousarray(amps).view(np.float64)).view(complex)
    right = (u_alpha @ np.ascontiguousarray(left.T).view(np.float64)).view(complex)
    return np.ascontiguousarray(right.T)


def build_state(params: LucjParameters, ref: tuple[int, int], spec: SectorSpec) -> SectorStatevector:
    """Construct the layered ansatz state W exp(iJ) W^T ... |ref>.

    Layers are applied in index order: each layer rotates into its orbital
    basis (W^T), multiplies every determinant by its density-density phase
    exp(iJ), and rotates back (W).  J sums the layer's couplings over the
    determinant's occupations n_p (0 or 1),

        J = sum_pq j_same[p, q] (na_p na_q + nb_p nb_q)
          + sum_pq j_opposite[p, q] (na_p nb_q + nb_p na_q) ,

    and ``LucjLayer`` has already checked both matrices to be finite and
    symmetric.  Each layer builds one compound per channel occupation; the
    first W^T acts on |ref>, so it only reads the rows of ``ref``'s strings.
    """
    if params.n_orbitals != spec.n_orbitals:
        raise ValidationError("parameter/sector orbital count mismatch")
    check_cap("the sector statevector", spec.dimension(), "determinants")
    ref_a, ref_b = spec.check_reference(ref)
    m = spec.n_orbitals
    alphas, betas = (half_strings(m, n) for n in (spec.n_alpha, spec.n_beta))
    occ_a, occ_b = (((words[:, None] >> np.arange(m)) & 1).astype(float) for words in (alphas, betas))
    ia, ib = np.searchsorted(alphas, ref_a), np.searchsorted(betas, ref_b)
    amps = np.zeros((len(betas), len(alphas)))
    amps[ib, ia] = 1.0  # |ref>
    for index, layer in enumerate(params.layers):
        u = _compounds(layer.rotation, {spec.n_alpha, spec.n_beta})
        u_alpha, u_beta = u[spec.n_alpha], u[spec.n_beta]
        if index == 0:
            amps = np.outer(u_beta[ib], u_alpha[ia])
        else:
            amps = _rotate(amps, u_beta.T, u_alpha.T)
        same_a = np.einsum("xp,pq,xq->x", occ_a, layer.j_same, occ_a)
        same_b = np.einsum("xp,pq,xq->x", occ_b, layer.j_same, occ_b)
        cross = 2.0 * occ_b @ layer.j_opposite @ occ_a.T  # both (up,down) and (down,up) orderings
        amps = amps * np.exp(1j * (same_b[:, None] + same_a[None, :] + cross))
        amps = _rotate(amps, u_beta, u_alpha)
    return SectorStatevector(spec, amps)


def check_sampling(shots: int, seed: int | None) -> None:
    """``sample`` takes 1 to ``MAX_SHOTS`` shots and a nonnegative seed or none."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValidationError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")
    if seed is not None and seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")


def sample(state: SectorStatevector, shots: int, seed: int | None = None) -> SampleSet:
    """Multinomial sampling of determinants from the state's distribution."""
    check_sampling(shots, seed)
    p = state.probabilities().ravel()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, p)
    m = state.spec.n_orbitals
    alphas = half_strings(m, state.spec.n_alpha)
    betas = half_strings(m, state.spec.n_beta)
    hit = np.flatnonzero(draws)
    ib, ia = np.divmod(hit, len(alphas))
    counts = {Determinant(a, b): c for a, b, c in
              zip(alphas[ia].tolist(), betas[ib].tolist(), draws[hit].tolist())}
    return SampleSet(m, counts, shots, seed, "simulated")


def load_samples(path, spec: SectorSpec) -> SampleSet:
    """Read a "bitstring count" sample file.

    Bitstrings are 2M characters: the leftmost M characters are the beta
    word and the rightmost M the alpha word, highest orbital first in each.
    No sector filtering happens here; counts of repeated bitstrings
    accumulate.
    """
    m = spec.n_orbitals
    counts: dict[Determinant, int] = {}
    total = 0
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 'bitstring count'")
        bits, count_str = parts
        if len(bits) != 2 * m or set(bits) - {"0", "1"}:
            raise ValidationError(
                f"{path}:{lineno}: bitstring must be {2 * m} binary characters"
            )
        try:
            count = int(count_str)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: malformed count {count_str!r}") from None
        if count <= 0:
            raise ValidationError(f"{path}:{lineno}: count must be positive")
        det = Determinant(int(bits[m:], 2), int(bits[:m], 2))
        counts[det] = counts.get(det, 0) + count
        total += count
    if not counts:
        raise ValidationError(f"{path}: no samples")
    return SampleSet(m, counts, total, None, "file")


def save_samples(samples: SampleSet, path) -> None:
    """Write the lines ``load_samples`` reads, in ascending (beta, alpha) order."""
    m = samples.n_orbitals
    with open(path, "w") as fh:
        for det in sorted(samples.counts, key=lambda d: (d.beta, d.alpha)):
            fh.write(f"{det.beta:0{m}b}{det.alpha:0{m}b} {samples.counts[det]}\n")
