"""Independent brute-force references used by the tests.

Everything here is built straight from operator definitions (explicit
creation/annihilation action on bitstrings), deliberately sharing no code
with the package's string engine.  That includes the Slater-Condon engine at
the end (``matrix_element``, ``diagonal_energy``, ``generate_excitations``),
the reference for the package's per-determinant routines of the same names
and for every engine cross-check built one element at a time.  The
exceptions are ``extsqd_expand_reference``, the per-determinant ext-SQD loop
over the Slater-Condon ``generate_excitations`` that the vectorized
expansion replaced, ``hci_ground_reference``, the selected-CI loop that rebuilt
``hsqd.strings.hamiltonian_columns`` over the whole set every round
(``column_rows`` finds a determinant's row in it by its words),
``one_spin_terms_reference``, the loop over rs that
``hsqd.strings._one_spin_terms`` replaced, ``sigma_reference``, the loop
over orbital pairs that ``hsqd.strings.sigma`` replaced with two products
over the block form, and ``covering_reference``, the
step-by-step growth loop that ``hsqd.subspace._covering`` replaced, and
``arpack_lowest``, the ARPACK eigensolve that ``hsqd.davidson._lanczos_lowest``
replaced, and ``lowest_ritz_vector_reference``, the SciPy call whose LAPACK
routines ``hsqd.davidson._lowest_ritz_vector`` calls directly, and
``scf_fock_reference`` and ``scf_energy_reference``, the planned-path einsum
contractions that ``hsqd.reference._fock`` and ``_electronic_energy``
replaced with products over pair matrices.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from hsqd import Determinant, ElectronicIntegrals, GroundStateResult, ValidationError


@dataclass(frozen=True)
class Excitation:
    """A spin-resolved excitation with its fermionic sign.

    ``sign`` is meaningful for excitations constructed against a concrete
    source determinant (see excitation_between); it is the parity of the
    permutation restoring canonical operator order.
    """

    spin: str  # "alpha" or "beta"
    annihilated: tuple[int, ...]
    created: tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        if set(self.annihilated) & set(self.created):
            raise ValidationError("excitation annihilates and creates the same orbital")
        if self.spin not in ("alpha", "beta"):
            raise ValidationError(f"unknown spin channel {self.spin!r}")
        if self.sign not in (-1, 1):
            raise ValidationError("sign must be +1 or -1")

    def inverse(self) -> "Excitation":
        return Excitation(self.spin, self.created, self.annihilated, self.sign)


def apply_excitation(det: Determinant, exc: Excitation) -> tuple[Determinant, int]:
    """Apply an excitation, returning the new determinant and fermionic sign.

    Annihilation operators act first (in listed order), then creations in
    reverse listed order, matching a+_{c0} a+_{c1} ... a_{a1} a_{a0}.
    """
    word = det.alpha if exc.spin == "alpha" else det.beta
    sign = 1
    for orb in exc.annihilated:
        if not (word >> orb) & 1:
            raise ValidationError(f"orbital {orb} not occupied")
        sign *= (-1) ** bin(word & ((1 << orb) - 1)).count("1")
        word ^= 1 << orb
    for orb in reversed(exc.created):
        if (word >> orb) & 1:
            raise ValidationError(f"orbital {orb} already occupied")
        sign *= (-1) ** bin(word & ((1 << orb) - 1)).count("1")
        word ^= 1 << orb
    if exc.spin == "alpha":
        return Determinant(word, det.beta), sign
    return Determinant(det.alpha, word), sign


def excitation_between(source: Determinant, target: Determinant) -> tuple[Excitation, ...]:
    """Per-spin excitations turning source into target, signs included."""
    out = []
    for spin, w_src, w_tgt in (
        ("alpha", source.alpha, target.alpha),
        ("beta", source.beta, target.beta),
    ):
        diff = w_src ^ w_tgt
        if not diff:
            continue
        holes = tuple(i for i in range(diff.bit_length()) if (diff & w_src) >> i & 1)
        parts = tuple(i for i in range(diff.bit_length()) if (diff & w_tgt) >> i & 1)
        if len(holes) != len(parts):
            raise ValidationError("determinants lie in different particle-number sectors")
        src = Determinant(w_src, 0) if spin == "alpha" else Determinant(0, w_src)
        _, sign = apply_excitation(src, Excitation(spin, holes, parts))
        out.append(Excitation(spin, holes, parts, sign))
    return tuple(out)


def lattice_apply(det: Determinant, lat):
    """Apply the extended-Hubbard operator to |det>, term by term.

    Returns {(alpha, beta): amplitude} for H|det>, evaluated directly from
    t, U, V: hopping moves one electron with its fermionic sign, the U term
    counts double occupancies, and the V term sums over ordered site pairs
    and all four spin combinations.
    """
    out = {}
    m = lat.n_orbitals
    t, u, v = lat.hopping, lat.u_intra, lat.v_inter

    def add(key, amp):
        out[key] = out.get(key, 0.0) + amp

    na = np.array([(det.alpha >> i) & 1 for i in range(m)])
    nb = np.array([(det.beta >> i) & 1 for i in range(m)])
    diag = float(np.real(np.sum(np.diag(t) * (na + nb))))
    diag += float(np.sum(u * na * nb))
    ntot = na + nb
    for p in range(m):
        for q in range(m):
            if p != q:
                diag += v[p, q] * ntot[p] * ntot[q]
    add((det.alpha, det.beta), diag)

    for word, channel in ((det.alpha, "a"), (det.beta, "b")):
        for q in range(m):
            if not (word >> q) & 1:
                continue
            for p in range(m):
                if p == q or (word >> p) & 1:
                    continue
                sign = (-1) ** bin(word & ((1 << q) - 1)).count("1")
                w1 = word ^ (1 << q)
                sign *= (-1) ** bin(w1 & ((1 << p) - 1)).count("1")
                w2 = w1 | (1 << p)
                if channel == "a":
                    add((w2, det.beta), sign * t[p, q])
                else:
                    add((det.alpha, w2), sign * t[p, q])
    return out


def creation_operators(n_modes):
    """Dense Fock-space creation operators; mode 0 occupies the lowest slot."""
    dim = 1 << n_modes
    ops = []
    for p in range(n_modes):
        rows, cols, vals = [], [], []
        for x in range(dim):
            if not (x >> p) & 1:
                sign = (-1) ** bin(x & ((1 << p) - 1)).count("1")
                rows.append(x | (1 << p))
                cols.append(x)
                vals.append(float(sign))
        ops.append(sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))
    return ops


def dense_fock_hamiltonian(ints):
    """Explicit Fock-space matrix of the electronic Hamiltonian.

    Alpha modes occupy positions 0..M-1, beta modes M..2M-1, matching the
    package's determinant indexing (alpha | beta << M).
    """
    m = ints.n_orbitals
    cr = creation_operators(2 * m)
    an = [op.conj().T for op in cr]
    dim = 1 << (2 * m)
    ham = sp.csr_matrix((dim, dim))
    h = ints.one_body
    for p in range(m):
        for q in range(m):
            if h[p, q] != 0:
                ham = ham + h[p, q] * (cr[p] @ an[q] + cr[m + p] @ an[m + q])
    gss, gos = ints.two_body_same_spin, ints.two_body_opposite_spin
    for p in range(m):
        for q in range(m):
            for r in range(m):
                for s in range(m):
                    if gss[p, q, r, s] != 0:
                        for off in (0, m):
                            ham = ham + 0.5 * gss[p, q, r, s] * (
                                cr[off + p] @ cr[off + r] @ an[off + s] @ an[off + q]
                            )
                    if gos[p, q, r, s] != 0:
                        ham = ham + 0.5 * gos[p, q, r, s] * (
                            cr[p] @ cr[m + r] @ an[m + s] @ an[q]
                        )
                        ham = ham + 0.5 * gos[p, q, r, s] * (
                            cr[m + p] @ cr[r] @ an[s] @ an[m + q]
                        )
    return ham + ints.core_energy * sp.identity(dim)


def fock_index(det: Determinant, m: int) -> int:
    return det.alpha | (det.beta << m)


def channel_strings(m: int, n: int) -> list[int]:
    """Every m-orbital word with n bits set, ascending, found by scanning all
    2^m words."""
    return [w for w in range(1 << m) if bin(w).count("1") == n]


def enumerate_sector(spec) -> list[Determinant]:
    """All determinants of a sector in canonical order: beta-major, each
    channel's strings ascending."""
    alphas = channel_strings(spec.n_orbitals, spec.n_alpha)
    return [Determinant(a, b) for b in channel_strings(spec.n_orbitals, spec.n_beta)
            for a in alphas]


def basis_state(spec, ref: Determinant):
    """The sector state |ref>, amplitudes over the canonical order."""
    from hsqd.statevector import SectorStatevector

    alphas = channel_strings(spec.n_orbitals, spec.n_alpha)
    betas = channel_strings(spec.n_orbitals, spec.n_beta)
    amps = np.zeros((len(betas), len(alphas)), dtype=complex)
    amps[betas.index(ref.beta), alphas.index(ref.alpha)] = 1.0
    return SectorStatevector(spec, amps)


def sector_generator_matrix(spec, k, dets):
    """Matrix of sum_pq k_pq a+_p a_q (both spins) over a sector basis."""
    idx = {(d.beta, d.alpha): i for i, d in enumerate(dets)}
    n = len(dets)
    mat = np.zeros((n, n))
    m = spec.n_orbitals
    for j, d in enumerate(dets):
        occ = [p for p in range(m) if (d.alpha >> p) & 1] + \
              [p for p in range(m) if (d.beta >> p) & 1]
        mat[j, j] = sum(k[p, p] for p in occ)
        for word, channel in ((d.alpha, "a"), (d.beta, "b")):
            for q in range(m):
                if not (word >> q) & 1:
                    continue
                for p in range(m):
                    if p == q or (word >> p) & 1:
                        continue
                    sign = (-1) ** bin(word & ((1 << q) - 1)).count("1")
                    w1 = word ^ (1 << q)
                    sign *= (-1) ** bin(w1 & ((1 << p) - 1)).count("1")
                    w2 = w1 | (1 << p)
                    key = (d.beta, w2) if channel == "a" else (w2, d.alpha)
                    mat[idx[key], j] += sign * k[p, q]
    return mat


def density_phase(state, j_same, j_opposite):
    """Multiply each determinant's amplitude by exp(iJ), with J summed over
    its occupations one orbital pair at a time:

        J = sum_pq j_same[p, q] (na_p na_q + nb_p nb_q)
          + sum_pq j_opposite[p, q] (na_p nb_q + nb_p na_q) .
    """
    from hsqd.statevector import SectorStatevector

    m = state.spec.n_orbitals
    amps = state.amplitudes.ravel().copy()
    for idx, det in enumerate(enumerate_sector(state.spec)):
        na = [(det.alpha >> p) & 1 for p in range(m)]
        nb = [(det.beta >> p) & 1 for p in range(m)]
        phase = 0.0
        for p in range(m):
            for q in range(m):
                phase += j_same[p, q] * (na[p] * na[q] + nb[p] * nb[q])
                phase += j_opposite[p, q] * (na[p] * nb[q] + nb[p] * na[q])
        amps[idx] *= np.exp(1j * phase)
    return SectorStatevector(state.spec, amps.reshape(state.amplitudes.shape))


def givens_rotation(state, q):
    """Apply the orbital rotation q (a+_p -> sum_r q[r, p] a+_r) to a sector state.

    The reference for the compound-matrix rotation: q is reduced to a
    diagonal of signs by Givens rotations of adjacent rows, and each factor
    mixes only the string pairs that differ by one electron on orbitals p
    and p + 1, which carries no fermionic sign.
    """
    from hsqd.statevector import SectorStatevector

    m = state.spec.n_orbitals
    r = np.array(q, dtype=float)
    factors = []
    for col in range(m):
        for row in range(m - 1, col, -1):
            if abs(r[row, col]) < 1e-15:
                continue
            h = np.hypot(r[row - 1, col], r[row, col])
            c, s = r[row - 1, col] / h, r[row, col] / h
            r[[row - 1, row], :] = np.array([[c, s], [-s, c]]) @ r[[row - 1, row], :]
            factors.append((row - 1, c, s))
    flipped = int(sum(1 << p for p in range(m) if r[p, p] < 0))
    amps = state.amplitudes.copy()
    channels = []
    for axis, n in ((1, state.spec.n_alpha), (0, state.spec.n_beta)):
        strings = channel_strings(m, n)
        index = {w: i for i, w in enumerate(strings)}
        phase = np.array([(-1.0) ** bin(w & flipped).count("1") for w in strings])
        amps *= phase[None, :] if axis == 1 else phase[:, None]
        channels.append((axis, strings, index))
    for p, c, s in reversed(factors):
        for axis, strings, index in channels:
            moved = [w for w in strings if (w >> p) & 1 and not (w >> (p + 1)) & 1]
            if not moved:
                continue
            lo = [index[w] for w in moved]
            hi = [index[w ^ (3 << p)] for w in moved]
            x = np.take(amps, lo, axis=axis)
            y = np.take(amps, hi, axis=axis)
            if axis == 1:
                amps[:, lo], amps[:, hi] = c * x - s * y, s * x + c * y
            else:
                amps[lo, :], amps[hi, :] = c * x - s * y, s * x + c * y
    return SectorStatevector(state.spec, amps)


def random_general_integrals(rng, m, core=None):
    """Random Hermitian spin-resolved integrals with the operator symmetries."""
    from hsqd import ElectronicIntegrals

    h = rng.normal(size=(m, m))
    h = (h + h.T) / 2
    gss = rng.normal(size=(m, m, m, m))
    gos = rng.normal(size=(m, m, m, m))
    for _ in range(2):
        gss = (gss + gss.transpose(1, 0, 3, 2)) / 2
        gss = (gss + gss.transpose(2, 3, 0, 1)) / 2
        gos = (gos + gos.transpose(1, 0, 3, 2)) / 2
        gos = (gos + gos.transpose(2, 3, 0, 1)) / 2
    return ElectronicIntegrals(
        m, h, gss, gos, core_energy=float(rng.normal()) if core is None else core
    )


def dense_heat_bath_ci(ham, dets, reference, epsilons, max_determinants):
    """Heat-bath selected CI on the dense sector matrix ``ham`` over ``dets``
    (canonical order), by enumeration: per epsilon stage, until the set stops
    growing, every determinant a outside the set with max_i |H_ai| |c_i| >= eps
    joins, most important first and ties in (beta, alpha) order, up to
    ``max_determinants``.  Returns (determinants, energy) per stage."""
    chosen = [dets.index(reference)]

    def solve():
        vals, vecs = np.linalg.eigh(ham[np.ix_(chosen, chosen)])
        return vals[0], vecs[:, 0]

    energy, vec = solve()
    stages = []
    for eps in epsilons:
        while len(chosen) < max_determinants:
            importance = {}
            for a in range(len(dets)):
                if a not in chosen:
                    best = max(abs(ham[a, i]) * abs(c) for i, c in zip(chosen, vec))
                    if best >= eps and best > 0:
                        importance[a] = best
            new = sorted(importance, key=lambda a: (-importance[a], dets[a].beta, dets[a].alpha))
            if not new:
                break
            chosen += new[:max_determinants - len(chosen)]
            energy, vec = solve()
        stages.append(([dets[i] for i in chosen], energy))
    return stages


def basis_determinants(basis):
    """The determinants of a product basis in the order of its CI vector:
    beta-major over the ascending strings."""
    return [Determinant(int(a), int(b)) for b in basis.beta_strings for a in basis.alpha_strings]


def extsqd_expand_reference(result, basis, threshold, levels):
    """``subspace.extsqd_expand`` as a loop over the kept determinants: each
    one is excited by the Slater-Condon ``generate_excitations`` and every
    string of every excitation joins its channel."""
    from hsqd.subspace import SubspaceBasis

    weights = np.abs(result.ci_vector) ** 2
    kept = [det for det, wgt in zip(basis_determinants(basis), weights) if wgt >= threshold]
    if not kept:
        raise ValidationError("threshold removed every configuration")
    alpha, beta = set(basis.alpha_strings.tolist()), set(basis.beta_strings.tolist())
    for det in kept:
        for other in generate_excitations(det, basis.spec.n_orbitals, levels):
            alpha.add(other.alpha)
            beta.add(other.beta)
    return SubspaceBasis(basis.spec, tuple(sorted(alpha)), tuple(sorted(beta)))


def column_rows(row_a, row_b, cols, alpha, beta):
    """The rows of ``hsqd.strings.hamiltonian_columns`` over the determinants
    (alpha[j], beta[j]), its words ``row_a``, ``row_b`` and matrix ``cols``:
    returns ``cols`` with one zero row appended for each determinant that has
    none (its column is zero), and the row of each determinant, found by its
    words."""
    row = {det: i for i, det in enumerate(zip(row_a.tolist(), row_b.tolist()))}
    own = np.array([row.setdefault(det, len(row)) for det in zip(alpha.tolist(), beta.tolist())],
                   dtype=np.int64)
    zeros = sp.csr_matrix((len(row) - cols.shape[0], cols.shape[1]), dtype=cols.dtype)
    return sp.vstack([cols, zeros], format="csr"), own


def hci_ground_reference(spec, ints, schedule, reference=None):
    """``selci.hci_ground`` as it was before it kept its columns: every round
    rebuilds H[:, set] with one ``hamiltonian_columns`` call over the whole
    set, finds the set's rows by their words and ranks the rows outside it
    from that CSR."""
    from hsqd.davidson import lowest_eigenpair
    from hsqd.selci import SelectedCiStage
    from hsqd.strings import hamiltonian_columns
    from hsqd.subspace import relative_variance

    if reference is None:
        reference = ((1 << spec.n_alpha) - 1, (1 << spec.n_beta) - 1)
    alpha, beta = (np.array([word], dtype=np.int64) for word in reference)
    row_a, row_b, cols = hamiltonian_columns(ints, alpha, beta)
    cols, own = column_rows(row_a, row_b, cols, alpha, beta)
    result = lowest_eigenpair(cols[own])
    stages = []
    for eps in schedule.epsilons:
        while len(alpha) < schedule.max_determinants:
            # the rows outside the set, in ascending (beta, alpha) order
            outside = np.setdiff1d(np.arange(cols.shape[0]), own)
            coupling = abs(cols[outside])
            coupling.data *= np.abs(result.ci_vector)[coupling.indices]
            imp = coupling.max(axis=1).toarray().ravel()
            hits = np.flatnonzero((imp >= eps) & (imp > 0))
            # stable, so ties stay in (beta, alpha) order
            pick = outside[hits[np.argsort(-imp[hits], kind="stable")]]
            pick = pick[:schedule.max_determinants - len(alpha)]
            if not len(pick):
                break
            alpha = np.concatenate([alpha, row_a[pick]])
            beta = np.concatenate([beta, row_b[pick]])
            row_a, row_b, cols = hamiltonian_columns(ints, alpha, beta)
            cols, own = column_rows(row_a, row_b, cols, alpha, beta)
            result = lowest_eigenpair(cols[own])
        res = result.with_variance(
            relative_variance(result.ci_vector, cols @ result.ci_vector, own))
        stages.append(SelectedCiStage(eps, len(alpha), len(alpha) / spec.dimension(), res,
                                      alpha, beta))
    return stages


def one_spin_terms_reference(strings, h, g):
    """``hsqd.strings._one_spin_terms`` as one ``excite`` per coupled rs,
    followed by every coupled pq on the strings E_rs leaves alive; the terms
    column-major, each column's in term order."""
    from hsqd.strings import _live_excitations, _one_body_k, excite

    m = h.shape[0]
    k = _one_body_k(h, g)
    pairs = np.flatnonzero(k)
    term, word, col, sign = _live_excitations(strings, pairs, m)
    words_l, cols_l, vals_l = [word], [col], [k[pairs[term]] * sign]
    gmat = g.reshape(m * m, m * m)
    for rs in np.flatnonzero(np.any(gmat != 0, axis=0)):
        mid, mid_sign = excite(strings, *divmod(int(rs), m))
        live = np.flatnonzero(mid_sign)
        pq = np.flatnonzero(gmat[:, rs])
        term, word, j, sign = _live_excitations(mid[live], pq, m)
        words_l.append(word)
        cols_l.append(live[j])
        vals_l.append(0.5 * gmat[pq, rs][term] * sign * mid_sign[live[j]])
    vals = np.concatenate(vals_l)
    keep = np.flatnonzero(vals != 0)
    cols = np.concatenate(cols_l)[keep]
    keep = keep[np.argsort(cols, kind="stable")]
    return np.concatenate(words_l)[keep], np.sort(cols, kind="stable"), vals[keep]


def sigma_reference(c, ints, alpha, beta):
    """``hsqd.strings.sigma`` as it was before it read the block form: H_beta
    C, C H_alpha^T and core C from two channel CSRs, then one product
    W^beta_pq (C E^alpha_pq^T) for each pq that g_os couples, with W^beta_pq
    = sum_rs g_os[pq, rs] E^beta_rs refilled into one sorted E^beta
    pattern.  Returns S[jb, ja] over the words each channel reaches and
    those words, with no memory cap checked."""
    from hsqd.strings import _channel

    m = ints.n_orbitals
    gos = ints.two_body_opposite_spin.reshape(m * m, m * m)
    # the pq (alpha) and the rs (beta) that g_os couples to anything
    pq, rs = np.flatnonzero(np.any(gos != 0, axis=1)), np.flatnonzero(np.any(gos != 0, axis=0))
    (row, col, val), (a_term, a_row, a_col, a_sign), words_a = _channel(ints, alpha, pq)
    ha = sp.csr_matrix((val, (row, col)), shape=(len(words_a), len(alpha)))
    (row, col, val), (b_term, b_row, b_col, b_sign), words_b = _channel(ints, beta, rs)
    hb = sp.csr_matrix((val, (row, col)), shape=(len(words_b), len(beta)))
    ia, ib = np.searchsorted(words_a, alpha), np.searchsorted(words_b, beta)
    out = np.zeros((len(words_b), len(words_a)),
                   dtype=np.result_type(c, complex if ints.is_complex else float))
    out[:, ia] += hb @ c
    out[ib] += (ha @ c.T).T
    out[np.ix_(ib, ia)] += ints.core_energy * c
    a_cut = np.searchsorted(a_term, np.arange(len(pq) + 1))
    order = np.argsort(b_row, kind="stable")
    b_rs, b_sign = rs[b_term[order]], b_sign[order]
    b_ptr = np.searchsorted(b_row[order], np.arange(len(words_b) + 1))
    w = sp.csr_matrix((np.empty(len(order), dtype=gos.dtype), b_col[order], b_ptr),
                      shape=(len(words_b), len(beta)))
    d = np.empty((len(beta), len(words_a)), dtype=out.dtype)
    for k, p in enumerate(pq):
        part = slice(a_cut[k], a_cut[k + 1])
        d.fill(0)
        d[:, a_row[part]] = c[:, a_col[part]] * a_sign[part]
        np.multiply(gos[p, b_rs], b_sign, out=w.data)
        out += w @ d
    return out, words_a, words_b


def covering_reference(ranked_a, ranked_b, target):
    """The first step of greedy product growth over the two rankings whose
    dimension reaches ``target``, the last step when none does.  Growth
    starts from the first string of each ranking and adds, one string at a
    time, the channel whose next string gives the smaller product (alpha on
    ties) until both rankings are used up."""
    a, b = [ranked_a[0]], [ranked_b[0]]
    ia, ib = 1, 1
    seq = [(tuple(a), tuple(b))]
    while ia < len(ranked_a) or ib < len(ranked_b):
        grow_a = (len(a) + 1) * len(b) if ia < len(ranked_a) else None
        grow_b = len(a) * (len(b) + 1) if ib < len(ranked_b) else None
        if grow_b is None or (grow_a is not None and grow_a <= grow_b):
            a.append(ranked_a[ia])
            ia += 1
        else:
            b.append(ranked_b[ib])
            ib += 1
        seq.append((tuple(a), tuple(b)))
    return next(((a, b) for a, b in seq if len(a) * len(b) >= target), seq[-1])


# The Slater-Condon engine: matrix elements and excitations one determinant
# (pair) at a time, from occupied-orbital lists and the excitation rank.


def _bits(word: int) -> tuple[int, ...]:
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
    return tuple(out)


def _single_sign(word: int, hole: int, particle: int) -> int:
    """Parity of moving one electron hole -> particle within one spin word."""
    lo, hi = (hole, particle) if hole < particle else (particle, hole)
    mask = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    return -1 if bin(word & mask).count("1") % 2 else 1


def diagonal_energy(det: Determinant, ints: ElectronicIntegrals) -> float:
    """Expectation value of the Hamiltonian on a single determinant."""
    occ_a, occ_b = _bits(det.alpha), _bits(det.beta)
    h = ints.one_body
    val = ints.core_energy
    if occ_a:
        val = val + h[occ_a, occ_a].sum()
    if occ_b:
        val = val + h[occ_b, occ_b].sum()
    d_ss = np.einsum("ppqq->pq", ints.two_body_same_spin)
    x_ss = np.einsum("pqqp->pq", ints.two_body_same_spin)
    d_os = np.einsum("ppqq->pq", ints.two_body_opposite_spin)
    a = np.array(occ_a, dtype=int)
    b = np.array(occ_b, dtype=int)
    if a.size:
        val = val + 0.5 * (d_ss[np.ix_(a, a)].sum() - x_ss[np.ix_(a, a)].sum())
    if b.size:
        val = val + 0.5 * (d_ss[np.ix_(b, b)].sum() - x_ss[np.ix_(b, b)].sum())
    if a.size and b.size:
        val = val + d_os[np.ix_(a, b)].sum()
    # exactly real for Hermitian integrals
    return float(np.real(val))


def _single_element(hole: int, part: int, same_occ: tuple[int, ...], other_occ: tuple[int, ...],
                    ints: ElectronicIntegrals, sign: int):
    h = ints.one_body
    gss = ints.two_body_same_spin
    gos = ints.two_body_opposite_spin
    val = h[part, hole]
    for j in same_occ:
        if j == hole:
            continue
        val = val + gss[part, hole, j, j] - gss[part, j, j, hole]
    for j in other_occ:
        val = val + gos[part, hole, j, j]
    return sign * val


def matrix_element(d1: Determinant, d2: Determinant, ints: ElectronicIntegrals):
    """Slater-Condon matrix element <d1|H|d2>."""
    diff_a = d1.alpha ^ d2.alpha
    diff_b = d1.beta ^ d2.beta
    na = bin(diff_a).count("1")
    nb = bin(diff_b).count("1")
    rank = (na + nb) // 2
    if rank == 0:
        return diagonal_energy(d1, ints)
    if rank > 2:
        return 0.0
    gss = ints.two_body_same_spin
    gos = ints.two_body_opposite_spin
    if rank == 1:
        if na == 2:
            hole = _bits(diff_a & d2.alpha)[0]
            part = _bits(diff_a & d1.alpha)[0]
            sign = _single_sign(d2.alpha, hole, part)
            return _single_element(hole, part, _bits(d2.alpha), _bits(d2.beta), ints, sign)
        hole = _bits(diff_b & d2.beta)[0]
        part = _bits(diff_b & d1.beta)[0]
        sign = _single_sign(d2.beta, hole, part)
        return _single_element(hole, part, _bits(d2.beta), _bits(d2.alpha), ints, sign)
    # rank 2
    if na == 4:  # same-spin alpha double
        holes = _bits(diff_a & d2.alpha)
        parts = _bits(diff_a & d1.alpha)
        return _same_spin_double(d2.alpha, holes, parts, gss)
    if nb == 4:  # same-spin beta double
        holes = _bits(diff_b & d2.beta)
        parts = _bits(diff_b & d1.beta)
        return _same_spin_double(d2.beta, holes, parts, gss)
    # mixed alpha-beta double
    hole_a = _bits(diff_a & d2.alpha)[0]
    part_a = _bits(diff_a & d1.alpha)[0]
    hole_b = _bits(diff_b & d2.beta)[0]
    part_b = _bits(diff_b & d1.beta)[0]
    sign = _single_sign(d2.alpha, hole_a, part_a) * _single_sign(d2.beta, hole_b, part_b)
    return sign * gos[part_a, hole_a, part_b, hole_b]


def _same_spin_double(word: int, holes: tuple[int, ...], parts: tuple[int, ...], gss: np.ndarray):
    h1, h2 = holes
    p1, p2 = parts
    sign = _single_sign(word, h1, p1)
    word1 = word ^ (1 << h1) | (1 << p1)
    sign *= _single_sign(word1, h2, p2)
    return sign * (gss[p1, h1, p2, h2] - gss[p2, h1, p1, h2])


def _word_singles(word: int, n_orbitals: int):
    occ = _bits(word)
    for i in occ:
        for a in range(n_orbitals):
            if not (word >> a) & 1:
                yield word ^ (1 << i) | (1 << a)


def generate_excitations(
    det: Determinant, n_orbitals: int, levels: set[int]
) -> list[Determinant]:
    """Distinct spin-preserving excitations of a determinant.

    Level 1 produces all single excitations in either spin channel; level 2
    adds same-spin and mixed alpha-beta doubles.  Particle numbers per spin
    are preserved throughout.
    """
    if not levels or not levels <= {1, 2}:
        raise ValidationError("levels must be a nonempty subset of {1, 2}")
    alpha_singles = sorted(set(_word_singles(det.alpha, n_orbitals)))
    beta_singles = sorted(set(_word_singles(det.beta, n_orbitals)))
    out: dict[tuple[int, int], Determinant] = {}

    def add(a: int, b: int):
        key = (b, a)
        if key not in out:
            out[key] = Determinant(a, b)

    if 1 in levels:
        for a in alpha_singles:
            add(a, det.beta)
        for b in beta_singles:
            add(det.alpha, b)
    if 2 in levels:
        for a in sorted(set(_word_doubles(det.alpha, n_orbitals))):
            add(a, det.beta)
        for b in sorted(set(_word_doubles(det.beta, n_orbitals))):
            add(det.alpha, b)
        for a in alpha_singles:
            for b in beta_singles:
                add(a, b)
    out.pop((det.beta, det.alpha), None)
    return [out[k] for k in sorted(out)]


def _word_doubles(word: int, n_orbitals: int):
    occ = _bits(word)
    virt = [a for a in range(n_orbitals) if not (word >> a) & 1]
    for i, j in combinations(occ, 2):
        for a, b in combinations(virt, 2):
            yield word ^ (1 << i) ^ (1 << j) | (1 << a) | (1 << b)


def arpack_lowest(matrix, tol: float, max_iter: int = 200) -> GroundStateResult:
    """Lowest eigenpair from ARPACK's implicitly restarted Lanczos
    (``scipy.sparse.linalg.eigsh``, Lehoucq, Sorensen & Yang, ARPACK Users'
    Guide, SIAM 1998) run to machine precision (``tol=0``) on H shifted below
    its Gershgorin bound, from the unit vector at the smallest diagonal
    element; ``iterations`` counts its matvecs, and ``max_iter`` its restarts.
    The energy is the Rayleigh quotient of the unshifted H."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = matrix.shape[0]
    diag = matrix.diagonal() if sp.issparse(matrix) else np.diag(matrix)
    start = np.zeros(n, dtype=matrix.dtype)
    start[int(np.argmin(diag.real))] = 1.0
    # ARPACK builds its Krylov space from H v0, which has no component in
    # the null space of H, so a ground state at exactly zero energy would be
    # missed; below Gershgorin's bound, H - shift is definite
    radius = np.asarray(abs(matrix).sum(axis=1)).ravel() - np.abs(diag)
    shift = float(np.min(diag.real - radius)) - 1.0
    matvecs = 0

    def apply(x):
        nonlocal matvecs
        matvecs += 1
        return matrix @ x - shift * x

    op = LinearOperator((n, n), matvec=apply, dtype=matrix.dtype)
    try:
        vals, vecs = eigsh(op, k=1, which="SA", v0=start, tol=0, maxiter=max_iter)
        done = True
    except ArpackNoConvergence as exc:
        vals, vecs = exc.eigenvalues, exc.eigenvectors
        done = False
    vec = vecs[:, 0] if len(vals) else start
    energy = float(np.real(np.vdot(vec, matrix @ vec)))
    resid = float(np.linalg.norm(matrix @ vec - energy * vec))
    return GroundStateResult(energy, vec, resid, matvecs, done and resid <= tol)


def lowest_ritz_vector_reference(d, e):
    """The lowest eigenvector of the symmetric tridiagonal (d, e) from
    ``scipy.linalg.eigh_tridiagonal``, asked for the first index only."""
    import scipy.linalg

    return scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[1][:, 0]


# the M^4 contractions of the mean field: J and K of the Fock matrix, direct and exchange energy
_SCF_J, _SCF_K, _SCF_E_DIR, _SCF_E_X = ("pqrs,sr->pq", "pqrs,qr->ps", "pqrs,qp,sr->",
                                        "pqrs,sp,qr->")


def _scf_path(spec, g, p):
    """The path ``optimize=True`` plans for ``spec`` on the integrals ``g``."""
    return np.einsum_path(spec, g, *[p] * spec.count(","), optimize=True)[0]


def scf_fock_reference(ints, p):
    """h + J(P) - K(P), each contraction an einsum on its planned path."""
    gss = ints.two_body_same_spin
    g_dir = gss + ints.two_body_opposite_spin
    j = np.einsum(_SCF_J, g_dir, p, optimize=_scf_path(_SCF_J, gss, p))
    k = np.einsum(_SCF_K, gss, p, optimize=_scf_path(_SCF_K, gss, p))
    return ints.one_body + j - k


def scf_energy_reference(ints, p):
    """The closed-shell energy of the density P, as ``scf_fock_reference``."""
    h, gss, gos = ints.one_body, ints.two_body_same_spin, ints.two_body_opposite_spin
    e1 = 2.0 * np.einsum("pq,qp->", h, p)
    e_dir = np.einsum(_SCF_E_DIR, gss + gos, p, p, optimize=_scf_path(_SCF_E_DIR, gss, p))
    e_x = np.einsum(_SCF_E_X, gss, p, p, optimize=_scf_path(_SCF_E_X, gss, p))
    return float(np.real(e1 + e_dir - e_x)) + ints.core_energy
