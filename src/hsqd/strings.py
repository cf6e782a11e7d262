"""String-driven Hamiltonian engine for product determinant spaces.

Every determinant is an alpha string times a beta string, so the Hamiltonian
splits by spin (Knowles and Handy, Chem. Phys. Lett. 111, 315 (1984)):

    H = H_beta (x) 1 + 1 (x) H_alpha + core
      + sum_{pq,rs} g_os[pq,rs] E^beta_rs (x) E^alpha_pq ,

with E_pq = a+_p a_q acting inside one spin string and the one-spin operator

    H_s = sum_pq k_pq E_pq + 1/2 sum_{pqrs} g_ss[pq,rs] E_pq E_rs ,
    k_pq = h_pq - 1/2 sum_r g_ss[p,r,r,q] .

E_pq is evaluated on the string words themselves with bit operations, so the
cost of an operator grows with the strings it is restricted to, never with
the C(M, n) strings of the whole channel.  Orbital pairs are flat indices
pq = p * M + q.

Determinants are ordered beta-major (as in ``SubspaceBasis.determinants``),
so a vector over a product space A x B is the matrix C[ib, ia] and

    sigma = H_beta C + C H_alpha^T + core C + sum g_os[pq,rs] E^beta_rs C E^alpha_pq^T .
"""

from __future__ import annotations

from math import comb

import numpy as np
import scipy.sparse as sp

from .model import ElectronicIntegrals, SectorSpec

# largest estimated allocation of one full-sector sigma (see sigma_bytes)
SIGMA_BYTES_CAP = 2 * 1024**3


def excite(words: np.ndarray, p, q) -> tuple[np.ndarray, np.ndarray]:
    """E_pq on each string word; ``p`` and ``q`` broadcast against ``words``.

    Returns the target words and the fermionic signs, with sign 0 where E_pq
    annihilates the string; the target word then has a different particle
    number, so it matches no string of the channel.
    """
    bit_p = np.left_shift(1, p, dtype=np.int64)
    bit_q = np.left_shift(1, q, dtype=np.int64)
    ok = ((words & bit_q) != 0) & ((bit_p == bit_q) | ((words & bit_p) == 0))
    # a_q passes the electrons below q, then a+_p those below p once q is gone
    gone = words ^ bit_q
    parity = np.bitwise_count(words & (bit_q - 1)) + np.bitwise_count(gone & (bit_p - 1))
    sign = np.where(ok, np.where(parity & 1, -1.0, 1.0), 0.0)
    return gone | bit_p, sign


def _locate(strings: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Positions of ``words`` in the ascending ``strings``; -1 where absent."""
    pos = np.minimum(np.searchsorted(strings, words), len(strings) - 1)
    return np.where(strings[pos] == words, pos, -1)


def _excitations(strings: np.ndarray, pairs: np.ndarray, m: int):
    """E_pq restricted to ``strings`` for each pair in ``pairs``: the live
    entries as (pair position, row, column, sign), pair-major."""
    p, q = np.divmod(pairs[:, None], m)
    words, sign = excite(strings, p, q)
    rows = _locate(strings, words)
    term, col = np.nonzero(rows >= 0)
    return term, rows[term, col], col, sign[term, col]


def one_spin_operator(strings: np.ndarray, h: np.ndarray, g: np.ndarray) -> sp.coo_matrix:
    """k.E + 1/2 sum g E_pq E_rs restricted to the ascending ``strings``.

    The product E_pq E_rs passes through strings outside the set, so the
    intermediate words are kept and only the end points are restricted.
    """
    m = h.shape[0]
    n = len(strings)
    k = (h - 0.5 * np.einsum("prrq->pq", g)).reshape(-1)
    term, row, col, sign = _excitations(strings, np.arange(m * m), m)
    rows_l, cols_l, vals_l = [row], [col], [k[term] * sign]
    gmat = g.reshape(m * m, m * m)
    for rs in np.flatnonzero(np.any(gmat != 0, axis=0)):
        mid, mid_sign = excite(strings, *divmod(int(rs), m))
        live = np.flatnonzero(mid_sign)
        pq = np.flatnonzero(gmat[:, rs])
        words, sign = excite(mid[live], *np.divmod(pq[:, None], m))
        rows = _locate(strings, words)
        term, j = np.nonzero(rows >= 0)
        rows_l.append(rows[term, j])
        cols_l.append(live[j])
        vals_l.append(0.5 * gmat[pq, rs][term] * sign[term, j] * mid_sign[live[j]])
    rows = np.concatenate(rows_l)
    cols = np.concatenate(cols_l)
    vals = np.concatenate(vals_l)
    keep = vals != 0
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n))


def product_hamiltonian(
    ints: ElectronicIntegrals, alpha: np.ndarray, beta: np.ndarray
) -> sp.csr_matrix:
    """H over the product space of the ascending ``alpha`` and ``beta``
    string words, in beta-major order."""
    m = ints.n_orbitals
    na, nb = len(alpha), len(beta)
    d = na * nb
    ha = one_spin_operator(alpha, ints.one_body, ints.two_body_same_spin)
    hb = one_spin_operator(beta, ints.one_body, ints.two_body_same_spin)
    index = np.int32 if d <= np.iinfo(np.int32).max else np.int64
    stride = index(na)  # row of (ib, ia) is ib * na + ia, in the index dtype
    a_range, b_range = np.arange(na, dtype=index), np.arange(nb, dtype=index)
    # H_beta (x) 1, 1 (x) H_alpha, and the core energy on the diagonal
    rows_l = [hb.row[:, None] * stride + a_range, b_range[:, None] * stride + ha.row]
    cols_l = [hb.col[:, None] * stride + a_range, b_range[:, None] * stride + ha.col]
    vals_l = [np.repeat(hb.data, na), np.tile(ha.data, nb)]
    if ints.core_energy:
        rows_l.append(np.arange(d, dtype=index))
        cols_l.append(rows_l[-1])
        vals_l.append(np.full(d, ints.core_energy))
    gos = ints.two_body_opposite_spin.reshape(m * m, m * m)
    for pq in np.flatnonzero(np.any(gos != 0, axis=1)):
        # E^alpha_pq[A, A]
        _, ea_row, ea_col, ea_val = _excitations(alpha, np.array([pq]), m)
        # W^beta_pq = sum_rs g_os[pq, rs] E^beta_rs[B, B], duplicates unsummed
        rs = np.flatnonzero(gos[pq])
        term, w_row, w_col, sign = _excitations(beta, rs, m)
        w_val = gos[pq, rs][term] * sign
        rows_l.append(w_row.astype(index)[:, None] * stride + ea_row.astype(index))
        cols_l.append(w_col.astype(index)[:, None] * stride + ea_col.astype(index))
        vals_l.append(w_val[:, None] * ea_val)
    # every triplet is live and nonzero; one conversion sums the duplicates,
    # and the pieces are dropped as soon as they are joined to bound the peak
    rows = np.concatenate([r.ravel() for r in rows_l])
    cols = np.concatenate([c.ravel() for c in cols_l])
    del rows_l, cols_l
    vals = np.concatenate([v.ravel() for v in vals_l])
    del vals_l
    dtype = complex if ints.is_complex else float
    mat = sp.coo_matrix((vals.astype(dtype, copy=False), (rows, cols)), shape=(d, d)).tocsr()
    mat.eliminate_zeros()
    return mat


def sigma_bytes(spec: SectorSpec, ints: ElectronicIntegrals) -> int:
    """Estimated peak memory of one ``sigma`` over the full sector of ``spec``.

    Counts five sector-sized arrays (the vector, the result and the
    temporaries of one term); ten 8-byte temporaries per string and orbital
    pair for the excitations of each channel; and three copies (joined,
    filtered, converted) of each one-spin triplet of two 8-byte indices and
    a value, with L^2 + L triplets per string, where L = n (M - n) + n is the
    number of E_rs that keep a string alive.
    """
    m = spec.n_orbitals
    item = 16 if ints.is_complex else 8
    total = 5 * item * spec.dimension()
    for n in (spec.n_alpha, spec.n_beta):
        live = n * (m - n) + n
        total += comb(m, n) * (80 * m * m + 3 * (16 + item) * (live * live + live))
    return total


def sigma(
    c: np.ndarray, ints: ElectronicIntegrals, alpha: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """H applied to a vector over the product of the ascending ``alpha`` and
    ``beta`` string words, given as the matrix C[ib, ia].  The product space
    must be closed under H (a full sector) for the result to be H c."""
    m = ints.n_orbitals
    ha = one_spin_operator(alpha, ints.one_body, ints.two_body_same_spin).tocsr()
    hb = one_spin_operator(beta, ints.one_body, ints.two_body_same_spin).tocsr()
    out = hb @ c
    out += (ha @ c.T).T
    out += ints.core_energy * c
    gos = ints.two_body_opposite_spin.reshape(m * m, m * m)
    pairs = np.arange(m * m)
    # E^alpha of every pair, pair-major, and one row-sorted CSR pattern of all
    # E^beta_rs that each W^beta_pq = sum_rs g_os[pq, rs] E^beta_rs refills
    a_term, a_row, a_col, a_sign = _excitations(alpha, pairs, m)
    a_cut = np.searchsorted(a_term, np.arange(m * m + 1))
    b_term, b_row, b_col, b_sign = _excitations(beta, pairs, m)
    order = np.argsort(b_row, kind="stable")
    b_term, b_col, b_sign = b_term[order], b_col[order], b_sign[order]
    b_ptr = np.concatenate([[0], np.cumsum(np.bincount(b_row, minlength=len(beta)))])
    d = np.empty(c.shape, dtype=np.result_type(c, gos))
    for pq in np.flatnonzero(np.any(gos != 0, axis=1)):
        # D = C E^alpha_pq^T, then W^beta_pq D
        part = slice(a_cut[pq], a_cut[pq + 1])
        d.fill(0)
        d[:, a_row[part]] = c[:, a_col[part]] * a_sign[part]
        w = sp.csr_matrix((gos[pq, b_term] * b_sign, b_col, b_ptr), shape=(len(beta),) * 2)
        out += w @ d
    return out
