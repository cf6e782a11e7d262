"""String-driven Hamiltonian engine for product spaces and determinant lists.

Every determinant is an alpha string times a beta string, so the Hamiltonian
splits by spin (Knowles and Handy, Chem. Phys. Lett. 111, 315 (1984)):

    H = H_beta (x) 1 + 1 (x) H_alpha + core
      + sum_{pq,rs} g_os[pq,rs] E^beta_rs (x) E^alpha_pq ,

with E_pq = a+_p a_q acting inside one spin string, g_os read as its
swap-even part 1/2 (g_os[pq,rs] + g_os[rs,pq]) (the operator that
``ElectronicIntegrals`` defines) and the one-spin operator

    H_s = sum_pq k_pq E_pq + 1/2 sum_{pqrs} g_ss[pq,rs] E_pq E_rs ,
    k_pq = h_pq - 1/2 sum_r g_ss[p,r,r,q] .

E_pq is evaluated on the string words themselves with bit operations, so the
cost of an operator grows with the strings it is restricted to, never with
the C(M, n) strings of the whole channel.  Orbital pairs are flat indices
pq = p * M + q.  Each string's one-spin row, H_s on it summed per target
word, is built once per integrals object (``ElectronicIntegrals.one_spin_memo``).
Every routine takes a channel from ``_channel``: its one-spin entries and
live E_pq, located in its strings or in every word they reach, for one
list of pairs: those that g_os couples in either role (``_coupled_pairs``).

On a product space A x B the matrix and sigma read one block form,
H = sum_k W_k (x) O_k over O = (1, H_alpha + core, E^alpha_pq for each
coupled pq) and W = (H_beta, 1, sum_rs g_os[pq,rs] E^beta_rs).
Determinants are ordered beta-major, so a vector over A x B is the matrix
C[ib, ia], with sigma = sum_k W_k C O_k^T over the words each channel
reaches, and the matrix is H = sum_{ib,jb} |ib><jb| (x) B(ib, jb), with
B(ib, jb) = sum_k W_k[ib,jb] O_k.  H columns order their rows (beta, alpha).
"""

from __future__ import annotations

from math import comb

import numpy as np
import scipy.sparse as sp

from .errors import check_cap
from .model import ElectronicIntegrals, SectorSpec

# most slots, and slots per entry, of the table that ranks hamiltonian_columns' keys
RANK_TABLE_SLOTS = 2**26
RANK_TABLE_RATIO = 4


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


def excited_strings(strings: np.ndarray, m: int, singles: bool, doubles: bool) -> np.ndarray:
    """The single and/or double excitations of the string words ``strings``
    over ``m`` orbitals, with repeats; a double is a single of a single that
    differs from its source string in four orbitals."""
    p, q = np.divmod(np.flatnonzero(~np.eye(m, dtype=bool)), m)
    words, sign = excite(strings[:, None], p, q)
    live = sign != 0
    out = [words[live]] if singles else []
    if doubles:
        words2, sign2 = excite(words[live][:, None], p, q)
        source = np.broadcast_to(strings[:, None], words.shape)[live]
        out.append(words2[(sign2 != 0) & (np.bitwise_count(words2 ^ source[:, None]) == 4)])
    return np.concatenate(out)


def _live_excitations(strings: np.ndarray, pairs: np.ndarray, m: int):
    """E_pq on ``strings`` for each pair in ``pairs``: the entries that do not
    annihilate the string, as (pair position, target word, column, sign),
    pair-major."""
    words, sign = excite(strings, *np.divmod(pairs[:, None], m))
    term, col = np.nonzero(sign)
    return term, words[term, col], col, sign[term, col]


def _one_body_k(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """k_pq = h_pq - 1/2 sum_r g_ss[p,r,r,q], flat over pq."""
    return (h - 0.5 * np.einsum("prrq->pq", g)).reshape(-1)


def _one_spin_terms(strings: np.ndarray, h: np.ndarray, g: np.ndarray):
    """k.E + 1/2 sum g E_pq E_rs on each of the ascending ``strings``: the
    nonzero terms as (target word, column, value), over every string they
    reach (E_pq E_rs passes through strings outside the set), in an order
    that lists each column's terms in term order: the E_pq by pq, then the
    E_pq E_rs by rs and pq."""
    m = h.shape[0]
    k = _one_body_k(h, g)
    pairs = np.flatnonzero(k)
    term, word, col, sign = _live_excitations(strings, pairs, m)
    words_l, cols_l, vals_l = [word], [col], [k[pairs[term]] * sign]
    gmat = g.reshape(m * m, m * m)
    coupled = (gmat != 0).T.reshape(m * m, m, m)  # [rs, p, q]
    coupled_rs = np.flatnonzero(coupled.any(axis=(1, 2)))
    orbitals, same = np.arange(m), np.eye(m, dtype=bool)
    # one pass per r: E_rs for every coupled s, then on each live intermediate
    # only the E_pq that keep it alive (q occupied, p empty or p = q) and are
    # coupled to its rs, in ascending pq; the entries come (s, column, pq)
    # ordered, so each column's terms stay in term order
    for r in np.unique(coupled_rs // m):
        rs = coupled_rs[coupled_rs // m == r]
        mid, mid_sign = excite(strings, r, rs[:, None] % m)
        t, j = np.nonzero(mid_sign)
        mid, mid_sign, rs = mid[t, j], mid_sign[t, j], rs[t]
        occ = ((mid[:, None] >> orbitals) & 1) != 0
        e, p, q = np.nonzero(occ[:, None, :] & (same | ~occ[:, :, None]) & coupled[rs])
        word, sign = excite(mid[e], p, q)
        words_l.append(word)
        cols_l.append(j[e])
        vals_l.append(0.5 * gmat[p * m + q, rs[e]] * sign * mid_sign[e])
    vals = np.concatenate(vals_l)
    keep = vals != 0
    return np.concatenate(words_l)[keep], np.concatenate(cols_l)[keep], vals[keep]


def _summed_rows(words: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """The terms of ``_one_spin_terms`` summed per (column, target word) in
    term order, the zero sums dropped, each column's words ascending."""
    order = np.lexsort((words, cols))  # stable, so each sum keeps term order
    words, cols, vals = words[order], cols[order], vals[order]
    start = (np.diff(words, prepend=-1) != 0) | (np.diff(cols, prepend=-1) != 0)
    group = np.cumsum(start) - 1
    total = np.zeros(np.count_nonzero(start), dtype=vals.dtype)
    # bincount adds its weights one at a time, in order
    total.real = np.bincount(group, vals.real, len(total))
    if np.iscomplexobj(vals):
        total.imag = np.bincount(group, vals.imag, len(total))
    first = np.flatnonzero(start)[total != 0]
    return words[first], cols[first], total[total != 0]


def _one_spin_entries(ints: ElectronicIntegrals, strings: np.ndarray):
    """The one-spin rows (``_summed_rows``) of the ascending ``strings``
    under ``ints``, as (target word, column, value); a row's bits depend on
    its string only.  Each is computed once and kept in
    ``ints.one_spin_memo``; the rest are gathered from it."""
    memo = ints.one_spin_memo
    new = [w for w in strings.tolist() if w not in memo]
    if new or not len(strings):  # an empty request gets empty arrays of the right types
        words, cols, vals = _summed_rows(*_one_spin_terms(
            np.array(new, dtype=np.int64), ints.one_body, ints.two_body_same_spin))
        cut = np.searchsorted(cols, np.arange(len(new) + 1))
        for w, lo, hi in zip(new, cut[:-1].tolist(), cut[1:].tolist()):
            memo[w] = (words[lo:hi], vals[lo:hi])
        if len(new) == len(strings):  # no copy on a cold memo, which bounds the peak
            return words, cols, vals
    parts = [memo[w] for w in strings.tolist()]
    count = [len(part[0]) for part in parts]
    words, vals = (np.concatenate(x) for x in zip(*parts))
    return words, np.repeat(np.arange(len(strings)), count), vals


def _channel(ints: ElectronicIntegrals, strings: np.ndarray, pairs: np.ndarray, rows=None):
    """One spin channel from its ascending ``strings``: the one-spin entries
    as (row, column, value) and the live E_pq, pq in ``pairs``, as (pair
    position, row, column, sign), located in the ascending words ``rows``
    and those outside them dropped, and the rows.  By default the rows are
    every word the entries reach, the strings included."""
    words, cols, vals = _one_spin_entries(ints, strings)
    term, live, src, sign = _live_excitations(strings, pairs, ints.n_orbitals)
    if rows is None:
        rows = np.unique(np.concatenate([strings, words, live]))
        return ((np.searchsorted(rows, words), cols, vals),
                (term, np.searchsorted(rows, live), src, sign), rows)
    at, live_at = (np.minimum(np.searchsorted(rows, w), len(rows) - 1) for w in (words, live))
    keep, hit = rows[at] == words, rows[live_at] == live
    return (at[keep], cols[keep], vals[keep]), (term[hit], live_at[hit], src[hit], sign[hit]), rows


def _coupled_pairs(ints: ElectronicIntegrals):
    """The ascending flat pairs that g_os couples in either role, alpha pq or
    beta rs (the union of its nonzero rows and columns), and its swap-even
    block over them, G = 1/2 (g + g^T) with g = g_os[pairs][:, pairs]."""
    m = ints.n_orbitals
    gos = ints.two_body_opposite_spin.reshape(m * m, m * m)
    pairs = np.flatnonzero(np.any(gos != 0, axis=0) | np.any(gos != 0, axis=1))
    g = gos[np.ix_(pairs, pairs)]
    return pairs, (g + g.T) / 2


def _block_form(ints: ElectronicIntegrals, alpha: np.ndarray, beta: np.ndarray, reach: bool):
    """H = sum_k W_k (x) O_k over the product of the ascending ``alpha`` and
    ``beta`` strings: per channel, the entries of every O_k (alpha) or W_k
    (beta) as (k, row, column, value) in ascending k, the rows among the
    strings or, with ``reach``, every word they reach (``_channel``), and
    those words; and the number of k.  k = 0 is 1 and H_beta, k = 1 is
    H_alpha + core and 1, and one more k for each coupled pq
    (``_coupled_pairs``) is E^alpha_pq and sum_rs g_os[pq, rs] E^beta_rs."""
    pairs, g = _coupled_pairs(ints)
    (ha_row, ha_col, ha), (a_term, a_row, a_col, a_sign), words_a = _channel(
        ints, alpha, pairs, None if reach else alpha)
    (hb_row, hb_col, hb), (b_term, b_row, b_col, b_sign), words_b = _channel(
        ints, beta, pairs, None if reach else beta)
    i, e = np.nonzero(g[:, b_term])
    na, nb = len(alpha), len(beta)
    own_a, own_b = np.searchsorted(words_a, alpha), np.searchsorted(words_b, beta)
    ops = (np.concatenate([np.zeros(na, int), np.ones(na + len(ha), int), a_term + 2]),
           np.concatenate([own_a, own_a, ha_row, a_row]),
           np.concatenate([np.arange(na), np.arange(na), ha_col, a_col]),
           np.concatenate([np.ones(na), np.full(na, ints.core_energy), ha, a_sign]))
    coef = (np.concatenate([np.zeros(len(hb), int), np.ones(nb, int), i + 2]),
            np.concatenate([hb_row, own_b, b_row[e]]),
            np.concatenate([hb_col, np.arange(nb), b_col[e]]),
            np.concatenate([hb, np.ones(nb), g[i, b_term[e]] * b_sign[e]]))
    return (ops, words_a), (coef, words_b), len(pairs) + 2


def _operator_rows(entries, n: int, n_k: int):
    """One channel's operators (``_block_form``) over n strings as rows k of a
    CSR over the sorted distinct positions row * n + column, and those."""
    k, row, col, val = entries
    pattern, pos = np.unique(row * n + col, return_inverse=True)
    ptr = np.searchsorted(k, np.arange(n_k + 1))
    return sp.csr_matrix((val, pos, ptr), shape=(n_k, len(pattern))), pattern


def product_hamiltonian(
    ints: ElectronicIntegrals, alpha: np.ndarray, beta: np.ndarray
) -> sp.csr_matrix:
    """H over the product space of the ascending ``alpha`` and ``beta``
    string words, in beta-major order and canonical CSR without stored
    zeros, unless ``product_bytes`` puts it over the memory cap."""
    na, nb = len(alpha), len(beta)
    d = na * nb
    spec = SectorSpec(ints.n_orbitals, *(int(np.bitwise_count(w[:1]).sum()) for w in (alpha, beta)))
    check_cap(f"the Hamiltonian over the {d}-determinant subspace", product_bytes(spec, ints, alpha, beta))
    (ops, _), (coef, _), n_k = _block_form(ints, alpha, beta, reach=False)
    # O_k and W_k as row k, over positions ia * na + ja and ib * nb + jb
    (ops, a_pos), (coef, b_pos) = _operator_rows(ops, na, n_k), _operator_rows(coef, nb, n_k)
    # B(ib, jb) per block pair, duplicates summed, zeros dropped; transposing CSC to CSR sorts rows
    blocks = (coef.T @ ops).tocsr()
    index = np.int32 if d <= np.iinfo(np.int32).max else np.int64
    # positions run to na^2 and nb^2, past int32 when d is not: split them first
    ib, jb = (x.astype(index) for x in np.divmod(b_pos, nb))
    ia, ja = (x.astype(index) for x in np.divmod(a_pos, na))
    count = np.diff(blocks.indptr)
    rows = np.repeat(ib * index(na), count) + ia[blocks.indices]
    cols = np.repeat(jb * index(na), count)
    cols += ja[blocks.indices]
    data = blocks.data
    del blocks  # bounds the peak (product_bytes)
    # each row's entries arrive in (jb, ja) order, so SciPy's stable counting sort gives canonical CSR
    return sp.csr_matrix((data, (rows, cols)), shape=(d, d))


def _live_counts(pairs: np.ndarray, m: int, n: int) -> tuple[int, int]:
    """At most how many E_pp and how many E_pq (p != q) with pq in the flat
    ``pairs`` keep a string of n electrons alive: E_pp needs p occupied, and
    E_pq needs q occupied and p empty."""
    diag = int(np.count_nonzero(pairs % (m + 1) == 0))  # pq = p (m + 1) + q - p
    return min(diag, n), min(len(pairs) - diag, n * (m - n))


def _per_string(spec: SectorSpec, ints: ElectronicIntegrals):
    """Per channel, at most how many one-spin entries (singles and doubles by
    the nonzero patterns of k and g_ss) and opposite-spin E_pq (by that of
    g_os) keep a string alive, how many of those map it to another string
    (all but E_pp and E_pp E_qq), and how many of the E_pq do (p != q); and
    the most pairs an excitation pass visits."""
    m = spec.n_orbitals
    k = np.flatnonzero(_one_body_k(ints.one_body, ints.two_body_same_spin))
    gss = ints.two_body_same_spin.reshape(m * m, m * m) != 0
    pairs, _ = _coupled_pairs(ints)
    diag = np.arange(m) * (m + 1)
    gss_off = int(np.count_nonzero(gss)) - int(np.count_nonzero(gss[np.ix_(diag, diag)]))
    gss_rs, gss_pq = (np.flatnonzero(gss.any(axis=a)) for a in (0, 1))
    counts = []
    for n in (spec.n_alpha, spec.n_beta):
        (k_d, k_o), (c_d, c_o) = _live_counts(k, m, n), _live_counts(pairs, m, n)
        (l_d, l_o), (r_d, r_o) = _live_counts(gss_rs, m, n), _live_counts(gss_pq, m, n)
        doubles = min((l_d + l_o) * (r_d + r_o), int(np.count_nonzero(gss)))
        moved = min(l_o * (r_d + r_o) + l_d * r_o, gss_off)
        counts.append((k_d + k_o + doubles, c_d + c_o, k_o + moved + c_o, c_o))
    return counts, max(len(k), len(pairs), len(gss_pq))


def columns_bytes(n_dets: int, spec: SectorSpec, ints: ElectronicIntegrals) -> int:
    """Estimated peak memory of ``hamiltonian_columns`` over ``n_dets``
    determinants of ``spec``, with no string's entries memoized yet.

    Each column gathers the summed one-spin rows of its two strings (a row
    has no more words than its string has one-spin terms, nor than the
    string, its singles and its doubles), the products of their
    opposite-spin E_pq (``_per_string``) and the core, at fourteen 8-byte
    indices and three values each.  A cold memo first sums each string's
    terms (``_summed_rows``), holding two copies of each term's word, column
    and value, its sort order, two group numbers and a flag.  The gathered
    parts are freed before the kept entries (two indices and a value) are
    ranked, with the key table's 9 bytes for each of its
    ``RANK_TABLE_RATIO`` slots per entry.  These three stages follow one
    another, so a determinant counts the largest.  An excitation pass adds
    160 bytes per visited orbital pair, and each call 4 M^4 bytes of
    integral masks and 64 KiB.  In a rotated basis (the half-filled U+V
    chain) this is 1.9-2.5x the peak measured from M = 6 to 12 with 20 to
    400 determinants, and in a site basis 4.4-6.8x.
    """
    m, item = spec.n_orbitals, 16 if ints.is_complex else 8
    counts, visited = _per_string(spec, ints)
    rows = sum(min(one, 1 + n * (m - n) + comb(n, 2) * comb(m - n, 2))
               for n, (one, *_) in zip((spec.n_alpha, spec.n_beta), counts))
    (one_a, os_a, *_), (one_b, os_b, *_) = counts
    entries = 1 + rows + os_a * os_b
    gathered, cold = entries * (112 + 3 * item), (one_a + one_b) * (57 + 2 * item)
    ranked = entries * (16 + item + 9 * RANK_TABLE_RATIO)
    return n_dets * (max(gathered, cold, ranked) + 160 * visited) + 4 * m**4 + 65536


def _near_pairs(words: np.ndarray, m: int, n: int) -> tuple[int, int]:
    """How many ordered pairs of distinct strings among ``words`` (n
    electrons in m orbitals) differ by one orbital move, and by one or two."""
    singles, doubles = n * (m - n), comb(n, 2) * comb(m - n, 2)
    if len(words) == comb(m, n):  # the whole channel
        return len(words) * singles, len(words) * (singles + doubles)
    moves = np.zeros(5, dtype=np.int64)
    step = max(1, 2**20 // max(len(words), 1))
    for lo in range(0, len(words), step):
        moves += np.bincount(np.bitwise_count(words[lo:lo + step, None] ^ words).ravel(),
                             minlength=5)[:5]
    return int(moves[2]), int(moves[2] + moves[4])


def product_bytes(spec: SectorSpec, ints: ElectronicIntegrals, alpha: np.ndarray,
                  beta: np.ndarray) -> int:
    """Estimated peak memory of ``product_hamiltonian`` over the ascending
    ``alpha`` and ``beta`` string words of ``spec``, with no string's entries
    memoized yet, from the counts of ``_per_string`` and from the pairs of
    each channel's strings one or two orbital moves apart (``_near_pairs``).

    An entry of H joins two determinants that are equal, or differ in one
    channel by one or two moves, or in each by one.  A channel of n strings
    has at most R = min(P, n r) pairs joined by one of its moves (P pairs one
    or two moves apart, r terms that move a string) and X = min(Q, n x)
    joined by an opposite-spin E_pq (Q pairs one move apart, x the E_pq with
    p != q that keep a string alive), so H has at most
    d + n_b R_a + n_a R_b + X_a X_b entries.  The block product, its
    triplets and their CSR hold at most five arrays over them at once: four
    of indices and one of values, or three of indices and two of values.
    Each channel counts as in ``sigma_bytes``, each live beta E_rs 80 bytes
    and a value for every pq that g_os couples to its rs, the block
    product's work rows a slot per string and moving pair, and each call
    4 M^4 bytes of integral masks and 64 KiB.  On the whole 10-site
    half-filled sector in a rotated basis this is 1.04-1.06x the traced peak.
    """
    m, item = spec.n_orbitals, 16 if ints.is_complex else 8
    counts, visited = _per_string(spec, ints)
    _, g = _coupled_pairs(ints)
    na, nb = len(alpha), len(beta)
    idx = 4 if max(na * nb, na * na, nb * nb) <= np.iinfo(np.int32).max else 8
    total = 4 * m**4 + 65536
    moving, crossing, live = [], [], []
    for n, words, (one, lv, moved, lv_moved) in zip((spec.n_alpha, spec.n_beta),
                                                    (alpha, beta), counts):
        single, near = _near_pairs(words, m, n)
        moving.append(min(near, len(words) * moved))
        crossing.append(min(single, len(words) * lv_moved))
        live.append(len(words) * (lv - lv_moved) + crossing[-1])
        total += len(words) * (80 * visited + 3 * (20 + item) * (one + lv))
    total += live[1] * int(np.count_nonzero(g, axis=0).max(initial=0)) * (80 + item)
    total += (na + nb + moving[0] + moving[1]) * (2 * idx + item)
    entries = na * nb + nb * moving[0] + na * moving[1] + crossing[0] * crossing[1]
    return total + entries * max(item + 3 * idx + 8, 2 * item + idx + 8)


def _pair_up(keys: np.ndarray, src: np.ndarray):
    """Every (i, e) with src[e] == keys[i], i-major and then in entry order."""
    order = np.argsort(src, kind="stable")
    start = np.searchsorted(src[order], keys)
    count = np.searchsorted(src[order], keys, side="right") - start
    i = np.repeat(np.arange(len(keys)), count)
    return i, order[np.arange(len(i)) + np.repeat(start + count - np.cumsum(count), count)]


def hamiltonian_columns(
    ints: ElectronicIntegrals, alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
    """H[:, dets] for the distinct determinants (alpha[j], beta[j]), in any
    order and not necessarily a product set, over every determinant that an
    entry reaches, in ascending (beta, alpha) order; the alpha and beta words
    of each row are returned with the matrix.  No cap is checked here: a
    caller sizes its calls, as ``selci._ColumnStore`` does with
    ``columns_bytes``.  A presence table ranks the keys when it has at most
    ``RANK_TABLE_SLOTS`` slots and ``RANK_TABLE_RATIO`` per entry, else
    ``np.unique`` does: traced from 2e3 to 2e6 entries, the table peaks at 9
    bytes a slot and ``np.unique`` at 44 an entry (0.9x at 4 slots an entry)."""
    d = len(alpha)
    ua, ia = np.unique(alpha, return_inverse=True)
    ub, ib = np.unique(beta, return_inverse=True)
    # g_os[pq, rs] E^beta_rs E^alpha_pq over the pairs with any coupling
    pairs, g = _coupled_pairs(ints)
    one_a, (a_term, a_row, a_src, a_sign), words_a = _channel(ints, ua, pairs)
    one_b, (b_term, b_row, b_src, b_sign), words_b = _channel(ints, ub, pairs)
    # a determinant's key is row_b * len(words_a) + row_a, from the rows of
    # its strings among the words each channel reaches, so keys order like
    # (beta, alpha)
    na = len(words_a)
    set_a, set_b = np.searchsorted(words_a, ua)[ia], np.searchsorted(words_b, ub)[ib] * na
    # (keys, columns, values): each string's one-spin entries, gathered for
    # every determinant that holds the string
    parts = [(set_b + set_a, np.arange(d), np.full(d, ints.core_energy))]
    row, src, vals = one_a
    j, e = _pair_up(ia, src)
    parts.append((set_b[j] + row[e], j, vals[e]))
    row, src, vals = one_b
    j, e = _pair_up(ib, src)
    parts.append((row[e] * na + set_a[j], j, vals[e]))
    j, x = _pair_up(ia, a_src)
    k, y = _pair_up(ib[j], b_src)
    j, x = j[k], x[k]
    parts.append((b_row[y] * na + a_row[x], j,
                  g[a_term[x], b_term[y]] * a_sign[x] * b_sign[y]))
    key, cols, vals = (np.concatenate(z) for z in zip(*parts))
    del parts, one_a, one_b, row, src, j, e, x, k, y  # bounds the peak (columns_bytes)
    keep = vals != 0
    key, cols, vals = key[keep], cols[keep], vals[keep]
    del keep
    # the distinct keys and each entry's rank among them: from a presence table
    # and its running count (int32, as the slots are few), else from a sort
    if na * len(words_b) <= min(RANK_TABLE_SLOTS, RANK_TABLE_RATIO * len(key)):
        seen = np.zeros(na * len(words_b), dtype=bool)
        seen[key] = True
        keys, rows = np.flatnonzero(seen), np.cumsum(seen, dtype=np.int32)[key] - 1
        del seen
    else:
        keys, rows = np.unique(key, return_inverse=True)
    del key
    # in column order, each column's entries as they were generated (core,
    # alpha, beta, opposite-spin): the conversion then finds every row sorted
    # and sums each entry's duplicates in that order, which depends on the
    # column's own determinant only, so a column has the same bits whichever
    # determinants share the call
    order = np.argsort(cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    del order
    # vals is complex exactly when the integrals are
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(len(keys), d)).tocsr()
    mat.eliminate_zeros()
    return words_a[keys % na], words_b[keys // na], mat


def sigma_bytes(spec: SectorSpec, ints: ElectronicIntegrals, n_alpha: int, n_beta: int) -> int:
    """Estimated peak memory of one ``sigma`` from ``n_alpha`` alpha and
    ``n_beta`` beta strings of ``spec``, from the counts alone.

    A channel of s strings reaches R = min(C(M, n), s (1 + r)) words, with r
    the one-spin entries and opposite-spin E_pq that map a string to another
    (``_per_string``) or the words within a double excitation, if fewer.
    Counts the (P + 2) n_beta x R_alpha products that ``sigma`` stacks (P
    the pairs that g_os couples) and their copy, one R_alpha x R_beta array
    (S, which the variance's residual overwrites), 80 bytes per string and
    visited orbital pair, three copies of each entry (three indices and a
    value), 80 bytes and a value for every pq that g_os couples to a live
    beta E_rs, 4 M^4 bytes of integral masks and 64 KiB.  In a rotated
    basis (the U+V chain at half filling) this is 1.2-2.7x the peak
    measured from M = 6 to 12 with ten or more strings per channel
    (1.5-3.3x for one); in a site basis 1.3-7.3x (up to M = 20).
    """
    m, item = spec.n_orbitals, 16 if ints.is_complex else 8
    counts, visited = _per_string(spec, ints)
    pairs, g = _coupled_pairs(ints)
    total, reach = 4 * m**4 + 65536, []
    for n, strings, (one, live, moved, _) in zip((spec.n_alpha, spec.n_beta),
                                                 (n_alpha, n_beta), counts):
        near = min(moved, n * (m - n) + comb(n, 2) * comb(m - n, 2))
        reach.append(min(comb(m, n), strings * (1 + near)))
        total += strings * (80 * visited + 3 * (20 + item) * (one + live))
    total += n_beta * counts[1][1] * int(np.count_nonzero(g, axis=0).max(initial=0)) * (80 + item)
    return total + item * reach[0] * (2 * (len(pairs) + 2) * n_beta + reach[1])


def sigma(
    c: np.ndarray, ints: ElectronicIntegrals, alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H applied to a vector over the product of the ascending ``alpha`` and
    ``beta`` string words, given as the matrix C[ib, ia]: S[jb, ja] over the
    words each channel reaches (``_channel``; the strings on a full sector),
    returned with those ascending alpha and beta words, unless
    ``sigma_bytes`` puts it over the memory cap.  It is two sparse products
    over the block form (``_block_form``)."""
    spec = SectorSpec(ints.n_orbitals, *(int(np.bitwise_count(w[:1]).sum()) for w in (alpha, beta)))
    check_cap(f"the sigma over {len(alpha)} x {len(beta)} strings",
              sigma_bytes(spec, ints, len(alpha), len(beta)))
    (ops, words_a), (coef, words_b), n_k = _block_form(ints, alpha, beta, reach=True)
    # the O_k stacked in rows (ja, k) give every C O_k^T side by side, in columns
    # (k, ib) of rows ja, and the W_k stacked in columns (k, ib) sum them over k;
    # as COO, which SciPy multiplies entry by entry with no conversion
    k, row, col, val = ops
    o = sp.coo_matrix((val, (row * n_k + k, col)), shape=(len(words_a) * n_k, len(alpha)))
    t = (o @ c.T).reshape(len(words_a), -1)
    k, row, col, val = coef
    w = sp.coo_matrix((val, (row, k * len(beta) + col)), shape=(len(words_b), t.shape[1]))
    return w @ t.T, words_a, words_b
