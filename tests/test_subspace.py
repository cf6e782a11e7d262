import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqd import (
    CapExceededError,
    Determinant,
    ElectronicIntegrals,
    GroundStateResult,
    LatticeHamiltonian,
    SectorSpec,
    ValidationError,
    energy_variance,
    extsqd_expand,
    fci_ground,
    filter_samples,
    lowest_eigenpair,
    map_to_electronic,
    project_hamiltonian,
    rotate_basis,
    sector_specs,
    solve_mean_field,
    solve_subspace,
    sqd_sweep,
)
from hsqd import davidson as davidson_mod
from hsqd import errors as errors_mod
from hsqd import strings as strings_mod
from hsqd.davidson import (
    DEFAULT_TOL,
    DENSE_FALLBACK_DIM,
    LANCZOS_BASIS,
    _dense_lowest,
    _lanczos_lowest,
    eigensolve_bytes,
)
from hsqd import subspace as subspace_mod
from hsqd.determinants import half_strings
from hsqd.errors import MEMORY_CAP
from hsqd.strings import (
    _near_pairs,
    columns_bytes,
    hamiltonian_columns,
    product_bytes,
    product_hamiltonian,
    sigma_bytes,
)
from hsqd.statevector import SampleSet
from hsqd.subspace import SubspaceBasis, _covering, growth_sequence

from conftest import make_chain, random_lattice
from oracles import (
    _single_sign,
    _word_singles,
    arpack_lowest,
    basis_determinants,
    column_rows,
    covering_reference,
    creation_operators,
    dense_fock_hamiltonian,
    diagonal_energy,
    enumerate_sector,
    extsqd_expand_reference,
    fock_index,
    generate_excitations,
    matrix_element,
    lowest_ritz_vector_reference,
    one_spin_terms_reference,
    random_general_integrals,
    sigma_reference,
)


def samples_from(counts, m, provenance="file"):
    shots = sum(counts.values())
    return SampleSet(m, counts, shots, None, provenance)


def fci_distribution_samples(spec, ints, shots=200_000, seed=0):
    """Synthetic samples drawn from the exact ground-state distribution."""
    res = fci_ground(spec, ints)
    dets = enumerate_sector(spec)
    p = np.abs(res.ci_vector) ** 2
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, p)
    counts = {dets[i]: int(n) for i, n in enumerate(draws) if n > 0}
    return samples_from(counts, spec.n_orbitals, provenance="file")


def covering_basis(samples, spec, fraction, reference=None):
    """The product subspace that ``sqd_sweep`` solves at ``fraction``."""
    seq = growth_sequence(samples, spec, reference)
    return SubspaceBasis(spec, *_covering(seq, fraction * spec.dimension()))


def _same_basis(a, b):
    """Whether two bases have the same sector and strings (a basis compares
    by identity, since it holds arrays)."""
    return (a.spec == b.spec and np.array_equal(a.alpha_strings, b.alpha_strings)
            and np.array_equal(a.beta_strings, b.beta_strings))


def full_basis(spec):
    return SubspaceBasis(
        spec,
        tuple(half_strings(spec.n_orbitals, spec.n_alpha)),
        tuple(half_strings(spec.n_orbitals, spec.n_beta)),
    )


class TestFilterSamples:
    def test_wrong_popcount_removed(self):
        spec = SectorSpec(2, 1, 1)
        s = samples_from({Determinant(0b11, 0b01): 30, Determinant(0b01, 0b10): 70}, 2)
        out = filter_samples(s, spec)
        assert set(out.counts) == {Determinant(0b01, 0b10)}
        assert out.discarded_fraction == pytest.approx(0.3)

    def test_noiseless_simulation_keeps_everything(self):
        from hsqd import LucjParameters, build_state, sample
        from hsqd.reference import LucjLayer

        rng = np.random.default_rng(0)
        spec = SectorSpec(3, 2, 1)
        k = rng.normal(size=(3, 3)); k = (k - k.T) / 2
        j = rng.normal(size=(3, 3)); j = (j + j.T) / 2
        params = LucjParameters(3, (LucjLayer(scipy.linalg.expm(k), j, j),))
        state = build_state(params, (0b011, 0b001), spec)
        out = filter_samples(sample(state, 50_000, seed=1), spec)
        assert out.discarded_fraction == 0.0

    def test_all_discarded_raises(self):
        spec = SectorSpec(2, 1, 1)
        s = samples_from({Determinant(0b11, 0b11): 10}, 2)
        with pytest.raises(ValidationError, match="empty subspace"):
            filter_samples(s, spec)


class TestBuildSubspace:
    def test_product_construction(self):
        spec = SectorSpec(2, 1, 1)
        s = samples_from({Determinant(0b01, 0b01): 900, Determinant(0b10, 0b01): 100}, 2)
        basis = covering_basis(s, spec, 0.5)
        assert set(basis.alpha_strings) == {0b01, 0b10}
        assert set(basis.beta_strings) == {0b01}
        assert basis.dimension == 2

    def test_full_fraction_with_all_strings_observed(self):
        spec = SectorSpec(2, 1, 1)
        counts = {d: 10 for d in enumerate_sector(spec)}
        basis = covering_basis(samples_from(counts, 2), spec, 1.0)
        assert basis.dimension == spec.dimension()

    def test_full_fraction_pads_unobserved_strings(self):
        spec = SectorSpec(2, 1, 1)
        s = samples_from({Determinant(0b01, 0b01): 5}, 2)
        basis = covering_basis(s, spec, 1.0)
        assert basis.dimension == 4

    def test_rankings_pad_in_canonical_order(self):
        """Observed strings by descending count, ties ascending, then the
        channel's unobserved strings ascending, all as Python ints."""
        spec = SectorSpec(4, 2, 1)
        s = samples_from({Determinant(0b1010, 0b0100): 5, Determinant(0b0011, 0b0100): 5,
                          Determinant(0b0101, 0b0001): 7}, 4)
        ranked_a, ranked_b = growth_sequence(s, spec)
        assert ranked_a == [0b0101, 0b0011, 0b1010, 0b0110, 0b1001, 0b1100]
        assert ranked_b == [0b0100, 0b0001, 0b0010, 0b1000]
        assert all(type(w) is int for w in ranked_a + ranked_b)

    def test_channel_too_large_to_pad_is_not_enumerated(self, monkeypatch):
        """Above ``errors.SECTOR_CAP`` strings (2.7 million for 12 of 24
        orbitals) a channel ranks its observed strings only; the cap is
        read at each call."""
        def refuse(*args):
            raise AssertionError("channel enumerated")

        monkeypatch.setattr(subspace_mod, "half_strings", refuse)
        spec = SectorSpec(24, 12, 12)
        det = Determinant(0xFFF, 0xFFF000)
        assert growth_sequence(samples_from({det: 3}, 24), spec) == ([0xFFF], [0xFFF000])
        monkeypatch.setattr(errors_mod, "SECTOR_CAP", 5)
        det = Determinant(0b0011, 0b0101)
        assert growth_sequence(samples_from({det: 3}, 4), SectorSpec(4, 2, 2)) == ([0b0011],
                                                                                  [0b0101])

    def test_reference_always_included(self):
        spec = SectorSpec(2, 1, 1)
        s = samples_from({Determinant(0b10, 0b10): 50}, 2)
        ref = (0b01, 0b01)
        basis = covering_basis(s, spec, 0.25, reference=ref)
        assert ref[0] in basis.alpha_strings and ref[1] in basis.beta_strings

    def test_strings_outside_the_orbitals_rejected(self):
        """A string above the M orbitals used to be accepted and, in a
        whole-sector-sized basis, would pass for the sector."""
        with pytest.raises(ValidationError, match="alpha string 1000 outside the sector"):
            SubspaceBasis(SectorSpec(3, 1, 1), (0b1000,), (0b1000,))
        with pytest.raises(ValidationError, match="beta string 100 outside the sector"):
            SubspaceBasis(SectorSpec(2, 1, 1), (0b01, 0b10), (0b01, 0b100))
        with pytest.raises(ValidationError, match="alpha string -1 outside the sector"):
            SubspaceBasis(SectorSpec(2, 1, 1), (-1,), (0b01,))

    def test_strings_kept_sorted_and_read_only(self):
        basis = SubspaceBasis(SectorSpec(3, 1, 2), [0b100, 0b001], (0b110, 0b011, 0b101))
        assert basis.alpha_strings.tolist() == [0b001, 0b100]
        assert basis.beta_strings.tolist() == [0b011, 0b101, 0b110]
        for words in (basis.alpha_strings, basis.beta_strings):
            assert words.dtype == np.int64 and not words.flags.writeable
        with pytest.raises(ValidationError, match="^duplicate beta strings$"):
            SubspaceBasis(SectorSpec(3, 1, 2), (0b001,), (0b011, 0b101, 0b011))

    def test_reference_outside_the_orbitals_rejected_before_any_solve(self, monkeypatch):
        def fail(*args):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(subspace_mod, "lowest_eigenpair", fail)
        spec = SectorSpec(3, 1, 1)
        s = samples_from({Determinant(0b001, 0b010): 50}, 3)
        for ref in ((0b1000, 0b001), (0b001, 0b1000), (0b011, 0b001)):
            with pytest.raises(ValidationError, match="reference determinant outside the sector"):
                growth_sequence(s, spec, ref)
            with pytest.raises(ValidationError, match="reference determinant outside the sector"):
                sqd_sweep(s, spec, map_to_electronic(make_chain(3)), [0.5, 1.0], reference=ref)

    def test_sqd_energy_is_variational(self):
        rng = np.random.default_rng(5)
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        samples = fci_distribution_samples(spec, ints, seed=3)
        e_fci = fci_ground(spec, ints).energy
        basis = covering_basis(samples, spec, 0.25)
        res = solve_subspace(basis, ints)
        assert res.energy >= e_fci - 1e-12


class TestCoveringAgainstGrowthLoop:
    """``_covering`` against the step-by-step growth loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        la=st.integers(1, 30),
        lb=st.integers(1, 30),
        kind=st.sampled_from(["integer", "fraction", "above"]),
    )
    def test_first_covering_step(self, data, la, lb, kind):
        ranked_a = data.draw(st.permutations(range(la)))
        ranked_b = data.draw(st.permutations(range(100, 100 + lb)))
        if kind == "integer":
            target = data.draw(st.integers(0, la * lb))
        elif kind == "fraction":
            # a sector too large to pad has more determinants than the product
            dim = data.draw(st.integers(la * lb, 3 * la * lb))
            fraction = data.draw(st.sampled_from([0.02, 0.05, 0.1, 0.15, 0.25, 0.3, 0.5, 0.7, 1.0])
                                 | st.floats(0.0, 1.0, exclude_min=True))
            target = fraction * dim
        else:
            target = data.draw(st.integers(la * lb + 1, 4 * la * lb + 4)
                               | st.floats(la * lb + 1e-9, 4.0 * la * lb + 4))
        got = _covering((ranked_a, ranked_b), target)
        assert got == covering_reference(ranked_a, ranked_b, target)

    @pytest.mark.parametrize("la, lb", [(1, 1), (1, 5), (5, 1), (2, 2)])
    def test_one_string_channels(self, la, lb):
        ranked_a, ranked_b = list(range(la)), list(range(la, la + lb))
        for target in [0, 0.5, 1, 1.5, *range(2, la * lb + 3), 0.1 * la * lb, 10.0 * la * lb]:
            assert _covering((ranked_a, ranked_b), target) == \
                covering_reference(ranked_a, ranked_b, target)

    def test_twelve_site_five_percent(self):
        spec = SectorSpec(12, 6, 6)
        rankings = (half_strings(12, 6), half_strings(12, 6))
        a, b = _covering(rankings, 0.05 * spec.dimension())
        assert (len(a), len(b)) == (924, 47)
        assert (a, b) == covering_reference(*rankings, 0.05 * spec.dimension())


class TestSolveSubspace:
    @pytest.mark.parametrize("complex_hopping", [False, True])
    def test_fci_ground_is_solve_subspace_on_the_sector(self, complex_hopping):
        rng = np.random.default_rng(31)
        # d = 36, 24 and 100 take the dense path, d = 1,225 Lanczos
        for m, n_alpha, n_beta in [(4, 2, 2), (4, 3, 2), (5, 3, 2), (7, 4, 3)]:
            ints = map_to_electronic(random_lattice(rng, m, complex_hopping=complex_hopping))
            spec = SectorSpec(m, n_alpha, n_beta)
            want, got = fci_ground(spec, ints), solve_subspace(full_basis(spec), ints)
            for f in dataclasses.fields(want):
                a, b = getattr(want, f.name), getattr(got, f.name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                else:
                    assert a == b

    @pytest.mark.parametrize("complex_hopping", [False, True])
    def test_whole_sector_variance_is_the_residual_one(self, complex_hopping):
        rng = np.random.default_rng(32)
        for m, n_alpha, n_beta in [(3, 1, 1), (4, 2, 2), (4, 1, 3), (5, 3, 2), (7, 4, 3)]:
            lat = random_lattice(rng, m, complex_hopping=complex_hopping)
            q = np.linalg.qr(rng.normal(size=(m, m)))[0]
            for ints in (map_to_electronic(lat), rotate_basis(map_to_electronic(lat), q)):
                basis = full_basis(SectorSpec(m, n_alpha, n_beta))
                res = solve_subspace(basis, ints)
                assert res.variance >= 0.0
                assert res.variance == (res.residual_norm / res.energy) ** 2
                sigma_var = energy_variance(res, basis, ints)
                assert res.variance == pytest.approx(sigma_var, abs=1e-13)

    def test_whole_sector_zero_energy_has_no_variance(self, dimer_ints):
        res = solve_subspace(full_basis(SectorSpec(2, 0, 0)), dimer_ints)
        assert res.energy == 0.0 and res.variance is None

    def test_proper_subspace_takes_the_sigma_variance(self, dimer_ints):
        basis = SubspaceBasis(SectorSpec(2, 1, 1), (0b01,), (0b01, 0b10))
        res = solve_subspace(basis, dimer_ints)
        assert res.variance == energy_variance(res, basis, dimer_ints)


class TestProjectHamiltonian:
    def test_single_determinant(self, dimer_ints):
        spec = SectorSpec(2, 1, 1)
        basis = SubspaceBasis(spec, (0b01,), (0b01,))
        mat = project_hamiltonian(basis, dimer_ints)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(diagonal_energy(Determinant(0b01, 0b01), dimer_ints))

    def test_dimer_full_sector_ground_energy(self, dimer_ints):
        spec = SectorSpec(2, 1, 1)
        mat = project_hamiltonian(full_basis(spec), dimer_ints)
        evals = np.linalg.eigvalsh(mat.toarray())
        assert evals[0] == pytest.approx(2 - 2 * np.sqrt(2), abs=1e-9)

    def test_hermitian_for_random_bases(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            lat = random_lattice(rng, m=4, complex_hopping=True)
            ints = map_to_electronic(lat)
            mo = rotate_basis(ints, np.linalg.qr(rng.normal(size=(4, 4)))[0])
            spec = SectorSpec(4, 2, 2)
            alphas = rng.choice(half_strings(4, 2), size=3, replace=False)
            betas = rng.choice(half_strings(4, 2), size=4, replace=False)
            basis = SubspaceBasis(spec, tuple(int(a) for a in alphas), tuple(int(b) for b in betas))
            mat = project_hamiltonian(basis, mo).toarray()
            assert np.abs(mat - mat.conj().T).max() <= 1e-12

    def test_connection_driven_matches_all_pairs(self):
        """The string-driven product-space matrix equals the pairwise
        Slater-Condon matrix element by element for density-density integrals."""
        rng = np.random.default_rng(8)
        lat = random_lattice(rng, m=4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        basis = full_basis(spec)
        dets = basis_determinants(basis)
        dense = np.array([[matrix_element(a, b, ints) for b in dets] for a in dets])
        sparse = project_hamiltonian(basis, ints).toarray()
        assert np.abs(dense - sparse).max() <= 1e-12


def _random_integrals(rng, m, complex_hopping, rotate):
    """Random lattice integrals (V != 0), optionally in a random orbital
    basis, which leaves them without the density-density structure."""
    ints = map_to_electronic(random_lattice(rng, m=m, complex_hopping=complex_hopping))
    if rotate:
        z = rng.normal(size=(m, m))
        if complex_hopping:
            z = z + 1j * rng.normal(size=(m, m))
        ints = rotate_basis(ints, np.linalg.qr(z)[0])
    return ints


def _random_strings(rng, m, n):
    words = half_strings(m, n)
    size = int(rng.integers(1, len(words) + 1))
    return tuple(int(w) for w in rng.choice(words, size=size, replace=False))


class TestStringEngineAgainstFockOracle:
    """project_hamiltonian and energy_variance against the explicit Fock-space
    operator restricted to the sector, which shares no code with either."""

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        complex_hopping=st.booleans(),
        rotate=st.booleans(),
        product=st.booleans(),
    )
    def test_matrix_and_variance(self, data, m, seed, complex_hopping, rotate, product):
        n_alpha = data.draw(st.integers(0, m), label="n_alpha")
        n_beta = data.draw(st.integers(0, m), label="n_beta")
        rng = np.random.default_rng(seed)
        ints = _random_integrals(rng, m, complex_hopping, rotate)
        spec = SectorSpec(m, n_alpha, n_beta)
        sector = enumerate_sector(spec)
        fock = dense_fock_hamiltonian(ints).tocsr()
        if product:
            basis = SubspaceBasis(spec, _random_strings(rng, m, n_alpha),
                                  _random_strings(rng, m, n_beta))
            dets = basis_determinants(basis)
            idx = [fock_index(d, m) for d in dets]
            expected = fock[idx][:, idx].toarray()
            mat = project_hamiltonian(basis, ints)
            assert mat.format == "csr" and mat.has_canonical_format
            assert np.count_nonzero(mat.data == 0) == 0
            assert np.abs(mat.toarray() - expected).max() <= 1e-10
        else:
            # a non-product determinant list in arbitrary order, as HCI keeps it
            size = int(rng.integers(1, len(sector) + 1))
            dets = [sector[i] for i in rng.permutation(len(sector))[:size]]
        vec = rng.normal(size=len(dets))
        if complex_hopping:
            vec = vec + 1j * rng.normal(size=len(dets))
        vec /= np.linalg.norm(vec)
        sector_idx = [fock_index(d, m) for d in sector]
        pos = {d: i for i, d in enumerate(sector)}
        c = np.zeros(len(sector), dtype=complex)
        c[[pos[d] for d in dets]] = vec
        s = fock[sector_idx][:, sector_idx] @ c
        h1 = np.vdot(c, s).real
        h2 = np.vdot(s, s).real
        if product:
            var = energy_variance(GroundStateResult(0.0, vec, 0.0, 1, True), basis, ints)
        else:
            # the list's own columns, as HCI takes its stage variance
            alpha, beta = (np.array(x, dtype=np.int64) for x in zip(*((d.alpha, d.beta)
                                                                     for d in dets)))
            cols, own = column_rows(*hamiltonian_columns(ints, alpha, beta), alpha, beta)
            var = subspace_mod.relative_variance(vec, cols @ vec, own)
        if abs(h1) < 1e-6:
            return  # relative variance ill-conditioned (None at exactly zero)
        assert var == pytest.approx((h2 - h1 * h1) / (h1 * h1), rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("n_alpha, n_beta", [(0, 0), (0, 3), (3, 0), (3, 3), (0, 2), (3, 1)])
    def test_empty_and_full_channels(self, n_alpha, n_beta):
        rng = np.random.default_rng(n_alpha * 10 + n_beta)
        ints = _random_integrals(rng, 3, complex_hopping=True, rotate=True)
        spec = SectorSpec(3, n_alpha, n_beta)
        basis = full_basis(spec)
        idx = [fock_index(d, 3) for d in basis_determinants(basis)]
        expected = dense_fock_hamiltonian(ints).tocsr()[idx][:, idx].toarray()
        assert np.abs(project_hamiltonian(basis, ints).toarray() - expected).max() <= 1e-10
        res = fci_ground(spec, ints)
        assert res.energy == pytest.approx(np.linalg.eigvalsh(expected)[0], abs=1e-9)
        var = energy_variance(res, basis, ints)
        assert var is None or abs(var) <= 1e-12

    @pytest.mark.parametrize("complex_hopping", [False, True])
    @pytest.mark.parametrize("n_alpha, n_beta", [(2, 2), (1, 2), (2, 1)])
    def test_variance_in_rotated_sector(self, complex_hopping, n_alpha, n_beta):
        """A fixed rotated case in which both spins' excitation signs matter,
        so the check does not depend on what the random search draws."""
        rng = np.random.default_rng(3)
        ints = _random_integrals(rng, 4, complex_hopping, rotate=True)
        spec = SectorSpec(4, n_alpha, n_beta)
        sector = enumerate_sector(spec)
        vec = rng.normal(size=len(sector)) + (1j * rng.normal(size=len(sector))
                                              if complex_hopping else 0)
        vec /= np.linalg.norm(vec)
        idx = [fock_index(d, 4) for d in sector]
        s = dense_fock_hamiltonian(ints).tocsr()[idx][:, idx] @ vec
        h1 = np.vdot(vec, s).real
        expected = (np.vdot(s, s).real - h1 * h1) / (h1 * h1)
        var = energy_variance(GroundStateResult(0.0, vec, 0.0, 1, True), full_basis(spec), ints)
        assert var == pytest.approx(expected, rel=1e-10)


class TestSigmaAgainstPairLoop:
    """``sigma`` against the loop over orbital pairs that it replaced
    (``sigma_reference``): the same reached words, and S to 1e-13 for a
    normalized vector."""

    @staticmethod
    def _check(ints, alpha, beta, rng, complex_vector):
        alpha, beta = (np.sort(np.asarray(x, dtype=np.int64)) for x in (alpha, beta))
        c = rng.normal(size=(len(beta), len(alpha)))
        if complex_vector:
            c = c + 1j * rng.normal(size=c.shape)
        c /= np.linalg.norm(c)
        got, want = strings_mod.sigma(c, ints, alpha, beta), sigma_reference(c, ints, alpha, beta)
        for x, y in zip(got[1:], want[1:]):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert got[0].shape == want[0].shape and got[0].dtype == want[0].dtype
        assert np.abs(got[0] - want[0]).max(initial=0.0) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        complex_hopping=st.booleans(),
        rotate=st.booleans(),
        strings=st.sampled_from(["single", "subset", "channel"]),
    )
    def test_random_product_spaces(self, data, m, seed, complex_hopping, rotate, strings):
        n_alpha = data.draw(st.integers(0, m), label="n_alpha")
        n_beta = data.draw(st.integers(0, m), label="n_beta")
        rng = np.random.default_rng(seed)
        ints = _random_integrals(rng, m, complex_hopping, rotate)
        if strings == "channel":
            alpha, beta = half_strings(m, n_alpha), half_strings(m, n_beta)
        elif strings == "single":
            alpha, beta = (rng.choice(half_strings(m, n), size=1) for n in (n_alpha, n_beta))
        else:
            alpha, beta = _random_strings(rng, m, n_alpha), _random_strings(rng, m, n_beta)
        self._check(ints, alpha, beta, rng, complex_hopping)

    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("n_alpha, n_beta", [(0, 0), (0, 3), (3, 0), (3, 3), (0, 2), (3, 1),
                                                 (1, 2)])
    def test_empty_and_full_channels(self, rotate, n_alpha, n_beta):
        rng = np.random.default_rng(10 * n_alpha + n_beta)
        ints = _random_integrals(rng, 3, complex_hopping=True, rotate=rotate)
        for alpha, beta in [(half_strings(3, n_alpha), half_strings(3, n_beta)),
                            (half_strings(3, n_alpha)[-1:], half_strings(3, n_beta)[:1])]:
            self._check(ints, alpha, beta, rng, complex_vector=True)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_uv_chain_subspaces(self, rotate):
        """The half-filled 8-site U+V chain, real, in the site basis and in
        its mean-field orbitals: a whole alpha channel under a few beta
        strings (as SQD grows), a few strings of each, and one of each."""
        m = 8
        spec = SectorSpec(m, 4, 4)
        ints = map_to_electronic(make_chain(m, v=0.6))
        if rotate:
            ints = rotate_basis(ints, solve_mean_field(ints, spec).orbital_coefficients)
        rng = np.random.default_rng(8)
        words = half_strings(m, 4)
        for size_a, size_b in [(70, 5), (12, 9), (1, 1)]:
            alpha = words if size_a == len(words) else rng.choice(words, size_a, replace=False)
            self._check(ints, alpha, rng.choice(words, size_b, replace=False), rng, False)


class TestCoupledPairsUnion:
    """A g_os entry of 1e-11 whose pair-swap partner is 0, inside the
    integrals' 1e-10 symmetry tolerance, gives g_os different row and column
    patterns: its pq is coupled only as an alpha pair and its rs only as a
    beta pair.  The engine reads g_os[pq, rs] E^beta_rs E^alpha_pq, while
    ``dense_fock_hamiltonian`` takes the swap-even part, 1/2 (g_os[pq, rs] +
    g_os[rs, pq]), so the reference adds the swap-odd rest to it."""

    @staticmethod
    def _reference(ints):
        m = ints.n_orbitals
        cr = creation_operators(2 * m)
        an = [op.conj().T for op in cr]
        gos = ints.two_body_opposite_spin
        odd = 0.5 * (gos - gos.transpose(2, 3, 0, 1))
        ham = dense_fock_hamiltonian(ints)
        for p, q, r, s in zip(*np.nonzero(odd)):
            ham = ham + odd[p, q, r, s] * (cr[p] @ an[q] @ cr[m + r] @ an[m + s])
        return ham.toarray()

    @pytest.mark.parametrize("n_alpha, n_beta", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_engine_against_fock_operator(self, n_alpha, n_beta):
        m = 3
        rng = np.random.default_rng(10 * n_alpha + n_beta)
        ints = map_to_electronic(random_lattice(rng, m=m))
        gos = np.array(ints.two_body_opposite_spin)
        gos[0, 1, 1, 2] = 1e-11  # alpha pq = 01 to beta rs = 12, and nothing back
        ints = dataclasses.replace(ints, two_body_opposite_spin=gos)
        live = gos.reshape(m * m, m * m) != 0
        assert not np.array_equal(live.any(axis=1), live.any(axis=0))
        ham = self._reference(ints)
        for alpha, beta in [(half_strings(m, n_alpha), half_strings(m, n_beta)),
                            (half_strings(m, n_alpha)[1:], half_strings(m, n_beta)[-2:])]:
            # Fock indices alpha | beta << m, beta-major
            cols = (alpha[None, :] | beta[:, None] << m).ravel()
            mat = product_hamiltonian(ints, alpha, beta)
            assert np.abs(mat.toarray() - ham[np.ix_(cols, cols)]).max() <= 1e-12
            c = rng.normal(size=(len(beta), len(alpha)))
            c /= np.linalg.norm(c)
            s, words_a, words_b = strings_mod.sigma(c, ints, alpha, beta)
            got = np.zeros(len(ham))
            got[(words_a[None, :] | words_b[:, None] << m).ravel()] = s.ravel()
            assert np.abs(got - ham[:, cols] @ c.ravel()).max() <= 1e-12
        # a determinant list that is not a product set, in no particular order
        sector = np.stack(np.meshgrid(half_strings(m, n_alpha), half_strings(m, n_beta)), -1)
        alpha, beta = rng.permutation(sector.reshape(-1, 2))[:max(1, sector[..., 0].size - 2)].T
        row_a, row_b, mat = hamiltonian_columns(ints, alpha, beta)
        got = np.zeros((len(ham), len(alpha)))
        got[row_a | row_b << m] = mat.toarray()
        assert np.abs(got - ham[:, alpha | beta << m]).max() <= 1e-12


class TestTopOrbitals:
    """Orbital 62 is the highest a sector allows (an int64 word's bit below
    its sign bit); at M = 64, orbital 63 gave word 0 with sign +1."""

    def test_excite_at_orbital_62(self):
        m = 63
        words = np.array([1 << 61 | 0b1011, 1 << 62 | 1 << 30 | 1, 0b111], dtype=np.int64)
        for q in (0, 30, 61):
            target, sign = strings_mod.excite(words, 62, q)
            for word, got, s in zip(words.tolist(), target.tolist(), sign.tolist()):
                if (word >> q) & 1 and not (word >> 62) & 1:
                    assert got == word ^ (1 << q) | (1 << 62)
                    assert s == _single_sign(word, q, 62)
                else:
                    assert s == 0
        # and back down, from the top orbital
        target, sign = strings_mod.excite(words[1:2], 5, 62)
        assert target[0] == 1 << 30 | 1 << 5 | 1 and sign[0] == _single_sign(int(words[1]), 62, 5)
        for word in words.tolist():
            got = strings_mod.excited_strings(np.array([word], dtype=np.int64), m, True, False)
            assert sorted(got.tolist()) == sorted(_word_singles(word, m))


class TestVarianceCap:
    @staticmethod
    def _forbid_allocation(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("string arrays built before the cap check")

        monkeypatch.setattr(subspace_mod, "half_strings", refuse)
        monkeypatch.setattr(strings_mod, "excite", refuse)

    def test_one_determinant_above_the_sector_cap(self):
        """The 16-site half-filled sector (165.6 million determinants) is far
        too large to enumerate (it was above the old sector cap of 10^7, so it
        had no variance); sigma from one determinant D of it reaches a few
        thousand, and the variance is
        sum_{K != D} |H_KD|^2 / H_DD^2 by the Slater-Condon rules."""
        m = 16
        spec = SectorSpec(m, 8, 8)
        assert spec.dimension() > 10**8
        rng = np.random.default_rng(m)
        ints = rotate_basis(map_to_electronic(make_chain(m, v=0.6)),
                            np.linalg.qr(rng.normal(size=(m, m)))[0])
        det = Determinant(0b0101010101010101, 0b0000000011111111)
        h_dd = diagonal_energy(det, ints)
        off = [matrix_element(k, det, ints) for k in generate_excitations(det, m, {1, 2})]
        res = GroundStateResult(h_dd, np.ones(1), 0.0, 1, True)
        var = energy_variance(res, SubspaceBasis(spec, (det.alpha,), (det.beta,)), ints)
        assert var == pytest.approx(np.sum(np.abs(off) ** 2) / h_dd**2, rel=1e-10)

    def test_sigma_memory_preflight(self, monkeypatch):
        """One determinant of the 36-site half-filled sector in a basis where
        every coupling is nonzero: each of its strings reaches about 23,700
        words, and the sigma over their products would need more than twice
        MEMORY_CAP."""
        m = 36
        spec = SectorSpec(m, 18, 18)
        ints = ElectronicIntegrals(m, np.ones((m, m)), np.ones((m,) * 4), np.ones((m,) * 4))
        assert sigma_bytes(spec, ints, 1, 1) > MEMORY_CAP
        res = GroundStateResult(1.0, np.ones(1), 0.0, 1, True)
        basis = SubspaceBasis(spec, ((1 << 18) - 1,), ((1 << 18) - 1,))
        self._forbid_allocation(monkeypatch)
        assert energy_variance(res, basis, ints) is None

    def test_site_basis_reach_counts_only_moves(self):
        """E_pp and E_pp E_qq map a string to itself and reach no new word.
        Counted as reaching, they put 100 x 100 strings of the 20-site
        half-filled U+V chain in the site basis at 2.8 GiB, above
        MEMORY_CAP, and that variance was skipped; each string reaches
        at most 38 others by hopping."""
        m = 20
        spec = SectorSpec(m, 10, 10)
        ints = map_to_electronic(make_chain(m, v=0.6))
        assert sigma_bytes(spec, ints, 100, 100) <= MEMORY_CAP
        rng = np.random.default_rng(m)
        alpha, beta = (rng.choice(half_strings(m, 10), size=100, replace=False)
                       for _ in range(2))
        basis = SubspaceBasis(spec, alpha, beta)
        vec = rng.normal(size=basis.dimension)
        vec /= np.linalg.norm(vec)
        var = energy_variance(GroundStateResult(0.0, vec, 0.0, 1, True), basis, ints)
        alpha, beta = np.tile(basis.alpha_strings, 100), np.repeat(basis.beta_strings, 100)
        cols, own = column_rows(*hamiltonian_columns(ints, alpha, beta), alpha, beta)
        assert var == pytest.approx(subspace_mod.relative_variance(vec, cols @ vec, own),
                                    rel=1e-10)

    def test_sigma_bytes_bounds_measured_peak(self):
        """The estimate is an upper bound on what one variance allocates,
        with no string's entries memoized yet, in a site and in a rotated
        complex basis (1.3-3.3x the peak there)."""
        for m, n_alpha, n_beta, kept in [(6, 3, 3, (1, 1)), (8, 4, 3, (50, 1)),
                                         (8, 4, 4, (70, 11)), (10, 5, 5, (30, 30))]:
            for rotate in (False, True):
                rng = np.random.default_rng(m)
                ints = _random_integrals(rng, m, complex_hopping=True, rotate=rotate)
                spec = SectorSpec(m, n_alpha, n_beta)
                alpha, beta = (rng.choice(half_strings(m, n), size=k, replace=False)
                               for n, k in zip((n_alpha, n_beta), kept))
                basis = SubspaceBasis(spec, alpha, beta)
                vec = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
                res = GroundStateResult(0.0, vec / np.linalg.norm(vec), 0.0, 1, True)
                tracemalloc.start()
                try:
                    energy_variance(res, basis, ints)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= sigma_bytes(spec, ints, *kept)


class TestProductCap:
    """``product_hamiltonian`` sizes its build with ``product_bytes``
    before anything is built."""

    def test_near_pairs_against_loop(self):
        rng = np.random.default_rng(4)
        for m, n in [(1, 0), (4, 2), (7, 3), (9, 4), (9, 9)]:
            words = half_strings(m, n)
            for size in {1, len(words) // 3 or 1, len(words)}:
                sub = np.sort(rng.choice(words, size=size, replace=False))
                moves = [(int(a) ^ int(b)).bit_count() for a in sub for b in sub if a != b]
                assert _near_pairs(sub, m, n) == (moves.count(2), moves.count(2) + moves.count(4))

    def test_product_bytes_bounds_measured_peak(self):
        """The estimate is an upper bound on what one build allocates, with
        no string's entries memoized yet, in a site and in a rotated complex
        basis (1.15-2.8x the peak here; 1.04-1.06x on the whole 10-site
        half-filled sector in a rotated basis, where H has as many entries
        as the bound allows)."""
        for m, n_alpha, n_beta, kept in [(6, 3, 3, (20, 20)), (6, 0, 4, (1, 15)),
                                         (8, 4, 3, (70, 9)), (8, 4, 4, (70, 70)),
                                         (10, 5, 4, (12, 40))]:
            for rotate in (False, True):
                rng = np.random.default_rng(m + n_beta)
                ints = _random_integrals(rng, m, complex_hopping=rotate, rotate=rotate)
                spec = SectorSpec(m, n_alpha, n_beta)
                alpha, beta = (np.sort(rng.choice(half_strings(m, n), size=k, replace=False))
                               for n, k in zip((n_alpha, n_beta), kept))
                tracemalloc.start()
                try:
                    product_hamiltonian(ints, alpha, beta)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= product_bytes(spec, ints, alpha, beta)

    def test_full_rotated_sector_refused(self, monkeypatch):
        """The 12-site half-filled U+V chain in its mean-field orbitals: every
        column of the sector's H holds about 1,800 entries, so the build
        would need tens of GiB.  It is refused before any string array is
        built; the same sector in the site basis, which ``fci`` solves, is
        not."""
        m = 12
        spec = SectorSpec(m, 6, 6)
        site = map_to_electronic(make_chain(m, v=0.6))
        mo = rotate_basis(site, solve_mean_field(site, spec).orbital_coefficients)
        basis = SubspaceBasis(spec, half_strings(m, 6), half_strings(m, 6))
        assert product_bytes(spec, site, basis.alpha_strings, basis.beta_strings) \
            <= MEMORY_CAP
        TestVarianceCap._forbid_allocation(monkeypatch)
        with pytest.raises(CapExceededError, match="853776-determinant subspace"):
            solve_subspace(basis, mo)


def _check_columns(ints, dets):
    """hamiltonian_columns over ``dets`` against the Fock-space columns."""
    m = ints.n_orbitals
    alpha = np.array([d.alpha for d in dets], dtype=np.int64)
    beta = np.array([d.beta for d in dets], dtype=np.int64)
    row_a, row_b, mat = hamiltonian_columns(ints, alpha, beta)
    rows = [Determinant(int(a), int(b)) for a, b in zip(row_a, row_b)]
    # one row per determinant, strictly ascending in (beta, alpha)
    keys = [(d.beta, d.alpha) for d in rows]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    fock = dense_fock_hamiltonian(ints).tocsr()[:, [fock_index(d, m) for d in dets]]
    assert mat.shape == (len(rows), len(dets))
    want = fock[[fock_index(d, m) for d in rows]].toarray()
    assert np.abs(mat.toarray() - want).max(initial=0.0) <= 1e-10
    # each determinant's own row, found by its words, holds its diagonal;
    # one with a zero diagonal may have none
    row = {d: i for i, d in enumerate(rows)}
    for j, d in enumerate(dets):
        diag = mat[row[d], j] if d in row else 0.0
        assert abs(diag - fock[fock_index(d, m), j]) <= 1e-10
    # no determinant outside the rows is reached
    missed = np.setdiff1d(np.arange(fock.shape[0]), [fock_index(d, m) for d in rows])
    assert np.abs(fock[missed].toarray()).max(initial=0.0) <= 1e-10


class TestHamiltonianColumns:
    """H[:, dets] of a determinant list against the explicit Fock-space
    operator, over every determinant the list couples to."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        complex_hopping=st.booleans(),
        rotate=st.booleans(),
    )
    def test_columns_match_fock_oracle(self, data, m, seed, complex_hopping, rotate):
        n_alpha = data.draw(st.integers(0, m), label="n_alpha")
        n_beta = data.draw(st.integers(0, m), label="n_beta")
        rng = np.random.default_rng(seed)
        ints = _random_integrals(rng, m, complex_hopping, rotate)
        sector = enumerate_sector(SectorSpec(m, n_alpha, n_beta))
        # a shuffled, generally non-product list, as HCI keeps it
        size = data.draw(st.integers(1, len(sector)), label="size")
        _check_columns(ints, [sector[i] for i in rng.permutation(len(sector))[:size]])

    @pytest.mark.parametrize("n_alpha, n_beta", [(0, 0), (0, 3), (3, 0), (3, 3), (0, 2), (3, 1),
                                                 (1, 2)])
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_empty_full_channels_and_short_lists(self, n_alpha, n_beta, size):
        rng = np.random.default_rng(10 * n_alpha + n_beta + 100 * size)
        ints = _random_integrals(rng, 3, complex_hopping=True, rotate=True)
        sector = enumerate_sector(SectorSpec(3, n_alpha, n_beta))
        _check_columns(ints, [sector[i] for i in rng.permutation(len(sector))[:size]])

    def test_all_zero_integrals_drop_every_entry(self):
        """Every entry is zero and dropped, so no determinant, not even one of
        the set, has a row."""
        m = 4
        ints = ElectronicIntegrals(m, np.zeros((m, m)), np.zeros((m,) * 4), np.zeros((m,) * 4))
        sector = enumerate_sector(SectorSpec(m, 2, 1))
        dets = [sector[i] for i in np.random.default_rng(4).permutation(len(sector))[:7]]
        alpha = np.array([d.alpha for d in dets], dtype=np.int64)
        beta = np.array([d.beta for d in dets], dtype=np.int64)
        row_a, row_b, mat = hamiltonian_columns(ints, alpha, beta)
        assert len(row_a) == len(row_b) == 0
        assert mat.shape == (0, 7) and mat.nnz == 0
        _check_columns(ints, dets)

    @pytest.mark.parametrize("shared", ["alpha", "beta", "both"])
    def test_determinants_sharing_strings(self, shared):
        """Lists in which many determinants hold the same string: one alpha
        string under every beta string, one beta string under every alpha
        string, and a shuffled product of a few strings of each channel."""
        rng = np.random.default_rng({"alpha": 1, "beta": 2, "both": 3}[shared])
        ints = _random_integrals(rng, 5, complex_hopping=True, rotate=True)
        wa, wb = half_strings(5, 2), half_strings(5, 3)
        if shared == "alpha":
            pairs = [(wa[3], b) for b in wb]
        elif shared == "beta":
            pairs = [(a, wb[6]) for a in wa]
        else:
            pairs = [(a, b) for a in rng.choice(wa, 4, replace=False)
                     for b in rng.choice(wb, 5, replace=False)]
        _check_columns(ints, [Determinant(int(a), int(b))
                              for a, b in (pairs[i] for i in rng.permutation(len(pairs)))])

    @pytest.mark.parametrize("m, n_alpha, n_beta, rotate", [
        (5, 2, 3, False), (6, 3, 3, True), (6, 0, 4, True), (7, 3, 4, True),
    ])
    def test_key_ranks_without_a_sort(self, monkeypatch, m, n_alpha, n_beta, rotate):
        """The presence table ranks the keys as ``np.unique`` does past
        ``RANK_TABLE_SLOTS``: every returned array has the same bytes."""
        rng = np.random.default_rng(m + n_alpha)
        ints = _random_integrals(rng, m, complex_hopping=rotate, rotate=rotate)
        sector = enumerate_sector(SectorSpec(m, n_alpha, n_beta))
        dets = [sector[i] for i in rng.permutation(len(sector))[:40]]
        alpha = np.array([d.alpha for d in dets], dtype=np.int64)
        beta = np.array([d.beta for d in dets], dtype=np.int64)
        table = hamiltonian_columns(ints, alpha, beta)
        monkeypatch.setattr(strings_mod, "RANK_TABLE_SLOTS", 0)
        unique = hamiltonian_columns(ints, alpha, beta)
        for got, want in zip((*table[:2], table[2].indptr, table[2].indices, table[2].data),
                             (*unique[:2], unique[2].indptr, unique[2].indices, unique[2].data)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_small_call_ranks_without_the_table(self, monkeypatch):
        """20 determinants of the half-filled 12-site rotated U+V chain reach
        a 853,776-slot key table but make far fewer entries, so ``np.unique``
        ranks them: the call's traced peak stays below the table's own 9
        bytes a slot, which any call that builds the table exceeds, and
        below its peak with the table forced (9.3 MB against 3.9 MB when
        measured), with the same output."""
        ints = map_to_electronic(make_chain(12, v=0.6))
        spec = SectorSpec(12, 6, 6)
        c = solve_mean_field(ints, spec).orbital_coefficients
        words = half_strings(12, 6)
        pick = np.random.default_rng(20).choice(len(words) ** 2, size=20, replace=False)
        alpha, beta = words[pick % len(words)], words[pick // len(words)]

        def traced():
            fresh = rotate_basis(ints, c)  # no string's entries memoized yet
            tracemalloc.start()
            try:
                row_a, row_b, mat = hamiltonian_columns(fresh, alpha, beta)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, [x.tobytes() for x in (row_a, row_b, mat.indptr, mat.indices, mat.data)]

        traced()  # first-call allocations outside the engine
        peak, out = traced()
        assert peak < 9 * len(words) ** 2
        monkeypatch.setattr(strings_mod, "RANK_TABLE_RATIO", len(words) ** 2)
        forced, table_out = traced()
        assert peak < forced
        assert out == table_out

    def test_columns_bytes_has_no_sector_sized_term(self):
        """The key table is charged per column, not per call: no columns cost
        the integral masks and 64 KiB at 16 sites, where a table of every
        sector determinant would have added 335 MB."""
        ints = map_to_electronic(make_chain(16, v=0.6))
        assert columns_bytes(0, SectorSpec(16, 8, 8), ints) == 4 * 16**4 + 65536

    def test_columns_bytes_bounds_measured_peak(self):
        rng = np.random.default_rng(8)
        ints = _random_integrals(rng, 8, complex_hopping=True, rotate=True)
        spec = SectorSpec(8, 4, 3)
        sector = enumerate_sector(spec)
        dets = [sector[i] for i in rng.permutation(spec.dimension())[:60]]
        alpha = np.array([d.alpha for d in dets], dtype=np.int64)
        beta = np.array([d.beta for d in dets], dtype=np.int64)
        tracemalloc.start()
        try:
            hamiltonian_columns(ints, alpha, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= columns_bytes(len(dets), spec, ints)

    @pytest.mark.parametrize("v", [0.0, 0.6])
    @pytest.mark.parametrize("m, n_alpha, n_beta, size", [
        (8, 4, 4, 400), (8, 4, 4, 1), (8, 1, 7, 5), (10, 5, 0, 20), (10, 5, 4, 60), (6, 3, 3, 20),
    ])
    def test_columns_bytes_bounds_site_basis_peak(self, v, m, n_alpha, n_beta, size):
        """In a site basis the nonzero patterns of k, g_ss and g_os bound the
        entries, and the estimate still covers the first call on fresh
        integrals, before any string's entries are memoized."""
        ints = map_to_electronic(make_chain(m, v=v))
        spec = SectorSpec(m, n_alpha, n_beta)
        sector = enumerate_sector(spec)
        dets = [sector[i] for i in np.random.default_rng(size).permutation(len(sector))[:size]]
        alpha = np.array([d.alpha for d in dets], dtype=np.int64)
        beta = np.array([d.beta for d in dets], dtype=np.int64)
        tracemalloc.start()
        try:
            hamiltonian_columns(ints, alpha, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= columns_bytes(len(dets), spec, ints)

    def test_columns_bytes_site_basis_estimate_drop(self):
        """400 determinants of the 8-site half-filled site-basis sector: the
        estimate counted every orbital pair (71.6 MB against a peak of at
        most 3.2 MB); the nonzero patterns cut it more than tenfold."""
        spec = SectorSpec(8, 4, 4)
        for v in (0.0, 0.6):
            ints = map_to_electronic(make_chain(8, v=v))
            assert columns_bytes(400, spec, ints) <= 71.6e6 / 10


def _engine_bytes(ints, alpha, beta, c, dets_a, dets_b):
    """Every array that product_hamiltonian, sigma and hamiltonian_columns
    return, as bytes."""
    mat = product_hamiltonian(ints, alpha, beta)
    full_a = half_strings(ints.n_orbitals, int(alpha[0]).bit_count())
    full_b = half_strings(ints.n_orbitals, int(beta[0]).bit_count())
    row_a, row_b, cols = hamiltonian_columns(ints, dets_a, dets_b)
    arrays = (mat.data, mat.indices, mat.indptr, strings_mod.sigma(c, ints, full_a, full_b)[0],
              row_a, row_b, cols.data, cols.indices, cols.indptr)
    return [np.ascontiguousarray(x).tobytes() for x in arrays]


class TestOneSpinMemo:
    """Each string's one-spin entries are kept on the integrals; the arrays
    built from them must not depend on what the integrals served before."""

    @staticmethod
    def _request(rng, m, n_alpha, n_beta):
        """Random ascending product strings, a vector over the full sector and
        a shuffled determinant list of the sector (alpha, beta) words."""
        wa = half_strings(m, n_alpha)
        wb = half_strings(m, n_beta)
        alpha = np.sort(rng.choice(wa, size=int(rng.integers(1, len(wa) + 1)), replace=False))
        beta = np.sort(rng.choice(wb, size=int(rng.integers(1, len(wb) + 1)), replace=False))
        c = rng.normal(size=(len(wb), len(wa))) + 1j * rng.normal(size=(len(wb), len(wa)))
        pick = rng.permutation(len(wa) * len(wb))[:int(rng.integers(1, len(wa) * len(wb) + 1))]
        return alpha, beta, c, wa[pick % len(wa)], wb[pick // len(wa)]

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        complex_hopping=st.booleans(),
        rotate=st.booleans(),
    )
    def test_served_integrals_give_identical_bytes(self, data, m, seed, complex_hopping, rotate):
        n_alpha = data.draw(st.integers(0, m), label="n_alpha")
        n_beta = data.draw(st.integers(0, m), label="n_beta")
        rng = np.random.default_rng(seed)
        ints = _random_integrals(rng, m, complex_hopping, rotate)
        target = self._request(rng, m, n_alpha, n_beta)
        want = _engine_bytes(ints, *target)
        # fresh integrals with the same arrays serve other subsets of the
        # same sector, other sectors and full channels first
        served = dataclasses.replace(ints)
        assert not served.one_spin_memo
        for _ in range(data.draw(st.integers(1, 3), label="earlier requests")):
            other = (data.draw(st.integers(0, m), label="other n_alpha"),
                     data.draw(st.integers(0, m), label="other n_beta"))
            sector = data.draw(st.sampled_from([(n_alpha, n_beta), other]), label="sector")
            alpha, beta, c, dets_a, dets_b = self._request(rng, m, *sector)
            if data.draw(st.booleans(), label="full channels"):
                strings_mod.sigma(c, served, *(half_strings(m, n) for n in sector))
            else:
                product_hamiltonian(served, alpha, beta)
                hamiltonian_columns(served, dets_a, dets_b)
        assert served.one_spin_memo
        assert _engine_bytes(served, *target) == want
        # and a second time, from a memo that holds every string of the request
        assert _engine_bytes(served, *target) == want


class TestOneSpinTermsAgainstLoop:
    """``_one_spin_terms`` against the loop over rs that it replaced
    (``one_spin_terms_reference``): the same target words, columns and
    values, byte for byte and in the same dtypes, once both are sorted
    stably by column, so each column's terms are in term order."""

    @staticmethod
    def _assert_identical(strings, h, g):
        words, cols, vals = strings_mod._one_spin_terms(strings, h, g)
        order = np.argsort(cols, kind="stable")
        got = words[order], cols[order], vals[order]
        want = one_spin_terms_reference(strings, h, g)
        assert len(got) == len(want) == 3
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        complex_ints=st.booleans(),
        pattern=st.sampled_from(["full", "sparse", "site"]),
        subset=st.booleans(),
    )
    def test_bytes_match_the_loop(self, data, m, seed, complex_ints, pattern, subset):
        """Full g (a rotated basis), a random sparse g and the site pattern
        of U and V, on full channels and on ascending subsets (empty ones
        included) of any electron count."""
        n = data.draw(st.integers(0, m), label="n")
        rng = np.random.default_rng(seed)
        if pattern == "sparse":
            ints = random_general_integrals(rng, m)
            h = ints.one_body * (rng.random((m, m)) < 0.5)
            g = ints.two_body_same_spin * (rng.random((m,) * 4) < 0.2)
            if complex_ints:
                h, g = h * (1 + 0.5j), g * (0.5 - 1j)
        else:
            ints = _random_integrals(rng, m, complex_ints, rotate=pattern == "full")
            h, g = ints.one_body, ints.two_body_same_spin
        words = half_strings(m, n)
        if subset:
            words = np.sort(rng.choice(words, size=int(rng.integers(0, len(words) + 1)),
                                       replace=False))
        self._assert_identical(words, h, g)

    @pytest.mark.parametrize("n", [0, 2, 4])
    @pytest.mark.parametrize("complex_ints", [False, True])
    def test_empty_full_and_half_channels(self, n, complex_ints):
        rng = np.random.default_rng(n)
        ints = _random_integrals(rng, 4, complex_ints, rotate=True)
        for words in (half_strings(4, n), np.zeros(0, dtype=np.int64)):
            self._assert_identical(words, ints.one_body, ints.two_body_same_spin)


class TestSummedOneSpinRows:
    """The memo holds each string's one-spin row summed per target word: the
    words of a row strictly ascending, every value nonzero, and each value
    the sum of that word's terms in ``one_spin_terms_reference``."""

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("complex_ints", [False, True])
    def test_rows_are_per_target_sums(self, n, rotate, complex_ints):
        rng = np.random.default_rng(7 * n + 2 * rotate + complex_ints)
        ints = _random_integrals(rng, 4, complex_ints, rotate)
        full = half_strings(4, n)
        for strings in (full, np.zeros(0, dtype=np.int64), full[::2]):
            words, cols, vals = strings_mod._one_spin_entries(ints, strings)
            assert words.dtype == np.int64 and vals.dtype == ints.one_body.dtype
            t_words, t_cols, t_vals = one_spin_terms_reference(
                strings, ints.one_body, ints.two_body_same_spin)
            assert np.all(np.diff(cols) >= 0)
            for j in range(len(strings)):
                row = cols == j
                got = dict(zip(words[row].tolist(), vals[row].tolist()))
                want = {}
                for w, v in zip(t_words[t_cols == j].tolist(), t_vals[t_cols == j].tolist()):
                    want[w] = want.get(w, 0.0) + v
                assert np.all(np.diff(words[row]) > 0)
                assert all(v != 0 for v in got.values())
                assert set(got) <= set(want)
                for w, v in want.items():
                    assert abs(got.get(w, 0.0) - v) <= 1e-14

    def test_rotated_uv_chain_rows_are_short(self):
        """On the rotated 6-site U+V chain, a 3-electron string's 156 terms
        reach 19 words, and a 2-electron string's 110 terms reach 15."""
        ints = map_to_electronic(make_chain(6, v=0.6))
        ints = rotate_basis(ints, solve_mean_field(ints, SectorSpec(6, 3, 3)).orbital_coefficients)
        for n, terms, words in ((3, 156, 19), (2, 110, 15)):
            strings = half_strings(6, n)
            raw = one_spin_terms_reference(strings, ints.one_body, ints.two_body_same_spin)
            got = strings_mod._one_spin_entries(ints, strings)
            assert np.bincount(raw[1]).max() == terms
            assert np.bincount(got[1]).max() == words


def _complex_chain(m, v):
    """An open chain whose hoppings carry a phase, so that its integrals are
    complex with the site pattern of U and V."""
    lat = make_chain(m, v=v)
    hop = lat.hopping.astype(complex)
    for i in range(m - 1):
        hop[i, i + 1] *= np.exp(0.3j * (i + 1))
        hop[i + 1, i] = np.conj(hop[i, i + 1])
    return LatticeHamiltonian(m, hop, lat.u_intra, lat.v_inter)


class TestProductHamiltonianAssembly:
    """The one block assembly, from the 1 x 1 space of a reference
    determinant (the mean field's HF energy) to the 8-site half-filled site
    basis (d = 4,900), returns canonical CSR matrices without stored zeros
    that agree with the Fock-space operator."""

    @pytest.mark.parametrize("complex_ints", [False, True])
    @pytest.mark.parametrize("m, n_alpha, n_beta, kept", [
        pytest.param(6, 3, 3, (1, 1), id="6-3-3-reference"),
        pytest.param(6, 3, 3, (20, 20), id="6-3-3-20"),
        pytest.param(8, 3, 6, (56, 11), id="8-3-6-11"),
        pytest.param(8, 4, 4, (70, 70), id="8-4-4-70"),
    ])
    def test_canonical_and_exact(self, complex_ints, m, n_alpha, n_beta, kept):
        if m == 6:  # dense random hopping and V
            lat = random_lattice(np.random.default_rng(6), m, complex_ints)
        else:
            lat = _complex_chain(m, v=0.6) if complex_ints else make_chain(m, v=0.6)
        ints = map_to_electronic(lat)
        assert ints.is_complex == complex_ints
        alpha = half_strings(m, n_alpha)[:kept[0]]
        beta = half_strings(m, n_beta)[:kept[1]]
        mat = product_hamiltonian(ints, alpha, beta)
        assert mat.format == "csr" and mat.has_canonical_format
        assert np.count_nonzero(mat.data == 0) == 0
        basis = SubspaceBasis(SectorSpec(m, n_alpha, n_beta), tuple(alpha.tolist()),
                              tuple(beta.tolist()))
        idx = [fock_index(det, m) for det in basis_determinants(basis)]
        expected = dense_fock_hamiltonian(ints).tocsr()[idx][:, idx]
        assert abs(mat - expected).max() <= 1e-12

    def test_peak_memory_of_a_rotated_full_sector(self):
        """The 8-site half-filled sector (70 x 70 strings, 1.77 million
        nonzeros) in a rotated basis, with the one-spin memo warm: the COO
        build this assembly replaced peaked at 184 MiB, and this one at
        about 52 MiB, 2.5 times its result."""
        m = 8
        rng = np.random.default_rng(m)
        ints = rotate_basis(map_to_electronic(make_chain(m, v=0.6)),
                            np.linalg.qr(rng.normal(size=(m, m)))[0])
        words = half_strings(m, 4)
        product_hamiltonian(ints, words, words)
        tracemalloc.start()
        try:
            mat = product_hamiltonian(ints, words, words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mat.nnz == 1_768_900
        assert peak <= 100 * 2**20

    def test_channel_past_int32_positions(self):
        """All 48,620 alpha strings of the 18-site half-filled sector against
        one beta string (as ``_covering`` ranks them at small fractions):
        d fits int32 but alpha positions run to na^2 = 2.4e9, which wrapped to
        negative rows when they were cast before being split."""
        m = 18
        ints = map_to_electronic(make_chain(m, v=0.6))
        alpha = half_strings(m, 9)
        beta = alpha[:1]
        assert len(alpha) ** 2 > np.iinfo(np.int32).max
        mat = product_hamiltonian(ints, alpha, beta)
        assert mat.format == "csr" and mat.has_canonical_format
        for row in (0, 1000, 46_341, len(alpha) - 1):
            det = Determinant(int(alpha[row]), int(beta[0]))
            near = [e for e in generate_excitations(det, m, {1}) if e.beta == det.beta]
            cols = np.searchsorted(alpha, [e.alpha for e in near] + [det.alpha])
            expected = np.zeros(len(alpha))
            expected[cols] = [matrix_element(det, e, ints) for e in near] + [diagonal_energy(det, ints)]
            assert np.abs(mat[row].toarray().ravel() - expected).max() <= 1e-12


class TestLargeChannelProjection:
    def test_observed_strings_of_a_large_channel(self):
        """A few observed strings of a 24-orbital half-filled sector (2.7
        million strings per channel): the projection costs memory in the
        number of observed strings and agrees with the pairwise
        Slater-Condon elements in a rotated (dense two-body) basis."""
        rng = np.random.default_rng(24)
        m = 24
        ints = rotate_basis(map_to_electronic(make_chain(m, v=0.5)),
                            np.linalg.qr(rng.normal(size=(m, m)))[0])
        low = (1 << 12) - 1
        # the aufbau string, a single, a double and a random string
        alphas = (low, low ^ (1 << 11) | (1 << 12), low ^ 0b11 | (0b11 << 12),
                  sum(1 << int(i) for i in rng.choice(m, 12, replace=False)))
        betas = (low, low ^ 1 | (1 << 23))
        basis = SubspaceBasis(SectorSpec(m, 12, 12), alphas, betas)
        tracemalloc.start()
        try:
            mat = project_hamiltonian(basis, ints).toarray()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        dets = basis_determinants(basis)
        dense = np.array([[matrix_element(a, b, ints) for b in dets] for a in dets])
        assert np.abs(dense - mat).max() <= 1e-10
        assert np.count_nonzero(np.abs(dense - np.diag(np.diag(dense))) > 1e-12)


class TestLowestEigenpair:
    def test_one_by_one(self):
        res = lowest_eigenpair(np.array([[3.25]]))
        assert res.energy == 3.25
        assert res.converged

    def test_dimer_matches_dense(self, dimer_ints):
        spec = SectorSpec(2, 1, 1)
        mat = project_hamiltonian(full_basis(spec), dimer_ints)
        lanczos = _lanczos_lowest(mat, DEFAULT_TOL)
        dense = _dense_lowest(mat)
        assert lanczos.energy == pytest.approx(dense.energy, abs=1e-10)
        assert lanczos.energy == pytest.approx(2 - 2 * np.sqrt(2), abs=1e-9)

    def test_diagonal_matrix(self):
        # the start vector is already the eigenvector, so the pair is exact
        mat = np.diag([4.0, -2.0, 7.0])
        res = _lanczos_lowest(mat, DEFAULT_TOL)
        assert res.energy == -2.0
        assert res.residual_norm == 0.0
        assert res.converged

    def test_lanczos_dense_agreement_up_to_512(self):
        rng = np.random.default_rng(10)
        for n in (64, 200, 512):
            a = rng.normal(size=(n, n)) * 0.05
            a = (a + a.T) / 2 + np.diag(np.linspace(0.0, 3.0, n))
            lanczos = _lanczos_lowest(a, DEFAULT_TOL)
            dense = _dense_lowest(a)
            assert lanczos.converged
            assert abs(lanczos.energy - dense.energy) <= 1e-9

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(11)
        n = 600
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        res = _lanczos_lowest(a, DEFAULT_TOL, max_iter=1)
        assert not res.converged
        assert res.iterations > 0
        # the reported residual is the true one of the returned vector
        assert np.isfinite(res.residual_norm)
        assert res.residual_norm == pytest.approx(
            np.linalg.norm(a @ res.ci_vector - res.energy * res.ci_vector), rel=1e-12)
        assert res.residual_norm > DEFAULT_TOL

    def test_residual_above_tol_is_not_converged(self):
        rng = np.random.default_rng(13)
        n = 600
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        res = _lanczos_lowest(a, 0.0)
        assert res.residual_norm > 0.0
        assert not res.converged

    def test_size_picks_the_path(self, monkeypatch):
        def fail(*args):
            raise AssertionError("wrong path")

        small = np.diag(np.arange(1.0, DENSE_FALLBACK_DIM + 1))
        large = np.diag(np.arange(1.0, DENSE_FALLBACK_DIM + 2))
        monkeypatch.setattr(davidson_mod, "_lanczos_lowest", fail)
        assert lowest_eigenpair(small).energy == 1.0
        monkeypatch.undo()
        monkeypatch.setattr(davidson_mod, "_dense_lowest", fail)
        assert lowest_eigenpair(large).energy == 1.0

    def test_start_vector_in_null_space(self):
        # the lowest diagonal element sits on a decoupled zero row, so H
        # annihilates the unit start vector
        rng = np.random.default_rng(14)
        n = 600
        a = rng.normal(size=(n, n)) * 0.1
        a = (a + a.T) / 2 + np.diag(np.linspace(1.0, 5.0, n))
        a[0, :] = a[:, 0] = 0.0
        res = _lanczos_lowest(a, DEFAULT_TOL)
        assert res.converged
        assert abs(res.energy - np.linalg.eigvalsh(a)[0]) <= 1e-9
        assert res.energy < -0.5

    def test_zero_energy_ground_state(self):
        # atomic limit (t = 0): the ground states have no doubly occupied
        # site, so their energy is exactly zero and they span the null space
        ints = map_to_electronic(make_chain(7, t=0.0))
        mat = project_hamiltonian(full_basis(SectorSpec(7, 3, 3)), ints)
        assert mat.shape[0] > DENSE_FALLBACK_DIM
        res = _lanczos_lowest(mat, DEFAULT_TOL)
        assert res.converged
        assert abs(res.energy) <= 1e-12

    def test_complex_hermitian(self):
        rng = np.random.default_rng(12)
        n = 40
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (a + a.conj().T) / 2
        res = _lanczos_lowest(a, DEFAULT_TOL)
        assert res.energy == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-9)


def ring(m, u, phase=0.0):
    """Ring of m sites, t = -1 with a flux ``phase`` per bond, on-site u."""
    hop = np.zeros((m, m), dtype=complex if phase else float)
    for i in range(m):
        j = (i + 1) % m
        hop[i, j] = -np.exp(1j * phase) if phase else -1.0
        hop[j, i] = np.conj(hop[i, j])
    return LatticeHamiltonian(m, hop, [u] * m, np.zeros((m, m)))


class TestLanczosAgainstDense:
    """Standing guard: every sector of a 7-site lattice at N = 6 has
    d = 735-1,225, above ``DENSE_FALLBACK_DIM``, so production solves take
    the Lanczos path; each must match dense ``eigh`` and report converged."""

    @pytest.mark.parametrize("u", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("basis", ["site", "mo"])
    @pytest.mark.parametrize("geometry", ["chain", "ring"])
    def test_all_sectors(self, geometry, basis, u):
        lat = make_chain(7, u=u) if geometry == "chain" else ring(7, u)
        self._check(lat, basis)

    def test_complex_hopping_ring(self):
        self._check(ring(7, 4.0, phase=0.3), "site")

    @staticmethod
    def _check(lat, basis):
        ints = map_to_electronic(lat)
        specs = sector_specs(7, 6)
        if basis == "mo":
            mf = solve_mean_field(ints, specs["Ne"])
            ints = rotate_basis(ints, mf.orbital_coefficients)
        for spec in specs.values():
            mat = project_hamiltonian(full_basis(spec), ints)
            assert mat.shape[0] > DENSE_FALLBACK_DIM
            res = lowest_eigenpair(mat)
            exact = scipy.linalg.eigvalsh(mat.toarray(), subset_by_index=[0, 0])[0]
            assert res.converged
            assert abs(res.energy - exact) <= 1e-9


class TestDenseCrossover:
    """``DENSE_FALLBACK_DIM`` is the last size that takes the dense path."""

    @pytest.fixture(scope="class")
    def chain6uv_mo(self):
        ints = map_to_electronic(make_chain(6, v=0.6))
        spec = sector_specs(6, 6)["Ne"]
        mf = solve_mean_field(ints, spec)
        return project_hamiltonian(full_basis(spec), rotate_basis(ints, mf.orbital_coefficients))

    def test_paths_agree_at_the_crossover(self, chain6uv_mo, monkeypatch):
        def fail(*args):
            raise AssertionError("wrong path")

        for d, wrong in ((DENSE_FALLBACK_DIM, "_lanczos_lowest"),
                         (DENSE_FALLBACK_DIM + 1, "_dense_lowest")):
            mat = chain6uv_mo[:d, :d].tocsr()
            with monkeypatch.context() as patch:
                patch.setattr(davidson_mod, wrong, fail)
                res = lowest_eigenpair(mat)
            exact = scipy.linalg.eigh(mat.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
            assert abs(res.energy - exact) <= 1e-12
            assert res.converged

    def test_full_ne_sector_takes_lanczos(self, chain6uv_mo):
        """The 400-determinant Ne sector of the 6-site U+V chain in its
        mean-field orbitals, which ext-SQD reaches, is a Lanczos solve."""
        assert chain6uv_mo.shape[0] == 400
        res = lowest_eigenpair(chain6uv_mo)
        exact = scipy.linalg.eigh(chain6uv_mo.toarray(), eigvals_only=True,
                                  subset_by_index=[0, 0])[0]
        assert res.iterations > 1 and res.converged
        assert abs(res.energy - exact) <= 1e-12


class TestLowestRitzVector:
    def test_bytes_match_eigh_tridiagonal(self, monkeypatch):
        """On the tridiagonals of real solves (a site-basis and a rotated
        chain, and a complex ring), the direct LAPACK calls give the bytes
        of ``scipy.linalg.eigh_tridiagonal``."""
        seen = []
        ritz = davidson_mod._lowest_ritz_vector

        def record(d, e):
            seen.append((d.copy(), e.copy()))
            return ritz(d, e)

        monkeypatch.setattr(davidson_mod, "_lowest_ritz_vector", record)
        ints = map_to_electronic(make_chain(7, v=0.6))
        spec = SectorSpec(7, 3, 3)
        mo = rotate_basis(ints, solve_mean_field(ints, spec).orbital_coefficients)
        for mat_ints in (ints, mo, map_to_electronic(ring(7, 4.0, phase=0.3))):
            assert _lanczos_lowest(project_hamiltonian(full_basis(spec), mat_ints),
                                   DEFAULT_TOL).converged
        assert len(seen) > 30 and {len(d) for d, _ in seen} >= {5, LANCZOS_BASIS}
        for d, e in seen + [(np.array([-1.5]), np.zeros(0))]:
            got, want = ritz(d, e), lowest_ritz_vector_reference(d, e)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_non_finite_input(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            davidson_mod._lowest_ritz_vector(np.array([1.0, np.nan]), np.array([0.5]))


class TestLanczosAgainstArpack:
    """Spaces where dense ``eigh`` is slow: the 8-site chain's site-basis FCI
    sectors (d = 3,920 and 4,900) and a rotated 8-site SQD space, each
    checked against ARPACK (``arpack_lowest``, the solver that the package's
    Lanczos replaced)."""

    @pytest.fixture(scope="class")
    def chain8_fci(self):
        ints = map_to_electronic(make_chain(8))
        specs = sector_specs(8, 8)
        return [project_hamiltonian(full_basis(specs[label]), ints) for label in ("Ne-1", "Ne")]

    @pytest.fixture(scope="class")
    def chain8_sqd(self):
        ints = map_to_electronic(make_chain(8, v=0.6))
        spec = SectorSpec(8, 4, 4)
        mf = solve_mean_field(ints, spec)
        strings = half_strings(8, 4)
        basis = SubspaceBasis(spec, tuple(strings[::2]), tuple(strings[:20]))
        return project_hamiltonian(basis, rotate_basis(ints, mf.orbital_coefficients))

    def test_site_basis_fci_sectors(self, chain8_fci):
        assert [mat.shape[0] for mat in chain8_fci] == [3920, 4900]
        for mat in chain8_fci:
            self._check(mat)
        # past one basis, so the solve restarted from its Ritz vector
        assert _lanczos_lowest(chain8_fci[0], DEFAULT_TOL).iterations > LANCZOS_BASIS

    def test_rotated_sqd_space(self, chain8_sqd):
        assert chain8_sqd.shape[0] == 700
        self._check(chain8_sqd)

    def test_reruns_are_bit_identical(self, chain8_fci):
        first, second = (_lanczos_lowest(chain8_fci[1], DEFAULT_TOL) for _ in range(2))
        assert np.array_equal(first.ci_vector, second.ci_vector)
        assert (first.energy, first.residual_norm, first.iterations) == \
            (second.energy, second.residual_norm, second.iterations)

    @staticmethod
    def _check(mat):
        got, want = _lanczos_lowest(mat, DEFAULT_TOL), arpack_lowest(mat, DEFAULT_TOL)
        assert got.converged and want.converged
        assert abs(got.energy - want.energy) <= 1e-12
        assert got.residual_norm <= DEFAULT_TOL


class TestEigensolveBytes:
    @pytest.mark.parametrize("phase", [0.0, 0.3])
    def test_bounds_measured_peak(self, phase):
        """``eigensolve_bytes`` bounds the traced peak of a Lanczos solve,
        real and complex; the ``hci_ground`` memory cap charges it."""
        ints = map_to_electronic(ring(7, 4.0, phase))
        mat = project_hamiltonian(full_basis(SectorSpec(7, 3, 3)), ints)
        assert mat.shape[0] > DENSE_FALLBACK_DIM
        tracemalloc.start()
        try:
            res = lowest_eigenpair(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak <= eigensolve_bytes(mat.shape[0], ints.is_complex)


class TestSqdSweep:
    def test_full_fraction_recovers_fci(self, dimer_ints):
        spec = SectorSpec(2, 1, 1)
        counts = {d: 25 for d in enumerate_sector(spec)}
        pts = sqd_sweep(samples_from(counts, 2), spec, dimer_ints, [1.0])
        assert pts[0].result.energy == pytest.approx(fci_ground(spec, dimer_ints).energy, abs=1e-10)

    def test_energies_non_increasing(self, dimer_ints):
        spec = SectorSpec(2, 1, 1)
        counts = {d: 25 for d in enumerate_sector(spec)}
        pts = sqd_sweep(samples_from(counts, 2), spec, dimer_ints, [0.25, 0.5, 1.0])
        energies = [p.result.energy for p in pts]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_nested_bases(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        samples = fci_distribution_samples(spec, ints, seed=1)
        pts = sqd_sweep(samples, spec, ints, [0.1, 0.3, 0.6, 1.0])
        for small, big in zip(pts, pts[1:]):
            assert set(small.basis.alpha_strings) <= set(big.basis.alpha_strings)
            assert set(small.basis.beta_strings) <= set(big.basis.beta_strings)

    def test_chain_error_curve_reaches_fci(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        samples = fci_distribution_samples(spec, ints, seed=2)
        e_fci = fci_ground(spec, ints).energy
        pts = sqd_sweep(samples, spec, ints, [0.25, 0.5, 1.0])
        errors = [p.result.energy - e_fci for p in pts]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
        assert abs(errors[-1]) <= 1e-8

    def test_fraction_list_validated(self, dimer_ints):
        spec = SectorSpec(2, 1, 1)
        counts = {d: 5 for d in enumerate_sector(spec)}
        s = samples_from(counts, 2)
        with pytest.raises(ValidationError):
            sqd_sweep(s, spec, dimer_ints, [0.5, 0.5])
        with pytest.raises(ValidationError):
            sqd_sweep(s, spec, dimer_ints, [])

    def test_determinism(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        a = fci_distribution_samples(spec, ints, seed=4)
        b = fci_distribution_samples(spec, ints, seed=4)
        pts_a = sqd_sweep(a, spec, ints, [0.3, 0.9])
        pts_b = sqd_sweep(b, spec, ints, [0.3, 0.9])
        for pa, pb in zip(pts_a, pts_b):
            assert _same_basis(pa.basis, pb.basis)
            assert pa.result.energy == pb.result.energy


class TestExtsqdExpand:
    def _solved(self, ints, spec, fraction, seed=0):
        samples = fci_distribution_samples(spec, ints, seed=seed)
        basis = covering_basis(samples, spec, fraction)
        return basis, solve_subspace(basis, ints)

    def test_zero_threshold_superset_lowers_energy(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        basis, res = self._solved(ints, spec, 0.3)
        expanded = extsqd_expand(res, basis, threshold=0.0, levels={1})
        assert set(basis.alpha_strings) <= set(expanded.alpha_strings)
        assert set(basis.beta_strings) <= set(expanded.beta_strings)
        res2 = solve_subspace(expanded, ints)
        assert res2.energy <= res.energy + 1e-12

    def test_production_threshold_settings(self):
        """Threshold 1e-4 with singles, and 2e-5 with singles+doubles."""
        lat = make_chain(4, v=0.3)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        basis, res = self._solved(ints, spec, 0.4)
        for threshold, levels in ((1.0e-4, {1}), (2.0e-5, {1, 2})):
            expanded = extsqd_expand(res, basis, threshold, levels)
            assert expanded.dimension >= len(
                [w for w in np.abs(res.ci_vector) ** 2 if w >= threshold]
            )
            res2 = solve_subspace(expanded, ints)
            assert res2.energy <= res.energy + 1e-12

    def test_threshold_removing_everything_raises(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        basis, res = self._solved(ints, spec, 0.3)
        with pytest.raises(ValidationError, match="removed every"):
            extsqd_expand(res, basis, threshold=2.0, levels={1})

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        levels=st.sampled_from([{1}, {2}, {1, 2}]),
    )
    def test_matches_per_determinant_loop(self, data, m, seed, levels):
        """The same basis as exciting each kept determinant on its own, for
        empty and full channels and every level set."""
        n_alpha = data.draw(st.integers(0, m), label="n_alpha")
        n_beta = data.draw(st.integers(0, m), label="n_beta")
        rng = np.random.default_rng(seed)
        spec = SectorSpec(m, n_alpha, n_beta)
        basis = SubspaceBasis(spec, _random_strings(rng, m, n_alpha),
                              _random_strings(rng, m, n_beta))
        vec = rng.normal(size=basis.dimension)
        vec /= np.linalg.norm(vec)
        res = GroundStateResult(0.0, vec, 0.0, 1, True)
        # zero, or between the weights, so that some determinants are dropped
        threshold = data.draw(st.sampled_from([0.0, float(rng.uniform(0, np.max(vec**2)))]),
                              label="threshold")
        assert _same_basis(extsqd_expand(res, basis, threshold, levels),
                           extsqd_expand_reference(res, basis, threshold, levels))


class TestEnergyVariance:
    def test_eigenstate_has_zero_variance(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        res = fci_ground(spec, ints)
        var = energy_variance(res, full_basis(spec), ints)
        assert -1e-12 <= var <= 1e-12

    def test_two_determinant_superposition_hand_computed(self, dimer_ints):
        """Equal superposition of the two doubly-occupied dimer determinants:
        each hop target receives amplitude from both parents, so <H> = U and
        <H^2> = U^2 + 4 t^2; checked against the dense 4x4 matrix."""
        spec = SectorSpec(2, 1, 1)
        basis = SubspaceBasis(spec, (0b01, 0b10), (0b01, 0b10))
        dets = basis_determinants(basis)
        vec = np.zeros(4)
        vec[dets.index(Determinant(0b01, 0b01))] = 1 / np.sqrt(2)
        vec[dets.index(Determinant(0b10, 0b10))] = 1 / np.sqrt(2)
        from hsqd import GroundStateResult

        res = GroundStateResult(4.0, vec, 0.0, 1, True)
        var = energy_variance(res, basis, dimer_ints)
        dense = np.array([[matrix_element(a, b, dimer_ints) for b in dets] for a in dets])
        h1 = vec @ dense @ vec
        h2 = vec @ dense @ dense @ vec
        assert var == pytest.approx((h2 - h1**2) / h1**2, abs=1e-12)
        assert h1 == pytest.approx(4.0)
        assert h2 == pytest.approx(20.0)  # U^2 + 4 t^2 with U=4, t=-1

    def test_outside_contributions_counted(self, dimer_ints):
        # single-determinant subspace: <H^2> includes hops leaving the subspace
        spec = SectorSpec(2, 1, 1)
        basis = SubspaceBasis(spec, (0b01,), (0b01,))
        res = solve_subspace(basis, dimer_ints)
        var = energy_variance(res, basis, dimer_ints)
        # state |both on site 0>: <H> = 4, <H^2> = 16 + 2t^2 -> var = 2/16
        assert var == pytest.approx(2.0 / 16.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            lat = random_lattice(rng, m=4)
            ints = map_to_electronic(lat)
            spec = SectorSpec(4, 2, 1)
            samples = fci_distribution_samples(spec, ints, seed=6)
            basis = covering_basis(samples, spec, 0.4)
            res = solve_subspace(basis, ints)
            var = energy_variance(res, basis, ints)
            assert var is None or var >= -1e-12  # None: zero energy expectation


    def test_eigenvector_variance_never_negative(self):
        """An eigenvector to round-off: (<H^2> - <H>^2) / <H>^2 cancels to
        values on either side of zero (six of these twenty went negative),
        and the squared residual cannot."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(30, 30))
            h = (a + a.T) / 2 + 5 * np.eye(30)
            c = np.linalg.eigh(h)[1][:, 0]
            var = subspace_mod.relative_variance(c, h @ c)
            assert 0.0 <= var <= 1e-24
            # rows outside the vector's determinants add their squares
            s = np.concatenate([h @ c, [3e-3, -4e-3]])
            energy = c @ h @ c
            assert subspace_mod.relative_variance(c, s) == pytest.approx(
                var + 25e-6 / energy**2, rel=1e-12)


class TestVariationalChain:
    def test_fci_ext_sqd_hf_ordering(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            lat = random_lattice(rng, m=4)
            ints = map_to_electronic(lat)
            spec = SectorSpec(4, 2, 2)
            mf = solve_mean_field(ints, spec)
            mo = rotate_basis(ints, mf.orbital_coefficients)
            samples = fci_distribution_samples(spec, mo, seed=8)
            basis = covering_basis(samples, spec, 0.3, reference=mf.reference_for(spec))
            sqd = solve_subspace(basis, mo)
            expanded = extsqd_expand(sqd, basis, 1e-4, {1})
            ext = solve_subspace(expanded, mo)
            e_fci = fci_ground(spec, ints).energy
            assert e_fci <= ext.energy + 1e-12
            assert ext.energy <= sqd.energy + 1e-12
            assert sqd.energy <= mf.hf_energy + 1e-12

    def test_nesting_monotonicity(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        sub = SubspaceBasis(spec, (0b0011, 0b0101), (0b0011,))
        sup = SubspaceBasis(spec, (0b0011, 0b0101, 0b1001), (0b0011, 0b0101))
        assert solve_subspace(sup, ints).energy <= solve_subspace(sub, ints).energy + 1e-12
