import numpy as np
import pytest

from hsqd import (
    Determinant,
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
    solve_mean_field,
    solve_subspace,
    sqd_sweep,
)
from hsqd.determinants import enumerate_sector, half_strings
from hsqd.statevector import SampleSet
from hsqd.subspace import SubspaceBasis, build_subspace

from conftest import make_chain, random_lattice


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
        params = LucjParameters(3, (LucjLayer(k, j, j),))
        state = build_state(params, Determinant(0b011, 0b001), spec)
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
        basis = build_subspace(s, spec, target_fraction=0.5)
        assert set(basis.alpha_strings) == {0b01, 0b10}
        assert set(basis.beta_strings) == {0b01}
        assert basis.dimension == 2

    def test_full_fraction_with_all_strings_observed(self):
        spec = SectorSpec(2, 1, 1)
        counts = {d: 10 for d in enumerate_sector(spec)}
        basis = build_subspace(samples_from(counts, 2), spec, 1.0)
        assert basis.dimension == spec.dimension()

    def test_full_fraction_pads_unobserved_strings(self):
        spec = SectorSpec(2, 1, 1)
        s = samples_from({Determinant(0b01, 0b01): 5}, 2)
        basis = build_subspace(s, spec, 1.0)
        assert basis.dimension == 4

    def test_reference_always_included(self):
        spec = SectorSpec(2, 1, 1)
        s = samples_from({Determinant(0b10, 0b10): 50}, 2)
        ref = Determinant(0b01, 0b01)
        basis = build_subspace(s, spec, 0.25, reference=ref)
        assert basis.contains(ref)

    def test_sqd_energy_is_variational(self):
        rng = np.random.default_rng(5)
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        samples = fci_distribution_samples(spec, ints, seed=3)
        e_fci = fci_ground(spec, ints).energy
        basis = build_subspace(samples, spec, 0.25)
        res = solve_subspace(basis, ints)
        assert res.energy >= e_fci - 1e-12

    def test_fraction_validated(self):
        spec = SectorSpec(2, 1, 1)
        s = samples_from({Determinant(0b01, 0b01): 1}, 2)
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                build_subspace(s, spec, bad)


class TestProjectHamiltonian:
    def test_single_determinant(self, dimer_ints):
        from hsqd import diagonal_energy

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
        """The sparse single-hop assembly and the generic pairwise assembly
        must produce the same matrix for density-density integrals."""
        rng = np.random.default_rng(8)
        lat = random_lattice(rng, m=4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        basis = full_basis(spec)
        from hsqd import matrix_element

        dets = basis.determinants()
        dense = np.array([[matrix_element(a, b, ints) for b in dets] for a in dets])
        sparse = project_hamiltonian(basis, ints).toarray()
        assert np.abs(dense - sparse).max() <= 1e-12


class TestLowestEigenpair:
    def test_one_by_one(self):
        res = lowest_eigenpair(np.array([[3.25]]))
        assert res.energy == 3.25
        assert res.converged

    def test_dimer_matches_dense(self, dimer_ints):
        spec = SectorSpec(2, 1, 1)
        mat = project_hamiltonian(full_basis(spec), dimer_ints)
        dav = lowest_eigenpair(mat, method="davidson")
        dense = lowest_eigenpair(mat, method="dense")
        assert dav.energy == pytest.approx(dense.energy, abs=1e-10)
        assert dav.energy == pytest.approx(2 - 2 * np.sqrt(2), abs=1e-9)

    def test_diagonal_matrix(self):
        mat = np.diag([4.0, -2.0, 7.0])
        res = lowest_eigenpair(mat, method="davidson")
        assert res.energy == pytest.approx(-2.0, abs=1e-12)
        assert res.iterations == 1

    def test_davidson_dense_agreement_up_to_512(self):
        rng = np.random.default_rng(10)
        for n in (64, 200, 512):
            a = rng.normal(size=(n, n)) * 0.05
            a = (a + a.T) / 2 + np.diag(np.linspace(0.0, 3.0, n))
            dav = lowest_eigenpair(a, method="davidson")
            dense = lowest_eigenpair(a, method="dense")
            assert dav.converged
            assert abs(dav.energy - dense.energy) <= 1e-9

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(11)
        n = 600
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        res = lowest_eigenpair(a, method="davidson", max_iter=2)
        assert not res.converged
        assert res.iterations == 2

    def test_complex_hermitian(self):
        rng = np.random.default_rng(12)
        n = 40
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (a + a.conj().T) / 2
        res = lowest_eigenpair(a, method="davidson")
        assert res.energy == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-9)


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
            assert pa.basis.alpha_strings == pb.basis.alpha_strings
            assert pa.basis.beta_strings == pb.basis.beta_strings
            assert pa.result.energy == pb.result.energy


class TestExtsqdExpand:
    def _solved(self, ints, spec, fraction, seed=0):
        samples = fci_distribution_samples(spec, ints, seed=seed)
        basis = build_subspace(samples, spec, fraction)
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

    def test_without_original_still_superset_of_kept(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        basis, res = self._solved(ints, spec, 0.5)
        expanded = extsqd_expand(res, basis, 1e-3, {1}, keep_original=False)
        dets = basis.determinants()
        kept = [d for d, w in zip(dets, np.abs(res.ci_vector) ** 2) if w >= 1e-3]
        for det in kept:
            assert expanded.contains(det)


class TestEnergyVariance:
    def test_eigenstate_has_zero_variance(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        res = fci_ground(spec, ints)
        var = energy_variance(res, full_basis(spec).determinants(), ints)
        assert -1e-12 <= var <= 1e-12

    def test_two_determinant_superposition_hand_computed(self, dimer_ints):
        """Equal superposition of the two doubly-occupied dimer determinants:
        each hop target receives amplitude from both parents, so <H> = U and
        <H^2> = U^2 + 4 t^2; checked against the dense 4x4 matrix."""
        spec = SectorSpec(2, 1, 1)
        basis = SubspaceBasis(spec, (0b01, 0b10), (0b01, 0b10))
        dets = basis.determinants()
        vec = np.zeros(4)
        vec[dets.index(Determinant(0b01, 0b01))] = 1 / np.sqrt(2)
        vec[dets.index(Determinant(0b10, 0b10))] = 1 / np.sqrt(2)
        from hsqd import GroundStateResult, matrix_element

        res = GroundStateResult(4.0, vec, 0.0, 1, True)
        var = energy_variance(res, dets, dimer_ints)
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
        var = energy_variance(res, basis.determinants(), dimer_ints)
        # state |both on site 0>: <H> = 4, <H^2> = 16 + 2t^2 -> var = 2/16
        assert var == pytest.approx(2.0 / 16.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            lat = random_lattice(rng, m=4)
            ints = map_to_electronic(lat)
            spec = SectorSpec(4, 2, 1)
            samples = fci_distribution_samples(spec, ints, seed=6)
            basis = build_subspace(samples, spec, 0.4)
            res = solve_subspace(basis, ints)
            var = energy_variance(res, basis.determinants(), ints)
            assert var is None or var >= -1e-12  # None: zero energy expectation


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
            basis = build_subspace(samples, spec, 0.3, reference=mf.reference_determinant)
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
