import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqd import (
    Determinant,
    LucjLayer,
    LucjParameters,
    SectorSpec,
    ValidationError,
    apply_density_phase,
    build_state,
    load_samples,
    lucj_from_t2,
    map_to_electronic,
    mp2_doubles,
    rotate_basis,
    sample,
    save_samples,
    solve_mean_field,
)
from hsqd import statevector as statevector_mod
from hsqd.errors import CapExceededError
from hsqd.statevector import SampleSet, SectorStatevector, rotation_bytes

from conftest import make_chain
from oracles import basis_state, enumerate_sector, givens_rotation, sector_generator_matrix
from hsqd.determinants import half_strings


def antisym(rng, m):
    k = rng.normal(size=(m, m))
    return (k - k.T) / 2


def rot(rng, m):
    return scipy.linalg.expm(antisym(rng, m))


def symm(rng, m, scale=1.0):
    j = rng.normal(size=(m, m)) * scale
    return (j + j.T) / 2


def zero_params(m, layers=1):
    z = np.zeros((m, m))
    return LucjParameters(m, tuple(LucjLayer(np.eye(m), z, z) for _ in range(layers)))


def compound_rotation(state, q):
    """The rotation by q of both channels as ``build_state`` applies it:
    ``_rotate`` by the compounds of q."""
    spec = state.spec
    u = statevector_mod._compounds(q, {spec.n_alpha, spec.n_beta})
    return SectorStatevector(
        spec, statevector_mod._rotate(state.amplitudes, u[spec.n_beta], u[spec.n_alpha]))


class TestBuildState:
    def test_identity_circuit(self):
        spec = SectorSpec(3, 2, 1)
        ref = Determinant(0b011, 0b001)
        state = build_state(zero_params(3), (ref.alpha, ref.beta), spec)
        probs = state.probabilities()
        dets = enumerate_sector(spec)
        idx = dets.index(ref)
        assert probs.ravel()[idx] == pytest.approx(1.0)

    def test_pure_phase_keeps_distribution(self):
        rng = np.random.default_rng(0)
        spec = SectorSpec(3, 1, 1)
        ref = Determinant(0b010, 0b100)
        params = LucjParameters(
            3, (LucjLayer(np.eye(3), symm(rng, 3), symm(rng, 3)),)
        )
        state = build_state(params, (ref.alpha, ref.beta), spec)
        probs = state.probabilities().ravel()
        idx = enumerate_sector(spec).index(ref)
        assert probs[idx] == pytest.approx(1.0)

    def test_rotation_only_sandwich_is_identity(self):
        rng = np.random.default_rng(1)
        spec = SectorSpec(4, 2, 2)
        ref = Determinant(0b0011, 0b0011)
        params = LucjParameters(
            4, (LucjLayer(rot(rng, 4), np.zeros((4, 4)), np.zeros((4, 4))),)
        )
        probs = build_state(params, (ref.alpha, ref.beta), spec).probabilities().ravel()
        idx = enumerate_sector(spec).index(ref)
        assert probs[idx] == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_random_parameters(self):
        rng = np.random.default_rng(2)
        for m in (4, 6, 8):
            spec = SectorSpec(m, m // 2, m // 2 - 1)
            ref = Determinant((1 << (m // 2)) - 1, (1 << (m // 2 - 1)) - 1)
            params = LucjParameters(
                m, (LucjLayer(rot(rng, m), symm(rng, m), symm(rng, m)),)
            )
            state = build_state(params, (ref.alpha, ref.beta), spec)
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_cap_enforced(self):
        spec = SectorSpec(14, 7, 7)
        ref = (0b1111111, 0b1111111)
        with pytest.raises(CapExceededError):
            build_state(zero_params(14), ref, spec)

    def test_cap_checked_before_any_amplitude_array(self):
        """The 14-site half-filled sector (11.8 million amplitudes, 188 MB as
        complex) is refused before its strings, compounds or amplitudes exist."""
        spec = SectorSpec(14, 7, 7)
        params = zero_params(14)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="over the sector cap"):
                build_state(params, (0b1111111, 0b1111111), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("ref", [(0b011, 0b001), (0b001, 0b011), (0b1000, 0b001), (-1, 0b001)])
    def test_reference_outside_sector(self, ref):
        """A reference with the wrong electron count or an orbital above M is
        invalid input (exit 2), with the message of the one reference check."""
        with pytest.raises(ValidationError) as info:
            build_state(zero_params(3), ref, SectorSpec(3, 1, 1))
        assert str(info.value) == "reference determinant outside the sector"
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("spec", [SectorSpec(3, 2, 1), SectorSpec(4, 0, 2),
                                      SectorSpec(4, 4, 1), SectorSpec(2, 0, 0)])
    def test_no_layers_leave_the_reference(self, spec):
        ref = Determinant((1 << spec.n_alpha) - 1, (1 << spec.n_beta) - 1)
        state = build_state(LucjParameters(spec.n_orbitals, ()), (ref.alpha, ref.beta), spec)
        assert np.array_equal(state.amplitudes, basis_state(spec, ref).amplitudes)


class TestOrbitalRotation:
    def test_single_particle_givens_split(self):
        spec = SectorSpec(2, 1, 0)
        state = basis_state(spec, Determinant(0b01, 0))
        theta = np.pi / 4
        k = np.array([[0.0, theta], [-theta, 0.0]])
        probs = compound_rotation(state, scipy.linalg.expm(k)).probabilities().ravel()
        assert probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_matches_dense_exponential_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            m = int(rng.integers(2, 6))
            spec = SectorSpec(m, int(rng.integers(0, m + 1)), int(rng.integers(0, m + 1)))
            dets = enumerate_sector(spec)
            k = antisym(rng, m)
            gen = sector_generator_matrix(spec, k, dets)
            start = dets[int(rng.integers(len(dets)))]
            state = compound_rotation(basis_state(spec, start), scipy.linalg.expm(k))
            dense = scipy.linalg.expm(gen)[:, dets.index(start)]
            assert np.abs(state.amplitudes.ravel() - dense).max() <= 1e-10

    def test_one_body_energy_matches_rotated_block(self):
        rng = np.random.default_rng(4)
        for _ in range(4):
            m = int(rng.integers(2, 8))
            na = int(rng.integers(1, m + 1))
            nb = int(rng.integers(0, m + 1))
            spec = SectorSpec(m, na, nb)
            ref = Determinant((1 << na) - 1, (1 << nb) - 1)
            k = antisym(rng, m)
            h = symm(rng, m)
            q = scipy.linalg.expm(k)
            state = compound_rotation(basis_state(spec, ref), q)
            dets = enumerate_sector(spec)
            hmat = sector_generator_matrix(spec, h, dets)
            vec = state.amplitudes.ravel()
            e_state = float(np.real(vec.conj() @ (hmat @ vec)))
            e_expected = np.trace(q[:, :na].T @ h @ q[:, :na])
            e_expected += np.trace(q[:, :nb].T @ h @ q[:, :nb])
            assert e_state == pytest.approx(e_expected, abs=1e-9)

    def test_requires_orthogonal_matrix(self):
        """A rotation reaches a state only as a layer's, which must be orthogonal."""
        z = np.zeros((2, 2))
        with pytest.raises(ValidationError, match="orthogonal"):
            LucjLayer(2 * np.eye(2), z, z)


def random_state(rng, spec):
    shape = (len(half_strings(spec.n_orbitals, spec.n_beta)),
             len(half_strings(spec.n_orbitals, spec.n_alpha)))
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SectorStatevector(spec, amps / np.linalg.norm(amps))


class TestCompoundRotation:
    """The compound-matrix rotation against the Givens-factor oracle."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), n_alpha=st.integers(0, 6), n_beta=st.integers(0, 6),
           seed=st.integers(0, 2**31 - 1), flip=st.booleans())
    def test_matches_givens_oracle(self, m, n_alpha, n_beta, seed, flip):
        """Random orthogonal q with det +1 or -1; an occupation above m is a
        full channel, and 0 an empty one."""
        n_alpha, n_beta = min(n_alpha, m), min(n_beta, m)
        rng = np.random.default_rng(seed)
        q = rot(rng, m)
        if flip:
            q[:, 0] = -q[:, 0]
        assert np.linalg.det(q) == pytest.approx(-1.0 if flip else 1.0)
        state = random_state(rng, SectorSpec(m, n_alpha, n_beta))
        got = compound_rotation(state, q).amplitudes
        assert np.abs(got - givens_rotation(state, q).amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("layers", [1, 2])
    def test_build_state_matches_generator_route(self, layers):
        """A layer with rotation expm(K) gives exp(K) exp(iJ) exp(-K), each
        exponential applied by the Givens oracle."""
        rng = np.random.default_rng(20 + layers)
        for m, n_alpha, n_beta in ((4, 2, 2), (5, 3, 2), (6, 3, 3), (5, 0, 2), (4, 4, 1)):
            spec = SectorSpec(m, n_alpha, n_beta)
            ref = Determinant((1 << n_alpha) - 1, (1 << n_beta) - 1)
            ks = [antisym(rng, m) for _ in range(layers)]
            couplings = [(symm(rng, m), symm(rng, m)) for _ in range(layers)]
            params = LucjParameters(m, tuple(
                LucjLayer(scipy.linalg.expm(k), js, jo) for k, (js, jo) in zip(ks, couplings)))
            want = basis_state(spec, ref)
            for k, (js, jo) in zip(ks, couplings):
                want = givens_rotation(want, scipy.linalg.expm(-k))
                want = apply_density_phase(want, js, jo)
                want = givens_rotation(want, scipy.linalg.expm(k))
            got = build_state(params, (ref.alpha, ref.beta), spec).amplitudes
            assert np.abs(got - want.amplitudes).max() <= 1e-12

    def test_mp2_layer_applies_its_own_orbitals(self):
        """The MP2-seeded layer of the six-site chain applies the orbitals W
        that diagonalize its generator.  This W has det -1 and, with one
        column negated, an eigenvalue pair at -1, where the real part of
        logm(W) is no generator of W: exp of it is off by about 1e-2."""
        m, n = 6, 3
        ints = map_to_electronic(make_chain(m))
        neutral = SectorSpec(m, n, n)
        mf = solve_mean_field(ints, neutral)
        t2, _ = mp2_doubles(mf, rotate_basis(ints, mf.orbital_coefficients), neutral)
        params = lucj_from_t2(t2, m, n)
        layer = params.layers[0]
        pairs = t2.transpose(0, 2, 1, 3).reshape(n * (m - n), n * (m - n))
        vals, vecs = np.linalg.eigh((pairs + pairs.T) / 2)
        gen = np.zeros((m, m))
        gen[:n, n:] = vecs[:, np.argmax(np.abs(vals))].reshape(n, m - n)
        w = np.linalg.eigh(gen + gen.T)[1]
        for spec in (neutral, SectorSpec(m, n + 1, n)):
            ref = mf.reference_for(spec)
            want = givens_rotation(basis_state(spec, Determinant(*ref)), w.T)
            want = givens_rotation(apply_density_phase(want, layer.j_same, layer.j_opposite), w)
            got = build_state(params, ref, spec).amplitudes
            assert np.abs(got - want.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("m, occupations", [
        (8, {4}), (8, {4, 3}), (10, {5, 4}), (10, {0, 2}), (12, {6, 7}), (6, {6, 1}),
    ])
    def test_rotation_bytes_bounds_measured_peak(self, m, occupations):
        q = rot(np.random.default_rng(m), m)
        tracemalloc.start()
        try:
            statevector_mod._compounds(q, occupations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rotation_bytes(m, occupations)

    def test_lopsided_sector_hits_the_cap_before_building(self):
        """18 orbitals with nine alpha electrons and no beta ones is a small
        state, but its alpha compound would take about 19 GB."""
        spec = SectorSpec(18, 9, 0)
        with pytest.raises(CapExceededError, match="orbital rotation"):
            build_state(zero_params(18), ((1 << 9) - 1, 0), spec)


class TestStateInputValidation:
    def test_nonfinite_amplitudes_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            SectorStatevector(SectorSpec(2, 1, 1), np.full((2, 2), np.nan, dtype=complex))

    def test_wrongly_shaped_amplitudes_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            SectorStatevector(SectorSpec(2, 1, 1), np.full(4, 0.5, dtype=complex))

    def test_nonfinite_rotation_rejected(self):
        q = np.eye(2)
        q[0, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            LucjLayer(q, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_wrong_size_rotation_rejected(self):
        """A layer whose rotation is not of the parameters' orbital count is
        refused by the parameters, and parameters of another orbital count
        by ``build_state``."""
        z = np.zeros((3, 3))
        with pytest.raises(ValidationError, match="layer dimension mismatch"):
            LucjParameters(2, (LucjLayer(np.eye(3), z, z),))
        with pytest.raises(ValidationError, match="orbital count mismatch"):
            build_state(zero_params(3), (1, 0), SectorSpec(2, 1, 0))

    def test_nonfinite_couplings_rejected(self):
        state = basis_state(SectorSpec(2, 1, 1), Determinant(1, 1))
        with pytest.raises(ValidationError, match="non-finite"):
            apply_density_phase(state, np.full((2, 2), np.nan), np.zeros((2, 2)))

    def test_layer_rejects_nonfinite_couplings(self):
        quarter_turn = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            LucjLayer(quarter_turn, np.zeros((2, 2)), np.full((2, 2), np.nan))


class TestDensityPhase:
    def test_matches_explicit_occupation_sums(self):
        """Phase per determinant = sum_pq J_ss (na_p na_q + nb_p nb_q)
        + 2 sum_pq J_os na_p nb_q, computed here by explicit loops."""
        from hsqd import apply_density_phase

        rng = np.random.default_rng(13)
        m = 4
        spec = SectorSpec(m, 2, 1)
        js = symm(rng, m)
        jo = symm(rng, m)
        dets = enumerate_sector(spec)
        k = antisym(rng, m)
        state = compound_rotation(
            basis_state(spec, Determinant(0b0011, 0b0001)), scipy.linalg.expm(k)
        )
        out = apply_density_phase(state, js, jo)
        for idx, det in enumerate(dets):
            na = [(det.alpha >> p) & 1 for p in range(m)]
            nb = [(det.beta >> p) & 1 for p in range(m)]
            phase = 0.0
            for p in range(m):
                for q in range(m):
                    phase += js[p, q] * (na[p] * na[q] + nb[p] * nb[q])
                    phase += jo[p, q] * (na[p] * nb[q] + nb[p] * na[q])
            want = state.amplitudes.ravel()[idx] * np.exp(1j * phase)
            assert abs(out.amplitudes.ravel()[idx] - want) <= 1e-12

    def test_full_layer_matches_dense_operator(self):
        """exp(K) exp(iJ) exp(-K) |ref> against dense sector matrices."""
        from hsqd import LucjLayer, LucjParameters

        rng = np.random.default_rng(14)
        m = 4
        spec = SectorSpec(m, 2, 2)
        dets = enumerate_sector(spec)
        k = antisym(rng, m)
        js = symm(rng, m, 0.7)
        jo = symm(rng, m, 0.4)
        ref = Determinant(0b0011, 0b0011)
        params = LucjParameters(m, (LucjLayer(scipy.linalg.expm(k), js, jo),))
        state = build_state(params, (ref.alpha, ref.beta), spec)

        kmat = sector_generator_matrix(spec, k, dets)
        phases = []
        for det in dets:
            na = [(det.alpha >> p) & 1 for p in range(m)]
            nb = [(det.beta >> p) & 1 for p in range(m)]
            phase = 0.0
            for p in range(m):
                for q in range(m):
                    phase += js[p, q] * (na[p] * na[q] + nb[p] * nb[q])
                    phase += jo[p, q] * (na[p] * nb[q] + nb[p] * na[q])
            phases.append(phase)
        u = scipy.linalg.expm(kmat) @ np.diag(np.exp(1j * np.array(phases))) \
            @ scipy.linalg.expm(-kmat)
        want = u[:, dets.index(ref)]
        assert np.abs(state.amplitudes.ravel() - want).max() <= 1e-10


class TestRotationProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_rotation_composition(self, seed):
        """Applying Q then Q^T returns the starting state."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        na = int(rng.integers(1, m + 1))
        spec = SectorSpec(m, na, 0)
        ref = Determinant((1 << na) - 1, 0)
        q = rot(rng, m)
        state = basis_state(spec, ref)
        out = compound_rotation(compound_rotation(state, q), q.T)
        assert np.abs(out.amplitudes - state.amplitudes).max() <= 1e-10


class TestSampling:
    def test_concentrated_state(self):
        spec = SectorSpec(3, 1, 1)
        ref = Determinant(0b100, 0b010)
        out = sample(basis_state(spec, ref), shots=777, seed=5)
        assert out.counts == {ref: 777}
        assert out.shots == 777
        assert out.provenance == "simulated"

    def test_counts_match_the_draw(self):
        """One multinomial draw over the canonical order: the counts dict
        holds each drawn determinant once, in that order, with Python ints
        for its words and counts."""
        rng = np.random.default_rng(15)
        spec = SectorSpec(5, 3, 2)
        state = random_state(rng, spec)
        out = sample(state, 3000, seed=4)
        draws = np.random.default_rng(4).multinomial(3000, state.probabilities().ravel())
        dets = enumerate_sector(spec)
        assert list(out.counts.items()) == [(dets[i], int(draws[i]))
                                            for i in np.flatnonzero(draws)]
        for det, count in out.counts.items():
            assert type(det.alpha) is int and type(det.beta) is int and type(count) is int

    def test_seed_determinism(self):
        rng = np.random.default_rng(6)
        spec = SectorSpec(4, 2, 2)
        ref = Determinant(0b0011, 0b0011)
        params = LucjParameters(4, (LucjLayer(rot(rng, 4), symm(rng, 4), symm(rng, 4)),))
        state = build_state(params, (ref.alpha, ref.beta), spec)
        a = sample(state, 5000, seed=42)
        b = sample(state, 5000, seed=42)
        assert a.counts == b.counts

    def test_uniform_four_state_frequencies(self):
        spec = SectorSpec(2, 1, 1)
        amps = np.full((2, 2), 0.5, dtype=complex)
        from hsqd.statevector import SectorStatevector

        state = SectorStatevector(spec, amps)
        shots = 10**6
        sigma = np.sqrt(0.25 * 0.75 / shots)
        out = sample(state, shots, seed=9)
        for det, count in out.counts.items():
            assert abs(count / shots - 0.25) <= 5 * sigma

    def test_total_variation_shrinks_with_shots(self):
        rng = np.random.default_rng(7)
        spec = SectorSpec(4, 2, 2)
        ref = Determinant(0b0011, 0b0011)
        params = LucjParameters(4, (LucjLayer(rot(rng, 4), symm(rng, 4), symm(rng, 4)),))
        state = build_state(params, (ref.alpha, ref.beta), spec)
        p = state.probabilities().ravel()
        dets = enumerate_sector(spec)
        levels = [2_000, 32_000, 512_000]
        tvs = []
        for shots in levels:
            tv_acc = []
            for seed in range(3):
                out = sample(state, shots, seed=seed)
                emp = np.zeros_like(p)
                for det, count in out.counts.items():
                    emp[dets.index(det)] = count / shots
                tv_acc.append(0.5 * np.abs(emp - p).sum())
            tvs.append(np.mean(tv_acc))
        # 16x more shots should shrink the distance by roughly 4; allow slack
        assert tvs[1] < tvs[0]
        assert tvs[2] < tvs[1]
        assert tvs[2] < tvs[0] / 4

    def test_shots_validated(self):
        spec = SectorSpec(2, 1, 0)
        state = basis_state(spec, Determinant(1, 0))
        with pytest.raises(ValidationError):
            sample(state, 0)


class TestSampleFiles:
    def test_format_definition(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0110 500\n")
        out = load_samples(path, SectorSpec(2, 1, 1))
        det = Determinant(0b10, 0b01)  # alpha from right half, beta from left
        assert out.counts == {det: 500}
        assert out.provenance == "file"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ValidationError, match="no samples"):
            load_samples(path, SectorSpec(2, 1, 1))

    def test_duplicates_accumulate(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0101 10\n0101 32\n")
        out = load_samples(path, SectorSpec(2, 1, 1))
        assert out.counts == {Determinant(0b01, 0b01): 42}
        assert out.shots == 42

    def test_malformed_lines_rejected(self, tmp_path):
        spec = SectorSpec(2, 1, 1)
        for content in ("011 5\n", "0110\n", "0110 x\n", "0120 5\n", "0110 -3\n"):
            path = tmp_path / "bad.txt"
            path.write_text(content)
            with pytest.raises(ValidationError):
                load_samples(path, spec)

    def test_comments_and_blanks_allowed(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\n0110 5  # trailing comment\n")
        out = load_samples(path, SectorSpec(2, 1, 1))
        assert out.shots == 5

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        spec = SectorSpec(3, 2, 1)
        ref = Determinant(0b011, 0b100)
        params = LucjParameters(3, (LucjLayer(rot(rng, 3), symm(rng, 3), symm(rng, 3)),))
        state = build_state(params, (ref.alpha, ref.beta), spec)
        original = sample(state, 20_000, seed=11)
        save_samples(original, tmp_path / "r.txt")
        back = load_samples(tmp_path / "r.txt", spec)
        assert back.counts == original.counts
        assert back.shots == original.shots

    def test_written_bytes(self, tmp_path):
        """``save_samples`` writes beta word then alpha word, orbital M-1
        leftmost, one line per determinant in ascending (beta, alpha) order,
        whatever order the counts come in."""
        counts = {Determinant(0b001, 0b100): 3, Determinant(0b100, 0b001): 7,
                  Determinant(0b010, 0b001): 5}
        save_samples(SampleSet(3, counts, 15, None, "simulated"), tmp_path / "w.txt")
        assert (tmp_path / "w.txt").read_bytes() == b"001010 5\n001100 7\n100001 3\n"
        assert load_samples(tmp_path / "w.txt", SectorSpec(3, 1, 1)).counts == counts

    def test_counts_must_match_shots(self):
        with pytest.raises(ValidationError):
            SampleSet(2, {Determinant(1, 1): 5}, 6, None, "file")
