import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqd import (
    CapExceededError,
    Determinant,
    SectorSpec,
    SelectionSchedule,
    ValidationError,
    fci_ground,
    hci_ground,
    map_to_electronic,
    rotate_basis,
    solve_mean_field,
)
from hsqd import errors as errors_mod
from hsqd import selci as selci_mod
from hsqd import strings as strings_mod
from hsqd.strings import columns_bytes

from conftest import DIMER_E, make_chain, random_lattice
from oracles import (
    dense_fock_hamiltonian,
    dense_heat_bath_ci,
    enumerate_sector,
    fock_index,
    generate_excitations,
    hci_ground_reference,
    matrix_element,
)


def stage_words(stage):
    """The (alpha, beta) words of a stage's determinants, in join order."""
    return list(zip(stage.alpha.tolist(), stage.beta.tolist()))


class TestFciGround:
    def test_dimer_half_filling(self, dimer_ints):
        res = fci_ground(SectorSpec(2, 1, 1), dimer_ints)
        assert res.energy == pytest.approx(DIMER_E[(1, 1)], abs=1e-10)
        assert res.converged

    def test_single_electron(self, dimer_ints):
        assert fci_ground(SectorSpec(2, 1, 0), dimer_ints).energy == pytest.approx(-1.0, abs=1e-12)

    def test_three_electron_sector(self, dimer_ints):
        assert fci_ground(SectorSpec(2, 2, 1), dimer_ints).energy == pytest.approx(3.0, abs=1e-10)

    def test_cap_exceeded(self, dimer_ints, monkeypatch):
        monkeypatch.setattr(errors_mod, "SECTOR_CAP", 2)
        with pytest.raises(CapExceededError):
            fci_ground(SectorSpec(2, 1, 1), dimer_ints)

    def test_basis_independence(self):
        rng = np.random.default_rng(2)
        lat = random_lattice(rng, m=4)
        ints = map_to_electronic(lat)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        spec = SectorSpec(4, 2, 2)
        assert fci_ground(spec, rotate_basis(ints, q)).energy == pytest.approx(
            fci_ground(spec, ints).energy, abs=1e-9
        )


class TestSelectionSchedule:
    def test_epsilons_must_descend(self):
        with pytest.raises(ValidationError):
            SelectionSchedule(epsilons=(1e-3, 1e-2))

    @pytest.mark.parametrize("epsilons, cap", [((math.nan,), 10), ((1e-1, math.nan), 10),
                                               ((math.inf, 1e-3), 10), ((1e-3,), 0), ((1e-3,), -1)])
    def test_non_finite_epsilons_and_empty_cap_rejected(self, epsilons, cap):
        """Reachable through the API only, as the config reader rejects
        non-finite numbers; a cap of 0 gave a one-determinant stage."""
        with pytest.raises(ValidationError):
            SelectionSchedule(epsilons=epsilons, max_determinants=cap)

    def test_exactly_one_mode(self):
        with pytest.raises(ValidationError):
            SelectionSchedule()


class TestHciGround:
    def test_exhaustive_epsilon_recovers_fci(self, dimer_ints):
        spec = SectorSpec(2, 1, 1)
        stages = hci_ground(spec, dimer_ints, SelectionSchedule(epsilons=(1e-12,)))
        assert stages[-1].result.energy == pytest.approx(
            fci_ground(spec, dimer_ints).energy, abs=1e-10
        )

    def test_chain_schedule_monotone_to_fci(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        mf = solve_mean_field(ints, spec)
        mo = rotate_basis(ints, mf.orbital_coefficients)
        stages = hci_ground(
            spec, mo, SelectionSchedule(epsilons=(1e-1, 1e-3, 1e-10)),
            reference=mf.reference_for(spec),
        )
        energies = [s.result.energy for s in stages]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert energies[-1] == pytest.approx(fci_ground(spec, ints).energy, abs=1e-10)

    def test_variance_reaches_roundoff_at_full_coverage(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        stages = hci_ground(spec, ints, SelectionSchedule(epsilons=(1e-12,)))
        assert stages[-1].result.variance is not None
        assert stages[-1].result.variance <= 1e-12

    def test_variance_decreases_with_growth(self):
        lat = make_chain(4, v=0.4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        mf = solve_mean_field(ints, spec)
        mo = rotate_basis(ints, mf.orbital_coefficients)
        stages = hci_ground(
            spec, mo, SelectionSchedule(epsilons=(5e-1, 1e-2, 1e-10)),
            reference=mf.reference_for(spec),
        )
        variances = [s.result.variance for s in stages if s.result.variance is not None]
        assert all(b <= a + 1e-13 for a, b in zip(variances, variances[1:]))

    def test_determinants_never_removed(self, dimer_ints):
        spec = SectorSpec(2, 1, 1)
        stages = hci_ground(spec, dimer_ints, SelectionSchedule(epsilons=(1e-1, 1e-8)))
        for early, late in zip(stages, stages[1:]):
            assert set(stage_words(early)) <= set(stage_words(late))

    def test_cap_respected(self):
        lat = make_chain(4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        stages = hci_ground(
            spec, ints, SelectionSchedule(epsilons=(1e-12,), max_determinants=10)
        )
        assert stages[-1].size <= 10

    def test_converges_to_fci_at_six_orbitals(self):
        rng = np.random.default_rng(6)
        lat = random_lattice(rng, m=6)
        ints = map_to_electronic(lat)
        spec = SectorSpec(6, 2, 2)
        stages = hci_ground(spec, ints, SelectionSchedule(epsilons=(1e-1, 1e-4, 1e-12)))
        assert stages[-1].result.energy == pytest.approx(
            fci_ground(spec, ints).energy, abs=1e-9
        )

    def test_density_density_connections_are_single_hops(self):
        """For density-density integrals every determinant coupled to d is a
        single excitation of d."""
        rng = np.random.default_rng(5)
        lat = random_lattice(rng, m=4)
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        dets = enumerate_sector(spec)
        for det in dets[:6]:
            singles = set(generate_excitations(det, 4, {1}))
            coupled = {
                other for other in dets
                if other != det and matrix_element(other, det, ints) != 0.0
            }
            assert coupled <= singles

    def test_reference_outside_sector_rejected(self, monkeypatch):
        """A (1, 1) reference in a (2, 2) sector used to return the (1, 1)
        ground energy as a (2, 2) stage; it is refused before any work."""
        def fail(*args):
            raise AssertionError("hamiltonian_columns called")

        monkeypatch.setattr(selci_mod, "hamiltonian_columns", fail)
        ints = map_to_electronic(make_chain(4))
        schedule = SelectionSchedule(epsilons=(1e-3,))
        for ref in ((0b1, 0b1), (0b11, 0b1), (0b11, 0b10001)):
            with pytest.raises(ValidationError, match="outside the sector"):
                hci_ground(SectorSpec(4, 2, 2), ints, schedule, reference=ref)

    def test_memory_cap_raises_before_building(self, dimer_ints, monkeypatch):
        def fail(*args):
            raise AssertionError("string arrays built")

        monkeypatch.setattr(errors_mod, "MEMORY_CAP", 0)
        monkeypatch.setattr(strings_mod, "_one_spin_entries", fail)
        with pytest.raises(CapExceededError):
            hci_ground(SectorSpec(2, 1, 1), dimer_ints, SelectionSchedule(epsilons=(1e-3,)))


def _integrals(rng, m, complex_hopping, rotate):
    ints = map_to_electronic(random_lattice(rng, m=m, complex_hopping=complex_hopping))
    if rotate:
        z = rng.normal(size=(m, m))
        if complex_hopping:
            z = z + 1j * rng.normal(size=(m, m))
        ints = rotate_basis(ints, np.linalg.qr(z)[0])
    return ints


class TestHciAgainstDenseOracle:
    """hci_ground against heat-bath selection by enumeration on the explicit
    Fock-space matrix, which shares no code with the string engine."""

    @staticmethod
    def _compare(spec, ints, reference, schedule):
        sector = enumerate_sector(spec)
        idx = [fock_index(d, spec.n_orbitals) for d in sector]
        ham = dense_fock_hamiltonian(ints).tocsr()[idx][:, idx].toarray()
        want = dense_heat_bath_ci(ham, sector, reference, schedule.epsilons,
                                  schedule.max_determinants)
        stages = hci_ground(spec, ints, schedule, reference=(reference.alpha, reference.beta))
        assert len(stages) == len(want)
        for stage, (dets, energy) in zip(stages, want):
            assert set(stage_words(stage)) == {(d.alpha, d.beta) for d in dets}
            assert stage.result.energy == pytest.approx(energy, abs=1e-12)
            # the variance from the stage's own columns against the dense
            # sector matrix; the absolute floor admits round-off where the
            # stage reached the whole sector and the variance vanishes
            pos = {(det.alpha, det.beta): i for i, det in enumerate(sector)}
            c = np.zeros(len(sector), dtype=stage.result.ci_vector.dtype)
            c[[pos[words] for words in stage_words(stage)]] = stage.result.ci_vector
            s = ham @ c
            h1 = np.vdot(c, s).real
            if abs(h1) < 1e-14:
                assert stage.result.variance is None
            else:
                full = np.linalg.norm(s - h1 * c) ** 2 / h1**2
                assert stage.result.variance == pytest.approx(full, rel=1e-10, abs=1e-13)
        return stages, want

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        complex_hopping=st.booleans(),
        rotate=st.booleans(),
    )
    def test_same_sets_and_energies(self, data, m, seed, complex_hopping, rotate):
        spec = SectorSpec(m, data.draw(st.integers(0, m), label="n_alpha"),
                          data.draw(st.integers(0, m), label="n_beta"))
        rng = np.random.default_rng(seed)
        ints = _integrals(rng, m, complex_hopping, rotate)
        sector = enumerate_sector(spec)
        reference = sector[int(rng.integers(len(sector)))]
        self._compare(spec, ints, reference, SelectionSchedule(epsilons=(0.5, 0.05, 1e-4)))

    @pytest.mark.parametrize("cap", [2, 7, 15])
    def test_size_cap_keeps_the_most_important(self, cap):
        """The cap cuts a round's candidates by importance, so the insertion
        order matches too."""
        rng = np.random.default_rng(11)
        ints = _integrals(rng, 4, complex_hopping=True, rotate=True)
        spec = SectorSpec(4, 2, 1)
        schedule = SelectionSchedule(epsilons=(0.3, 1e-3), max_determinants=cap)
        stages, want = self._compare(spec, ints, Determinant(0b11, 0b1), schedule)
        assert ([stage_words(stage) for stage in stages]
                == [[(d.alpha, d.beta) for d in dets] for dets, _ in want])
        assert stages[-1].size == cap


def _record_rounds(monkeypatch):
    """Wrap the column store's ``extend`` and ``selci.hamiltonian_columns``:
    returns a list with one entry per round, the determinants of each
    ``hamiltonian_columns`` call of that round, and a dict that holds the
    store and the round's target size."""
    rounds, current = [], {}
    extend, columns = selci_mod._ColumnStore.extend, selci_mod.hamiltonian_columns

    def record_extend(self, alpha, beta):
        current["store"], current["size"] = self, len(self.members) + len(alpha)
        rounds.append([])
        return extend(self, alpha, beta)

    def record_columns(ints, alpha, beta):
        rounds[-1].append(list(zip(alpha.tolist(), beta.tolist())))
        return columns(ints, alpha, beta)

    monkeypatch.setattr(selci_mod._ColumnStore, "extend", record_extend)
    monkeypatch.setattr(selci_mod, "hamiltonian_columns", record_columns)
    return rounds, current


class TestHciColumnStore:
    """hci_ground keeps H[:, set] across rounds; ``hci_ground_reference``
    rebuilds it over the whole set every round."""

    @staticmethod
    def _same_stages(stages, want, exact_energies=False):
        assert len(stages) == len(want)
        for stage, ref in zip(stages, want):
            # the same sets, in the same insertion order
            assert stage_words(stage) == stage_words(ref)
            assert (stage.cutoff, stage.size, stage.fraction) == (ref.cutoff, ref.size, ref.fraction)
            if exact_energies:
                assert stage.result.energy == ref.result.energy
            assert stage.result.energy == pytest.approx(ref.result.energy, abs=1e-12)
            if ref.result.variance is None:
                assert stage.result.variance is None
            else:
                # the absolute floor admits round-off where the variance vanishes
                assert stage.result.variance == pytest.approx(ref.result.variance,
                                                              rel=1e-10, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        complex_hopping=st.booleans(),
        rotate=st.booleans(),
        epsilons=st.sampled_from([(0.5, 0.05, 1e-4), (1e-1, 1e-3, 1e-6), (0.3,), (1e-2, 1e-8)]),
        cap=st.sampled_from([2, 7, 30, 10**6]),
    )
    def test_same_stages_as_rebuilding_oracle(self, data, m, seed, complex_hopping, rotate,
                                              epsilons, cap):
        """A spin-symmetric reference keeps pairs of determinants whose
        importances tie up to round-off; their order then depends on the last
        bits of the columns, so this also checks that a column's bits do not
        depend on which determinants were built with it."""
        spec = SectorSpec(m, data.draw(st.integers(0, m), label="n_alpha"),
                          data.draw(st.integers(0, m), label="n_beta"))
        rng = np.random.default_rng(seed)
        ints = _integrals(rng, m, complex_hopping, rotate)
        sector = enumerate_sector(spec)
        det = sector[int(rng.integers(len(sector)))]
        reference = (det.alpha, det.beta)
        if spec.n_alpha == spec.n_beta and data.draw(st.booleans(), label="spin_symmetric"):
            reference = (det.alpha, det.alpha)
        schedule = SelectionSchedule(epsilons=epsilons, max_determinants=cap)
        self._same_stages(hci_ground(spec, ints, schedule, reference=reference),
                          hci_ground_reference(spec, ints, schedule, reference=reference),
                          exact_energies=True)

    def test_each_determinant_built_once(self, monkeypatch):
        rounds, _ = _record_rounds(monkeypatch)
        ints = _integrals(np.random.default_rng(4), 6, complex_hopping=False, rotate=True)
        stages = hci_ground(SectorSpec(6, 3, 2), ints, SelectionSchedule(epsilons=(0.1, 1e-3, 1e-6)))
        built = [det for calls in rounds for call in calls for det in call]
        assert len(rounds) > 3
        assert len(built) == len(set(built))
        assert built == stage_words(stages[-1])

    def test_chunked_rounds_match_unchunked(self, monkeypatch):
        """A cap that splits the largest round into three or more chunks
        leaves every stage as it was: each column has the same bits
        whichever chunk built it, so the energies agree exactly."""
        ints = _integrals(np.random.default_rng(9), 6, complex_hopping=True, rotate=True)
        spec = SectorSpec(6, 3, 3)
        schedule = SelectionSchedule(epsilons=(0.1, 1e-3, 1e-6))
        rounds, current = _record_rounds(monkeypatch)
        want = hci_ground(spec, ints, schedule)
        store = current["store"]
        largest = max(len(call) for calls in rounds for call in calls)
        cap = store._kept_bytes(len(store.members)) + columns_bytes(largest // 8, spec, ints)
        monkeypatch.setattr(errors_mod, "MEMORY_CAP", cap)
        rounds.clear()
        stages = hci_ground(spec, ints, schedule)
        assert max(len(calls) for calls in rounds) >= 3
        self._same_stages(stages, want, exact_energies=True)
        # the stores themselves: H[S, S] and the importances bit for bit, and
        # H[:, S] c to round-off, as a sparse matvec need not keep its sums' order
        chunked, c = current["store"], want[-1].result.ci_vector
        assert np.array_equal(chunked.square().toarray(), store.square().toarray())
        assert np.array_equal(chunked.importance(c), store.importance(c))
        assert np.abs(chunked.sigma(c) - store.sigma(c)).max() <= 1e-12

    def test_columns_estimated_once_per_store(self, monkeypatch):
        """A run estimates the columns' bytes twice, in the store's
        constructor, and no column build estimates them again."""
        callers = []
        estimate = strings_mod.columns_bytes

        def record(*args):
            callers.append(sys._getframe(1).f_code.co_qualname)
            return estimate(*args)

        monkeypatch.setattr(strings_mod, "columns_bytes", record)
        monkeypatch.setattr(selci_mod, "columns_bytes", record)
        rounds, _ = _record_rounds(monkeypatch)
        ints = _integrals(np.random.default_rng(4), 6, complex_hopping=False, rotate=True)
        hci_ground(SectorSpec(6, 3, 2), ints, SelectionSchedule(epsilons=(0.1, 1e-3, 1e-6)))
        assert len(rounds) > 3
        assert callers == ["_ColumnStore.__init__"] * 2

    def test_cap_raises_before_a_chunk_that_cannot_fit(self, monkeypatch):
        """After the first round the cap drops to one determinant's columns,
        so the kept columns plus one more exceed it: the next round raises
        before it calls ``hamiltonian_columns``."""
        ints = map_to_electronic(make_chain(4))
        spec = SectorSpec(4, 2, 2)
        calls = []
        columns = selci_mod.hamiltonian_columns

        def first_only(ints_, alpha, beta):
            if calls:
                raise AssertionError("hamiltonian_columns called past the cap")
            calls.append(len(alpha))
            out = columns(ints_, alpha, beta)
            monkeypatch.setattr(errors_mod, "MEMORY_CAP", columns_bytes(1, spec, ints_))
            return out

        monkeypatch.setattr(selci_mod, "hamiltonian_columns", first_only)
        with pytest.raises(CapExceededError, match="memory cap"):
            hci_ground(spec, ints, SelectionSchedule(epsilons=(1e-3,)))
        assert calls == [1]

    def test_peak_within_accounted_bytes(self, monkeypatch):
        """An M = 8 rotated run of 500 determinants, traced from fresh
        integrals: between two ``hamiltonian_columns`` calls the traced peak
        stays under what the store accounted there, the kept bytes plus the
        chunk's ``columns_bytes`` while the chunk is built and the kept bytes
        while the round reads the store."""
        ints = _integrals(np.random.default_rng(3), 8, complex_hopping=False, rotate=True)
        spec = SectorSpec(8, 4, 3)
        rounds, current = _record_rounds(monkeypatch)
        peaks, builds, kept = [], [], []
        columns = selci_mod.hamiltonian_columns

        def measure(ints_, alpha, beta):
            peaks.append(tracemalloc.get_traced_memory()[1])
            kept.append(current["store"]._kept_bytes(current["size"]))
            builds.append(kept[-1] + columns_bytes(len(alpha), spec, ints_))
            tracemalloc.reset_peak()
            return columns(ints_, alpha, beta)

        monkeypatch.setattr(selci_mod, "hamiltonian_columns", measure)
        tracemalloc.start()
        try:
            stages = hci_ground(spec, ints, SelectionSchedule(epsilons=(0.1, 1e-3),
                                                              max_determinants=500))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        store = current["store"]
        kept.append(store._kept_bytes(len(store.members)))
        assert stages[-1].size == 500
        for i, build in enumerate(builds):
            assert peaks[i + 1] <= max(build, kept[i + 1])
