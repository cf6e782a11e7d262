"""Acceptance suite: one test per release criterion, each at its stated
tolerance, with a printed pass/fail line."""

import time

import numpy as np

from hsqd import (
    Determinant,
    LatticeHamiltonian,
    SectorSpec,
    SelectionSchedule,
    WorkflowConfig,
    build_state,
    extsqd_expand,
    fci_ground,
    filter_samples,
    hci_ground,
    load_lattice,
    lucj_from_t2,
    map_to_electronic,
    mp2_doubles,
    read_fcidump,
    rotate_basis,
    run_workflow,
    sample,
    save_lattice,
    sector_specs,
    single_particle_gap,
    solve_mean_field,
    solve_subspace,
    sqd_sweep,
    write_fcidump,
)
from hsqd.cli import main as cli_main

from conftest import make_chain, random_lattice
from oracles import basis_state, enumerate_sector, givens_rotation, lattice_apply, matrix_element


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed {suffix}"


def test_dimer_end_to_end(tmp_path):
    """Every solver reproduces the analytic dimer sector energies and gap
    within 1e-8, in under a second."""
    t0 = time.time()
    lattice_path = tmp_path / "dimer.json"
    save_lattice(
        LatticeHamiltonian(2, [[0.0, -1.0], [-1.0, 0.0]], [4.0, 4.0], np.zeros((2, 2))),
        lattice_path,
    )
    config = WorkflowConfig(
        lattice_path=str(lattice_path),
        n_electrons=2,
        solvers=("fci", "hci", "sqd", "extsqd"),
        fractions=(0.5, 1.0),
        extsqd_threshold=1e-4,
        shots=100_000,
        seed=3,
    )
    rep, _ = run_workflow(config)
    elapsed = time.time() - t0
    expected = {"Ne-1": -1.0, "Ne": 2.0 - 2.0 * np.sqrt(2.0), "Ne+1": 3.0}
    ok = True
    for label, e_ref in expected.items():
        for solver in config.solvers:
            ok = ok and abs(rep.sector_energies[label][solver] - e_ref) <= 1e-8
    gap_ref = 4.0 * np.sqrt(2.0) - 2.0
    for solver in config.solvers:
        ok = ok and abs(rep.gaps[solver] - gap_ref) <= 1e-8
    ok = ok and elapsed < 1.0
    report("dimer-end-to-end", ok, f"elapsed {elapsed:.3f}s")


def test_operator_mapping_equivalence():
    """Mapped integrals reproduce the direct lattice-operator matrix elements
    on 50 random lattices (M <= 6) within 1e-12, every element."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        lat = random_lattice(rng)
        m = lat.n_orbitals
        ints = map_to_electronic(lat)
        spec = SectorSpec(m, int(rng.integers(0, m + 1)), int(rng.integers(0, m + 1)))
        dets = enumerate_sector(spec)
        for ket in dets:
            column = lattice_apply(ket, lat)
            for bra in dets:
                want = column.get((bra.alpha, bra.beta), 0.0)
                got = matrix_element(bra, ket, ints)
                worst = max(worst, abs(want - got))
    report("operator-mapping-equivalence", worst <= 1e-12, f"max |delta| = {worst:.2e}")


def test_variational_chain():
    """FCI <= Ext-SQD <= SQD <= HF on 20 random instances, with SQD
    non-increasing along nested fraction sweeps."""
    rng = np.random.default_rng(77)
    slack = 1e-12
    ok = True
    for _ in range(20):
        m = int(rng.integers(2, 7))
        lat = random_lattice(rng, m=m)
        ints = map_to_electronic(lat)
        na = int(rng.integers(1, m + 1))
        spec = SectorSpec(m, na, na)
        mf = solve_mean_field(ints, spec)
        mo = rotate_basis(ints, mf.orbital_coefficients)
        try:
            t2, _ = mp2_doubles(mf, mo, spec)
            params = lucj_from_t2(t2, m, na)
            state = build_state(params, mf.reference_for(spec), spec)
        except Exception:
            # degenerate mean field: sample around the bare reference instead
            state = basis_state(spec, Determinant(*mf.reference_for(spec)))
        smp = filter_samples(sample(state, 50_000, seed=5), spec)
        fractions = [0.25, 0.5, 1.0] if spec.dimension() >= 4 else [1.0]
        points = sqd_sweep(smp, spec, mo, fractions, reference=mf.reference_for(spec))
        energies = [p.result.energy for p in points]
        ok = ok and all(b <= a + slack for a, b in zip(energies, energies[1:]))
        mid = points[0]
        expanded = extsqd_expand(mid.result, mid.basis, 1e-4, {1})
        e_ext = solve_subspace(expanded, mo).energy
        e_fci = fci_ground(spec, ints).energy
        e_sqd = mid.result.energy
        ok = ok and (e_fci <= e_ext + slack <= e_sqd + 2 * slack)
        ok = ok and (e_sqd <= mf.hf_energy + slack)
    report("variational-chain", ok)


def test_fraction_sweep_analogue():
    """Six-site half-filled chain: simulated sampling gives a monotone
    error-vs-fraction curve hitting 1e-8 at fraction 1.0, and the expansion
    reaches matching accuracy at a strictly smaller fraction than the plain
    sweep on at least one intermediate point."""
    lat = make_chain(6)
    ints = map_to_electronic(lat)
    spec = SectorSpec(6, 3, 3)
    mf = solve_mean_field(ints, spec)
    mo = rotate_basis(ints, mf.orbital_coefficients)
    t2, _ = mp2_doubles(mf, mo, spec)
    params = lucj_from_t2(t2, 6, 3)
    state = build_state(params, mf.reference_for(spec), spec)
    smp = filter_samples(sample(state, 2_500_000, seed=7), spec)
    e_fci = fci_ground(spec, ints).energy

    fractions = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    points = sqd_sweep(smp, spec, mo, fractions, reference=mf.reference_for(spec))
    errors = [p.result.energy - e_fci for p in points]
    monotone = all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    reaches_fci = abs(errors[-1]) <= 1e-8

    beats_plain = False
    for start in points[:-1]:
        expanded = extsqd_expand(start.result, start.basis, 1e-4, {1})
        err_ext = solve_subspace(expanded, mo).energy - e_fci
        needed = next(
            (p.fraction for p in points if p.result.energy - e_fci <= err_ext + 1e-15),
            None,
        )
        if needed is not None and expanded.fraction < needed:
            beats_plain = True
            break
    report(
        "fraction-sweep-analogue",
        monotone and reaches_fci and beats_plain,
        f"final error {errors[-1]:.2e}",
    )


def test_variance_diagnostic():
    """Selected CI at exhaustive coverage reaches relative variance <= 1e-12
    on every desk-scale instance."""
    rng = np.random.default_rng(5)
    instances = [
        (map_to_electronic(make_chain(2)), SectorSpec(2, 1, 1)),
        (map_to_electronic(make_chain(4)), SectorSpec(4, 2, 2)),
        (map_to_electronic(make_chain(4, v=0.4)), SectorSpec(4, 2, 2)),
        (map_to_electronic(make_chain(6)), SectorSpec(6, 3, 3)),
        (map_to_electronic(random_lattice(rng, m=5)), SectorSpec(5, 2, 2)),
        (map_to_electronic(random_lattice(rng, m=6)), SectorSpec(6, 2, 3)),
    ]
    worst = 0.0
    for ints, spec in instances:
        stages = hci_ground(spec, ints, SelectionSchedule(epsilons=(1e-1, 1e-13)))
        var = stages[-1].result.variance
        assert var is not None
        worst = max(worst, var)
    report("variance-diagnostic", worst <= 1e-12, f"max variance {worst:.2e}")


def test_gap_agreement_analogue(tmp_path):
    """Four-site chain with a saturating expansion threshold: the expanded
    subspace and FCI gaps agree to 1e-6 eV."""
    save_lattice(make_chain(4), tmp_path / "c4.json")
    config = WorkflowConfig(
        lattice_path=str(tmp_path / "c4.json"),
        n_electrons=4,
        solvers=("fci", "extsqd"),
        fractions=(0.5, 1.0),
        extsqd_threshold=0.0,
        extsqd_levels=(1,),
        shots=200_000,
        seed=5,
    )
    rep, _ = run_workflow(config)
    delta = abs(rep.gap_deltas["fci-extsqd"])
    report("gap-agreement-analogue", delta <= 1e-6, f"|delta| = {delta:.2e} eV")


def test_sampler_statistics():
    """A quarter-turn two-orbital rotation of a one-particle state samples
    (0.5, 0.5) within five binomial standard deviations, ten seeds."""
    spec = SectorSpec(2, 1, 0)
    theta = np.pi / 4
    q = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    state = givens_rotation(basis_state(spec, Determinant(0b01, 0)), q)
    shots = 10**6
    sigma = np.sqrt(0.25 / shots)
    ok = True
    for seed in range(10):
        out = sample(state, shots, seed=seed)
        freq0 = out.counts.get(Determinant(0b01, 0), 0) / shots
        ok = ok and abs(freq0 - 0.5) <= 5 * sigma
    report("sampler-statistics", ok)


def test_noninteracting_reduction(tmp_path):
    """With U = V = 0 the many-body gap equals the hopping HOMO-LUMO
    splitting within 1e-10, on 20 random hopping matrices."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(20):
        m = int(rng.integers(2, 7))
        t = rng.normal(size=(m, m))
        t = (t + t.T) / 2
        lat = LatticeHamiltonian(m, t, np.zeros(m), np.zeros((m, m)))
        n_e = 2 * int(rng.integers(1, m))
        ints = map_to_electronic(lat)
        specs = sector_specs(m, n_e)
        energies = {lbl: fci_ground(specs[lbl], ints).energy for lbl in specs}
        many_body = energies["Ne-1"] + energies["Ne+1"] - 2 * energies["Ne"]
        worst = max(worst, abs(many_body - single_particle_gap(lat, n_e // 2)))
    report("noninteracting-reduction", worst <= 1e-10, f"max |delta| = {worst:.2e}")


def test_format_round_trips(tmp_path):
    """Lattice JSON and FCIDUMP write-then-read identity within 1e-12, and
    the CLI rejects malformed sample files with exit code 2."""
    rng = np.random.default_rng(13)
    ok = True

    lat = random_lattice(rng, m=5)
    save_lattice(lat, tmp_path / "l.json")
    back = load_lattice(tmp_path / "l.json")
    ok = ok and np.abs(back.hopping - lat.hopping).max() <= 1e-12
    ok = ok and np.abs(back.u_intra - lat.u_intra).max() <= 1e-12
    ok = ok and np.abs(back.v_inter - lat.v_inter).max() <= 1e-12

    write_fcidump(map_to_electronic(lat), tmp_path / "a.dump", nelec=4)
    ints = read_fcidump(tmp_path / "a.dump")  # spin-free representable form
    write_fcidump(ints, tmp_path / "b.dump", nelec=4)
    again = read_fcidump(tmp_path / "b.dump")
    ok = ok and np.abs(again.one_body - ints.one_body).max() <= 1e-12
    ok = ok and np.abs(
        again.two_body_opposite_spin - ints.two_body_opposite_spin
    ).max() <= 1e-12
    ok = ok and np.abs(
        again.two_body_same_spin - ints.two_body_same_spin
    ).max() <= 1e-12

    # malformed sample file must exit with code 2 through the CLI
    save_lattice(make_chain(2), tmp_path / "dimer.json")
    (tmp_path / "bad_samples.txt").write_text("01x0 12\n")
    (tmp_path / "run.toml").write_text(
        f'lattice_path = "{tmp_path / "dimer.json"}"\n'
        "n_electrons = 2\n"
        'solvers = ["sqd"]\n'
        "fractions = [1.0]\n"
        f'samples_ne = "{tmp_path / "bad_samples.txt"}"\n'
        f'out_dir = "{tmp_path / "out"}"\n'
    )
    code = cli_main(["run", str(tmp_path / "run.toml")])
    ok = ok and code == 2
    report("format-round-trips", ok, f"cli exit {code}")
