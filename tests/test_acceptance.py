"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines
as they happen; without ``-s`` pytest shows them for failing tests only.
Criterion 1 asserts on wall time of the exact analyzer and criterion 7 on
the shared seed-42 Monte Carlo fixture, whose time is the build of each
config's branch tree plus a vectorized walk of its 1e5 rounds.
"""

import math
import time

import numpy as np

from oracle_tools import ket, project, z_projector
from wqsc import cli
from wqsc.attacks import AttackKind, AttackModel, attack_rows
from wqsc.harness import (
    RunConfig,
    _BranchTree,
    _round_trees,
    _walk,
    _walk_tables,
    exact_analyze,
    run_monte_carlo,
)
from wqsc.qstate import (
    FLIP,
    Gate1Q,
    apply_1q,
    apply_cnot,
    basis_ket,
    make_state,
    tensor,
    z_basis,
)
from wqsc.states import build, verify_identities

TOL = 1e-12


def _criterion(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_1_interception_z_exact_rates():
    start = time.perf_counter()
    result = exact_analyze("present", "ir-z")
    elapsed = time.perf_counter() - start
    ok = (
        abs(result.total_error_rate - 0.25) <= TOL
        and abs(result.conditional_error_rates["phi2"] - 0.5) <= TOL
        and elapsed < 1.0
    )
    _criterion(
        1,
        f"exact(present, ir-z) total 0.25, conditional(phi2) 0.5, {elapsed:.3f}s < 1s",
        ok,
    )


def test_criterion_2_interception_x_exact_rate():
    result = exact_analyze("present", "ir-x")
    _criterion(
        2,
        "exact(present, ir-x) total error rate 0.25",
        abs(result.total_error_rate - 0.25) <= TOL,
    )


def test_criterion_3_entangling_probe_rate_and_intermediate_state():
    result = exact_analyze("present", "cnot")
    rate_ok = abs(result.total_error_rate - 0.25) <= TOL

    model = AttackModel(AttackKind.CNOT_ANCILLA)
    _, forward = attack_rows(model, build("phi2").amplitudes[None], (3,))
    probed = forward(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))[0]
    expected = (
        np.kron(ket("10") + ket("01"), ket("00") + ket("11"))
        + np.kron(ket("00"), ket("00") - ket("11"))
    ) / np.sqrt(6)
    state_ok = float(np.max(np.abs(probed - expected))) <= TOL
    _criterion(
        3,
        "exact(present, cnot) total 0.25 and probe output matches the "
        "four-qubit expansion",
        rate_ok and state_ok,
    )


def test_criterion_4_cao_interception_exact_rates():
    result = exact_analyze("cao", "cao-ir-z")
    conditional = result.conditional_error_rates
    ok = (
        abs(result.total_error_rate - 1.0 / 12.0) <= TOL
        and abs(conditional["x"] - 0.25) <= TOL
        and abs(conditional["z"]) <= TOL
        and abs(conditional["bell"]) <= TOL
    )
    _criterion(
        4,
        "exact(cao, cao-ir-z) total 1/12, conditional x=0.25, z=bell=0",
        ok,
    )


def test_criterion_5_cao_leak_exact_and_monte_carlo(attack_mc_runs):
    exact = exact_analyze("cao", "cao-ir-z")
    results, _ = attack_mc_runs
    stats = results[("cao", "cao-ir-z")]
    ok = (
        abs(exact.leak_rate - 1.0) <= TOL
        and stats.eve_leak_rate == 1.0
        and stats.unknown_fraction == 0.0
    )
    _criterion(5, "eavesdropper leak rate 1.0, exact and at 1e5 sampled rounds", ok)


def test_criterion_6_no_attack_soundness():
    ok = True
    for scheme in ("present", "cao"):
        exact = exact_analyze(scheme, "none")
        ok &= exact.total_error_rate <= TOL
        ok &= abs(exact.recovery_accuracy - 1.0) <= TOL
        stats = run_monte_carlo(
            RunConfig(scheme=scheme, attack="none", rounds=100_000, master_seed=42)
        )
        ok &= stats.check_errors == 0
        ok &= stats.recovery_accuracy == 1.0
    _criterion(
        6,
        "no attack: exact error 0, recovery 1.0; zero errors in 1e5 rounds "
        "per scheme",
        bool(ok),
    )


def test_criterion_7_monte_carlo_convergence(attack_mc_runs):
    results, elapsed = attack_mc_runs
    ok = elapsed < 30.0
    details = [f"runtime {elapsed:.1f}s"]
    for (scheme, attack), stats in results.items():
        exact = exact_analyze(scheme, attack).total_error_rate
        sigma = math.sqrt(exact * (1.0 - exact) / stats.check_rounds)
        within = abs(stats.error_rate - exact) <= 3.0 * sigma
        details.append(f"{scheme}/{attack} |{stats.error_rate:.4f}-{exact:.4f}|<=3s")
        ok = ok and within
    _criterion(7, "seed-42 1e5-round rates in 3-sigma bands; " + ", ".join(details), bool(ok))


def test_criterion_8_identity_suite(capsys):
    reports = verify_identities()
    by_id = {r.identity_id: r for r in reports}
    ok = all(r.passed for r in reports)
    ok &= by_id["w4_three_bases"].deviation <= TOL
    ok &= by_id["collapse_excitation_first_pair"].deviation <= TOL
    ok &= by_id["collapse_excitation_second_pair"].deviation <= TOL
    ok &= by_id["entangling_probe_output"].deviation <= TOL
    ok &= by_id["phi1_split_z"].deviation <= TOL
    ok &= by_id["phi2_split_x"].deviation <= TOL
    exit_code = cli.main(["identities"])
    capsys.readouterr()  # swallow the CLI payload
    ok &= exit_code == 0
    with capsys.disabled():
        _criterion(8, "all decomposition identities hold; `identities` exits 0", bool(ok))


def test_criterion_9_property_battery():
    ok = True

    # norm preservation across representative operations
    rng = np.random.default_rng(99)
    for label in ("phi1", "phi2", "w4"):
        state = build(label)
        ok &= abs(state.norm() - 1.0) <= TOL
        ok &= abs(apply_1q(state, 1, FLIP).norm() - 1.0) <= TOL
    probed = apply_cnot(tensor(build("phi2"), basis_ket("0")), 3, 4)
    ok &= abs(probed.norm() - 1.0) <= TOL

    # unitarity round trips, including a random unitary
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gate = Gate1Q(np.linalg.qr(raw)[0])
    state = make_state(3, rng.normal(size=8) + 1j * rng.normal(size=8))
    back = apply_1q(apply_1q(state, 2, gate), 2, gate.dagger())
    ok &= float(np.max(np.abs(back.amplitudes - state.amplitudes))) <= TOL
    ok &= float(
        np.max(np.abs(apply_cnot(apply_cnot(state, 1, 3), 1, 3).amplitudes - state.amplitudes))
    ) <= TOL

    # componentwise flip relations
    sqrt2 = np.sqrt(2.0)
    u = FLIP.entries
    ok &= bool(np.array_equal(u @ [1, 0], [0, -1]))
    ok &= bool(np.array_equal(u @ [0, 1], [1, 0]))
    ok &= bool(np.allclose(u @ np.array([1, 1]) / sqrt2, np.array([1, -1]) / sqrt2, atol=TOL))
    ok &= bool(np.allclose(u @ np.array([1, -1]) / sqrt2, -np.array([1, 1]) / sqrt2, atol=TOL))

    # the sender's pair never reads 11 on any branch of an attacked round
    double_excitations = 0
    for attack in ("ir-z", "ir-x", "cnot"):
        for tree in _round_trees(RunConfig(scheme="present", attack=attack)):
            double_excitations += sum(node["alice"].value == "11" for node in tree.nodes)
    ok &= double_excitations == 0

    # frequencies sampled by walking a one-level branch tree of the
    # measurement, against the dense-projector law at 5 sigma
    state = build("phi2")
    exact = {bits: project(state.amplitudes, z_projector(3, (3,), bits))[0] for bits in "01"}
    tree = _BranchTree()
    tree.prepare(lambda node: state)
    tree.measure("outcome", lambda node: z_basis(3))
    n = 100_000
    freq_rng = np.random.default_rng(2024)
    leaves = _walk(_walk_tables([tree]), np.zeros(n, dtype=np.int64), freq_rng.random((n, 1)))
    counts = dict.fromkeys(exact, 0)
    for node, hits in zip(tree.nodes, np.bincount(leaves, minlength=len(tree.nodes)).tolist()):
        counts[node["outcome"].value] = hits
    for value, p in exact.items():
        if p == 0.0:
            ok &= counts[value] == 0
            continue
        sigma = math.sqrt(p * (1 - p) / n)
        ok &= abs(counts[value] / n - p) <= 5 * sigma

    _criterion(
        9,
        "norm preservation, unitarity, componentwise flips, no double "
        "excitation on any branch of an attacked round, 5-sigma frequency "
        "agreement",
        bool(ok),
    )
