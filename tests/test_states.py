"""Named-state constructors and decomposition identity verification."""

import numpy as np
import pytest

from oracle_tools import BELL_VECTORS, ket
from wqsc import errors
from wqsc.qstate import ATOL, measurement_rows, z_basis
from wqsc.states import StateLabel, build, verify_identities

SQRT3 = np.sqrt(3.0)


class TestBuild:
    def test_phi1_amplitudes(self):
        amps = build(StateLabel.PHI1).amplitudes
        expected = np.zeros(8)
        expected[[4, 2, 1]] = 1 / SQRT3
        assert np.max(np.abs(amps - expected)) <= ATOL

    def test_phi2_literal_expansion(self):
        amps = build(StateLabel.PHI2).amplitudes
        expected = np.zeros(8)
        expected[[4, 5, 2, 3, 0]] = 1 / np.sqrt(6)
        expected[1] = -1 / np.sqrt(6)
        assert np.max(np.abs(amps - expected)) <= ATOL

    def test_w4_amplitudes(self):
        amps = build("w4").amplitudes
        expected = np.zeros(16)
        expected[[8, 4, 2, 1]] = 0.5
        assert np.max(np.abs(amps - expected)) <= ATOL

    def test_bell_states_standard_forms(self):
        for label, vec in BELL_VECTORS.items():
            assert np.max(np.abs(build(label).amplitudes - vec)) <= ATOL

    def test_unknown_label(self):
        with pytest.raises(errors.UnknownLabel):
            build("ghz")

    def test_norms_and_support(self):
        for label in StateLabel:
            state = build(label)
            assert state.norm() == pytest.approx(1.0, abs=ATOL)
        # phi2 has no weight on |110> or |111>
        assert np.all(build("phi2").amplitudes[6:] == 0)

    def test_bell_pairwise_orthogonality(self):
        labels = ["psi+", "psi-", "phi+", "phi-"]
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                overlap = np.vdot(build(a).amplitudes, build(b).amplitudes)
                assert abs(overlap) <= ATOL

    def test_overlap_reproducible_to_full_precision(self):
        first = np.vdot(build("phi1").amplitudes, build("phi2").amplitudes)
        second = np.vdot(build("phi1").amplitudes, build("phi2").amplitudes)
        assert first == second


class TestVerifyIdentities:
    def test_all_reports_pass(self):
        reports = verify_identities()
        assert len(reports) == 7
        for report in reports:
            assert report.passed, report.identity_id

    def test_equality_reports_meet_tolerance(self):
        for report in verify_identities():
            if report.expect == "equal":
                assert report.deviation <= ATOL

    def test_probe_identity_present(self):
        ids = [r.identity_id for r in verify_identities()]
        assert "entangling_probe_output" in ids
        assert "w4_three_bases" in ids

    def test_split_form_belongs_to_phi2_not_phi1(self):
        by_id = {r.identity_id: r for r in verify_identities()}
        match = by_id["phi2_split_x"]
        mismatch = by_id["phi2_split_x_vs_phi1"]
        assert match.expect == "equal" and match.deviation <= ATOL
        assert mismatch.expect == "distinct" and mismatch.deviation > 0.3

    def test_split_form_deviation_against_phi1_from_first_principles(self):
        # best-phase-aligned max deviation computed directly from amplitudes
        split = (np.kron(ket("10") + ket("01"), [1, 1]) + np.kron(ket("00"), [1, -1])) / np.sqrt(6)
        phi1 = np.zeros(8)
        phi1[[4, 2, 1]] = 1 / SQRT3
        inner = np.vdot(phi1, split)
        phase = inner / abs(inner)
        deviation = np.max(np.abs(split - phase * phi1))
        by_id = {r.identity_id: r for r in verify_identities()}
        assert by_id["phi2_split_x_vs_phi1"].deviation == pytest.approx(
            float(deviation), abs=ATOL
        )


def test_pair_entanglement_survives_transit_qubit_loss():
    # measuring qubit 3 of phi1 in Z leaves the kept pair correlated:
    # the 0 branch still holds both |10> and |01>
    probs, collapse = measurement_rows(build("phi1").amplitudes[None], z_basis(3))
    assert probs[0, 0] == pytest.approx(2 / 3, abs=ATOL)
    collapsed = collapse(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    # outcomes 00, 01, 10, 11 of the pair
    pair, _ = measurement_rows(collapsed, z_basis(1, 2))
    assert pair[0, 2] > 0 and pair[0, 1] > 0
