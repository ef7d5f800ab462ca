"""Named-state constructors and decomposition identity verification."""

import hashlib

import numpy as np
import pytest

from oracle_tools import BELL_VECTORS, ket
from wqsc.qstate import ATOL, measurement_rows, z_basis
from wqsc.states import build, verify_identities

SQRT3 = np.sqrt(3.0)

# sha256 of each state's bytes: every count and exact result the package
# pins is computed from these bits
BUILD_SHA256 = {
    "phi1": "846af0ea91fb1b21ef1bdc655e55aa84152a9ddd7def676c45b3ca3879810d60",
    "phi2": "1df951c8843e6c795a56e5bc0d6f4be2835b4d6c89f374743b0cb397be58d55f",
    "w4": "188924b7ede2a9da9dc97f252a1bde67fec45decef15ca8e61454ef004123fce",
    "psi+": "1620cdb16cd4ce854e914462dc1a6c975164ee8fb8c93a94043886b18d700c18",
    "psi-": "35a5cee67f795aff6b780b54e0473179eaf76a3d3165bb223d735b18a81190e8",
    "phi+": "37fe4d07afc183c37066a83fb1e1ccff488c19a4bd0fe73a2ea8233dfe0ae1a0",
    "phi-": "4d466c04d2819594f45f6589ba9e62573f123496eb36ae5cc4f1b61f153de6d7",
}


class TestBuild:
    def test_phi1_amplitudes(self):
        amps = build("phi1")
        expected = np.zeros(8)
        expected[[4, 2, 1]] = 1 / SQRT3
        assert np.max(np.abs(amps - expected)) <= ATOL

    def test_phi2_literal_expansion(self):
        amps = build("phi2")
        expected = np.zeros(8)
        expected[[4, 5, 2, 3, 0]] = 1 / np.sqrt(6)
        expected[1] = -1 / np.sqrt(6)
        assert np.max(np.abs(amps - expected)) <= ATOL

    def test_w4_amplitudes(self):
        amps = build("w4")
        expected = np.zeros(16)
        expected[[8, 4, 2, 1]] = 0.5
        assert np.max(np.abs(amps - expected)) <= ATOL

    def test_bell_states_standard_forms(self):
        for label, vec in BELL_VECTORS.items():
            assert np.max(np.abs(build(label) - vec)) <= ATOL

    def test_unknown_label(self):
        # a name with no state is an error, never another state
        with pytest.raises(KeyError):
            build("ghz")

    @pytest.mark.parametrize("label", ["PHI1", "Phi2", "w3", ""])
    def test_near_label_never_falls_through(self, label):
        # names are matched exactly: no case folding, no nearest state
        with pytest.raises(KeyError):
            build(label)

    def test_norms_and_support(self):
        for label in BUILD_SHA256:
            state = build(label)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=ATOL)
        # phi2 has no weight on |110> or |111>
        assert np.all(build("phi2")[6:] == 0)

    @pytest.mark.parametrize("label", list(BUILD_SHA256))
    def test_array_contract(self, label):
        state = build(label)
        assert isinstance(state, np.ndarray)
        assert state.dtype == np.complex128 and state.ndim == 1
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=ATOL)
        assert build(label) is state
        # every tree shares the cached array, so a write would corrupt
        # every later run
        with pytest.raises(ValueError):
            state[0] = 1.0
        assert hashlib.sha256(state.tobytes()).hexdigest() == BUILD_SHA256[label]

    def test_bell_pairwise_orthogonality(self):
        labels = ["psi+", "psi-", "phi+", "phi-"]
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                overlap = np.vdot(build(a), build(b))
                assert abs(overlap) <= ATOL

    def test_overlap_reproducible_to_full_precision(self):
        first = np.vdot(build("phi1"), build("phi2"))
        second = np.vdot(build("phi1"), build("phi2"))
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
    probs, states = measurement_rows(build("phi1")[None], z_basis(3))
    assert probs[0, 0] == pytest.approx(2 / 3, abs=ATOL)
    # outcomes 00, 01, 10, 11 of the pair
    pair, _ = measurement_rows(states[:, 0], z_basis(1, 2))
    assert pair[0, 2] > 0 and pair[0, 1] > 0
