import numpy as np
import pytest

from nvdeer import (FieldConfiguration, allowed_transitions,
                    apply_orientation, build_nv, build_p1, build_x,
                    eigensystem, nv_line_table, nv_offaxis_member,
                    nv_onaxis_member, p1_ensemble, p1_line_table,
                    static_hamiltonian, x_line_frequency, x_member)
from nvdeer import constants as c

# Frozen line positions at 37.2 mT / 0.1 deg tilt, from independent
# diagonalization of the published hyperfine and zero-field constants.
P1_ONAXIS_MHZ = (931.857, 1048.875, 1159.548)
P1_OFFAXIS_MHZ = (961.581, 1051.369, 1132.717)
X_LINE_MHZ = 1042.530
NV_OFFAXIS_EIGS_MHZ = (-307.3, 2657.5, 3389.8)


def test_p1_hamiltonian_is_hermitian(field):
    member = p1_ensemble()[0]
    h = static_hamiltonian(member, field)
    assert h.shape == (6, 6)
    assert np.allclose(h, h.conj().T)


def test_p1_line_positions(field):
    rows = p1_line_table(field)
    freqs = sorted(r[0] for r in rows)
    expected = sorted(P1_ONAXIS_MHZ + P1_OFFAXIS_MHZ)
    assert np.allclose(freqs, expected, atol=2e-3)


def test_p1_line_amplitudes_sum_to_one(field):
    rows = p1_line_table(field)
    amps = np.array([r[1] for r in rows])
    assert amps.sum() == pytest.approx(1.0)
    # on-axis lines carry 1/12 each (1/4 weight split over 3 lines),
    # off-axis 1/4 each
    assert sorted(np.round(amps, 6)) == sorted(
        np.round([1 / 12, 1 / 12, 1 / 12, 1 / 4, 1 / 4, 1 / 4], 6))


def test_offaxis_families_exactly_degenerate(field):
    members = p1_ensemble(merge_off_axis=False)
    spectra = []
    for m in members[1:]:
        h = static_hamiltonian(m, field)
        w, _ = eigensystem(h)
        spectra.append(w)
    assert np.allclose(spectra[0], spectra[1], atol=1e-10)
    assert np.allclose(spectra[0], spectra[2], atol=1e-10)


def test_p1_ensemble_weights():
    members = p1_ensemble()
    assert len(members) == 4
    assert sum(m.weight for m in members) == pytest.approx(1.0)
    merged = p1_ensemble(merge_off_axis=True)
    assert len(merged) == 2
    assert merged[0].weight == pytest.approx(0.25)
    assert merged[1].weight == pytest.approx(0.75)


def test_x_line_frequency(field):
    assert x_line_frequency(field) == pytest.approx(X_LINE_MHZ, abs=2e-3)


def test_x_hamiltonian_matches_free_electron(field):
    h = build_x(field.b0_vector())
    w = np.linalg.eigvalsh(h)
    assert (w[1] - w[0]) == pytest.approx(28.025 * 37.2, rel=1e-9)


def test_nv_offaxis_eigenvalues(field):
    member = nv_offaxis_member()
    h = static_hamiltonian(member, field)
    w, _ = eigensystem(h)
    assert np.allclose(w, NV_OFFAXIS_EIGS_MHZ, atol=0.1)


def test_nv_onaxis_transitions(field):
    member = nv_onaxis_member()
    h = static_hamiltonian(member, field)
    # on axis: E(0) = 0, E(-1) = D - gB, E(+1) = D + gB
    gb = 28.025 * 37.2
    w = np.linalg.eigvalsh(h)
    assert w[1] - w[0] == pytest.approx(2870 - gb, abs=0.5)
    assert w[2] - w[0] == pytest.approx(2870 + gb, abs=0.5)


def test_nv_line_table_contains_deer_line(field):
    rows = nv_line_table(field)
    offaxis_23 = [r for r in rows
                  if r[4] != "[111]" and (r[2], r[3]) == (2, 3)]
    assert len(offaxis_23) == 1
    assert offaxis_23[0][0] == pytest.approx(732.3, abs=0.5)
    freqs = [r[0] for r in rows]
    assert freqs == sorted(freqs)


def test_allowed_transitions_threshold(field):
    member = nv_onaxis_member()
    rows = allowed_transitions(member, field)
    # the Delta m = 2 transition must be filtered out
    pairs = {(a, b) for _, _, a, b in rows}
    assert (2, 3) not in pairs
    assert (1, 2) in pairs and (1, 3) in pairs


def test_apply_orientation_preserves_norm(field):
    member = p1_ensemble()[2]
    b_m, e_m = apply_orientation(member.orientation, field)
    assert np.linalg.norm(b_m) == pytest.approx(37.2)
    assert np.linalg.norm(e_m) == pytest.approx(1.0)


def test_p1_params_defaults():
    assert c.A_PERP_MHZ == pytest.approx(81.32)
    assert c.A_PAR_MHZ == pytest.approx(114.03)
    assert c.P_PAR_MHZ == pytest.approx(-3.97)


def test_nv_zero_field_splittings():
    from nvdeer.constants import D_ES_MHZ, D_GS_MHZ
    assert D_GS_MHZ == pytest.approx(2870.0)
    assert D_ES_MHZ == pytest.approx(1420.0)


def test_build_nv_reduces_to_zfs_at_zero_field():
    h = build_nv(np.zeros(3))
    w = np.linalg.eigvalsh(h)
    assert np.allclose(sorted(w), [0.0, 2870.0, 2870.0], atol=1e-9)


def test_build_nv_excited_state_splitting():
    w = np.linalg.eigvalsh(build_nv(np.zeros(3), c.D_ES_MHZ))
    assert np.allclose(sorted(w), [0.0, 1420.0, 1420.0], atol=1e-9)


def test_build_p1_hyperfine_splitting_along_z():
    # strong-field limit along the molecular axis: electron transitions
    # split by ~A_par between nuclear projections
    b = np.array([0.0, 0.0, 100.0])
    h = build_p1(b)
    w = np.linalg.eigvalsh(h)
    assert h.shape == (6, 6)
    assert len(w) == 6
