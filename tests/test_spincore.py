import numpy as np
import pytest

from nvdeer import (FieldConfiguration, eigensystem, orientation_families,
                    rotation_matrix, spin_operators, tensor_embed)
from nvdeer.spincore import TETRAHEDRAL_ANGLE_DEG


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.5])
def test_spin_operator_algebra(s):
    ops = spin_operators(s)
    dim = int(round(2 * s + 1))
    assert ops.dim == dim
    # su(2) commutators, cyclically
    assert np.allclose(ops.sx @ ops.sy - ops.sy @ ops.sx, 1j * ops.sz,
                       atol=1e-13)
    assert np.allclose(ops.sy @ ops.sz - ops.sz @ ops.sy, 1j * ops.sx,
                       atol=1e-13)
    assert np.allclose(ops.sz @ ops.sx - ops.sx @ ops.sz, 1j * ops.sy,
                       atol=1e-13)
    # Casimir S^2 = s(s+1) I
    s2 = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    assert np.allclose(s2, s * (s + 1) * np.eye(dim), atol=1e-13)
    # hermiticity
    for op in (ops.sx, ops.sy, ops.sz):
        assert np.allclose(op, op.conj().T)


def test_spin_half_matrices_exact():
    ops = spin_operators(0.5)
    assert np.allclose(ops.sx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(ops.sy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(ops.sz, [[0.5, 0], [0, -0.5]])


def test_spin_one_ladder_elements():
    ops = spin_operators(1.0)
    sp = ops.sx + 1j * ops.sy
    # <m+1|S+|m> = sqrt(2) for S = 1, basis ordered m = +1, 0, -1
    assert sp[0, 1] == pytest.approx(np.sqrt(2.0))
    assert sp[1, 2] == pytest.approx(np.sqrt(2.0))
    assert np.count_nonzero(np.abs(sp) > 1e-14) == 2


def test_spin_operators_rejects_bad_spin():
    with pytest.raises(ValueError):
        spin_operators(0.3)
    with pytest.raises(ValueError):
        spin_operators(-0.5)


def test_rotation_matrix_orthogonal():
    r = rotation_matrix(109.5, 240.0)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(r) == pytest.approx(1.0)


def test_orientation_axes_tetrahedral_vs_onaxis():
    # each off-axis molecular axis subtends the tetrahedral angle with
    # the on-axis one; 109.5 deg is the rounded convention (exact:
    # arccos(-1/3) = 109.4712 deg), hence the loose 2e-3 tolerance
    # against -1/3.  The three off-axis members share one lab polar
    # angle by construction (their azimuth only reorients the
    # transverse axes), which is what makes them exactly degenerate.
    axes = [o.matrix().T @ np.array([0.0, 0.0, 1.0])
            for o in orientation_families()]
    for off in axes[1:]:
        assert abs(np.dot(axes[0], off) + 1.0 / 3.0) < 2e-3
        assert abs(np.dot(axes[0], off)
                   - np.cos(np.radians(TETRAHEDRAL_ANGLE_DEG))) < 1e-12


def test_orientation_families_labels_and_count():
    fams = orientation_families()
    assert len(fams) == 4
    assert fams[0].on_axis
    assert [f.on_axis for f in fams[1:]] == [False, False, False]
    assert fams[0].theta_y_deg == 0.0
    assert {f.theta_z_deg for f in fams[1:]} == {0.0, 120.0, 240.0}


def test_field_configuration_vectors():
    f = FieldConfiguration(37.2, 0.1, 2.0, 1042.0)
    b0 = f.b0_vector()
    assert np.linalg.norm(b0) == pytest.approx(37.2)
    # tilt lies in the xz plane
    assert b0[1] == 0.0
    assert b0[0] == pytest.approx(37.2 * np.sin(np.radians(0.1)))
    e1 = f.drive_unit()
    assert np.linalg.norm(e1) == pytest.approx(1.0)


def test_field_configuration_validation():
    with pytest.raises(ValueError):
        FieldConfiguration(-1.0, 0.0, 2.0, 1042.0)
    with pytest.raises(ValueError):
        FieldConfiguration(37.2, 0.0, -2.0, 1042.0)


def test_eigensystem_ordering_and_unitarity(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (a + a.conj().T) / 2
    w, v = eigensystem(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-12)


def test_eigensystem_rejects_non_hermitian(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        eigensystem(a)


def test_tensor_embed_shapes():
    ops = spin_operators(0.5)
    big = tensor_embed(ops.sz, 0, (2, 3))
    assert big.shape == (6, 6)
    # embedding commutes with the identity on the other slot
    other = tensor_embed(np.eye(3), 1, (2, 3))
    assert np.allclose(big @ other, other @ big)
