import numpy as np
import pytest

from skylit import geometry as geo
from skylit import visibility as vz


def test_contract_identity_inside_unit_ball():
    p = np.array([0.5, 0.0, 0.0])
    assert np.allclose(geo.contract(p), p)


def test_contract_formula_outside():
    # (2 - 1/2) * unit x
    assert np.allclose(geo.contract([2.0, 0.0, 0.0]), [1.5, 0.0, 0.0])


def test_contract_limit_radius_two():
    far = np.array([1e12, 0.0, 0.0])
    assert np.linalg.norm(geo.contract(far)) == pytest.approx(2.0, abs=1e-9)
    # norm strictly below 2 always
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(1000, 3)) * 50.0
    assert np.all(np.linalg.norm(geo.contract(pts), axis=1) < 2.0)


def test_contract_continuous_at_unit_sphere():
    d = np.array([0.3, -0.5, 0.81])
    d /= np.linalg.norm(d)
    inner = geo.contract(d * (1.0 - 1e-12))
    outer = geo.contract(d * (1.0 + 1e-12))
    assert np.allclose(inner, outer, atol=1e-9)


def test_ray_sphere_exit_centered():
    s, t = geo.ray_sphere_exit([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0)
    assert t == pytest.approx(1.0)
    assert np.allclose(s, [0, 0, 1])


def test_ray_sphere_exit_offset():
    s, t = geo.ray_sphere_exit([0.5, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0)
    assert t == pytest.approx(0.5)
    assert np.allclose(s, [1, 0, 0])


def test_ray_sphere_exit_quadratic_oracle():
    s, t = geo.ray_sphere_exit([0.0, 0.6, 0.0], [0.0, 0.0, 1.0], 1.0)
    assert t == pytest.approx(0.8, abs=1e-12)  # 0.36 + 0.64 = 1
    assert np.allclose(s, [0.0, 0.6, 0.8], atol=1e-9)


def test_ray_sphere_exit_tangential_degenerate():
    s, t = geo.ray_sphere_exit([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0)
    assert t == 0.0
    assert np.allclose(s, [1.0, 0.0, 0.0])


def test_ray_sphere_exit_distance_matches_t():
    rng = np.random.default_rng(1)
    for _ in range(200):
        o = rng.normal(size=3)
        o = o / np.linalg.norm(o) * rng.uniform(0.0, 0.99)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        s, t = geo.ray_sphere_exit(o, d, 1.0)
        assert np.linalg.norm(s - o) == pytest.approx(t, abs=1e-9)
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-9)


def ddf_frames(s):
    """(N, 3, 3) frames in which the DDF reads directions at sphere points
    ``s``, from the local components of the world axes: row 0 is the
    x-axis, row 1 is s, row 2 is z."""
    comps = vz._local_dir_components(np.atleast_2d(s)[:, None, :],
                                     np.eye(3)[None, :, :])
    return np.stack([c.data for c in comps], axis=1)


def test_local_frame_pole_fallback():
    frames = ddf_frames([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert np.allclose(frames[:, 0], [1.0, 0.0, 0.0])
    assert np.allclose(frames[:, 1], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


def test_local_frame_cross_product_oracle():
    frame = ddf_frames([1.0, 0.0, 0.0])[0]
    assert np.allclose(frame[0], [0, 1, 0])
    assert np.allclose(frame[1], [1, 0, 0])
    assert np.allclose(frame[2], [0, 0, -1])


def test_local_frame_orthonormal_many():
    rng = np.random.default_rng(2)
    s = rng.normal(size=(10_000, 3))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    frames = ddf_frames(s)
    eye = np.einsum("nij,nkj->nik", frames, frames)
    assert np.abs(eye - np.eye(3)).max() < 1e-9
    assert np.array_equal(frames[:, 1], s)
    assert np.all(np.linalg.det(frames) > 0.0)


@pytest.mark.parametrize("level,count", [(0, 12), (1, 42), (2, 162), (3, 642)])
def test_icosphere_counts(level, count):
    ds = geo.icosphere_directions(level)
    assert ds.count == count
    assert np.allclose(np.linalg.norm(ds.directions, axis=1), 1.0, atol=1e-12)


def test_icosphere_level_bound():
    with pytest.raises(geo.ConfigError):
        geo.icosphere_directions(7)


def test_icosphere_min_separation_level3():
    d = geo.icosphere_directions(3).directions
    gram = d @ d.T
    np.fill_diagonal(gram, -1.0)
    min_angle = np.degrees(np.arccos(gram.max()))
    assert min_angle > 4.0


def test_icosphere_no_duplicates():
    d = geo.icosphere_directions(2).directions
    gram = d @ d.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() < 1.0 - 1e-9


def test_so3_jitter_orthogonal_det_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = geo.so3_jitter(rng)
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-9
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_so3_jitter_mean_symmetry():
    rng = np.random.default_rng(4)
    v = np.array([0.0, 0.0, 1.0])
    acc = np.zeros(3)
    n = 100_000
    for _ in range(n):
        acc += geo.so3_jitter(rng) @ v
    assert np.linalg.norm(acc / n) < 0.02


def test_vmf_concentration_limit():
    rng = np.random.default_rng(5)
    v = geo.vmf_sample_batch([0.0, 0.0, 1.0], 1e6, 100, rng)
    assert v.shape == (1, 100, 3)
    assert np.allclose(v, [0, 0, 1], atol=5e-3)


def test_vmf_mean_resultant_length():
    rng = np.random.default_rng(6)
    mean = geo.normalize([0.3, -0.4, 0.866])
    v = geo.vmf_sample_batch(mean, 20.0, 100_000, rng)[0]
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    mrl = np.linalg.norm(v.mean(axis=0))
    expected = 1.0 / np.tanh(20.0) - 1.0 / 20.0
    assert abs(mrl - expected) / expected < 0.02
    assert np.allclose(v.mean(axis=0) / mrl, mean, atol=0.01)


def test_vmf_rotates_each_row_to_its_own_mean():
    # the poles take the degenerate (no rotation axis) branch
    rng = np.random.default_rng(7)
    means = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.6, 0.0, -0.8],
                      [-0.36, 0.48, 0.8]])
    v = geo.vmf_sample_batch(means, 1e6, 50, rng)
    assert np.allclose(v, means[:, None, :], atol=5e-3)


@pytest.mark.parametrize("kappa", [0.0, -1.0])
def test_vmf_rejects_non_positive_concentration(kappa):
    # kappa = 0 would divide 0 by 0 into NaN directions
    with pytest.raises(geo.ConfigError):
        geo.vmf_sample_batch([0.0, 0.0, 1.0], kappa, 4, np.random.default_rng(0))


def test_srgb_fixed_points_and_reference():
    assert geo.srgb(np.array([0.0]))[0] == 0.0
    assert geo.srgb(np.array([1.0]))[0] == pytest.approx(1.0)
    assert geo.srgb(np.array([0.5]))[0] == pytest.approx(0.73535698, abs=1e-6)


def test_srgb_monotone():
    x = np.linspace(0.0, 1.2, 512)
    y = geo.srgb(x)
    assert np.all(np.diff(y) >= 0.0)
    assert y.min() >= 0.0 and y.max() <= 1.0
