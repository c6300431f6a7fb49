import numpy as np
import pytest

from skylit import illumination as il
from skylit import tape as tp
from skylit.geometry import icosphere_directions, so3_jitter, spherical_to_dir
from tests.conftest import sky_latent


@pytest.fixture(scope="module")
def decoder():
    return il.LobeDecoder.default()


@pytest.fixture(scope="module")
def dirs642():
    return icosphere_directions(3).directions


def one_sky(decoder, z, log_gamma):
    """A one-row bank: latent z (3,K) at scale exp(log_gamma)."""
    return il.IlluminationBank(decoder, z[None], [log_gamma])


def test_zero_latent_decodes_to_unit_environment(decoder, dirs642):
    sky = il.IlluminationBank.zeros(decoder, 1)
    rad = il.radiance(sky, 0, dirs642)
    assert np.allclose(rad, 1.0)


def test_gamma_scales_linearly(decoder, dirs642):
    rng = np.random.default_rng(0)
    z = sky_latent(decoder, rng)
    s1 = one_sky(decoder, z, np.log(1.0))
    s2 = one_sky(decoder, z, np.log(2.0))
    assert np.allclose(il.radiance(s2, 0, dirs642), 2.0 * il.radiance(s1, 0, dirs642))


def test_radiance_strictly_positive(decoder, dirs642):
    rng = np.random.default_rng(1)
    z = rng.normal(size=(3, decoder.n_lobes)) * 2.0
    sky = one_sky(decoder, z, 0.3)
    assert np.all(il.radiance(sky, 0, dirs642) > 0.0)


def test_single_lobe_argmax_at_axis(decoder, dirs642):
    for k in (0, 3, 9):
        z = np.zeros((3, decoder.n_lobes))
        z[:, k] = 1.5
        sky = one_sky(decoder, z, 0.0)
        rad = il.radiance(sky, 0, dirs642).sum(axis=1)
        best = dirs642[np.argmax(rad)]
        # brute-force oracle: the argmax over the direction set must be the
        # set direction closest to the lobe axis
        closest = dirs642[np.argmax(dirs642 @ decoder.axes[k])]
        assert np.allclose(best, closest)


def prior_of(z):
    return float(il.prior_loss(tp._lift(z)).data)


def test_prior_loss_values():
    # the squared norm of a bank of latents (images, 3, lobes), per image
    z = np.zeros((2, 3, 16))
    assert prior_of(z) == 0.0
    z[1, 1, 4] = 2.0
    assert prior_of(z) == pytest.approx(4.0 / 2)
    rng = np.random.default_rng(2)
    z = rng.normal(size=(5, 3, 16))
    assert prior_of(z) == pytest.approx(np.sum(z * z) / 5, abs=1e-12)


def test_prior_gradient_is_two_z():
    # 2 z, divided by the image count of the mean
    rng = np.random.default_rng(3)
    z0 = rng.normal(size=(4, 3, 8))
    t = tp.Tape()
    z = t.parameter("z", z0)
    g = tp.backward(t, il.prior_loss(z))["z"]
    assert np.allclose(g, 2.0 * z0 / 4, atol=1e-12)


def test_export_envmap_constant(decoder):
    sky = one_sky(decoder, np.zeros((3, decoder.n_lobes)), np.log(2.0))
    env = il.export_envmap(sky, 0, 16, 8)
    assert env.shape == (8, 16, 3)
    assert np.allclose(env, 2.0)


def test_export_envmap_argmax_matches_brute_force(decoder, dirs642):
    z = np.zeros((3, decoder.n_lobes))
    z[:, 2] = 2.0
    sky = one_sky(decoder, z, 0.0)
    h, w = 64, 128
    env = il.export_envmap(sky, 0, w, h)
    lum = env.sum(axis=2)
    row, col = np.unravel_index(np.argmax(lum), lum.shape)
    px_dir = spherical_to_dir((row + 0.5) / h * np.pi,
                              (col + 0.5) / w * 2.0 * np.pi - np.pi)
    brute = dirs642[np.argmax(il.radiance(sky, 0, dirs642).sum(axis=1))]
    # within one pixel: angular distance below two pixel diagonals
    px_angle = np.pi / h * 1.5
    assert np.arccos(np.clip(px_dir @ brute, -1, 1)) < px_angle
    assert np.all(env >= 0.0)


def test_export_envmap_requires_two_to_one():
    sky = il.IlluminationBank.zeros(il.LobeDecoder.default(), 1)
    with pytest.raises(ValueError):
        il.export_envmap(sky, 0, 17, 8)


def test_jitter_invariant_irradiance(decoder, dirs642):
    # irradiance integrals under two independent rotations agree within 2%
    rng = np.random.default_rng(7)
    z = sky_latent(decoder, rng)
    sky = one_sky(decoder, z, 0.0)
    normal = np.array([0.0, 0.0, 1.0])

    def irradiance(rot):
        d = dirs642 @ rot.T
        rad = il.radiance(sky, 0, d)
        cos = np.maximum(d @ normal, 0.0)
        return (4 * np.pi / len(d)) * (rad * cos[:, None]).sum(axis=0)

    i1 = irradiance(so3_jitter(rng))
    i2 = irradiance(so3_jitter(rng))
    assert np.abs(i1 / i2 - 1.0).max() < 0.02


def test_gamma_derivative_is_radiance_over_gamma(decoder):
    # d radiance / d gamma = radiance / gamma via the log parameterization
    rng = np.random.default_rng(8)
    bank = il.IlluminationBank(decoder, sky_latent(decoder, rng)[None],
                               [np.log(1.7)])

    def loss(t, pv):
        bound = il.BoundIllumination.__new__(il.BoundIllumination)
        bound.decoder = decoder
        bound.Z = pv["Z"]
        bound.log_gamma = pv["lg"]
        rad = bound.radiance_all(np.array([[0.0, 0.0, 1.0]]))
        return tp.vsum(rad)

    err = tp.gradient_check(loss, {"Z": bank.Z.copy(), "lg": bank.log_gamma.copy()})
    assert err < 1e-4


def test_bank_row_matches_one_row_copy(decoder, dirs642):
    # a render reads its sky as a row of the whole bank: every row gives the
    # bits of a one-row bank built from it, plain and bound alike
    rng = np.random.default_rng(9)
    bank = il.IlluminationBank(decoder, rng.normal(size=(3, 3, decoder.n_lobes)),
                               np.log([0.7, 1.3, 2.1]))
    bound = il.BoundIllumination(None, bank, trainable=False)
    for i in range(len(bank.Z)):
        row = il.IlluminationBank(decoder, bank.Z[i:i + 1], bank.log_gamma[i:i + 1])
        assert np.array_equal(il.radiance(bank, i, dirs642),
                              il.radiance(row, 0, dirs642))
        one = il.BoundIllumination(None, row, trainable=False)
        assert np.array_equal(bound.radiance_all(dirs642).data[i],
                              one.radiance_all(dirs642).data[0])
        # the constructor copies: the one-row bank does not alias the bank
        row.Z += 1.0
        assert not np.array_equal(row.Z[0], bank.Z[i])


def test_bank_rejects_a_latent_without_its_row_axis(decoder):
    with pytest.raises(ValueError):
        il.IlluminationBank(decoder, np.zeros((3, decoder.n_lobes)), [0.0])
