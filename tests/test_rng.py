import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mimicsde import rng


def test_deterministic_and_domain_separated():
    paths = range(64)
    a = rng.normals(9, rng.DOMAIN_BROWNIAN, paths, 5, 3)
    b = rng.normals(9, rng.DOMAIN_BROWNIAN, paths, 5, 3)
    assert np.array_equal(a, b)
    c = rng.normals(9, rng.DOMAIN_DRIVER, paths, 5, 3)
    assert not np.array_equal(a, c)
    d = rng.normals(10, rng.DOMAIN_BROWNIAN, paths, 5, 3)
    assert not np.array_equal(a, d)


def test_path_subsets_agree():
    # stream is keyed per path, so any subset of paths sees identical draws
    full = rng.normals(3, 0, range(100), 2, 2)
    part = rng.normals(3, 0, range(40, 60), 2, 2)
    assert np.array_equal(full[40:60], part)


@pytest.mark.parametrize("lo, hi", [(4000, 4200), (4095, 4097), (4096, 8193), (8191, 9000),
                                    (1, 10_000)])
def test_offset_ranges_across_blocks_agree(lo, hi):
    # a generator serves 4096 paths, so a range that starts inside a block or
    # crosses into the next takes the same words as the full batch
    full = rng.normals(3, 0, range(10_000), 2, 3)
    assert np.array_equal(full[lo:hi], rng.normals(3, 0, range(lo, hi), 2, 3))
    full_u = rng.uniforms(3, 1, range(10_000), 2, 3)
    assert np.array_equal(full_u[lo:hi], rng.uniforms(3, 1, range(lo, hi), 2, 3))


@pytest.mark.parametrize("paths", [np.arange(8, dtype=np.uint64), range(0, 16, 2), list(range(8))],
                         ids=["uint64-array", "strided-range", "list"])
def test_paths_other_than_a_step_one_range_rejected(paths):
    for draw in (rng.normals, rng.uniforms):
        with pytest.raises(TypeError, match="range of consecutive path indices"):
            draw(4, 0, paths, 6, 2)


def test_empty_range_has_no_rows():
    for draw in (rng.normals, rng.uniforms):
        assert draw(4, 0, range(0), 6, 2).shape == (0, 2)
        assert draw(4, 0, range(5000, 5000), 6, 2).shape == (0, 2)


def test_step_extendability():
    # draws for step k never depend on how many steps were generated before
    paths = range(8)
    later = rng.normals(7, 0, paths, 1000, 2)
    again = rng.normals(7, 0, paths, 1000, 2)
    assert np.array_equal(later, again)


def test_moments_and_range():
    paths = range(200_000)
    z = rng.normals(1, 0, paths, 0, 2)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    u = rng.uniforms(1, 1, paths, 0, 2)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.005


def test_normals_pass_ks_against_standard_normal():
    # 10^6 draws over 62 generators: 1 % critical value 1.63e-3
    z = rng.normals(0, rng.DOMAIN_BROWNIAN, range(250_000), 0, 4)
    assert stats.kstest(z.ravel(), "norm").pvalue > 0.01


def test_uniforms_stay_in_open_interval():
    # the extreme words map to 2^-54 and 1 - 2^-54, so ndtri stays finite
    extremes = rng._to_unit(np.array([0, 2**11 - 1, 2**64 - 1], dtype=np.uint64))
    assert extremes[0] == extremes[1] == 2.0**-54 and extremes[2] == 1.0 - 2.0**-54
    u = rng.uniforms(2, rng.DOMAIN_DRIVER, range(300_000), 1, 3)
    assert u.min() > 0.0 and u.max() < 1.0
    assert np.isfinite(rng.normals(2, 0, range(300_000), 1, 3)).all()


def test_cross_correlations_negligible():
    paths = range(100_000)
    a = rng.normals(5, 0, paths, 0, 1)[:, 0]
    b = rng.normals(5, 0, paths, 1, 1)[:, 0]
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    shifted = np.roll(a, 1)
    assert abs(np.corrcoef(a, shifted)[0, 1]) < 0.01


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_philox_bijective_blocks(seed, domain, step):
    # Philox is a bijection on counters, so the distinct words of one
    # generator's block never repeat; 53-bit uniforms of 512 words collide
    # with probability about 2^-36
    paths = range(256)
    u = rng.uniforms(seed, domain, paths, step, 2)
    assert np.unique(u).size == u.size
