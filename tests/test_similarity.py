import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polypstream import similarity
from polypstream.errors import InputError
from polypstream.similarity import (
    GrayFrame,
    SsimParams,
    prepare_luma,
    ssim,
    to_luma,
)

from oracles import naive_ssim


def gray(arr):
    return GrayFrame.from_array(np.asarray(arr, dtype=np.uint8))


def random_frame(r, h=16, w=16):
    return gray(r.integers(0, 256, size=(h, w)))


@st.composite
def small_frames(draw):
    h = draw(st.integers(2, 12))
    w = draw(st.integers(2, 12))
    data = draw(
        st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w)
    )
    return gray(np.array(data).reshape(h, w))


@st.composite
def frame_pairs(draw):
    h = draw(st.integers(2, 12))
    w = draw(st.integers(2, 12))
    a = draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
    b = draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
    return gray(np.array(a).reshape(h, w)), gray(np.array(b).reshape(h, w))


class TestSsimParams:
    def test_derived_constants(self):
        # (0.01 * 255) ** 2, (0.03 * 255) ** 2 and half the second
        assert similarity._B1 == pytest.approx(6.5025)
        assert similarity._B2 == pytest.approx(58.5225)
        assert similarity._B3 == pytest.approx(29.26125)

    def test_validation(self):
        with pytest.raises(ValueError):
            SsimParams(downsample_w=0)

    @pytest.mark.parametrize(
        "name", ["mode", "window_size", "stride", "dynamic_range", "k1", "k2"]
    )
    def test_removed_fields_rejected(self, name):
        # global similarity over 8-bit samples, with fixed constants, is the
        # only definition
        with pytest.raises(TypeError):
            SsimParams(**{name: 1})


class TestToLuma:
    def test_white_black_red(self):
        rgb = np.zeros((1, 3, 3), dtype=np.uint8)
        rgb[0, 0] = (255, 255, 255)
        rgb[0, 2] = (255, 0, 0)
        g = to_luma(rgb)
        assert g.samples[0, 0] == 255
        assert g.samples[0, 1] == 0
        assert g.samples[0, 2] == 76

    def test_malformed_raster(self):
        with pytest.raises(InputError):
            to_luma(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(InputError):
            to_luma(np.zeros((4, 4, 4), dtype=np.uint8))


class TestDownsample:
    def test_identity_dims(self):
        g = random_frame(np.random.default_rng(0), 8, 8)
        out = prepare_luma(g, SsimParams(8, 8))
        assert np.array_equal(out.samples, g.samples)

    def test_two_by_two_mean_rounds_half_up(self):
        g = gray([[0, 0], [255, 255]])
        out = prepare_luma(g, SsimParams(1, 1))
        assert out.samples[0, 0] == 128  # mean 127.5

    def test_constant_stays_constant(self):
        g = gray(np.full((30, 40), 77))
        out = prepare_luma(g, SsimParams(7, 11))
        assert (out.width, out.height) == (7, 11)
        assert np.all(out.samples == 77)

    def test_prepare_luma_never_upsamples(self):
        g = gray(np.zeros((10, 10)))
        out = prepare_luma(g, SsimParams())
        assert (out.width, out.height) == (10, 10)

    def test_prepare_luma_returns_new_frame_over_same_samples(self):
        # a frame already at comparison size is wrapped, not copied, so the
        # moments ssim caches on the result never land on the caller's frame
        g = random_frame(np.random.default_rng(4), 120, 160)
        out = prepare_luma(g, SsimParams())
        assert out is not g
        assert out.samples is g.samples
        ssim(out, out)
        assert "moments" in vars(out) and "moments" not in vars(g)


class TestSsim:
    def test_self_similarity(self):
        r = np.random.default_rng(1)
        for _ in range(10):
            f = random_frame(r)
            assert ssim(f, f) == pytest.approx(1.0, abs=1e-9)

    def test_constant_extremes_closed_form(self):
        black = gray(np.zeros((8, 8)))
        white = gray(np.full((8, 8), 255))
        expected = similarity._B1 / (255.0**2 + similarity._B1)
        assert ssim(black, white) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(9.999e-5, abs=1e-8)

    def test_matches_naive_oracle(self):
        r = np.random.default_rng(2)
        for _ in range(50):
            x = random_frame(r, 4, 4)
            y = random_frame(r, 4, 4)
            assert ssim(x, y) == pytest.approx(naive_ssim(x, y), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            ssim(gray(np.zeros((4, 4))), gray(np.zeros((4, 5))))

    @given(frame_pairs())
    @settings(max_examples=60)
    def test_symmetry(self, pair):
        x, y = pair
        assert ssim(x, y) == pytest.approx(ssim(y, x), abs=1e-12)

    @given(small_frames())
    @settings(max_examples=60)
    def test_self_is_one(self, x):
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_global_mode_permutation_invariant(self, seed):
        r = np.random.default_rng(seed)
        x = r.integers(0, 256, size=64, dtype=np.uint8)
        y = r.integers(0, 256, size=64, dtype=np.uint8)
        perm = r.permutation(64)
        a = ssim(gray(x.reshape(8, 8)), gray(y.reshape(8, 8)))
        b = ssim(gray(x[perm].reshape(8, 8)), gray(y[perm].reshape(8, 8)))
        assert a == pytest.approx(b, abs=1e-12)

    def test_noise_monotonically_degrades(self):
        # statistical trend: mean similarity strictly falls as noise grows
        amplitudes = (8, 32, 96)
        means = []
        for amp in amplitudes:
            vals = []
            for seed in range(20):
                r = np.random.default_rng(seed)
                base = r.integers(0, 256, size=(24, 24)).astype(np.int32)
                noise = r.integers(-amp, amp + 1, size=(24, 24))
                x = gray(np.clip(base, 0, 255))
                y = gray(np.clip(base + noise, 0, 255))
                vals.append(ssim(x, y))
            means.append(np.mean(vals))
        assert means[0] > means[1] > means[2]
