"""Each hot kernel checked against an exact or naive oracle."""

import json
import math
import time

import numpy as np
import pytest
from oracles import naive_box_downsample, naive_luma

from polypstream import kernels
from polypstream.cli import run_cli



def rng(seed=0):
    return np.random.default_rng(seed)


def random_gray(r, h, w):
    return r.integers(0, 256, size=(h, w), dtype=np.uint8)


class TestDownsampleExactness:
    def brute_force(self, g, tw, th):
        """Exact rational area average, rounded half up."""
        from fractions import Fraction

        h, w = g.shape
        out = np.empty((th, tw), dtype=np.uint8)
        for i in range(th):
            for j in range(tw):
                y0, y1 = Fraction(i * h, th), Fraction((i + 1) * h, th)
                x0, x1 = Fraction(j * w, tw), Fraction((j + 1) * w, tw)
                total = Fraction(0)
                area = Fraction(0)
                for yy in range(int(y0), -(-y1 // 1)):
                    for xx in range(int(x0), -(-x1 // 1)):
                        wy = min(y1, yy + 1) - max(y0, yy)
                        wx = min(x1, xx + 1) - max(x0, xx)
                        if wy > 0 and wx > 0:
                            total += int(g[yy, xx]) * wy * wx
                            area += wy * wx
                out[i, j] = int((total / area + Fraction(1, 2)).__floor__())
        return out

    @pytest.mark.parametrize(
        "shape,target",
        [
            ((12, 16), (4, 3)),
            ((17, 23), (5, 7)),
            ((9, 9), (9, 9)),
            ((97, 131), (40, 33)),
            ((50, 50), (7, 13)),
            # rows in whole runs of 3, columns in runs of 3 and 4 source pixels
            ((12, 17), (5, 4)),
            # the reverse: rows in runs of 3 and 4, columns in whole runs of 3
            ((17, 12), (4, 5)),
            # long runs of both lengths on each axis: 11/12 rows, 3/4 columns
            ((100, 7), (2, 9)),
            # one axis kept at its size, the other in runs of 1 and 2
            ((11, 6), (6, 7)),
            ((10, 13), (9, 10)),
        ],
    )
    def test_matches_exact_reference(self, shape, target):
        g = random_gray(rng(4), *shape)
        tw, th = target
        got = kernels.box_downsample(g, tw, th)
        want = self.brute_force(g, tw, th)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "shape,target",
        [((12, 16), (4, 3)), ((17, 23), (5, 7)), ((97, 131), (40, 33)), ((100, 7), (2, 9))],
    )
    def test_oracle_matches_exact_reference(self, shape, target):
        g = random_gray(rng(8), *shape)
        assert np.array_equal(naive_box_downsample(g, *target), self.brute_force(g, *target))

    @pytest.mark.parametrize(
        "size,target",
        [
            # the benchmark workloads: divisible, short periods (5 rows, 2
            # columns), divisible
            ((1280, 1080), (160, 120)),
            ((720, 576), (160, 120)),
            ((320, 240), (160, 120)),
            # row period 15 on divisible columns; periods 20 (rows) and 32
            ((1280, 1024), (160, 120)),
            ((1225, 966), (160, 120)),
            # long periods on both axes, then on the columns or the rows alone
            ((719, 577), (160, 120)),
            ((719, 576), (160, 120)),
            ((720, 577), (160, 120)),
            # a large odd target: periods 1279 (columns) and 359 (rows)
            ((1280, 1080), (1279, 1077)),
            # one axis kept at its size
            ((720, 576), (720, 120)),
            ((720, 576), (160, 576)),
            # one cell for the whole frame: den = h * w, the largest a size
            # can make
            ((1280, 1080), (1, 1)),
            ((719, 577), (1, 1)),
        ],
    )
    def test_matches_oracle(self, size, target):
        (w, h), (tw, th) = size, target
        g = random_gray(rng(w + h), h, w)
        np.testing.assert_array_equal(
            kernels.box_downsample(g, tw, th), naive_box_downsample(g, tw, th)
        )

    @pytest.mark.parametrize("cells", [65792, 65795])
    def test_all_255_either_side_of_float32_limit(self, cells):
        # a run of `cells` samples of 255 sums to 255 * cells: 16 776 960,
        # just below 2**24, at 65792 (float32), and 16 777 725 at 65795
        # (float64); 3 runs of one coverage period, on the rows, then on the
        # columns
        dtype = np.float32 if cells == 65792 else np.float64
        assert kernels._coverage(cells, 3, 255)[0].dtype == dtype
        for shape, (tw, th) in (((cells, 2), (2, 3)), ((2, cells), (3, 2))):
            g = np.full(shape, 255, dtype=np.uint8)
            got = kernels.box_downsample(g, tw, th)
            np.testing.assert_array_equal(got, naive_box_downsample(g, tw, th))
            assert np.all(got == 255)

    def test_long_period_builds_no_weights(self, monkeypatch):
        # 65795 rows onto 21931 have period 21931, so their weights would be
        # 65795 x 21931 floats; the run sums take it. (The dense oracle's
        # coverage matrix is as large, hence a constant frame.)
        coverage = kernels._coverage

        def short_only(src, target, largest):
            period = target // math.gcd(src, target)
            assert period <= kernels._MATMUL_PERIOD, f"weights for period {period}"
            return coverage(src, target, largest)

        monkeypatch.setattr(kernels, "_coverage", short_only)
        g = np.full((65795, 1), 173, dtype=np.uint8)
        assert np.all(kernels.box_downsample(g, 1, 21931) == 173)

    @staticmethod
    def block_mean(g, tw, th):
        h, w = g.shape
        fx, fy = w // tw, h // th
        blocks = g.reshape(th, fy, tw, fx).astype(np.int64).sum(axis=(1, 3))
        den = fx * fy
        return ((2 * blocks + den) // (2 * den)).astype(np.uint8)

    def test_divisible_equals_block_mean(self):
        g = random_gray(rng(5), 24, 32)
        got = kernels.box_downsample(g, 16, 12)
        blocks = g.reshape(12, 2, 16, 2).astype(np.int64).sum(axis=(1, 3))
        want = ((2 * blocks + 4) // 8).astype(np.uint8)
        assert np.array_equal(got, want)
        # 257 rows of 255 is the most a uint16 row sum holds; 258 overflows it
        for fy in (257, 258):
            g = np.full((2 * fy, 6), 255, dtype=np.uint8)
            got = kernels.box_downsample(g, 3, 2)
            assert np.array_equal(got, self.block_mean(g, 3, 2))
            assert np.all(got == 255)
        # the same bound when the runs are 256 and 257 rows, or 257 and 258
        for rows in (513, 515):
            g = np.full((rows, 6), 255, dtype=np.uint8)
            assert np.all(kernels.box_downsample(g, 3, 2) == 255)
        # the paper's resolution to the correlator's working size, and to a
        # coarse grid with many columns per cell
        g = random_gray(rng(6), 1080, 1280)
        for tw, th in ((160, 120), (10, 10)):
            assert np.array_equal(kernels.box_downsample(g, tw, th), self.block_mean(g, tw, th))


class TestRoundHalfUp:
    """``_round_half_up`` against ``(2 c + den) // (2 den)`` in exact integers."""

    # the dtypes box_downsample hands over, and the integers each holds exactly
    EXACT_BELOW = {np.uint16: 1 << 16, np.float32: 1 << 24, np.float64: 1 << 53, np.int64: 1 << 63}

    def dtypes(self, den):
        return [d for d, limit in self.EXACT_BELOW.items() if 255 * den < limit]

    def test_every_cell_up_to_den_1024(self):
        for den in range(1, 1025):
            c = np.arange(255 * den + 1, dtype=np.int64)
            want = (2 * c + den) // (2 * den)  # int64, far from overflow
            for dtype in self.dtypes(den):
                got = kernels._round_half_up(c.astype(dtype), den)
                assert got.dtype == np.uint8
                np.testing.assert_array_equal(got, want, err_msg=f"den {den} {dtype.__name__}")

    def test_ties_near_each_power_of_two(self):
        # c_k = ceil((2k - 1) den / 2) is the first cell that rounds to k, a
        # tie when den is even; with its neighbours for k = 1..255, and the
        # cells 0 and 255 den. 2**15 is the last den rounded in float32.
        for p in range(1, 45):
            for den in (2**p - 1, 2**p, 2**p + 1):
                if den > 2**44:
                    continue
                cells = [0, 255 * den]
                for k in range(1, 256):
                    first = ((2 * k - 1) * den + 1) // 2
                    cells += [c for c in (first - 1, first, first + 1) if c <= 255 * den]
                want = [(2 * c + den) // (2 * den) for c in cells]
                for dtype in self.dtypes(den):
                    got = kernels._round_half_up(np.array(cells, dtype=dtype), den)
                    assert got.tolist() == want, f"den {den} {dtype.__name__}"


def test_timing_budget_at_non_divisible_size(tmp_path):
    # criterion 8's 5 ms hard limit, at a height that 120 does not divide
    out = tmp_path / "bench.json"
    args = ["bench", "--synthetic-frames", "1000", "--frame-size", "1280x1024"]
    assert run_cli([*args, "--json", str(out)]) == 0
    mpt_ms = json.loads(out.read_text())["results"][0]["mpt_ms"]
    assert mpt_ms <= 5.0, f"mean {mpt_ms:.3f} ms/frame at 1280x1024"


class TestLuma:
    def test_weights(self):
        rgb = np.zeros((1, 4, 3), dtype=np.uint8)
        rgb[0, 0] = (255, 255, 255)
        rgb[0, 1] = (0, 0, 0)
        rgb[0, 2] = (255, 0, 0)
        rgb[0, 3] = (0, 255, 0)
        out = kernels.luma(rgb)
        assert out[0, 0] == 255
        assert out[0, 1] == 0
        assert out[0, 2] == 76  # round(76.245)
        assert out[0, 3] == 150  # round(149.685)

    def test_matches_exact_rounding(self):
        from fractions import Fraction

        rgb = rng(7).integers(0, 256, size=(37, 53, 3), dtype=np.uint8)
        out = kernels.luma(rgb)
        for i in range(37):
            for j in range(53):
                r, g, b = (int(v) for v in rgb[i, j])
                want = (Fraction(299 * r + 587 * g + 114 * b, 1000) + Fraction(1, 2)).__floor__()
                assert out[i, j] == want

    def test_every_rgb_triple_matches_oracle(self):
        # all 2**24 triples, as 256 rasters of 256x256: red fixed per raster,
        # green down the rows, blue along the columns
        levels = np.arange(256, dtype=np.uint8)
        rgb = np.empty((256, 256, 3), dtype=np.uint8)
        rgb[:, :, 1] = levels[:, None]
        rgb[:, :, 2] = levels[None, :]
        for red in range(256):
            rgb[:, :, 0] = red
            np.testing.assert_array_equal(kernels.luma(rgb), naive_luma(rgb), err_msg=f"red {red}")

    @pytest.mark.parametrize(
        "bands, extra_rows",
        [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
        ids=["0", "1", "band-1", "band", "band+1", "2band+1"],
    )
    @pytest.mark.parametrize("width", [0, 1, 7, 160])
    def test_band_edges(self, bands, extra_rows, width):
        # heights around the band size; width 7 makes a pixel count that no
        # band divides
        h = bands * kernels._LUMA_BAND_ROWS + extra_rows
        rgb = rng(h * 1000 + width).integers(0, 256, size=(h, width, 3), dtype=np.uint8)
        if rgb.size:
            rgb[-1, -1] = 255  # the largest sum, 255 500
        out = kernels.luma(rgb)
        assert out.dtype == np.uint8 and out.shape == (h, width)
        np.testing.assert_array_equal(out, naive_luma(rgb))

    def test_non_contiguous_view(self):
        h = 2 * kernels._LUMA_BAND_ROWS + 5
        rgb = rng(3).integers(0, 256, size=(h, 41, 3), dtype=np.uint8)
        view = rgb[:, ::2]
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(kernels.luma(view), naive_luma(view))

    def test_read_only_buffer(self):
        # the raster as read_image hands it over: a read-only view of file bytes
        h, w = kernels._LUMA_BAND_ROWS + 3, 29
        data = rng(4).integers(0, 256, size=h * w * 3, dtype=np.uint8).tobytes()
        rgb = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
        assert not rgb.flags.writeable
        np.testing.assert_array_equal(kernels.luma(rgb), naive_luma(rgb))


def test_colour_luma_time_ratio_at_paper_size():
    # colour 1280x1080: the banded kernel against the full-frame uint32
    # oracle, interleaved so both see the same machine speed
    rgb = rng(11).integers(0, 256, size=(1080, 1280, 3), dtype=np.uint8)
    kernels.luma(rgb), naive_luma(rgb)  # warm up
    ratios = []
    for _ in range(15):
        t0 = time.perf_counter()
        kernels.luma(rgb)
        t1 = time.perf_counter()
        naive_luma(rgb)
        t2 = time.perf_counter()
        ratios.append((t1 - t0) / (t2 - t1))
    ratio = float(np.median(ratios))
    assert ratio <= 0.75, f"median time ratio {ratio:.2f} to the uint32 formula"


class TestSsimKernels:
    @staticmethod
    def assert_stats_exact(x, y):
        a = [int(v) for v in x.ravel()]
        b = [int(v) for v in y.ravel()]
        want = (
            sum(a),
            sum(b),
            sum(v * v for v in a),
            sum(v * v for v in b),
            sum(u * v for u, v in zip(a, b)),
        )
        got = kernels.ssim_stats(kernels.moments(x), kernels.moments(y))
        assert got == want
        assert all(type(v) is int for v in got)

    def test_ssim_stats_exact(self):
        r = rng(2)
        self.assert_stats_exact(random_gray(r, 120, 160), random_gray(r, 120, 160))

    def test_ssim_stats_exact_all_255(self):
        full = np.full((120, 160), 255, dtype=np.uint8)
        self.assert_stats_exact(full, full.copy())

    def test_ssim_stats_exact_at_full_frame_size(self):
        # Sxx = Syy = Sxy = 255**2 * 1280 * 1080, about 9.0e10: the largest
        # sums a frame at the paper's resolution reaches
        full = np.full((1080, 1280), 255, dtype=np.uint8)
        self.assert_stats_exact(full, full.copy())
