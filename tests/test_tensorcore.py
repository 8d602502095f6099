import contextlib
import sys
import threading

import numpy as np
import pytest

from lumaflux import tensorcore as tc
from lumaflux.errors import ConfigError, DimensionError, DomainError, EvaluationError


PIXEL_RULE = tc.band_rows


def fix_band_rows(monkeypatch, rows):
    """Make every row band `rows` tall at any frame width; None restores the pixel rule."""
    monkeypatch.setattr(tc, "band_rows", PIXEL_RULE if rows is None else lambda width: rows)


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        m = np.random.default_rng(0).normal(size=(5, 7)) * 50
        s = tc.softmax_rows(m)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(s > 0)

    def test_shift_invariance(self):
        m = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(tc.softmax_rows(m), tc.softmax_rows(m + 123.0), atol=1e-12)

    def test_overflow_safety(self):
        s = tc.softmax_rows(np.array([[1000.0, 1000.0, 0.0]]))
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s[0, 0], 0.5, atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            tc.softmax_rows(np.array([[1.0, np.nan]]))


class TestLayerNorm:
    def test_moments(self):
        x = np.random.default_rng(0).normal(3.0, 2.0, size=(8, 64))
        y = tc.layer_norm(x)
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-6)

    def test_idempotence(self):
        x = np.random.default_rng(1).normal(size=(4, 32))
        y = tc.layer_norm(x)
        np.testing.assert_allclose(tc.layer_norm(y), y, atol=1e-6)

    def test_too_few_features(self):
        with pytest.raises(DimensionError):
            tc.layer_norm(np.zeros((3, 1)))


class TestFiniteDiffGrad:
    def test_quadratic_exact(self):
        theta = np.array([1.0, -2.0, 0.5])
        grad = tc.finite_diff_grad(lambda t: float(np.sum(t**2)), theta, 1e-6)
        np.testing.assert_allclose(grad, 2 * theta, atol=1e-8)

    def test_preserves_shape(self):
        theta = np.ones((2, 3))
        grad = tc.finite_diff_grad(lambda t: float(np.sum(t)), theta, 1e-6)
        assert grad.shape == (2, 3)
        np.testing.assert_allclose(grad, 1.0, atol=1e-8)

    def test_nonfinite_names_coordinate(self):
        def f(t):
            return float("nan") if t[1] != 0.0 else 0.0

        with pytest.raises(EvaluationError, match="coordinate 0"):
            tc.finite_diff_grad(f, np.array([0.0, 1.0]), 1e-6)

    def test_bad_step(self):
        with pytest.raises(DomainError):
            tc.finite_diff_grad(lambda t: 0.0, np.zeros(2), 0.0)


def mapped_bands(height, width, workers):
    """The (start, stop) of every band map_row_bands hands its kernel, sorted."""
    seen = []
    lock = threading.Lock()

    def kernel(rows):
        with lock:
            seen.append((rows.start, rows.stop))

    tc.map_row_bands(kernel, height, width, workers)
    return sorted(seen)


# frame width -> rows per band
BAND_ROWS_AT = {1: 32768, 45: 728, 960: 32, 1027: 24, 1920: 16, 3840: 8}


class TestMapRowBands:
    @pytest.mark.parametrize("height", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bands_tile_the_frame_at_fixed_edges(self, height, workers):
        # 64-row bands at this width
        edges = list(range(0, height, 64)) + [height]
        got = mapped_bands(height, tc.BAND_PIXELS // 64, workers)
        assert got == list(zip(edges[:-1], edges[1:]))

    @pytest.mark.parametrize("width", list(BAND_ROWS_AT))
    def test_band_height_follows_the_pixel_budget(self, width):
        step = tc.band_rows(width)
        assert step == BAND_ROWS_AT[width]
        # the largest multiple of 8 within the budget, or 8 rows when none is
        assert step % 8 == 0 and (step * width <= tc.BAND_PIXELS or step == 8)
        assert (step + 8) * width > tc.BAND_PIXELS
        for height in sorted({1, 7, 8, 9, step - 1, step, step + 1, 3 * step + 5, 1080} - {0}):
            bands = [(rows.start, rows.stop) for rows in tc.row_bands(height, width)]
            # in order, each band starting where the one before it stops
            assert bands[0][0] == 0 and bands[-1][1] == height
            assert all(a[1] == b[0] for a, b in zip(bands, bands[1:]))
            rows = [stop - top for top, stop in bands]
            assert all(0 < n <= step and (n * width <= tc.BAND_PIXELS or n == 8) for n in rows)
            assert all(n % 8 == 0 for n in rows[:-1])
            for workers in (1, 2, 4):
                assert mapped_bands(height, width, workers) == bands

    def test_first_failing_band_in_row_order_propagates(self):
        def kernel(rows):
            if rows.start >= 64:
                raise DomainError(f"band at row {rows.start}")

        for workers in (1, 2):
            with pytest.raises(DomainError, match="band at row 64$"):
                tc.map_row_bands(kernel, 300, tc.BAND_PIXELS // 64, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_band_skips_the_bands_not_yet_started(self, workers):
        # a failing band empties the queue, so no thread starts another band; with
        # one worker the caller raises before it takes a second band
        bands = tc.row_bands(1080, 1920)
        ran = []

        def kernel(rows):
            ran.append(rows.start)
            if rows.start == 0:
                raise DomainError("first band")
            threading.Event().wait(0.05)

        with pytest.raises(DomainError, match="first band"):
            tc.map_row_bands(kernel, 1080, 1920, workers)
        assert len(ran) < len(bands) // 2
        if workers == 1:
            assert ran == [0]

    @pytest.mark.parametrize("fail", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_bands_run_on_the_caller_and_at_most_workers_minus_one_helpers(self, workers, fail):
        # twelve 64-row bands, each long enough that no one thread takes them all;
        # with one worker the caller takes every band and no helper starts
        before = threading.active_count()
        threads = set()

        def kernel(rows):
            threads.add(threading.current_thread())
            threading.Event().wait(0.005)
            if fail and rows.start == 64 * 6:
                raise DomainError("band 6")

        with pytest.raises(DomainError, match="band 6$") if fail else contextlib.nullcontext():
            tc.map_row_bands(kernel, 64 * 12, tc.BAND_PIXELS // 64, workers)
        helpers = threads - {threading.main_thread()}
        assert threading.main_thread() in threads
        assert min(1, workers - 1) <= len(helpers) <= workers - 1
        assert not any(t.is_alive() for t in helpers)
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail_at", [None, 250])
    def test_every_band_runs_once_under_contention(self, fail_at):
        # 400 bands of 8 rows on 8 threads, more than the cores, switching as often
        # as the interpreter allows; a band taken twice or lost shows in `ran`
        ran = []

        def kernel(rows):
            ran.append(rows.start // 8)
            if rows.start // 8 == fail_at:
                raise DomainError(f"band {fail_at}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(DomainError) if fail_at else contextlib.nullcontext():
                tc.map_row_bands(kernel, 8 * 400, tc.BAND_PIXELS // 8, 8)
        finally:
            sys.setswitchinterval(interval)
        assert len(ran) == len(set(ran))
        if fail_at is None:
            assert sorted(ran) == list(range(400))
        else:
            # every band up to the failing one ran; later ones taken before the
            # failure was recorded may have run too
            assert sorted(ran)[:fail_at + 1] == list(range(fail_at + 1))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_slow_failing_band_wins_over_a_later_fast_one(self, workers):
        def kernel(rows):
            if rows.start == 0:
                threading.Event().wait(0.05)
                raise DomainError("band 0")
            if rows.start == 64:
                raise DomainError("band 1")

        with pytest.raises(DomainError, match="band 0$"):
            tc.map_row_bands(kernel, 300, tc.BAND_PIXELS // 64, workers)

    def test_interrupt_on_the_calling_thread_propagates_as_itself(self):
        # the helper's band fails below the caller's band, and before the caller
        # raises; the caller's KeyboardInterrupt still propagates, not the helper's error
        before = threading.active_count()
        helper_has_band, caller_in_band = threading.Event(), threading.Event()
        helper_failed = threading.Event()
        failed = {}  # "helper" or "caller" -> (first row of the band that raised, its thread)

        def kernel(rows):
            if threading.current_thread() is not threading.main_thread():
                helper_has_band.set()
                assert caller_in_band.wait(5)
                failed["helper"] = (rows.start, threading.current_thread())
                helper_failed.set()
                raise DomainError("helper band")
            if rows.start == 0:
                assert helper_has_band.wait(5)
                return
            caller_in_band.set()
            assert helper_failed.wait(5)
            failed["caller"] = (rows.start, threading.current_thread())
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            tc.map_row_bands(kernel, 300, tc.BAND_PIXELS // 64, 2)
        assert failed["helper"][0] < failed["caller"][0]
        assert not failed["helper"][1].is_alive()
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [0, -2])
    def test_fewer_than_one_worker_is_config_error(self, workers):
        with pytest.raises(ConfigError):
            tc.map_row_bands(lambda rows: None, 10, 10, workers)
