"""Scene generator tests: determinism, phase regimes, splits."""

import numpy as np
import pytest

from gatetrack import scenes as S
from gatetrack.errors import ConfigError


def small_spec(seed=7, **kw):
    kw.setdefault("schedule", (("stable", 10), ("occlusion", 8), ("fast", 8)))
    return S.ScenarioSpec(seed=seed, **kw)


def occluded_fraction(frame, box):
    """Pixel-count oracle: fraction of box pixels at the flat occluder value."""
    img = np.asarray(frame)[0, 0]
    x0, y0 = int(round(box.x)), int(round(box.y))
    x1, y1 = int(round(box.x + box.w)), int(round(box.y + box.h))
    patch = img[y0:y1, x0:x1]
    if patch.size == 0:
        return 0.0
    return float((patch == S.OCCLUDER_VALUE).mean())


class TestScenarioSpec:
    def test_schedule_contract(self):
        spec = S.ScenarioSpec(seed=1, schedule=(("stable", 10),))
        seq = S.generate(spec)
        assert len(seq) == 10
        assert seq.phases == ["stable"] * 10
        assert len(seq.gt) == 10

    def test_bad_phase_rejected(self):
        with pytest.raises(ConfigError):
            S.ScenarioSpec(seed=1, schedule=(("teleport", 5),))

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigError):
            S.ScenarioSpec(seed=1, schedule=(("stable", 0),))

    def test_bad_occlusion_range(self):
        with pytest.raises(ConfigError):
            S.ScenarioSpec(seed=1, occlusion_range=(0.5, 1.2))

    # unchecked, each gives NaN frames, a 0x0 box or a truncated phase, or a
    # raw OverflowError/ValueError from inside generate()
    @pytest.mark.parametrize("key, value", [
        ("target_sigma", 0.0),
        ("target_sigma", float("nan")),
        ("intensity", float("nan")),
        ("fast_multiplier", float("nan")),
        ("frame_height", 0),
        ("frame_width", 64.0),
        ("schedule", (("stable", 2.5),)),
        ("seed", -1),
    ], ids=["sigma_zero", "sigma_nan", "intensity_nan", "fast_multiplier_nan",
            "height_zero", "width_float", "duration_fraction", "seed_negative"])
    def test_degenerate_numbers_rejected(self, key, value):
        with pytest.raises(ConfigError):
            S.ScenarioSpec(**{"seed": 1, key: value})


class TestGenerate:
    def test_same_seed_bitwise_identical(self):
        a = S.generate(small_spec())
        b = S.generate(small_spec())
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.data, fb.data)
        for ga, gb in zip(a.gt, b.gt):
            assert ga == gb

    def test_different_seeds_differ(self):
        a = S.generate(small_spec(seed=1))
        b = S.generate(small_spec(seed=2))
        assert not np.array_equal(a.frames[0].data, b.frames[0].data)

    def test_frames_in_unit_range(self):
        seq = S.generate(small_spec())
        for f in seq.frames:
            assert f.shape == (1, 1, 128, 128)
            assert f.data.min() >= 0.0 and f.data.max() <= 1.0

    def test_gt_boxes_inside_frame(self):
        for seed in range(5):
            seq = S.generate(small_spec(seed=seed))
            for box in seq.gt:
                assert box.x >= 0 and box.y >= 0
                assert box.x + box.w <= 128 and box.y + box.h <= 128
                assert box.w > 1 and box.h > 1

    def test_phase_labels_partition_schedule(self):
        seq = S.generate(small_spec())
        assert seq.phases == ["stable"] * 10 + ["occlusion"] * 8 + ["fast"] * 8

    def test_fast_displacement_at_least_3x_stable(self):
        steps = {"stable": [], "fast": []}
        for seed in range(4):
            seq = S.generate(small_spec(seed=seed))
            for k in range(1, len(seq)):
                if seq.phases[k] != seq.phases[k - 1]:
                    continue  # ignore the phase transition step
                prev, cur = seq.gt[k - 1], seq.gt[k]
                d = np.hypot(cur.cx - prev.cx, cur.cy - prev.cy)
                if seq.phases[k] in steps:
                    steps[seq.phases[k]].append(d)
        assert np.mean(steps["fast"]) >= 3.0 * np.mean(steps["stable"])

    def test_stable_drift_at_most_one_px(self):
        seq = S.generate(small_spec())
        for k in range(1, len(seq)):
            if seq.phases[k] == "stable" and seq.phases[k - 1] == "stable":
                prev, cur = seq.gt[k - 1], seq.gt[k]
                d = np.hypot(cur.cx - prev.cx, cur.cy - prev.cy)
                assert d <= S.BASE_SPEED + 0.35  # shape jitter moves the box center a little

    def test_occlusion_fraction_by_pixel_counting(self):
        for seed in range(4):
            seq = S.generate(small_spec(seed=seed))
            for frame, box, phase in zip(seq.frames, seq.gt, seq.phases):
                fraction = occluded_fraction(frame.data, box)
                if phase == "occlusion":
                    assert 0.6 - 0.05 <= fraction <= 0.8 + 0.05
                else:
                    assert fraction == 0.0

    def test_fast_frames_are_blurred(self):
        # motion blur lowers the peak intensity relative to a stable frame
        spec = S.ScenarioSpec(seed=3, schedule=(("stable", 6), ("fast", 6)))
        seq = S.generate(spec)
        stable_peak = max(f.data.max() for f, p in zip(seq.frames, seq.phases)
                          if p == "stable")
        fast_peaks = [f.data.max() for f, p in zip(seq.frames, seq.phases)
                      if p == "fast"]
        assert np.mean(fast_peaks) < stable_peak


class TestSplitBenchmark:
    def test_disjoint_seed_ranges(self):
        train, eval_ = S.split_benchmark(20, 20, 7)
        seeds = [s.seed for s in train] + [s.seed for s in eval_]
        assert len(set(seeds)) == 40

    def test_eval_covers_all_phases(self):
        _, eval_ = S.split_benchmark(2, 3, 7)
        for spec in eval_:
            assert {p for p, _ in spec.schedule} == {"stable", "occlusion", "fast"}

    def test_reproducible(self):
        a = S.split_benchmark(5, 5, 7)
        b = S.split_benchmark(5, 5, 7)
        assert [s.seed for s in a[0]] == [s.seed for s in b[0]]
        assert [s.seed for s in a[1]] == [s.seed for s in b[1]]

    def test_counts_validated(self):
        with pytest.raises(ConfigError):
            S.split_benchmark(0, 5, 7)

