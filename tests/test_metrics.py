"""Metric tests: hand fixtures, protocol walkthroughs, brute-force recounts."""

import numpy as np
import pytest

from gatetrack import metrics as M
from gatetrack.errors import NumericError, ShapeError
from gatetrack.flops import BranchCostTable
from gatetrack.gate import GateDecision
from gatetrack.head import BBox


def boxes_with_ious(targets):
    """Build (pred, gt) pairs whose IoU equals each target value exactly.

    gt is the unit-scaled (0, 0, 100, 100); a prediction (0, 0, 100 u, 100)
    nested inside it has IoU exactly u.
    """
    gt = [BBox(0.0, 0.0, 100.0, 100.0) for _ in targets]
    pred = [BBox(0.0, 0.0, 100.0 * float(u), 100.0) if u > 0 else
            BBox(500.0, 500.0, 10.0, 10.0) for u in targets]
    return pred, gt


class TestIoU:
    def test_identical(self):
        b = BBox(3.0, 4.0, 10.0, 12.0)
        assert M.iou(b, b) == 1.0

    def test_disjoint(self):
        assert M.iou(BBox(0, 0, 2, 2), BBox(10, 10, 2, 2)) == 0.0

    def test_hand_fixture_one_seventh(self):
        assert M.iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == pytest.approx(1 / 7, abs=1e-15)

    def test_zero_union(self):
        assert M.iou(BBox(0, 0, 0, 0), BBox(0, 0, 0, 0)) == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    def test_non_finite_box_raises(self, field, value):
        good = BBox(1.0, 2.0, 3.0, 4.0)
        bad = BBox(**{**vars(good), field: value})
        with pytest.raises(NumericError, match="finite"):
            M.iou(bad, good)
        with pytest.raises(NumericError, match="finite"):
            M.iou(good, bad)

    @pytest.mark.parametrize("a, b", [
        (BBox(0, 0, 1e308, 1e308), BBox(0, 0, 1e308, 1e308)),  # areas inf, inf - inf
        (BBox(0, 0, 1e308, 1e308), BBox(0, 0, 1.0, 1.0)),  # one area inf
        (BBox(1e308, 0, 1e308, 1.0), BBox(1e308, 0, 1e308, 1.0)),  # right edges inf
        (BBox(1e308, 0, 1e308, 0.0), BBox(1e308, 0, 1e308, 0.0)),  # inf width times 0 height
    ], ids=["both_areas", "one_area", "edges", "inf_times_zero"])
    def test_boxes_that_overflow_float64_raise(self, a, b):
        # all fields are finite, but an edge, an area or the intersection
        # overflows; each pair used to give NaN, or 0 from an infinite union
        for x, y in ((a, b), (b, a)):
            with pytest.raises(NumericError, match="overflow"):
                M.iou(x, y)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = BBox(*rng.uniform(0, 20, 4))
            b = BBox(*rng.uniform(0, 20, 4))
            assert M.iou(a, b) == pytest.approx(M.iou(b, a), abs=1e-15)
            assert 0.0 <= M.iou(a, b) <= 1.0


class TestOTB:
    def test_perfect_tracking(self):
        pred, gt = boxes_with_ious([1.0] * 5)
        curve, auc, precision = M.otb_success_precision(M.TrackResult(pred, gt))
        assert auc == pytest.approx(100 / 101)  # strict > excludes threshold 1.0
        assert np.all(curve[:-1] == 1.0) and curve[-1] == 0.0
        assert precision == 1.0

    def test_curve_nonincreasing(self):
        rng = np.random.default_rng(1)
        pred, gt = boxes_with_ious(rng.uniform(0, 1, 30))
        curve, _, _ = M.otb_success_precision(M.TrackResult(pred, gt))
        assert np.all(np.diff(curve) <= 0.0)

    def test_centered_predictions_full_precision(self):
        gt = [BBox(10.0, 10.0, 20.0, 20.0)] * 4
        pred = [BBox(15.0, 15.0, 10.0, 10.0)] * 4  # same centers, smaller
        _, _, precision = M.otb_success_precision(M.TrackResult(pred, gt))
        assert precision == 1.0

    def test_auc_close_to_mean_iou(self):
        rng = np.random.default_rng(2)
        ious = rng.uniform(0, 1, 1000)
        pred, gt = boxes_with_ious(ious)
        _, auc, _ = M.otb_success_precision(M.TrackResult(pred, gt))
        assert abs(auc - ious.mean()) < 0.01


class TestNormalizedPrecision:
    def test_half_width_offset_never_counted(self):
        gt = [BBox(0.0, 0.0, 40.0, 20.0)]
        pred = [BBox(20.0, 0.0, 40.0, 20.0)]  # center offset = w/2 -> e = 0.5
        assert M.normalized_precision(M.TrackResult(pred, gt)) == 0.0

    def test_zero_offset_scores_fifty_of_fiftyone(self):
        gt = [BBox(5.0, 5.0, 10.0, 10.0)]  # center (10, 10)
        pred = [BBox(-5.0, 8.0, 30.0, 4.0)]  # center (10, 10), any size
        # e = 0 counts at every threshold except theta = 0 (strict <)
        assert M.normalized_precision(M.TrackResult(pred, gt)) == pytest.approx(50 / 51)

    def test_three_frame_enumeration_oracle(self):
        gt = [BBox(0, 0, 10, 10), BBox(0, 0, 20, 10), BBox(5, 5, 10, 20)]
        pred = [BBox(1, 1, 10, 10), BBox(4, 0, 20, 10), BBox(5, 9, 10, 20)]
        errors = []
        for p, g in zip(pred, gt):
            errors.append(np.hypot((p.cx - g.cx) / g.w, (p.cy - g.cy) / g.h))
        expect = np.mean([np.mean([e < th for e in errors])
                          for th in np.round(np.linspace(0, 0.5, 51), 2)])
        got = M.normalized_precision(M.TrackResult(pred, gt))
        assert got == pytest.approx(expect, abs=1e-12)

    def test_degenerate_gt_rejected(self):
        with pytest.raises(ShapeError):
            M.normalized_precision(M.TrackResult([BBox(0, 0, 1, 1)], [BBox(0, 0, 0, 5)]))

    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_non_finite_box_raises_as_in_otb(self, side):
        """A NaN box is a fault upstream, not a miss: both metrics raise."""
        good, bad = BBox(1.0, 2.0, 3.0, 4.0), BBox(1.0, np.nan, 3.0, 4.0)
        result = M.TrackResult(*(([bad], [good]) if side == "pred" else ([good], [bad])))
        with pytest.raises(NumericError, match="finite"):
            M.otb_success_precision(result)
        with pytest.raises(NumericError, match="finite"):
            M.normalized_precision(result)


    @pytest.mark.parametrize("p, g", [
        (BBox(1.7e308, 0, 1.7e308, 1), BBox(1.7e308, 0, 1.7e308, 1)),  # cx inf, inf - inf
        (BBox(1e308, 0, 1, 1), BBox(-1e308, 0, 1, 1)),  # finite centres, difference inf
        (BBox(0, 1e308, 1, 1), BBox(0, -1e308, 1, 1)),  # the same along y
    ], ids=["centre_inf", "dx_inf", "dy_inf"])
    def test_centre_difference_that_overflows_float64_raises(self, p, g):
        # all fields finite; the first pair, a perfect prediction, used to
        # score 0 through a NaN error that fails every threshold test
        with pytest.raises(NumericError, match="overflow"):
            M.normalized_precision(M.TrackResult([p], [g]))

    def test_huge_but_finite_error_is_a_miss(self):
        # the centre difference fits in float64; only the normalised error is inf
        result = M.TrackResult([BBox(1e308, 0, 1, 1)], [BBox(0, 0, 1e-10, 1)])
        assert M.normalized_precision(result) == 0.0


class TestCenterDistance:
    def test_three_four_five(self):
        assert M.center_distance(BBox(0, 0, 2, 2), BBox(3, 4, 2, 2)) == 5.0

    @pytest.mark.parametrize("a, b", [
        (BBox(1.7e308, 0, 1.7e308, 1), BBox(1.7e308, 0, 1.7e308, 1)),  # cx inf: was NaN
        (BBox(1e308, 0, 1, 1), BBox(-1e308, 0, 1, 1)),  # difference inf: was inf
        (BBox(1.5e308, 1.5e308, 1, 1), BBox(0, 0, 1, 1)),  # the distance itself
    ], ids=["centre_inf", "difference_inf", "distance_inf"])
    def test_overflow_raises(self, a, b):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(NumericError, match="overflow"):
                M.center_distance(x, y)

    def test_non_finite_box_raises(self):
        with pytest.raises(NumericError, match="finite"):
            M.center_distance(BBox(np.nan, 0, 1, 1), BBox(0, 0, 1, 1))


class TestGot10k:
    def test_two_frame_fixture(self):
        pred, gt = boxes_with_ious([0.6, 0.8])
        ao, sr50, sr75 = M.got10k_ao_sr([M.TrackResult(pred, gt)])
        assert ao == pytest.approx(0.7, abs=1e-12)
        assert sr50 == 1.0
        assert sr75 == pytest.approx(0.5)

    def test_perfect(self):
        pred, gt = boxes_with_ious([1.0, 1.0, 1.0])
        assert M.got10k_ao_sr([M.TrackResult(pred, gt)]) == (1.0, 1.0, 1.0)

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(3)
        results, seq_ious = [], []
        for _ in range(5):
            ious = rng.uniform(0, 1, rng.integers(3, 12))
            seq_ious.append(ious)
            pred, gt = boxes_with_ious(ious)
            results.append(M.TrackResult(pred, gt))
        ao, sr50, sr75 = M.got10k_ao_sr(results)
        # brute-force recount with explicit loops
        ao_x = np.mean([np.mean(s) for s in seq_ious])
        sr50_x = np.mean([np.mean([v > 0.5 for v in s]) for s in seq_ious])
        sr75_x = np.mean([np.mean([v > 0.75 for v in s]) for s in seq_ious])
        assert abs(ao - ao_x) < 1e-9  # box construction is exact to ~1e-15
        assert abs(sr50 - sr50_x) < 1e-12
        assert abs(sr75 - sr75_x) < 1e-12

    def test_sequence_permutation_invariance(self):
        rng = np.random.default_rng(4)
        results = []
        for _ in range(4):
            pred, gt = boxes_with_ious(rng.uniform(0, 1, 6))
            results.append(M.TrackResult(pred, gt))
        a = M.got10k_ao_sr(results)
        b = M.got10k_ao_sr(results[::-1])
        assert a == b

    def test_sr_ordering(self):
        rng = np.random.default_rng(5)
        pred, gt = boxes_with_ious(rng.uniform(0, 1, 50))
        _, sr50, sr75 = M.got10k_ao_sr([M.TrackResult(pred, gt)])
        assert sr75 <= sr50


class TestVOT:
    def test_perfect(self):
        pred, gt = boxes_with_ious([1.0] * 8)
        accuracy, failures = M.vot_accuracy_robustness(M.TrackResult(pred, gt))
        assert accuracy == 1.0 and failures == 0

    def test_protocol_walkthrough(self):
        # IoUs [1, 0, 1, 1, 1, 1, 1, 1], skip 5: failure at frame 1,
        # frames 2..6 skipped, accuracy over frames {0, 7}
        assert M.VOT_REINIT_SKIP == 5
        pred, gt = boxes_with_ious([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        accuracy, failures = M.vot_accuracy_robustness(M.TrackResult(pred, gt))
        assert failures == 1
        assert accuracy == 1.0

    def test_alternating_failures_counted_after_skips(self):
        ious = [0.0, 1.0] * 8  # failures at 0, 6, 12 with skip 5
        pred, gt = boxes_with_ious(ious)
        accuracy, failures = M.vot_accuracy_robustness(M.TrackResult(pred, gt))
        # simulate the protocol independently
        i, expect_failures, kept = 0, 0, []
        while i < len(ious):
            if ious[i] == 0.0:
                expect_failures += 1
                i += 6
            else:
                kept.append(ious[i])
                i += 1
        assert failures == expect_failures
        assert accuracy == pytest.approx(np.mean(kept) if kept else 0.0)

    def test_all_failures(self):
        # failures at 0 and 6; frames 1..5 are skipped, so nothing is kept
        pred, gt = boxes_with_ious([0.0] * 7)
        accuracy, failures = M.vot_accuracy_robustness(M.TrackResult(pred, gt))
        assert accuracy == 0.0 and failures == 2


# identity/se/ca/cbam costs: CBAM is the costliest branch
TABLE = BranchCostTable((0.0, 1.0, 2.0, 3.0))


def record(weights, chosen, mode="soft"):
    """A gate decision recording ``weights`` and ``chosen`` (None when fixed)."""
    return GateDecision(frame_index=0, logits=np.zeros(4),
                        weights=np.asarray(weights, dtype=np.float64), mode=mode, chosen=chosen)


class TestGateTraceStats:
    @staticmethod
    def stats(rows, table=TABLE):
        """Trace statistics of ``(phase, weights, chosen)`` rows."""
        return M.gate_trace_stats([record(w, chosen) for _, w, chosen in rows],
                                  [phase for phase, _, _ in rows], table)

    def test_constant_weights(self):
        rows = [("stable", [0.25, 0.25, 0.25, 0.25], 0)] * 5
        stats, rate = self.stats(rows)
        for name in ("identity", "se", "ca", "cbam"):
            assert stats["stable"][name] == (0.25, 0.0)
        assert rate == 0.0

    def test_two_frame_mean_std(self):
        w = 0.7
        rows = [("fast", [w, 1 - w, 0.0, 0.0], 0),
                ("fast", [1 - w, w, 0.0, 0.0], 1)]
        stats, _ = self.stats(rows)
        mean, std = stats["fast"]["identity"]
        assert mean == pytest.approx(0.5)
        assert std == pytest.approx(abs(w - 0.5))

    def test_activation_rate_counts_costliest(self):
        rows = [("stable", [1, 0, 0, 0], 0),
                ("fast", [0, 0, 0, 1], 3),
                ("fast", [0, 0, 0, 1], 3),
                ("occlusion", [0, 0, 1, 0], 2)]
        _, rate = self.stats(rows)
        assert rate == 0.5

    def test_costliest_branch_read_from_table(self):
        rows = [("stable", [0, 1, 0, 0], 1), ("stable", [0, 0, 0, 1], 3),
                ("stable", [0, 0, 0, 1], 3), ("stable", [0, 0, 0, 1], 3)]
        assert self.stats(rows)[1] == 0.75
        assert self.stats(rows, BranchCostTable((0.0, 9.0, 2.0, 3.0)))[1] == 0.25

    def test_fixed_record_activates_every_branch_of_its_set(self):
        decisions = [record([0, 1 / 3, 1 / 3, 1 / 3], None, "fixed"),
                     record([0, 0.5, 0.5, 0], None, "fixed"),
                     record([1, 0, 0, 0], None, "fixed"),
                     record([0, 0, 0, 1], None, "fixed")]
        _, rate = M.gate_trace_stats(decisions, ["stable"] * 4, TABLE)
        assert rate == 0.5

    def test_phases_in_first_seen_order(self):
        rows = [(phase, [1, 0, 0, 0], 0) for phase in ("fast", "stable", "fast", "occlusion")]
        assert list(self.stats(rows)[0]) == ["fast", "stable", "occlusion"]

    def test_matches_direct_recount(self):
        rng = np.random.default_rng(6)
        phases = ["stable", "occlusion", "fast"]
        rows = []
        for _ in range(60):
            w = rng.dirichlet(np.ones(4))
            rows.append((phases[rng.integers(3)], w, int(rng.integers(4))))
        stats, rate = self.stats(rows)
        for phase in phases:
            sel = [w for ph, w, _ in rows if ph == phase]
            arr = np.stack(sel)
            for k, name in enumerate(("identity", "se", "ca", "cbam")):
                assert abs(stats[phase][name][0] - arr[:, k].mean()) < 1e-12
                assert abs(stats[phase][name][1] - arr[:, k].std()) < 1e-12
        assert rate == pytest.approx(np.mean([s == 3 for _, _, s in rows]), abs=1e-12)

    def test_empty_trace_rejected(self):
        with pytest.raises(ShapeError):
            M.gate_trace_stats([], [], TABLE)

    @pytest.mark.parametrize("n_phases", [1, 3])
    def test_phase_count_mismatch_rejected(self, n_phases):
        decisions = [record([1, 0, 0, 0], 0)] * 2
        with pytest.raises(ShapeError):
            M.gate_trace_stats(decisions, ["stable"] * n_phases, TABLE)


class TestTrackResult:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            M.TrackResult([BBox(0, 0, 1, 1)], [])
