"""Head tests: forward shapes, decoding, label assignment, loss terms."""

import math

import numpy as np
import pytest

from gatetrack import head as H
from gatetrack import tensor as T
from gatetrack.errors import ConfigError, NumericError, ShapeError
from helpers import zeroed


def make_head(rng, channels=8):
    params = T.ParamSet()
    p = H.init_head(params, rng, channels)
    return params, p


class TestHeadForward:
    def test_zero_params_closed_form(self):
        p = zeroed(H.init_head, 8)
        fused = T.Tensor4(np.random.default_rng(1).standard_normal((1, 8, 4, 4)))
        out = H.head_forward(fused, p)
        assert np.array_equal(out.cls.data, np.zeros((1, 1, 4, 4)))
        assert np.array_equal(out.ctr.data, np.zeros((1, 1, 4, 4)))
        assert np.array_equal(out.reg.data, np.ones((1, 4, 4, 4)))  # exp(0)

    def test_output_spatial_dims_match_input(self):
        rng = np.random.default_rng(2)
        params, p = make_head(rng)
        for shape in [(1, 8, 4, 4), (2, 8, 6, 3)]:
            out = H.head_forward(T.Tensor4(rng.standard_normal(shape)), p)
            assert out.cls.shape == (shape[0], 1, shape[2], shape[3])
            assert out.reg.shape == (shape[0], 4, shape[2], shape[3])

    def test_reg_always_positive(self):
        rng = np.random.default_rng(3)
        params, p = make_head(rng)
        out = H.head_forward(T.Tensor4(rng.standard_normal((1, 8, 4, 4)) * 5), p)
        assert np.all(out.reg.data > 0)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(4)
        params, p = make_head(rng)
        with pytest.raises(ShapeError):
            H.head_forward(T.zeros((1, 4, 4, 4)), p)

    def test_grad_check_small(self):
        rng = np.random.default_rng(5)
        params = T.ParamSet()
        p = H.init_head(params, rng, 2)
        params.add("f", T.Tensor4(rng.standard_normal((1, 2, 3, 3))))

        def loss(ps):
            out = H.head_forward(ps["f"], p)
            s = T.add(T.sum_all(T.sigmoid(out.cls)), T.sum_all(T.sigmoid(out.ctr)))
            return T.add(s, T.sum_all(T.mul_broadcast(out.reg, out.reg)))

        err = T.grad_check(loss, params, eps=1e-5)
        assert err < 1e-4, f"head rel err {err}"


def per_branch_forward(fused, p):
    """The head with each branch running its own first conv: the oracle of
    the joined first conv in :func:`H.head_forward`."""
    def branch(weights):
        w1, b1, w2, b2, w3, b3 = weights
        h = T.relu(T.conv2d(fused, w1, b1, stride=1, pad=1))
        h = T.relu(T.conv2d(h, w2, b2, stride=1, pad=1))
        return T.conv2d(h, w3, b3)

    cls, ctr, reg_raw = branch(p.cls), branch(p.ctr), branch(p.reg)
    return H.HeadOutput(cls=cls, ctr=ctr, reg=T.exp(reg_raw), reg_raw=reg_raw)


@pytest.mark.parametrize("batch", [1, 4])
def test_joined_first_conv_matches_per_branch_oracle(batch):
    rng = np.random.default_rng(6)
    params, p = make_head(rng, channels=32)
    for _, t in params.items():  # nonzero biases, so a misrouted bias shows
        t.data += 0.1 * rng.standard_normal(t.shape)
    fused = T.Tensor4(rng.standard_normal((batch, 32, 16, 16)))
    probes = [rng.standard_normal((batch, cout, 16, 16)) for cout in (1, 1, 4)]

    def run(forward):
        out = forward(fused, p)
        loss = None
        for part, probe in zip((out.cls, out.ctr, out.reg), probes):
            term = T.sum_all(T.mul_broadcast(part, T.Tensor4(probe)))
            loss = term if loss is None else T.add(loss, term)
        grads = T.backprop(loss, params)
        return [part.data.tobytes() for part in (out.cls, out.ctr, out.reg)], grads

    maps, grads = run(H.head_forward)
    oracle_maps, oracle_grads = run(per_branch_forward)
    assert maps == oracle_maps
    for name, g in oracle_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


class TestDecode:
    def _single_location_output(self, cls_logit, ctr_logit, ltrb):
        cls = T.Tensor4(np.full((1, 1, 1, 1), cls_logit))
        ctr = T.Tensor4(np.full((1, 1, 1, 1), ctr_logit))
        reg = T.Tensor4(np.array(ltrb).reshape(1, 4, 1, 1))
        return H.HeadOutput(cls=cls, ctr=ctr, reg=reg, reg_raw=reg)

    def test_single_location_hand_example(self):
        out = self._single_location_output(0.0, 0.0, [2.0, 2.0, 2.0, 2.0])
        det = H.decode_detection(out, stride=4, crop_origin=(0.0, 0.0))
        # center of location (0, 0) at stride 4 is (2, 2)
        assert (det.box.x, det.box.y, det.box.w, det.box.h) == (0.0, 0.0, 4.0, 4.0)
        assert det.score == pytest.approx(0.25)

    def test_min_side_clamp(self):
        out = self._single_location_output(0.0, 0.0, [0.0, 0.0, 0.0, 0.0])
        det = H.decode_detection(out, stride=4)
        assert det.box.w == 1.0 and det.box.h == 1.0

    def test_crop_origin_translation(self):
        out = self._single_location_output(1.0, -0.5, [3.0, 1.0, 2.0, 4.0])
        a = H.decode_detection(out, stride=4, crop_origin=(0.0, 0.0))
        b = H.decode_detection(out, stride=4, crop_origin=(100.0, 50.0))
        assert b.box.x - a.box.x == 100.0
        assert b.box.y - a.box.y == 50.0
        assert (b.box.w, b.box.h) == (a.box.w, a.box.h)

    def test_argmax_first_index_tie_break(self):
        cls = T.zeros((1, 1, 2, 2))
        ctr = T.zeros((1, 1, 2, 2))
        reg = T.Tensor4(np.ones((1, 4, 2, 2)))
        det = H.decode_detection(H.HeadOutput(cls, ctr, reg, reg), stride=4)
        # all scores equal: location (0, 0) wins
        assert det.box.cx == 2.0 and det.box.cy == 2.0

    def test_score_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            cls = T.Tensor4(rng.standard_normal((1, 1, 3, 3)) * 10)
            ctr = T.Tensor4(rng.standard_normal((1, 1, 3, 3)) * 10)
            reg = T.Tensor4(np.abs(rng.standard_normal((1, 4, 3, 3))))
            det = H.decode_detection(H.HeadOutput(cls, ctr, reg, reg), stride=4)
            assert 0.0 < det.score < 1.0

    @pytest.mark.parametrize("cls_logit, ltrb", [
        (math.nan, [2.0, 2.0, 2.0, 2.0]),
        (0.0, [math.nan, 2.0, 2.0, 2.0]),
        (0.0, [2.0, 2.0, math.inf, 2.0]),
        (0.0, [2.0, -math.inf, 2.0, 2.0]),
    ], ids=["nan_score", "nan_left", "inf_right", "neg_inf_top"])
    def test_non_finite_output_raises_numeric_error(self, cls_logit, ltrb):
        out = self._single_location_output(cls_logit, 0.0, ltrb)
        with pytest.raises(NumericError):
            H.decode_detection(out, stride=4)


class TestMakeLabels:
    def test_center_location_full_centerness(self):
        # grid center of an odd grid falls exactly on the gt center
        gt = H.BBox(14.0, 14.0, 36.0, 36.0)  # center (32, 32)
        labels = H.make_labels(gt, stride=4, shape=(16, 16))
        # location (7, 7) has center (30, 30); (8, 8) eh: centers at 2+4k
        # exact center location exists when 32 = (j + 0.5)*4 -> j = 7.5: none.
        # use a grid where it does: stride 4, gt center at (30, 30)
        gt = H.BBox(10.0, 10.0, 40.0, 40.0)
        labels = H.make_labels(gt, stride=4, shape=(16, 16))
        i, j = 7, 7  # center (30, 30) == gt center
        assert labels.positive[0, 0, i, j] == 1.0
        assert labels.ctr[0, 0, i, j] == pytest.approx(1.0)

    def test_positive_count_matches_enumeration_oracle(self):
        gt = H.BBox(16.0, 16.0, 32.0, 32.0)
        labels = H.make_labels(gt, stride=4, shape=(16, 16))
        count = 0
        for i in range(16):
            for j in range(16):
                cx, cy = (j + 0.5) * 4, (i + 0.5) * 4
                half_w, half_h = 0.5 * 32 / 2, 0.5 * 32 / 2
                if (abs(cx - 32.0) <= half_w and abs(cy - 32.0) <= half_h
                        and 16 <= cx <= 48 and 16 <= cy <= 48):
                    count += 1
        assert labels.n_positive == count
        assert count > 0

    def test_whole_crop_gt_central_half(self):
        gt = H.BBox(0.0, 0.0, 64.0, 64.0)
        labels = H.make_labels(gt, stride=4, shape=(16, 16))
        pos = labels.positive[0, 0]
        cx, cy = H.location_centers(16, 16, 4)
        expect = ((np.abs(cx - 32.0) <= 16.0) & (np.abs(cy - 32.0) <= 16.0))
        assert np.array_equal(pos.astype(bool), expect)

    def test_gt_outside_crop_no_positives(self):
        labels = H.make_labels(H.BBox(200.0, 200.0, 20.0, 20.0), 4, (16, 16))
        assert labels.n_positive == 0

    @pytest.mark.parametrize("box", [H.BBox(math.nan, 0.0, 4.0, 4.0),
                                     H.BBox(0.0, 0.0, math.inf, 4.0),
                                     H.BBox(0.0, -math.inf, 4.0, 4.0)])
    def test_non_finite_gt_raises_numeric_error(self, box):
        # unchecked, a NaN box gave NaN regression targets and no positives,
        # so a batch holding it made compute_loss NaN
        with pytest.raises(NumericError):
            H.make_labels(box, 4, (16, 16))

    @pytest.mark.parametrize("w, h", [(-4.0, 4.0), (4.0, -0.5)])
    def test_negative_size_raises_shape_error(self, w, h):
        with pytest.raises(ShapeError):
            H.make_labels(H.BBox(8.0, 8.0, w, h), 4, (16, 16))

    def test_decode_of_exact_targets_reproduces_gt(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            gt = H.BBox(float(rng.uniform(4, 30)), float(rng.uniform(4, 30)),
                        float(rng.uniform(8, 30)), float(rng.uniform(8, 30)))
            labels = H.make_labels(gt, stride=4, shape=(16, 16))
            if labels.n_positive == 0:
                continue
            idx = np.argwhere(labels.positive[0, 0] > 0)
            for i, j in idx:
                l, t, r, b = labels.reg[0, :, i, j]
                cx, cy = (j + 0.5) * 4, (i + 0.5) * 4
                assert abs((cx - l) - gt.x) < 1e-9
                assert abs((cy - t) - gt.y) < 1e-9
                assert abs((l + r) - gt.w) < 1e-9
                assert abs((t + b) - gt.h) < 1e-9


class TestComputeLoss:
    def test_all_terms_nonnegative_and_finite(self):
        rng = np.random.default_rng(8)
        params, p = make_head(rng)
        fused = T.Tensor4(rng.standard_normal((1, 8, 16, 16)))
        out = H.head_forward(fused, p)
        labels = H.make_labels(H.BBox(16.0, 16.0, 32.0, 32.0), 4, (16, 16))
        loss = H.compute_loss(out, labels)
        assert np.isfinite(loss.item()) and loss.item() >= 0.0

    def test_labels_of_another_shape_raise_shape_error(self):
        rng = np.random.default_rng(9)
        params, p = make_head(rng)
        out = H.head_forward(T.Tensor4(rng.standard_normal((1, 8, 4, 4))), p)
        labels = H.make_labels(H.BBox(4.0, 4.0, 8.0, 8.0), 4, (4, 5))
        with pytest.raises(ShapeError):
            H.compute_loss(out, labels)

    def test_no_positives_only_cls_term(self):
        rng = np.random.default_rng(9)
        params, p = make_head(rng)
        out = H.head_forward(T.Tensor4(rng.standard_normal((1, 8, 4, 4))), p)
        labels = H.make_labels(H.BBox(500.0, 500.0, 8.0, 8.0), 4, (4, 4))
        direct = T.bce_with_logits(out.cls, labels.positive)
        assert H.compute_loss(out, labels).item() == direct.item()

    def test_near_perfect_predictions_near_zero_loss(self):
        # single positive exactly at the gt center: binary targets everywhere,
        # so capped logits and exact regression reach the loss floor
        gt = H.BBox(2.0, 2.0, 4.0, 4.0)  # center (4, 4) == center of loc (0, 0)... no:
        gt = H.BBox(0.0, 0.0, 4.0, 4.0)  # center (2, 2) == only location's center
        labels = H.make_labels(gt, 4, (1, 1))
        assert labels.n_positive == 1 and labels.ctr[0, 0, 0, 0] == 1.0
        cls = T.Tensor4(np.where(labels.positive > 0, 20.0, -20.0))
        ctr = T.Tensor4(np.where(labels.positive > 0, 20.0, -20.0))
        reg = T.Tensor4(np.where(labels.reg > 0, labels.reg, 1.0))
        out = H.HeadOutput(cls=cls, ctr=ctr, reg=reg, reg_raw=reg)
        assert H.compute_loss(out, labels).item() <= 1e-6

    def test_fractional_centerness_targets_keep_entropy_floor(self):
        # positives away from the exact center have targets in (0, 1); the
        # minimum of BCE there is the target entropy, not zero
        gt = H.BBox(16.0, 16.0, 32.0, 32.0)
        labels = H.make_labels(gt, 4, (16, 16))
        eps = 1e-12
        t = np.clip(labels.ctr, eps, 1 - eps)
        ctr = T.Tensor4(np.log(t / (1 - t)))  # sigmoid(logit) == target
        cls = T.Tensor4(np.where(labels.positive > 0, 20.0, -20.0))
        reg = T.Tensor4(np.where(labels.reg > 0, labels.reg, 1.0))
        out = H.HeadOutput(cls=cls, ctr=ctr, reg=reg, reg_raw=reg)
        floor = float((np.where(labels.positive > 0,
                                -(t * np.log(t) + (1 - t) * np.log(1 - t)),
                                0.0)).sum()) / labels.n_positive
        total = H.compute_loss(out, labels).item()
        assert total == pytest.approx(floor, abs=1e-6)

    def test_hand_built_single_positive(self):
        # one location, gt exactly centered: centerness target 1
        gt = H.BBox(0.0, 0.0, 4.0, 4.0)
        labels = H.make_labels(gt, 4, (1, 1))
        assert labels.n_positive == 1
        cls = T.Tensor4(np.full((1, 1, 1, 1), 0.3))
        ctr = T.Tensor4(np.full((1, 1, 1, 1), -0.2))
        reg = T.Tensor4(np.array([1.0, 2.0, 3.0, 2.0]).reshape(1, 4, 1, 1))
        out = H.HeadOutput(cls, ctr, reg, reg)
        # scalar oracle
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        bce_cls = -math.log(sig(0.3))
        bce_ctr = -math.log(sig(-0.2))
        inter = (min(1, 2) + min(3, 2)) * (min(2, 2) + min(2, 2))
        union = (1 + 3) * (2 + 2) + 4 * 4 - inter
        expect = bce_cls + bce_ctr + (1 - inter / union)
        assert H.compute_loss(out, labels).item() == pytest.approx(expect, abs=1e-12)

    def test_lambda_zero_ignores_gate(self):
        from gatetrack import flops
        rng = np.random.default_rng(10)
        params, p = make_head(rng)
        out = H.head_forward(T.Tensor4(rng.standard_normal((1, 8, 4, 4))), p)
        labels = H.make_labels(H.BBox(4.0, 4.0, 8.0, 8.0), 4, (4, 4))
        table = flops.branch_costs(8, 2, 4, 4)
        weights = T.Tensor4(np.full((1, 4, 1, 1), 0.25))
        a = H.compute_loss(out, labels, [weights], table, lambda_cost=0.0).item()
        b = H.compute_loss(out, labels).item()
        assert a == b

    def test_cost_term_value(self):
        from gatetrack import flops
        rng = np.random.default_rng(11)
        params, p = make_head(rng)
        out = H.head_forward(T.Tensor4(rng.standard_normal((1, 8, 4, 4))), p)
        labels = H.make_labels(H.BBox(500.0, 500.0, 4.0, 4.0), 4, (4, 4))  # no pos
        table = flops.BranchCostTable(np.array([0.0, 1.0, 2.0, 5.0]))
        weights = T.Tensor4(np.array([0.4, 0.3, 0.2, 0.1]).reshape(1, 4, 1, 1))
        base = H.compute_loss(out, labels).item()
        total = H.compute_loss(out, labels, [weights], table, lambda_cost=0.5).item()
        expected_cost = 0.4 * 0 + 0.3 * 1 + 0.2 * 2 + 0.1 * 5
        assert total - base == pytest.approx(0.5 * expected_cost / 8.0, abs=1e-12)

    @pytest.mark.parametrize("lambda_cost", [math.nan, math.inf, -0.1, True, "0.01", None],
                             ids=["nan", "inf", "negative", "bool", "str", "none"])
    def test_bad_lambda_cost_raises_config_error(self, lambda_cost):
        from gatetrack import flops
        rng = np.random.default_rng(12)
        _, p = make_head(rng)
        out = H.head_forward(T.Tensor4(rng.standard_normal((1, 8, 4, 4))), p)
        labels = H.make_labels(H.BBox(4.0, 4.0, 8.0, 8.0), 4, (4, 4))
        weights = T.Tensor4(np.full((1, 4, 1, 1), 0.25))
        with pytest.raises(ConfigError):
            H.compute_loss(out, labels, [weights], flops.branch_costs(8, 2, 4, 4),
                           lambda_cost=lambda_cost)

    def test_cost_term_without_a_table_raises_config_error(self):
        rng = np.random.default_rng(13)
        _, p = make_head(rng)
        out = H.head_forward(T.Tensor4(rng.standard_normal((1, 8, 4, 4))), p)
        labels = H.make_labels(H.BBox(4.0, 4.0, 8.0, 8.0), 4, (4, 4))
        weights = T.Tensor4(np.full((1, 4, 1, 1), 0.25))
        with pytest.raises(ConfigError):
            H.compute_loss(out, labels, [weights], lambda_cost=0.5)
        # without gate weights there is no cost term, so no table is needed
        assert H.compute_loss(out, labels, [None], lambda_cost=0.5).item() == (
            H.compute_loss(out, labels).item())

    def test_loss_gradient_descends_on_fixed_input(self):
        # 200 plain gradient steps on one fixed batch must reduce the loss
        # for at least 2 of 3 seeds
        wins = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            params = T.ParamSet()
            p = H.init_head(params, rng, 4)
            fused = T.Tensor4(rng.standard_normal((1, 4, 8, 8)))
            labels = H.make_labels(H.BBox(8.0, 8.0, 16.0, 16.0), 4, (8, 8))

            def loss_value():
                out = H.head_forward(fused, p)
                return H.compute_loss(out, labels)

            first = loss_value().item()
            for _ in range(200):
                loss = loss_value()
                grads = T.backprop(loss, params)
                for name, t in params.items():
                    t.data -= 0.01 * grads[name]
            if loss_value().item() < first:
                wins += 1
        assert wins >= 2
