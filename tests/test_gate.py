"""Dynamic gate tests: logits law, weight law, soft blend, hard and budgeted decisions."""

import numpy as np
import pytest

from gatetrack import attention as A
from gatetrack import flops
from gatetrack import gate as G
from gatetrack import tensor as T
from gatetrack.errors import ParameterError, ShapeError
from helpers import COMPOSED, composed_blend, vector, zeroed


def make_setup(rng, channels=8, reduction=2, scale=2, tau=1.0):
    params = T.ParamSet()
    branches = A.init_branches(params, rng, channels, reduction)
    return params, branches, G.init_gate(params, rng, channels, scale, tau)


# branch costs of the (1, 8, 4, 4) features the decision tests gate
TABLE = flops.branch_costs(8, 2, 4, 4)


def run_decision(x, branches, gate, budget=None):
    """Decide on ``x``, then run the chosen branch: (output, decision)."""
    decision = G.decide(x, gate, TABLE, budget)
    kind = decision.chosen_name
    return A.branch_forward(kind, x, branches.get(kind)), decision


def zeroed_setup(channels=8, reduction=2, scale=2, tau=1.0):
    return zeroed(A.init_branches, channels, reduction), zeroed(G.init_gate, channels, scale, tau)


class TestGateLogits:
    def test_zero_params_zero_logits(self):
        _, gate = zeroed_setup()
        f = T.Tensor4(np.random.default_rng(0).standard_normal((1, 8, 4, 4)))
        assert np.array_equal(G.gate_logits(f, gate).data.ravel(), np.zeros(4))

    def test_bias_passthrough_on_zero_feature(self):
        _, gate = zeroed_setup()
        gate.b2.data[:] = np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 4, 1, 1)
        s = G.gate_logits(T.zeros((1, 8, 4, 4)), gate)
        assert np.array_equal(s.data.ravel(), [1.0, 0.0, 0.0, 0.0])

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(1)
        params, branches, gate = make_setup(rng)
        gate.w2.data[:] = rng.standard_normal(gate.w2.shape)
        gate.b2.data[:] = rng.standard_normal(gate.b2.shape)
        f = T.Tensor4(rng.standard_normal((1, 8, 5, 6)))
        got = G.gate_logits(f, gate).data.ravel()
        # independent re-evaluation with plain numpy
        pooled = f.data.mean(axis=(2, 3)).ravel()
        hidden = np.maximum(gate.w1.data[:, :, 0, 0] @ pooled + gate.b1.data.ravel(), 0.0)
        expect = gate.w2.data[:, :, 0, 0] @ hidden + gate.b2.data.ravel()
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_channel_mismatch(self):
        _, gate = zeroed_setup()
        with pytest.raises(ShapeError):
            G.gate_logits(T.zeros((1, 4, 2, 2)), gate)


class TestGateWeights:
    def test_uniform(self):
        w = T.softmax_tau(vector([0.0, 0.0, 0.0, 0.0]), tau=1.0)
        assert np.allclose(w.data.ravel(), 0.25, atol=1e-15)

    def test_hand_two_logits(self):
        w = T.softmax_tau(vector([1.0, 2.0]), tau=0.5).data.ravel()
        e2, e4 = np.exp(2.0), np.exp(4.0)
        assert np.allclose(w, [e2 / (e2 + e4), e4 / (e2 + e4)], atol=1e-12)
        assert w == pytest.approx([0.1192, 0.8808], abs=5e-5)

    def test_high_temperature_uniform(self):
        w = T.softmax_tau(vector([3.0, -1.0, 0.5, 2.0]), tau=1e6).data.ravel()
        assert np.max(np.abs(w - 0.25)) < 1e-6

    def test_invalid_tau(self):
        with pytest.raises(ParameterError):
            T.softmax_tau(vector([1.0]), tau=-1.0)

    def test_sum_positive_argmax(self):
        rng = np.random.default_rng(2)
        for tau in [1e-3, 0.3, 1.0, 30.0]:
            s = rng.standard_normal(4)
            s[rng.integers(4)] += 2.5
            w = T.softmax_tau(vector(s), tau=tau).data.ravel()
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w > 0)
            assert np.argmax(w) == np.argmax(s)


class TestBudgetFilter:
    TABLE = flops.BranchCostTable(np.array([0.0, 1.0, 2.0, 4.0]))

    def test_large_budget_no_change(self):
        k = np.array([0.1, 0.2, 0.3, 0.4])
        for budget in (100.0, float("inf")):  # inf means unlimited
            assert np.allclose(G.budget_filter(k, self.TABLE, budget), k, atol=1e-15)

    def test_zero_budget_identity(self):
        out = G.budget_filter(np.array([0.1, 0.2, 0.3, 0.4]), self.TABLE, 0.0)
        assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0])

    def test_hand_renormalization(self):
        out = G.budget_filter(np.array([0.1, 0.2, 0.3, 0.4]), self.TABLE, 2.0)
        assert np.allclose(out, np.array([0.1, 0.2, 0.3, 0.0]) / 0.6, atol=1e-12)

    def test_identity_fallback_when_all_masked(self):
        # all weight on the costliest branch, budget excludes it
        out = G.budget_filter(np.array([0.0, 0.0, 0.0, 1.0]), self.TABLE, 1.5)
        assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0])

    def test_selected_cost_never_exceeds_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = rng.dirichlet(np.ones(4))
            budget = float(rng.uniform(0, 5))
            out = G.budget_filter(k, self.TABLE, budget)
            assert abs(out.sum() - 1.0) <= 1e-12
            chosen = int(np.argmax(out))
            assert self.TABLE[chosen] <= budget
            assert float(out @ self.TABLE.costs) <= budget + 1e-12

    def test_negative_budget_rejected(self):
        for budget in (-1.0, float("nan")):
            with pytest.raises(ParameterError):
                G.budget_filter(np.ones(4) / 4, self.TABLE, budget)

    @pytest.mark.parametrize("budget", ["5", None, True, np.bool_(False), [1.0], 1j],
                             ids=["str", "none", "true", "np_bool", "list", "complex"])
    def test_non_real_budget_rejected(self, budget):
        # True is not a 1-FLOP budget
        with pytest.raises(ParameterError):
            G.budget_filter(np.ones(4) / 4, self.TABLE, budget)

    def test_any_real_type_is_a_budget(self):
        k = np.array([0.1, 0.2, 0.3, 0.4])
        want = G.budget_filter(k, self.TABLE, 2.0)
        for budget in (2, np.int64(2), np.float32(2.0)):
            assert np.array_equal(G.budget_filter(k, self.TABLE, budget), want)


class TestApplyGatedAttention:
    def test_soft_uniform_zero_params_is_half(self):
        # identity + 0.5x + 0.25x + 0.25x, each weighted 0.25 -> 0.5x
        branches, gate = zeroed_setup()
        rng = np.random.default_rng(4)
        x = T.Tensor4(rng.standard_normal((1, 8, 4, 4)))
        out, weights, decisions = G.soft_attention(x, branches, gate)
        assert np.max(np.abs(out.data - 0.5 * x.data)) < 1e-15
        assert np.allclose(weights.data.ravel(), 0.25, atol=1e-15)
        assert len(decisions) == 1 and decisions[0].mode == "soft"

    def test_identity_one_hot_passthrough(self):
        branches, gate = zeroed_setup()
        gate.b2.data[0, 0, 0, 0] = 50.0  # huge identity logit
        gate.tau = 1e-6
        rng = np.random.default_rng(5)
        x = T.Tensor4(rng.standard_normal((1, 8, 4, 4)))
        out, decision = run_decision(x, branches, gate)
        assert np.array_equal(out.data, x.data)
        assert decision.chosen_name == "identity" and decision.mode == "hard"
        assert np.array_equal(decision.weights, [1.0, 0.0, 0.0, 0.0])

    def test_soft_one_hot_matches_hard_bitwise(self):
        rng = np.random.default_rng(6)
        params, branches, gate = make_setup(rng, tau=1e-6)
        gate.b2.data[0, 2, 0, 0] = 1000.0  # force CA decisively
        x = T.Tensor4(rng.standard_normal((1, 8, 4, 4)))
        soft_out, _, soft_dec = G.soft_attention(x, branches, gate)
        hard_out, hard_dec = run_decision(x, branches, gate)
        assert hard_dec.chosen == soft_dec[0].chosen == 2
        # one-hot weights make the soft blend equal the chosen branch exactly
        ca_out = A.ca_forward(x, branches["ca"])
        assert np.max(np.abs(soft_out.data - ca_out.data)) < 1e-12
        assert np.array_equal(hard_out.data, ca_out.data)

    def test_soft_blend_matches_the_composed_branches_and_blend(self):
        rng = np.random.default_rng(13)
        params, branches, gate = make_setup(rng)
        gate.w2.data[:] = rng.standard_normal(gate.w2.shape)
        for dtype in (np.float64, np.float32):
            x = T.Tensor4(rng.standard_normal((3, 8, 5, 7)).astype(dtype))
            out, weights, _ = G.soft_attention(x, branches, gate)
            terms = [x] + [COMPOSED[kind](x, branches[kind]) for kind in ("se", "ca", "cbam")]
            assert out.data.tobytes() == composed_blend(terms, weights).data.tobytes()

    def test_soft_converges_to_hard_at_low_tau(self):
        rng = np.random.default_rng(7)
        params, branches, gate = make_setup(rng)
        gate.w2.data[:] = rng.standard_normal(gate.w2.shape) * 2
        gate.b2.data[:] = rng.standard_normal(gate.b2.shape)
        for trial in range(10):
            x = T.Tensor4(rng.standard_normal((1, 8, 4, 4)))
            gate.tau = 1e-6
            soft_out, _, _ = G.soft_attention(x, branches, gate)
            hard_out, _ = run_decision(x, branches, gate)
            assert np.max(np.abs(soft_out.data - hard_out.data)) < 1e-6

    def test_budget_zero_forces_identity(self):
        rng = np.random.default_rng(8)
        params, branches, gate = make_setup(rng)
        gate.b2.data[0, 3, 0, 0] = 10.0  # gate prefers cbam
        x = T.Tensor4(rng.standard_normal((1, 8, 4, 4)))
        out, decision = run_decision(x, branches, gate, budget=0.0)
        assert decision.chosen_name == "identity" and decision.mode == "budgeted"
        assert np.array_equal(out.data, x.data)

    @pytest.mark.parametrize("budget", ["100", True], ids=["str", "true"])
    def test_non_real_budget_rejected(self, budget):
        _, gate = zeroed_setup()
        with pytest.raises(ParameterError):
            G.decide(T.zeros((1, 8, 4, 4)), gate, TABLE, budget)

    def test_hard_mode_rejects_batch(self):
        branches, gate = zeroed_setup()
        with pytest.raises(ShapeError):
            G.decide(T.zeros((2, 8, 2, 2)), gate, TABLE)

    def test_decisions_deterministic(self):
        rng = np.random.default_rng(9)
        params, branches, gate = make_setup(rng)
        x = T.Tensor4(rng.standard_normal((1, 8, 4, 4)))
        a = G.soft_attention(x, branches, gate)
        b = G.soft_attention(x, branches, gate)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[2][0].weights, b[2][0].weights)

    def test_batched_soft_per_sample_weights(self):
        rng = np.random.default_rng(10)
        params, branches, gate = make_setup(rng)
        gate.w2.data[:] = rng.standard_normal(gate.w2.shape)
        x = T.Tensor4(rng.standard_normal((3, 8, 4, 4)))
        out, weights, decisions = G.soft_attention(x, branches, gate)
        assert out.shape == x.shape and len(decisions) == 3
        # each row must match its own single-sample run
        for row in range(3):
            xi = T.Tensor4(x.data[row:row + 1])
            oi, _, di = G.soft_attention(xi, branches, gate)
            assert np.max(np.abs(out.data[row] - oi.data[0])) < 1e-12
            assert np.allclose(decisions[row].weights, di[0].weights, atol=1e-15)


class TestGateGradients:
    def test_grad_flows_through_gate(self):
        rng = np.random.default_rng(11)
        params, branches, gate = make_setup(rng, channels=4)
        gate.w2.data[:] = rng.standard_normal(gate.w2.shape) * 0.5
        gate.b2.data[:] = rng.standard_normal(gate.b2.shape) * 0.1
        x = T.Tensor4(rng.standard_normal((1, 4, 3, 3)))

        def loss(ps):
            out, _, _ = G.soft_attention(x, branches, gate)
            return T.sum_all(T.mul_broadcast(out, out))

        err = T.grad_check(loss, params, eps=1e-5)
        assert err < 1e-4, f"gate path rel err {err}"

    def test_gate_weight_gradient_nonzero(self):
        rng = np.random.default_rng(12)
        params, branches, gate = make_setup(rng, channels=4)
        x = T.Tensor4(rng.standard_normal((1, 4, 3, 3)))
        out, _, _ = G.soft_attention(x, branches, gate)
        grads = T.backprop(T.sum_all(T.mul_broadcast(out, out)), params)
        assert np.any(grads["gate.w2"] != 0.0)
