"""FLOP accounting tests against hand-counted layer sums and counted ops."""

import numpy as np
import pytest

from gatetrack import attention, flops, gate
from gatetrack import model as M
from gatetrack import tensor as T
from gatetrack.errors import ConfigError


class TestFlopsLayer:
    def test_conv_1x1(self):
        dims = {"k": 1, "cin": 32, "cout": 32, "hout": 16, "wout": 16}
        assert flops.flops_layer("conv", dims) == 2 * 32 * 32 * 256 == 524288

    def test_relu_per_element(self):
        assert flops.flops_layer("relu", {"count": 32 * 16 * 16}) == 8192

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            flops.flops_layer("attention", {})

    def test_missing_dim(self):
        with pytest.raises(ConfigError):
            flops.flops_layer("conv", {"k": 3})


class TestBranchCosts:
    def test_identity_free(self):
        table = flops.branch_costs(32, 4, 16, 16)
        assert table["identity"] == 0.0

    def test_default_config_ordering(self):
        table = flops.branch_costs(32, 4, 16, 16)
        assert table["cbam"] > table["ca"] > table["se"] > 0.0

    def test_se_layerwise_sum(self):
        c, r, h, w = 32, 4, 16, 16
        expect = (c * h * w) + 2 * c * (c // r) + (c // r) + 2 * (c // r) * c + c + c * h * w
        assert flops.branch_costs(c, r, h, w)["se"] == expect

    def test_cbam_spatial_term_scales_with_area(self):
        small = flops.branch_costs(32, 4, 16, 16)
        big = flops.branch_costs(32, 4, 32, 32)
        conv_small = flops.flops_layer("conv", {"k": 7, "cin": 2, "cout": 1, "hout": 16, "wout": 16})
        conv_big = flops.flops_layer("conv", {"k": 7, "cin": 2, "cout": 1, "hout": 32, "wout": 32})
        assert conv_big == 4 * conv_small
        assert big["cbam"] > small["cbam"]

    def test_table_copies_its_costs(self):
        costs = np.array([0.0, 1.0, 2.0, 4.0])
        table = flops.BranchCostTable(costs)
        costs[1] = 3.0  # the table froze its own copy, not the caller's array
        assert table["se"] == 1.0

    def test_costs_shape_only(self):
        assert flops.branch_costs(32, 4, 16, 16) is flops.branch_costs(32, 4, 16, 16)

    def test_indivisible_reduction(self):
        with pytest.raises(ConfigError, match="reduction"):
            flops.branch_costs(30, 4, 16, 16)


class TestGateCost:
    def test_indivisible_scale(self):
        with pytest.raises(ConfigError, match="gate_scale"):
            gate.gate_cost(30, 4, 16, 16)


class TestInventoryMatchesCountedOps:
    """``layer_inventory`` rows and the cost tables equal the FLOPs the
    model's own forward pieces count."""

    MODEL = M.TrackModel(M.ModelConfig(), seed=0)

    def rows(self, prefix, scale=None):
        return sum(flops.flops_layer(kind, dims) * (scale[name] if scale else 1)
                   for name, kind, dims in self.MODEL.layer_inventory()
                   if name.startswith(prefix))

    def counted(self, fn, *args):
        with T.no_grad(), T.count_flops() as total:
            fn(*args)
        return total[0]

    def feature(self):
        fs = self.MODEL.config.feature_size
        return T.zeros((1, M.CHANNELS, fs, fs))

    def test_backbone(self):
        size = self.MODEL.config.crop_size
        counted = self.counted(self.MODEL.extract, T.zeros((1, 1, size, size)))
        assert counted == self.rows("backbone.") == 9_469_952

    def test_head(self):
        assert self.counted(self.MODEL.predict, self.feature()) == self.rows("head.")

    def test_readout_over_three_frames(self):
        depth, capacity = 3, self.MODEL.config.memory_capacity
        scale = {"memory.keys": depth + 1, "memory.values": depth,
                 "memory.attention": depth / capacity, "memory.softmax": depth / capacity,
                 "memory.gather": depth / capacity, "memory.fuse": 1}
        counted = self.counted(self.MODEL.read_memory, self.feature(),
                               [self.feature()] * depth)
        assert counted == self.rows("memory.", scale) == 15_400_960

    def test_cost_tables_count_model_blocks(self):
        model, x = self.MODEL, self.feature()
        for kind in flops.BRANCH_ORDER:
            counted = self.counted(attention.branch_forward, kind, x, model.branches.get(kind))
            assert counted == model.cost_table[kind]
        g = model.gate
        counted = self.counted(lambda f: T.softmax_tau(gate.gate_logits(f, g), g.tau), x)
        assert counted == model.gate_flops

    def test_one_read_only_table_per_shape(self, monkeypatch):
        ops = []  # every tensor op passes through _result
        monkeypatch.setattr(T, "_result", lambda *a, _op=T._result: ops.append(a) or _op(*a))
        again = M.TrackModel(M.ModelConfig(), seed=1)
        assert again.cost_table is self.MODEL.cost_table and not ops
        with pytest.raises(ValueError):
            again.cost_table.costs[1] = 0.0

