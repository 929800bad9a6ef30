"""Memory bank policy and space-time readout tests."""

import numpy as np
import pytest

from gatetrack import memory as M
from gatetrack import tensor as T
from gatetrack.errors import ConfigError, ShapeError


def make_readout(rng, channels=8, ck=4, cv=4):
    params = T.ParamSet()
    p = M.init_readout(params, rng, channels, ck, cv)
    return params, p


def feat(rng, shape):
    return T.Tensor4(rng.standard_normal(shape))


class TestMemoryBank:
    def test_initial_frame_always_written(self):
        bank = M.MemoryBank(capacity=3)
        assert bank.update(0, T.zeros((1, 2, 2, 2)), confidence=0.0)
        assert len(bank) == 1 and bank.frame_indices == [0]

    def test_fifo_eviction_spares_initial(self):
        bank = M.MemoryBank(capacity=3, write_period=5, write_threshold=0.5)
        bank.update(0, T.full((1, 1, 1, 1), 0.0), 1.0)
        bank.update(5, T.full((1, 1, 1, 1), 5.0), 1.0)
        bank.update(10, T.full((1, 1, 1, 1), 10.0), 1.0)
        assert bank.frame_indices == [0, 5, 10]
        bank.update(15, T.full((1, 1, 1, 1), 15.0), 1.0)
        assert bank.frame_indices == [0, 10, 15]
        assert len(bank) == 3

    def test_capacity_one_keeps_only_initial(self):
        bank = M.MemoryBank(capacity=1, write_period=1, write_threshold=0.0)
        bank.update(0, T.zeros((1, 1, 1, 1)), 1.0)
        assert not bank.update(1, T.zeros((1, 1, 1, 1)), 1.0)
        assert bank.frame_indices == [0]

    def test_low_confidence_not_written(self):
        bank = M.MemoryBank(capacity=3, write_period=5, write_threshold=0.6)
        bank.update(0, T.zeros((1, 1, 1, 1)), 1.0)
        assert not bank.update(10, T.zeros((1, 1, 1, 1)), 0.59)
        assert bank.frame_indices == [0]

    def test_off_period_not_written(self):
        bank = M.MemoryBank(capacity=3, write_period=5, write_threshold=0.0)
        bank.update(0, T.zeros((1, 1, 1, 1)), 1.0)
        assert not bank.update(7, T.zeros((1, 1, 1, 1)), 1.0)

    @pytest.mark.parametrize("first", [5, 7])
    def test_first_write_is_initial_whatever_the_frame(self, first):
        """A bank that never saw frame 0 (a re-initialised tracker) takes its
        first write as the initial entry, on or off the write period."""
        bank = M.MemoryBank(capacity=2, write_period=5, write_threshold=0.9)
        assert bank.update(first, T.full((1, 1, 1, 1), 1.0), confidence=0.0)
        assert bank.frame_indices == [first]
        assert bank.update(10, T.full((1, 1, 1, 1), 2.0), 1.0)
        assert bank.update(15, T.full((1, 1, 1, 1), 3.0), 1.0)
        assert bank.frame_indices == [first, 15]  # the initial entry is never evicted

    def test_non_monotone_frame_rejected(self):
        bank = M.MemoryBank(capacity=3)
        bank.update(0, T.zeros((1, 1, 1, 1)), 1.0)
        with pytest.raises(ConfigError):
            bank.update(0, T.zeros((1, 1, 1, 1)), 1.0)

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            M.MemoryBank(capacity=0)


class TestReadout:
    def test_single_memory_pixel_broadcast(self):
        rng = np.random.default_rng(0)
        params, p = make_readout(rng)
        query = feat(rng, (1, 8, 3, 3))
        mem = feat(rng, (1, 8, 1, 1))  # a single memory pixel
        fused, attn = M.readout(query, [mem], p)
        assert attn.shape == (1, 1, 9, 1)
        assert np.allclose(attn.data, 1.0, atol=1e-15)
        # with attention fixed at 1, every query pixel reads that pixel's value
        value = (p.value_w.data[:, :, 0, 0] @ mem.data[0, :, 0, 0]
                 + p.value_b.data.ravel())
        # reconstruct: fused = fuse([read; query]); verify via read path only
        read_channels = p.value_channels
        # recompute fused manually for one pixel to confirm the read content
        concat = np.concatenate([value, query.data[0, :, 1, 1]])
        expect = p.fuse_w.data[:, :, 0, 0] @ concat + p.fuse_b.data.ravel()
        assert np.allclose(fused.data[0, :, 1, 1], expect, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        params, p = make_readout(rng)
        query = feat(rng, (1, 8, 4, 4))
        mems = [feat(rng, (1, 8, 4, 4)) for _ in range(3)]
        _, attn = M.readout(query, mems, p)
        sums = attn.data.sum(axis=3)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_maps_of_different_sizes_match_per_map_projection(self):
        rng = np.random.default_rng(8)
        params, p = make_readout(rng)
        query = feat(rng, (1, 8, 3, 2))
        mems = [feat(rng, (1, 8, 2, 2)), feat(rng, (1, 8, 3, 1))]
        fused, attn = M.readout(query, mems, p)

        def project(x, w, b):  # one map -> (cout, pixels)
            return w.data[:, :, 0, 0] @ x.data[0].reshape(8, -1) + b.data.reshape(-1, 1)

        keys = np.concatenate([project(m, p.key_w, p.key_b) for m in mems], axis=1)
        values = np.concatenate([project(m, p.value_w, p.value_b) for m in mems], axis=1)
        logits = project(query, p.key_w, p.key_b).T @ keys / np.sqrt(p.key_channels)
        expect_attn = np.exp(logits - logits.max(axis=1, keepdims=True))
        expect_attn /= expect_attn.sum(axis=1, keepdims=True)
        read = values @ expect_attn.T
        expect = (p.fuse_w.data[:, :, 0, 0] @ np.concatenate([read, query.data[0].reshape(8, -1)])
                  + p.fuse_b.data.reshape(-1, 1))
        assert attn.shape == (1, 1, 6, 7)
        assert np.max(np.abs(attn.data[0, 0] - expect_attn)) < 1e-12
        assert np.max(np.abs(fused.data[0].reshape(8, -1) - expect)) < 1e-12
        assert np.max(np.abs(attn.data.sum(axis=3) - 1.0)) <= 1e-12

    def test_uniform_attention_with_zero_keys(self):
        rng = np.random.default_rng(2)
        params, p = make_readout(rng)
        p.key_w.data[:] = 0.0  # all logits 0 -> uniform attention
        query = feat(rng, (1, 8, 2, 2))
        m1 = feat(rng, (1, 8, 1, 1))
        m2 = feat(rng, (1, 8, 1, 1))
        fused, attn = M.readout(query, [m1, m2], p)
        assert np.allclose(attn.data, 0.5, atol=1e-15)
        v = p.value_w.data[:, :, 0, 0]
        vb = p.value_b.data.ravel()
        v1 = v @ m1.data[0, :, 0, 0] + vb
        v2 = v @ m2.data[0, :, 0, 0] + vb
        mean_v = (v1 + v2) / 2.0
        concat = np.concatenate([mean_v, query.data[0, :, 0, 0]])
        expect = p.fuse_w.data[:, :, 0, 0] @ concat + p.fuse_b.data.ravel()
        assert np.allclose(fused.data[0, :, 0, 0], expect, atol=1e-12)

    def test_memory_frame_permutation_invariance(self):
        rng = np.random.default_rng(3)
        params, p = make_readout(rng)
        query = feat(rng, (1, 8, 4, 4))
        mems = [feat(rng, (1, 8, 4, 4)) for _ in range(3)]
        a, _ = M.readout(query, mems, p)
        b, _ = M.readout(query, [mems[2], mems[0], mems[1]], p)
        assert np.max(np.abs(a.data - b.data)) < 1e-12

    def test_memory_pixel_permutation_invariance(self):
        # permute pixels inside one memory map: readout must not change
        rng = np.random.default_rng(4)
        params, p = make_readout(rng)
        query = feat(rng, (1, 8, 3, 3))
        mem = rng.standard_normal((1, 8, 2, 2))
        perm = rng.permutation(4)
        mem_perm = mem.reshape(1, 8, 4)[:, :, perm].reshape(1, 8, 2, 2)
        a, _ = M.readout(query, [T.Tensor4(mem)], p)
        b, _ = M.readout(query, [T.Tensor4(mem_perm)], p)
        assert np.max(np.abs(a.data - b.data)) < 1e-12

    def test_shape_independent_of_memory_count(self):
        rng = np.random.default_rng(5)
        params, p = make_readout(rng)
        query = feat(rng, (1, 8, 4, 4))
        for count in range(1, 4):
            mems = [feat(rng, (1, 8, 4, 4)) for _ in range(count)]
            fused, _ = M.readout(query, mems, p)
            assert fused.shape == (1, 8, 4, 4)

    def test_empty_memory_rejected(self):
        rng = np.random.default_rng(6)
        params, p = make_readout(rng)
        with pytest.raises(ShapeError):
            M.readout(feat(rng, (1, 8, 2, 2)), [], p)

    def test_grad_check_through_readout(self):
        rng = np.random.default_rng(7)
        params = T.ParamSet()
        p = M.init_readout(params, rng, 4, 2, 2)
        params.add("q", T.Tensor4(rng.standard_normal((1, 4, 2, 2))))
        params.add("m", T.Tensor4(rng.standard_normal((1, 4, 2, 2))))

        def loss(ps):
            fused, _ = M.readout(ps["q"], [ps["m"]], p)
            return T.sum_all(T.mul_broadcast(fused, fused))

        err = T.grad_check(loss, params, eps=1e-5)
        assert err < 1e-4, f"readout rel err {err}"
