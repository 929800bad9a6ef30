"""Tests of the benchmark's own logic: statistics, spans and workload inputs."""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
from tracing import MIN_TAIL, Tracer, min_samples, percentile, self_times, summarize  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90

    def test_needs_tail_samples(self):
        with pytest.raises(ValueError):
            percentile(list(range(99)), 90)  # rank 90 leaves only 9 beyond

    @pytest.mark.parametrize("q", [50, 90, 95])
    def test_min_samples_is_the_smallest_accepted_count(self, q):
        n = min_samples(q)
        percentile(list(range(n)), q)
        with pytest.raises(ValueError):
            percentile(list(range(n - 1)), q)

    def test_min_samples_values(self):
        assert MIN_TAIL == 10
        assert min_samples(50) == 20
        assert min_samples(90) == 100

    @pytest.mark.parametrize("q", [0, 100, -5])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError):
            percentile(list(range(1000)), q)


# root 0..100 with children A 10..40 (grandchild 15..25) and B 50..90
SPANS = [
    ["frame", 0, 100, -1, 0],
    ["a", 10, 40, 0, 0],
    ["g", 15, 25, 1, 0],
    ["b", 50, 90, 0, 0],
    ["frame", 200, 260, -1, 1],
    ["b", 210, 250, 4, 1],
]


class TestSelfTime:
    def test_self_time_subtracts_direct_children(self):
        assert self_times(SPANS) == [30, 20, 10, 40, 20, 40]

    def test_self_times_sum_to_root_durations(self):
        assert sum(self_times(SPANS)) == 100 + 60

    def test_summarize_totals(self):
        by_name, roots = summarize(SPANS)
        assert roots == [100, 60]
        assert by_name["b"] == {"total_ns": 80, "self_ns": 80, "calls": 2}
        assert by_name["a"] == {"total_ns": 30, "self_ns": 20, "calls": 1}
        assert by_name["frame"]["self_ns"] == 50


class TestTracerPatch:
    def make_namespace(self):
        ns = types.SimpleNamespace()
        ns.leaf = lambda x: x + 1
        ns.step = lambda x: ns.leaf(x) * 2
        return ns

    def test_records_nested_spans_and_restores(self):
        ns = self.make_namespace()
        originals = dict(vars(ns))
        tracer = Tracer()
        with tracer.patch([(ns, "step", "step", True), (ns, "leaf", "leaf", False)]):
            assert ns.step(1) == 4
            assert ns.step(2) == 6
        assert vars(ns) == originals
        names = [(s[0], s[3], s[4]) for s in tracer.spans]
        assert names == [("step", -1, 0), ("leaf", 0, 0), ("step", -1, 1), ("leaf", 2, 1)]
        assert all(s[1] <= s[2] for s in tracer.spans)

    def test_restores_after_error(self):
        ns = self.make_namespace()
        originals = dict(vars(ns))
        with pytest.raises(RuntimeError):
            with Tracer().patch([(ns, "leaf", "leaf", False)]):
                raise RuntimeError
        assert vars(ns) == originals

    def test_closes_span_when_call_raises(self):
        def boom():
            raise KeyError

        ns = types.SimpleNamespace(boom=boom)
        tracer = Tracer()
        with tracer.patch([(ns, "boom", "boom", True)]):
            with pytest.raises(KeyError):
                ns.boom()
        (span,) = tracer.spans
        assert span[2] >= span[1] > 0
        assert tracer._open == []


class TestReferenceTime:
    def test_steps_are_divided_by_the_kernel_time_before_them(self, monkeypatch):
        kernel_ms = iter([2.0, 4.0])
        monkeypatch.setattr(harness, "reference_ms", lambda: next(kernel_ms))
        run = harness.Run()
        run.pace()
        run.record(6_000_000)
        run.pace()
        run.record(6_000_000)
        assert run.step_ms == [6.0, 6.0]
        assert run.step_ref == [3.0, 1.5]
        assert run.reference_ms == [2.0, 4.0]

    def test_kernel_is_timed_before_every_step(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "reference_ms", lambda: calls.append(1) or 1.0)
        state = harness.setup("train", 3, tmp_path)
        run = harness.run_train(harness.new_model("train"), state.sequences, 3, 0.0, 2)
        assert len(calls) == len(run.step_ms) == 2


def workload_inputs(workload, seed, tmp_path, monkeypatch):
    """Bytes of the scenes a workload generates and, for ``train``, its first batches."""
    state = harness.setup(workload, seed, tmp_path)
    parts = [f.data.tobytes() for seq in state.sequences for f in seq.frames]
    parts += [b.as_array().tobytes() for seq in state.sequences for b in seq.gt]
    if workload == "train":
        batches = []
        make_batch = harness.make_batch

        def recording(*args):
            batches.append(make_batch(*args))
            return batches[-1]

        monkeypatch.setattr(harness, "make_batch", recording)
        harness.run_train(harness.new_model(workload), state.sequences, seed, 0.0, 2)
        parts += [b.query.data.tobytes() + b.memory.data.tobytes() + b.labels.reg.tobytes()
                  for b in batches]
    return b"".join(parts)


class TestWorkloadInputs:
    @pytest.mark.parametrize("workload", ["track", "train"])
    def test_same_seed_same_inputs(self, workload, tmp_path, monkeypatch):
        first = workload_inputs(workload, 3, tmp_path, monkeypatch)
        assert first == workload_inputs(workload, 3, tmp_path, monkeypatch)
        assert first != workload_inputs(workload, 4, tmp_path, monkeypatch)

    def test_track_workloads_share_sequences(self, tmp_path, monkeypatch):
        assert (workload_inputs("track", 5, tmp_path, monkeypatch)
                == workload_inputs("track_deep", 5, tmp_path, monkeypatch))


class TestFlops:
    def test_full_bank_readout_matches_inventory(self):
        model = harness.new_model("track_deep")
        rows = {name: (kind, dims) for name, kind, dims in model.layer_inventory()}
        memory_rows = sum(harness.flops_layer(kind, dims) for name, (kind, dims) in rows.items()
                          if name.startswith("memory."))
        query_keys = harness.flops_layer(*rows["memory.keys"])
        capacity = model.config.memory_capacity
        extra = (capacity - 1) * harness.flops_layer(*rows["memory.keys"]) \
            + (capacity - 1) * harness.flops_layer(*rows["memory.values"])
        assert harness.readout_flops(model, capacity) == memory_rows + query_keys + extra

    def test_readout_grows_with_depth(self):
        model = harness.new_model("track_deep")
        costs = [harness.readout_flops(model, d) for d in range(1, 9)]
        assert costs == sorted(costs) and len(set(costs)) == len(costs)
