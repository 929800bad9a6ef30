"""Property test of the checkpoint parser on corrupted copies of a valid file.

Whatever is done to the bytes of a checkpoint, ``load_checkpoint`` either
loads it or raises ``ShapeError``; no other exception may escape.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from gatetrack import model as M
from gatetrack import tensor as T
from gatetrack.errors import ShapeError


# hypothesis caches the constants it finds in local modules under its home
# directory, already while pytest collects; keep that cache out of the tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gatetrack-hypothesis")


def small_params():
    """A 3x3 kernel and its bias: two index entries, two DT64 blobs."""
    rng = np.random.default_rng(0)
    params = T.ParamSet()
    params.add("conv.w", T.Tensor4(rng.standard_normal((2, 1, 3, 3))))
    params.add("conv.b", T.Tensor4(rng.standard_normal((1, 2, 1, 1))), decay=False)
    return params


# one edit of the file, (kind, position as a fraction of the length, value):
# cut it there, append bytes, xor one byte with a non-zero mask, or insert a
# run of digits (which can turn an index count or size into a huge number)
EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0), st.none()),
    st.tuples(st.just("extend"), st.just(1.0), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
    st.tuples(st.just("digits"), st.floats(0.0, 1.0),
              st.text("0123456789", min_size=1, max_size=24).map(str.encode)),
)


def corrupt(data, edits):
    data = bytearray(data)
    for kind, where, value in edits:
        at = int(where * len(data))
        if kind == "truncate":
            del data[at:]
        elif kind == "extend":
            data += value
        elif kind == "flip" and data:
            data[at] ^= value
        elif kind == "digits":
            data[at:at] = value
    return bytes(data)


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDITS, min_size=1, max_size=4))
def test_corrupted_checkpoint_loads_or_raises_shape_error(tmp_path, edits):
    valid = tmp_path / "valid.gtck"
    if not valid.exists():
        M.save_checkpoint(valid, small_params())
    path = tmp_path / "edited.gtck"
    path.write_bytes(corrupt(valid.read_bytes(), edits))
    try:
        tensors = M.load_checkpoint(path)
    except ShapeError:
        return
    assert all(isinstance(t, T.Tensor4) for t in tensors.values())

