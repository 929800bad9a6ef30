"""Golden outputs of the seeded-init model, compared with exact equality.

The expected values were recorded before the code was simplified, so a
refactor that claims to keep behaviour is checked rather than assumed.  A
float array is pinned by the sha256 of its values as raw float64 bytes and a
scalar by its exact value.  An intended change of outputs records them again from
:func:`observed`::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_golden, pprint; pprint.pprint(test_golden.observed())"

The head maps and gradients pass through float32 BLAS matrix products, so
their digests hold for the numpy/OpenBLAS build they were recorded with
(numpy 2.4.6 with OpenBLAS 0.3.31 on an x86-64 Xeon, identical with 1 and 2
BLAS threads; CI runs this file with its default count and with
``OPENBLAS_NUM_THREADS=1``, the bench's); the checkpoint bytes depend on the
RNG alone.  With the untrained
gate, whose output layer starts at zero, ``gated`` picks identity on every
frame and so gives the same maps as ``none``.

``GRADS_SHA256`` was recorded again twice.  First the
head's first convs became one 3c-output conv, and 1x1 convs and conv weight
gradients read their operands without layout copies: 46 of the 50 gradients
moved, by at most 1.4e-15 of a parameter's max |g| and its norm by at most
6.6e-16 relative.  Then the input gradient of a stride-1 conv with no more
outputs than inputs became a convolution of the output gradient with the
flipped kernel: 36 of the 50 moved, by at most 2.0e-15 of the max |g| and the
norm by at most 5.1e-16 relative.  Both times the forward bits held, and the
norms stayed within ``GRAD_NORMS``, which was recorded before the first.

``PREDICTIONS``, ``DECISIONS`` and ``TRACE_STATS``, the goldens that run
under ``no_grad``, were recorded again once when a graph-free forward moved
to float32 (``conv2d`` multiplies float32 copies of its operands there).
Against the float64 forward, which a graph-on run then computed bit for
bit, the head maps moved by at most 0.0067 of the ``bench/reference.npz``
tolerance, the decoded boxes by at most 7.8e-7 px and the recorded gate
weights by at most 5.7e-8, and every decision picked the same branch.
``test_float32_forward_tracks_the_float64_forward`` and
``test_float32_gate_picks_the_float64_branch`` keep both forwards that close.
The graph-on goldens (``LOSS``, ``GRADS_SHA256``, ``GRAD_NORMS``) and the
checkpoint bytes held.

``PREDICTIONS`` was recorded again when a graph-free ``attend`` moved its
logits and ``exp`` to float32 (the row sums and the normalisation stay
float64).  Only the map digests moved: the head maps by at most 3.4e-6,
the decoded boxes by at most 3.6e-7 px and the attention rows by at most
9.2e-7 relative, and no score moved by more than 1.2e-8.  ``DECISIONS``,
``TRACE_STATS`` and every graph-on golden held, since a graph-on ``attend``
computes the same float64 bits as before.

``LOSS``, ``GRADS_SHA256`` and ``GRAD_NORMS`` were recorded again when
training moved to float32: ``conv2d`` multiplies float32 copies of its
operands with a graph recorded too, and only an explicit float64 block ran
in float64.  48 of the 50 gradients moved (the gate's first layer stays exactly
zero), by at most 8.6e-7 of a parameter's max |g|, the norms by at most
6.8e-7 relative and the loss by 1.9e-9 relative.  In float64 the
old loss and gradients hold bit for bit: ``LOSS_FLOAT64`` and
``GRADS_FLOAT64_SHA256`` pin them, and
``test_float32_gradients_track_the_float64_gradients`` keeps the two within
``GRAD_RTOL``.  ``DECISIONS`` and ``TRACE_STATS`` were recorded again at the
same time, since ``softmax_tau`` now normalises float32 gate rows in float64:
the recorded gate weights moved by at most 1.5e-8 and the statistics by at
most 6.3e-9, every decision kept its branch, mode and cost, and every
enhanced-map digest held.  ``PREDICTIONS``, ``CHECKPOINT_SHA256``,
``COST_TABLES`` and ``CONFIG_DEFAULTS`` held.

``PREDICTIONS``, ``LOSS``, ``GRADS_SHA256`` and ``GRAD_NORMS`` were recorded
again when ``attend`` took in the read of the values (``apply_attention``
went): a float32 block multiplies the values while it is in cache, so the
read is float32; the op's backward multiplies float32 copies of the rows; and
the max pools' backward keeps the float32 gradient it receives.  The head
maps moved by at most 4.3e-6, the decoded boxes by at most 7.2e-7 px and the
scores by at most 1.5e-8, while the attention rows held bit for bit.  46 of
the 50 gradients moved, by at most 1.5e-6 of a parameter's max |g| (on
``memory.key.b``), the norms by at most 3.0e-7 relative and the loss by
2.3e-9 relative; the float32 loss now lies 4.7e-10 from the float64 one,
against 1.9e-9 before.  ``DECISIONS``, ``TRACE_STATS``,
``CHECKPOINT_SHA256``, ``COST_TABLES``, ``CONFIG_DEFAULTS``,
``LOSS_FLOAT64`` and ``GRADS_FLOAT64_SHA256`` held: a float64 read is the
same product with the whole rows as before.

``GRADS_SHA256``, ``GRADS_FLOAT64_SHA256`` and ``GRAD_NORMS`` were recorded
again when the backward kernels changed.  The strided backbone conv2 now
computes its input gradient by stride phase instead of col2im's scatters,
which moved only ``backbone.conv1.w`` and ``backbone.conv1.b``: by at most
1.4e-7 of the max |g| in float32 and 2.6e-16 in float64, the only float64
gradients that moved.  ``bce_with_logits`` now returns a float32 gradient for
float32 logits, which moved 35 of the 50 float32 gradients, by at most
6.9e-7 of the max |g| (``memory.key.b``), and left every float64 one.  The
norms moved by at most 2.7e-7 relative (``gate.b2``).  The weight gradients'
new GEMM orientation and the multiplied relu, ``exp`` and sigmoid masks each
held every golden bit for bit on their own, and ``LOSS``, ``LOSS_FLOAT64``
and every forward golden held.

``PREDICTIONS["static"]``, ``DECISIONS``, ``LOSS``, ``GRADS_SHA256``,
``GRAD_NORMS`` and ``GRADS_FLOAT64_SHA256`` were recorded again when each op
kept one code path.  Every conv, 1x1 and one-output convs included, became
one GEMM over im2col columns, and a float64 ``attend`` or ``softmax_tau``
widens into its rows and scales them by reciprocal row sums, as a float32
one does.  The 1x1 convs kept their bits, forward and backward, in both
dtypes; only CBAM's 7x7 spatial conv (2 -> 1) sums in another order.  The
static head maps moved by at most 0.0012 of the ``bench/reference.npz``
tolerance, the decoded boxes by at most 1.2e-7 px and the readout rows by at
most 2.5e-7 relative; no score moved.  Every decision kept its branch, mode,
cost and weights; only the enhanced maps of the 6 cbam picks moved, by at
most 1.9e-7 of their max |map|.  46 of the 50 float32 gradients moved, by at
most 4.5e-7 of a parameter's max |g| (``memory.key.b``), the norms by at
most 2.4e-7 relative (``cbam.spatial.w``) and the loss by 1.1e-10 relative.
47 of the 50 float64 gradients moved, by at most 1.2e-15 of the max |g|.
``PREDICTIONS["gated"]``, ``PREDICTIONS["none"]``, ``TRACE_STATS``,
``CHECKPOINT_SHA256``, ``COST_TABLES``, ``CONFIG_DEFAULTS`` and
``LOSS_FLOAT64`` held bit for bit, at the default and at one BLAS thread.

When SE, CA, CBAM and the soft blend each became one op with a written
backward, the goldens that run a branch could be recorded again only within
bounds set before the change: every decision keeps its branch, mode, cost,
weights and enhanced-map digest; the static head maps move by at most 0.01 of
the ``bench/reference.npz`` tolerance, the decoded boxes by at most 1e-6 px
and the scores by at most 1e-7; the loss by at most 1e-9 relative; each
float32 gradient by at most 2e-6 and each float64 one by at most 1e-13 of the
parameter's max |g|, and each gradient norm by at most 1e-6 relative, an
exact zero staying zero.  ``PREDICTIONS["static"]``, ``GRADS_SHA256``,
``GRAD_NORMS`` and ``GRADS_FLOAT64_SHA256`` were recorded again.  The branch
forwards and the soft blend kept their bits, so every decision, ``LOSS`` and
``LOSS_FLOAT64`` held; the static average became a weighted sum with weights
1/3, summing ``o_i / 3`` where it scaled the sum, which moved the static head
maps by at most 0.0015 of the tolerance, the boxes by at most 2.4e-7 px, the
scores by at most 1.5e-8 and the readout rows by at most 2.5e-7 relative.
23 of the 50 float32 gradients moved, by at most 3.0e-7 of a parameter's max
|g| (``cbam.mlp.b2``), 12 norms by at most 2.3e-7 relative
(``cbam.mlp.w1``); 23 of the 50 float64 gradients moved, by at most 1.5e-15
of the max |g| (``gate.w2``).  Every other golden held bit for bit, at the
default and at one BLAS thread.

When the backbone, the gate, the memory readout and the head each became one
op with a written backward, the bounds for a re-record were set before the
change.  Every forward golden (``PREDICTIONS``, ``DECISIONS``,
``TRACE_STATS``, ``LOSS``, ``LOSS_FLOAT64``, ``COST_TABLES``,
``CHECKPOINT_SHA256`` and ``CONFIG_DEFAULTS``) must hold bit for bit.  The
gradient goldens may move only by the order in which the backward sweep adds
the backbone feature's five gradients (gate, identity, SE, CA, CBAM), and
then each float32 gradient by at most 2e-6 and each float64 one by at most
1e-13 of the parameter's max |g|, and each gradient norm by at most 1e-6
relative, an exact zero staying zero.  None was needed: every golden held bit
for bit, at the default and at one BLAS thread, since the stages' backwards
run the kernels' backwards on the arrays the separate ops handed them and
the sweep still adds the five gradients in the same order.

``TRACE_STATS`` was first recorded through the trace record type that
``metrics.gate_trace_stats`` read before it took the ``GateDecision`` list
itself; the costliest branch was then a hard-coded "cbam", which the cost
table's argmax still picks.
"""

import hashlib
import math
import pathlib
import tempfile
from dataclasses import asdict

import numpy as np
import pytest

from gatetrack import attention, flops, gate, metrics
from gatetrack import head as H
from gatetrack import model as M
from gatetrack import scenes
from gatetrack import tensor as T
from gatetrack.config import RunConfig
from helpers import exact_crop

SCENE_SEED = 2503
MEMORY_FRAMES = (0, 5)
PROBE_FRAMES = (10, 25, 40)  # one frame in each phase of the default schedule
DECISION_SEED = 3  # draws a gate output layer whose choice moves with the budget
BATCH_SEED = 7
BATCH = 4
LAMBDA_COST = 0.01

DEEP = {"attention_mode": "static", "static_branches": ("se", "ca", "cbam"),
        "memory_capacity": 8, "write_period": 1, "write_threshold": 0.0}

CHECKPOINT_SHA256 = "a43b42eadf7ab1945ddec6a6f7da5018d9bed1b9ec18ce43f9c1d1ffd8467bd4"

_IDENTITY = {
    10: ("df29f5aff24243fb7925d89f73cd7e1a36044dfb7b5ce60bfee1ec99f798c068", 0.05922793224453926,
         (71.75947427749634, 33.65010213851929, 4.0256383419036865, 2.3951430320739746)),
    25: ("c2e5e901e3205092c5977bd6708a3e62298d9160fe122998298da2ab24634d3e", 0.060054533183574677,
         (50.70310425758362, 42.7658486366272, 4.264255046844482, 2.2360342741012573)),
    40: ("06d126109f1b3e58f235e42417d884f4701fe92933ccfb5d0d0eab2f0c2712bd", 0.059835776686668396,
         (48.63452172279358, 64.65314185619354, 4.078347086906433, 2.399736523628235)),
}
PREDICTIONS = {
    "gated": _IDENTITY,
    "none": _IDENTITY,
    "static": {
        10: ("ce97405f31e0487c58539e9a4343235006ecbd973ade919b23dddf505bf90513", 0.058789219707250595,
             (36.68366873264313, 33.91908943653107, 2.5562044382095337, 2.0961354970932007)),
        25: ("bedf2fa61856e4c86427f5cfc8392301377acec2c38f718dc736ded2413e3c92", 0.05879387632012367,
             (47.72575807571411, 42.928452014923096, 2.537504553794861, 2.0604074597358704)),
        40: ("22fa31400cd419b614e46b6fb3a1e09b9e87d386379ab2ba751948d5e43a5e61", 0.05854277312755585,
             (49.685803294181824, 64.91620481014252, 2.555522084236145, 2.083219826221466)),
    },
}

# (channels, reduction or gate scale, h, w) -> identity/se/ca/cbam costs, gate cost;
# the non-square shape catches an h/w swap in CA
COST_TABLES = {
    (32, 4, 16, 16): ((0.0, 17448.0, 66816.0, 101712.0), 8780.0),
    (16, 2, 8, 12): ((0.0, 3608.0, 16864.0, 29200.0), 1868.0),
    (32, 4, 32, 32): ((0.0, 66600.0, 199168.0, 400464.0), 33356.0),
}

# (probe frame, budget) -> chosen branch, mode, returned cost, recorded weights and
# enhanced-map digest of the drawn gate.  Budgets: "none" is no budget (a hard
# decision), "zero" 0, "se" and "ca" those branches' costs, "inf" unlimited.
DECISIONS = {
    (10, "none"): ("cbam", "hard", 101712.0,
                  (0.0, 0.0, 0.0, 1.0),
                  "b18e45d20b597cb90ae82603e71c344e9693054c93d7d700ecfe321b086fe88b"),
    (10, "zero"): ("identity", "budgeted", 0.0,
                  (1.0, 0.0, 0.0, 0.0),
                  "054f6e37ae12873804c036a79d90580f2d898fc471c128372c064f41df7f2928"),
    (10, "se"): ("se", "budgeted", 17448.0,
                  (0.4934077146924144, 0.5065922853075856, 0.0, 0.0),
                  "93b06add7f81f167bcbe445aa95682fb5a7e914d6fc5d834923cb5c0d5ce104c"),
    (10, "ca"): ("ca", "budgeted", 66816.0,
                  (0.27517069536278693, 0.282523655918943, 0.44230564871827, 0.0),
                  "725bb405902cfbaa7b30510335ced0148fb957a725ab383a2d82c32258af1634"),
    (10, "inf"): ("cbam", "budgeted", 101712.0,
                  (0.16910531255188355, 0.17362405206152176, 0.2718175889745628, 0.38545304641203193),
                  "b18e45d20b597cb90ae82603e71c344e9693054c93d7d700ecfe321b086fe88b"),
    (25, "none"): ("cbam", "hard", 101712.0,
                  (0.0, 0.0, 0.0, 1.0),
                  "90f32f9374f53a4fc8409f122e44b98229eb23f0b1e3464f96a3b6c58280764c"),
    (25, "zero"): ("identity", "budgeted", 0.0,
                  (1.0, 0.0, 0.0, 0.0),
                  "aa6fa4907e1e74817b05d0c01b4e98771d75dc534bd744099ad6d1ec1eeb212f"),
    (25, "se"): ("se", "budgeted", 17448.0,
                  (0.49260308815792286, 0.5073969118420771, 0.0, 0.0),
                  "03e21546cf48fe5a1cc0f806b36d28d361584be8acd4c2a2ab0d68cd06441a81"),
    (25, "ca"): ("ca", "budgeted", 66816.0,
                  (0.2734793364903779, 0.28169245001434573, 0.44482821349527635, 0.0),
                  "b3ab1472f0d0f0b80b4a53ff463008ae0185263a961784ab5328f532c1d5b142"),
    (25, "inf"): ("cbam", "budgeted", 101712.0,
                  (0.1678663223038673, 0.1729076727021309, 0.2730432112887578, 0.38618279370524394),
                  "90f32f9374f53a4fc8409f122e44b98229eb23f0b1e3464f96a3b6c58280764c"),
    (40, "none"): ("cbam", "hard", 101712.0,
                  (0.0, 0.0, 0.0, 1.0),
                  "64bc201ab657faf41644fd4fe27c313c7863fb75d5cd3352518c181df8a2cc97"),
    (40, "zero"): ("identity", "budgeted", 0.0,
                  (1.0, 0.0, 0.0, 0.0),
                  "0d0478998148718a1cfda4ab3f72ce4ad27591ed7ed7b640a11ea8fa972ab6ec"),
    (40, "se"): ("se", "budgeted", 17448.0,
                  (0.4948266235409178, 0.5051733764590821, 0.0, 0.0),
                  "97911fcab9937e36a4816866f2ba3f981e0042eaaccf19bcb51a288538b12729"),
    (40, "ca"): ("ca", "budgeted", 66816.0,
                  (0.2788498268639767, 0.28468053629344997, 0.4364696368425733, 0.0),
                  "913fd19d7b23f441790db5d86820b45095f61d43acce34b985917b11bae25659"),
    (40, "inf"): ("cbam", "budgeted", 101712.0,
                  (0.17218517166366137, 0.17578553862578442, 0.2695128061972025, 0.38251648351335166),
                  "64bc201ab657faf41644fd4fe27c313c7863fb75d5cd3352518c181df8a2cc97"),
}

# per probe phase, branch -> (mean, population std) of the recorded weights of
# every DECISIONS run, and the share of runs that chose the costliest branch
TRACE_STATS = ({
    "stable": {
        "identity": (0.387536744521417, 0.3454976264654826),
        "se": (0.19254799865761008, 0.19038225348281518),
        "ca": (0.14282464753856655, 0.18304354063525716),
        "cbam": (0.2770906092824064, 0.39106982042234867),
    },
    "occlusion": {
        "identity": (0.38678974939043365, 0.34571557701272104),
        "se": (0.19239940691171076, 0.19058418975420716),
        "ca": (0.14357428495680682, 0.1840417660467235),
        "cbam": (0.2772365587410488, 0.3911103687301302),
    },
    "fast": {
        "identity": (0.3891723244137112, 0.34495879643805727),
        "se": (0.1931278902756633, 0.19007987458208706),
        "ca": (0.14119648860795517, 0.18080965384276174),
        "cbam": (0.2765032967026703, 0.39090881154617),
    },
}, 0.4)

# the float32 forward against the float64 one: head maps within the
# tolerance of bench/reference.npz, decoded boxes in pixels, and the readout
# rows' distance from a sum of 1
MAP_ATOL, MAP_RTOL = 1e-4, 1e-3
BOX_ATOL_PX = 1e-4
ROWS_SUM_TOL = 1e-12

LOSS = 1.8293667217292795
GRADS_SHA256 = "f94e0c1e49436d46a39bea437afa60821d6fcf8b824b847b4cff5ff965d53436"
N_PARAMS = 50
# the same loss and gradients on float64 crops: the loss is the one the soft
# loss had before training moved to float32, which float64 crops still give
# bit for bit; the gradients moved three times since: by stride-phase input
# gradients, when each op kept one code path, and when each attention branch
# became one op
LOSS_FLOAT64 = 1.8293667210734443
GRADS_FLOAT64_SHA256 = "496b900b3be19e19c3e1ed7212d1a6b17d473cb1a220c016f98f23479706e0c1"
# the float32 loss within LOSS_RTOL of the float64 one (measured 3.6e-10), and
# each float32 gradient within GRAD_RTOL of its float64 one's max |g| (measured
# at most 1.2e-6, on memory.key.b).  On this batch no relu input changes sign
# between the two (counted: the smallest |input| is 1.7e-6, the largest float32
# error 1.7e-6).
LOSS_RTOL = 1e-7
GRAD_RTOL = 1e-5
# L2 norm of each gradient of the soft loss, compared within GRAD_NORMS_RTOL.
# The gradients are float32, so a change that only reorders a sum moves the
# norms by about 1e-7 and records them again.  An exact zero (the gate's first
# layer sees none of the loss through its zero-initialised output layer) must
# stay exactly zero.
GRAD_NORMS = {
    "backbone.conv1.w": 0.15703251957893372,
    "backbone.conv1.b": 0.08096151053905487,
    "backbone.conv2.w": 0.6256172060966492,
    "backbone.conv2.b": 0.08162480592727661,
    "backbone.conv3.w": 0.4852234125137329,
    "backbone.conv3.b": 0.08268871903419495,
    "se.w1": 0.004618840292096138,
    "se.b1": 0.003658336354419589,
    "se.w2": 0.004567455966025591,
    "se.b2": 0.00442873127758503,
    "ca.conv_shared.w": 0.003453431185334921,
    "ca.conv_shared.b": 0.0020539257675409317,
    "ca.conv_h.w": 0.0019672405906021595,
    "ca.conv_h.b": 0.002319674240425229,
    "ca.conv_w.w": 0.0018420409178361297,
    "ca.conv_w.b": 0.002229356672614813,
    "cbam.mlp.w1": 0.0060547417961061,
    "cbam.mlp.b1": 0.002211999846622348,
    "cbam.mlp.w2": 0.004957388620823622,
    "cbam.mlp.b2": 0.004425652790814638,
    "cbam.spatial.w": 0.007848773151636124,
    "cbam.spatial.b": 0.0022129255812615156,
    "gate.w1": 0.0,
    "gate.b1": 0.0,
    "gate.w2": 0.005848438013345003,
    "gate.b2": 0.010453632101416588,
    "memory.key.w": 0.0013833347475156188,
    "memory.key.b": 0.00016575318295508623,
    "memory.value.w": 0.06136230751872063,
    "memory.value.b": 0.08951661735773087,
    "memory.fuse.w": 0.16929484903812408,
    "memory.fuse.b": 0.11350667476654053,
    "head.cls.w1": 0.13248257339000702,
    "head.cls.b1": 0.05208878219127655,
    "head.cls.w2": 0.0851626768708229,
    "head.cls.b2": 0.061686232686042786,
    "head.cls.w3": 0.02001010999083519,
    "head.cls.b3": 0.05881739407777786,
    "head.ctr.w1": 0.48663198947906494,
    "head.ctr.b1": 0.0827251672744751,
    "head.ctr.w2": 0.4251943826675415,
    "head.ctr.b2": 0.07400871068239212,
    "head.ctr.w3": 0.09518521279096603,
    "head.ctr.b3": 0.06472808867692947,
    "head.reg.w1": 0.0907725989818573,
    "head.reg.b1": 0.01619144342839718,
    "head.reg.w2": 0.12743453681468964,
    "head.reg.b2": 0.018741628155112267,
    "head.reg.w3": 0.02868172898888588,
    "head.reg.b3": 0.015839852392673492,
}
GRAD_NORMS_RTOL = 1e-12

# every default of the model and run settings, and the model's fixed sizes
CONFIG_DEFAULTS = {
    "ModelConfig": {"attention_mode": "gated", "memory_capacity": 3,
                    "static_branches": ("se", "ca", "cbam"), "write_period": 5,
                    "write_threshold": 0.6},
    "RunConfig": {"batch": 4, "lambda_cost": 0.01, "lr_end": 0.0001, "lr_start": 0.005,
                  "momentum": 0.9, "steps": 2000, "weight_decay": 0.0001},
    "constants": {"CHANNELS": 32, "CROP_SIZE": 64, "FEATURE_SIZE": 16, "GATE_SCALE": 4,
                  "KEY_CHANNELS": 16, "REDUCTION": 4, "STEM_STRIDES": (2, 2, 1),
                  "STEM_WIDTH": 16, "STRIDE": 4, "TAU": 1.0, "VALUE_CHANNELS": 16},
}


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def checkpoint_sha256(config, tmp_path):
    path = tmp_path / "model.gtck"
    M.save_checkpoint(path, M.TrackModel(config, seed=0).params)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def probe_sequence():
    _, (spec,) = scenes.split_benchmark(1, 1, SCENE_SEED)
    return scenes.generate(spec)


def probe_feature(model, seq, index, crop_at=M.crop_at):
    """Backbone feature of the ground-truth-centred crop of frame ``index``;
    ``crop_at`` is ``M.crop_at`` or, for a float64 reference, ``exact_crop``."""
    gt = seq.gt[index]
    crop, origin = crop_at(seq.frames[index].data, (gt.cx, gt.cy), model.config.crop_size)
    return model.extract(T.Tensor4(crop)), origin


def probe_outputs(attention_mode, crop_at=M.crop_at):
    """Head output, detection and readout rows of each ground-truth-centred
    probe frame, in the grad mode the caller runs it in."""
    model = M.TrackModel(M.ModelConfig(attention_mode=attention_mode), seed=0)
    seq = probe_sequence()

    def enhanced(index):
        feature, origin = probe_feature(model, seq, index, crop_at)
        return model.enhance_infer(feature, frame_index=index)[0], origin

    memory = [enhanced(index)[0] for index in MEMORY_FRAMES]
    found = {}
    for index in PROBE_FRAMES:
        query, origin = enhanced(index)
        fused, attn = model.read_memory(query, memory)
        out = model.predict(fused)
        found[index] = (out, H.decode_detection(out, model.config.stride, origin), attn)
    return found


def predictions(attention_mode):
    """Maps digest, score and box for each probe frame of the graph-free forward."""
    with T.no_grad():
        found = probe_outputs(attention_mode)
    return {index: (digest([out.cls.data, out.ctr.data, out.reg.data]), det.score,
                    tuple(float(v) for v in det.box.as_array()))
            for index, (out, det, _) in found.items()}


def gate_runs(crop_at=M.crop_at):
    """Hard and budgeted gate runs on each probe frame, in the caller's grad mode.

    The gate's output layer is drawn from ``DECISION_SEED`` (the seeded init
    zeroes it, so every frame would pick identity).  Returns the model, the
    probe sequence and ``(index, budget key) -> (enhanced, decision, cost)``.
    """
    model = M.TrackModel(M.ModelConfig(), seed=0)
    rng = np.random.default_rng(DECISION_SEED)
    for p in (model.gate.w2, model.gate.b2):
        p.data[:] = rng.standard_normal(p.shape)
    table = model.cost_table
    budgets = {"none": None, "zero": 0.0, "se": table["se"], "ca": table["ca"], "inf": math.inf}
    seq = probe_sequence()
    runs = {}
    for index in PROBE_FRAMES:
        feature, _ = probe_feature(model, seq, index, crop_at)
        for key, budget in budgets.items():
            runs[index, key] = model.enhance_infer(feature, budget=budget, frame_index=index)
    return model, seq, runs


def decisions():
    """Each graph-free gate run's chosen branch, mode, returned cost, recorded
    weights and enhanced-map digest."""
    with T.no_grad():
        _, _, runs = gate_runs()
    return {key: (decision.chosen_name, decision.mode, cost,
                  tuple(decision.weights.tolist()), digest([out.data]))
            for key, (out, decision, cost) in runs.items()}


def trace_stats():
    """Per-phase gate statistics and activation rate over every graph-free gate run."""
    with T.no_grad():
        model, seq, runs = gate_runs()
    return metrics.gate_trace_stats([decision for _, decision, _ in runs.values()],
                                    [seq.phases[index] for index, _ in runs],
                                    model.cost_table)


def fixed_runs(config):
    """Enhanced bytes, decision and cost of both enhancement paths per probe frame."""
    model = M.TrackModel(config, seed=0)
    seq = probe_sequence()
    runs = []
    with T.no_grad():
        for index in PROBE_FRAMES:
            feature, _ = probe_feature(model, seq, index)
            out, decision, cost = model.enhance_infer(feature, frame_index=index)
            soft, weights, (soft_decision,) = model.enhance_soft(feature, frame_index=index)
            runs.append((out.data.tobytes(), soft.data.tobytes(), weights, cost,
                         [(d.chosen, d.weights.tolist(), d.mode, d.logits.tolist())
                          for d in (decision, soft_decision)]))
    return runs


def soft_batch(model, crop_at=M.crop_at):
    """A seeded batch of crops near the ground truth with frame-0 memory crops."""
    size = model.config.crop_size
    fs = model.config.feature_size
    train_specs, _ = scenes.split_benchmark(2, 1, SCENE_SEED)
    sequences = [scenes.generate(spec) for spec in train_specs]
    rng = np.random.default_rng(BATCH_SEED)
    queries, memories, labels = [], [], []
    for _ in range(BATCH):
        seq = sequences[int(rng.integers(len(sequences)))]
        k = int(rng.integers(1, len(seq)))
        gt = seq.gt[k]
        dx, dy = rng.uniform(-8.0, 8.0, size=2)
        crop, (ox, oy) = crop_at(seq.frames[k].data, (gt.cx + dx, gt.cy + dy), size)
        queries.append(crop)
        first = seq.gt[0]
        memories.append(crop_at(seq.frames[0].data, (first.cx, first.cy), size)[0])
        labels.append(H.make_labels(H.BBox(gt.x - ox, gt.y - oy, gt.w, gt.h),
                                    model.config.stride, (fs, fs)))
    return (T.Tensor4(np.concatenate(queries)), T.Tensor4(np.concatenate(memories)),
            H.stack_labels(labels))


def soft_loss(model, batch):
    """The soft-mode training loss of ``model`` on a :func:`soft_batch`."""
    query, memory, labels = batch
    memory_feature, memory_weights, _ = model.enhance_soft(model.extract(memory))
    query_feature, query_weights, _ = model.enhance_soft(model.extract(query))
    fused, _ = model.read_memory(query_feature, [memory_feature])
    return H.compute_loss(model.predict(fused), labels,
                          gate_weight_tensors=[query_weights, memory_weights],
                          cost_table=model.cost_table, lambda_cost=LAMBDA_COST)


def loss_and_grads(crop_at=M.crop_at):
    """Soft-mode loss and the gradient of every parameter, by name in parameter order."""
    model = M.TrackModel(M.ModelConfig(), seed=0)
    loss = soft_loss(model, soft_batch(model, crop_at))
    return loss.item(), T.backprop(loss, model.params)


def grad_norms(grads):
    return {name: float(np.linalg.norm(g)) for name, g in grads.items()}


def cost_tables():
    """Branch cost table and gate cost in FLOPs at each pinned shape."""
    return {shape: (tuple(flops.branch_costs(*shape).costs.tolist()),
                    gate.gate_cost(*shape))
            for shape in COST_TABLES}


def config_defaults():
    return {
        "ModelConfig": asdict(M.ModelConfig()),
        "RunConfig": asdict(RunConfig()),
        "constants": {name: getattr(M, name) for name in CONFIG_DEFAULTS["constants"]},
    }


def observed():
    """Every golden value as the current code computes it."""
    loss, grads = loss_and_grads()
    loss64, grads64 = loss_and_grads(exact_crop)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = checkpoint_sha256(M.ModelConfig(), pathlib.Path(tmp))
    return {
        "CHECKPOINT_SHA256": checkpoint,
        "PREDICTIONS": {mode: predictions(mode) for mode in ("gated", "static", "none")},
        "DECISIONS": decisions(),
        "TRACE_STATS": trace_stats(),
        "LOSS": loss,
        "GRADS_SHA256": digest(grads.values()),
        "GRAD_NORMS": grad_norms(grads),
        "N_PARAMS": len(grads),
        "LOSS_FLOAT64": loss64,
        "GRADS_FLOAT64_SHA256": digest(grads64.values()),
        "COST_TABLES": cost_tables(),
        "CONFIG_DEFAULTS": config_defaults(),
    }


@pytest.mark.parametrize("overrides", [{}, DEEP], ids=["track", "track_deep"])
def test_checkpoint_bytes(overrides, tmp_path):
    assert checkpoint_sha256(M.ModelConfig(**overrides), tmp_path) == CHECKPOINT_SHA256


@pytest.mark.parametrize("attention_mode", ["gated", "static", "none"])
def test_predictions(attention_mode):
    assert predictions(attention_mode) == PREDICTIONS[attention_mode]


def test_decisions():
    assert decisions() == DECISIONS


def test_trace_stats():
    stats, rate = trace_stats()
    assert list(stats) == ["stable", "occlusion", "fast"]  # first-seen order
    assert (stats, rate) == TRACE_STATS


@pytest.mark.parametrize("attention_mode", ["gated", "static", "none"])
def test_float32_forward_tracks_the_float64_forward(attention_mode):
    with T.no_grad():
        single = probe_outputs(attention_mode)
    double = probe_outputs(attention_mode, exact_crop)
    for index in PROBE_FRAMES:
        (out32, det32, attn32), (out64, det64, attn64) = single[index], double[index]
        for part in ("cls", "ctr", "reg"):
            got, want = getattr(out32, part).data, getattr(out64, part).data
            assert got.dtype == np.float32 and want.dtype == np.float64
            assert np.all(np.abs(got - want) <= MAP_ATOL + MAP_RTOL * np.abs(want)), part
        assert np.abs(det32.box.as_array() - det64.box.as_array()).max() <= BOX_ATOL_PX
        for attn in (attn32, attn64):
            assert attn.data.dtype == np.float64
            assert np.abs(attn.data.sum(axis=3) - 1.0).max() <= ROWS_SUM_TOL


def test_float32_gate_picks_the_float64_branch():
    with T.no_grad():
        _, _, single = gate_runs()
    _, _, double = gate_runs(exact_crop)
    assert len(single) == len(PROBE_FRAMES) * 5
    for key, (_, decision, _) in single.items():
        assert decision.logits.dtype == np.float32
        assert decision.chosen == double[key][1].chosen, key


def test_static_without_branches_runs_identity():
    none = fixed_runs(M.ModelConfig(attention_mode="none"))
    assert fixed_runs(M.ModelConfig(attention_mode="static", static_branches=())) == none


def test_soft_loss_and_gradients():
    loss, grads = loss_and_grads()
    assert len(grads) == N_PARAMS
    assert loss == LOSS
    assert digest(grads.values()) == GRADS_SHA256


def test_float64_block_keeps_the_float64_gradients():
    loss, grads = loss_and_grads(exact_crop)
    assert loss == LOSS_FLOAT64
    assert digest(grads.values()) == GRADS_FLOAT64_SHA256


def test_float32_gradients_track_the_float64_gradients():
    loss, grads = loss_and_grads()
    loss64, grads64 = loss_and_grads(exact_crop)
    assert abs(loss - loss64) <= LOSS_RTOL * loss64
    for name, want in grads64.items():
        got = grads[name]
        assert got.dtype == np.float32 and want.dtype == np.float64, name
        # a zero gradient (the gate's first layer) must stay exactly zero
        assert np.abs(got - want).max() <= GRAD_RTOL * np.abs(want).max(), name


def test_gradients_are_c_contiguous():
    # a digest and np.linalg.norm read a gradient in memory order, so a
    # transposed view would move GRAD_NORMS with the same values
    for name, g in loss_and_grads()[1].items():
        assert g.flags.c_contiguous, name


def test_gradient_norms():
    # abs=0.0 leaves a zero norm no tolerance: it must stay exactly zero
    norms = grad_norms(loss_and_grads()[1])
    assert norms == pytest.approx(GRAD_NORMS, rel=GRAD_NORMS_RTOL, abs=0.0)


def test_cost_tables():
    assert cost_tables() == COST_TABLES


def test_config_defaults():
    assert config_defaults() == CONFIG_DEFAULTS


# The whole float64 soft loss against central differences along random unit
# directions over all parameters at once (Jacobian-vector products, as
# PyTorch's gradcheck(fast_mode=True) checks them).  The gate's output layer
# is drawn as in gate_runs, so the gate's first layer and its input gradient
# are not zero.  Correct code reads at most 2.3e-10 of ||g|| here (7.3e-11
# without a gate); a factor 1 + 1e-3 planted in the backward of the
# backbone, the gate, the readout or the head read 6e-7 or more.
DIRECTIONS = 16
DIRECTION_SEED = 11
DIRECTION_EPS = 1e-6
DIRECTION_TOL = 1e-9


def directional_errors(attention_mode, directions=DIRECTIONS):
    """``|<g, d> - (L(p + eps d) - L(p - eps d)) / 2 eps| / ||g||`` for each of
    ``directions`` random unit directions ``d`` over every parameter."""
    model = M.TrackModel(M.ModelConfig(attention_mode=attention_mode), seed=0)
    rng = np.random.default_rng(DECISION_SEED)
    for p in (model.gate.w2, model.gate.b2):
        p.data[:] = rng.standard_normal(p.shape)
    batch = soft_batch(model, exact_crop)
    params = list(model.params.values())
    grads = T.backprop(soft_loss(model, batch), model.params).values()
    g_norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
    saved = [p.data.copy() for p in params]
    rng = np.random.default_rng(DIRECTION_SEED)
    errors = []
    for _ in range(directions):
        d = [rng.standard_normal(p.shape) for p in params]
        norm = math.sqrt(sum(float((x * x).sum()) for x in d))
        slope = sum(float((g * x).sum()) for g, x in zip(grads, d)) / norm
        ends = []
        for step in (DIRECTION_EPS, -DIRECTION_EPS):
            # in place: the head's branch weights are views of its joined conv
            for p, p0, x in zip(params, saved, d):
                p.data[...] = p0 + (step / norm) * x
            with T.no_grad():
                ends.append(soft_loss(model, batch).item())
        for p, p0 in zip(params, saved):
            p.data[...] = p0
        errors.append(abs(slope - (ends[0] - ends[1]) / (2 * DIRECTION_EPS)) / g_norm)
    return errors


@pytest.mark.parametrize("attention_mode", ["gated", "static", "none"])
def test_whole_loss_directional_derivatives(attention_mode):
    errors = directional_errors(attention_mode)
    assert max(errors) <= DIRECTION_TOL, errors


# Each written backward in turn returns every gradient 1 + PLANTED too large:
# an op's, wrapped where ``T._result`` records it (by its closure's
# qualified name), or a kernel's, wrapped where the kernel returns it.  The
# gated check must then read above DIRECTION_TOL.  Only the first
# MUTATION_DIRECTIONS of the check's directions run, to keep the 12 mutants
# to about 2 s: on them correct code reads 1.8e-10, and the mutants' largest
# readings were 1.2e-7 (``_mlp``) to 3.8e-5 (``_conv``), so the weakest is
# caught 120 times over.
PLANTED = 1e-3
MUTATION_DIRECTIONS = 2
PLANTED_OPS = ["TrackModel.extract", "gate_logits", "readout", "head_forward", "se_forward",
               "ca_forward", "cbam_forward", "weighted_sum", "softmax_tau"]
PLANTED_KERNELS = {"_conv": T, "_attend": T, "_mlp": attention}


def planted(backward):
    def wrong(g):
        return tuple(None if d is None else d * (1.0 + PLANTED) for d in backward(g))
    return wrong


@pytest.mark.parametrize("target", PLANTED_OPS + list(PLANTED_KERNELS))
def test_directional_check_catches_a_planted_backward_error(target, monkeypatch):
    if target in PLANTED_KERNELS:
        module = PLANTED_KERNELS[target]
        kernel = getattr(module, target)

        def run(*args, **kwargs):
            *out, backward = kernel(*args, **kwargs)
            return (*out, None if backward is None else planted(backward))

        monkeypatch.setattr(module, target, run)
    else:
        result = T._result

        def record(data, parents, backward_fn, flops=0):
            if backward_fn.__qualname__ == f"{target}.<locals>.backward":
                backward_fn = planted(backward_fn)
            return result(data, parents, backward_fn, flops)

        monkeypatch.setattr(T, "_result", record)
    errors = directional_errors("gated", MUTATION_DIRECTIONS)
    assert max(errors) > DIRECTION_TOL, errors
