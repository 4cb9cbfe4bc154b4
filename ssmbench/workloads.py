"""The benchmark's workloads: set-up, one operation, and its output check.

Every call into the program goes through a module attribute
(``layer.layer_forward``, not a name bound at import), so the tracer's
wrappers see the benchmark's own calls as well as the program's.

stack2 model: layer A is init_layer(16, 64, "exp", seed), layer B is
init_layer(16, 64, "softmax", seed + 1) with lambda_re = +0.25 on 32 of its
64 modes (chosen from the workload seed), so the recurrent view runs both
branches of the stabilized softmax recurrence.  exp_no_scale is absent
because layer_forward(mode="recurrent") rejects it.
"""

import sys

import numpy as np

from diagssm import fftconv, kernel, layer, recurrence

H, N = 16, 64
UNSTABLE_MODES = 32
UNSTABLE_RE = 0.25

ORACLE_TOL = 1e-6       # conv vs recurrent (acceptance criterion 11)
PREFIX_TOL = 1e-10      # FFT vs direct convolution (acceptance criterion 8)
PREFIX_LEN = 4096
ROWS_PER_LAYER = 2


def _expected_row(params, x, bi, hi, ssm_row, length):
    """Row (bi, hi) of layer_forward's output rebuilt from reference SSM rows.

    ``ssm_row(j)`` returns the first ``length`` SSM outputs of coordinate j
    for batch bi; only coordinates the output projection reads are built.
    """
    cols = np.flatnonzero(params.w_out[hi])
    pre = np.stack([layer.gelu(ssm_row(j) + x[bi, j, :length]) for j in cols])
    return params.w_out[hi, cols] @ pre + params.b_out[hi]


def _recurrent_row(params, x, bi):
    def row(j):
        kp = params.coordinate_kernel_params(j)
        if params.variant == "softmax":
            return recurrence.run_softmax_stable(kp, x[bi, j])[0]
        return recurrence.run_exp(kp, x[bi, j])[0]
    return row


def _naive_prefix_row(params, x, bi):
    l = x.shape[-1]

    def row(j):
        # The softmax kernel is normalized over all L positions, so the
        # prefix is cut from the full-length kernel.
        full = kernel.build_kernel(params.coordinate_kernel_params(j), l)
        return fftconv.causal_conv_naive(full[:PREFIX_LEN], x[bi, j, :PREFIX_LEN])
    return row


class Stack2:
    """Two stacked layers run in one mode over fresh (B, H, L) inputs."""

    setup_reps = 3

    def __init__(self, seed, mode, batch, length):
        self.seed = seed
        self.mode = mode
        self.shape = (batch, H, length)
        self.rng = np.random.default_rng(seed)
        self.unstable = np.sort(self.rng.choice(N, UNSTABLE_MODES, replace=False))
        self.work_per_op = batch * length
        self.work_unit = "tokens"

    def describe(self):
        b, h, l = self.shape
        return {"model": "stack2", "mode": self.mode, "variants": ["exp", "softmax"],
                "B": b, "H": h, "N": N, "L": l,
                "unstable_modes": self.unstable.tolist(), "unstable_re": UNSTABLE_RE}

    def setup(self):
        a = layer.init_layer(H, N, "exp", self.seed)
        b = layer.init_layer(H, N, "softmax", self.seed + 1)
        b.lambda_re[self.unstable] = UNSTABLE_RE
        return a, b

    def draw(self):
        return self.rng.standard_normal(self.shape)

    def op(self, state, u):
        a, b = state
        mid = layer.layer_forward(a, u, self.mode)
        return mid, layer.layer_forward(b, mid, self.mode)

    def check(self, state, u, result):
        """{check name: (largest error, tolerance)} for one op's output."""
        a, b = state
        mid, out = result
        layers = ((a, u, mid), (b, mid, out))
        if self.mode == "recurrent":
            err = max(float(np.abs(layer.layer_forward(p, x, "conv") - y).max())
                      for p, x, y in layers)
            return {"conv_mode": (err, ORACLE_TOL)}
        errs = {"recurrence_oracle": (0.0, ORACLE_TOL), "naive_prefix": (0.0, PREFIX_TOL)}
        for p, x, y in layers:
            rows = zip(self.rng.integers(0, x.shape[0], ROWS_PER_LAYER),
                       self.rng.integers(0, H, ROWS_PER_LAYER))
            for bi, hi in rows:
                for name, row, length in (
                        ("recurrence_oracle", _recurrent_row(p, x, bi), x.shape[-1]),
                        ("naive_prefix", _naive_prefix_row(p, x, bi), PREFIX_LEN)):
                    want = _expected_row(p, x, bi, hi, row, length)
                    err = float(np.abs(y[bi, hi, :length] - want).max())
                    errs[name] = (max(errs[name][0], err), errs[name][1])
        return errs


class TrainToy:
    """The toy long-range trainer, one full training run per op."""

    setup_reps = 15
    n, l, lag, steps = 32, 1024, 1000, 5000

    def __init__(self, seed):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.work_per_op = self.steps
        self.work_unit = "train_steps"

    def describe(self):
        return {"model": "train_toy_delay", "variants": ["exp"],
                "N": self.n, "L": self.l, "lag": self.lag, "steps": self.steps}

    def setup(self):
        # A one-step run: the spectrum, the first kernels and a gradient, so
        # lazy set-up a later version adds shows here and not in the op.
        return layer.train_toy_delay(self.n, self.l, self.lag, 1, seed=self.seed)

    def draw(self):
        return int(self.rng.integers(0, 2 ** 31))

    def op(self, state, op_seed):
        return layer.train_toy_delay(self.n, self.l, self.lag, self.steps, seed=op_seed)

    def check(self, state, op_seed, report):
        # A NaN or infinite MSE fails: neither is <= the largest float.
        return {"lag_recovered": (abs(report["final_argmax"] - self.lag), 0),
                "final_mse": (report["final_mse"], sys.float_info.max)}


WORKLOADS = {
    "conv_long": lambda seed: Stack2(seed, "conv", 4, 16384),
    "recurrent_short": lambda seed: Stack2(seed, "recurrent", 4, 1024),
    "train_toy": TrainToy,
}
