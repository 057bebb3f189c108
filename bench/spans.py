"""In-memory span tracer that wraps ritzlab's public functions from outside.

ritzlab's modules import each other by name (`ritz`, `sampling` and `harness`
each hold their own binding of `values_and_input_gradients`), so a hook
replaces every binding of the original function in every loaded `ritzlab`
module, not only the defining one.  Every patch is undone when the tracer
exits, and an untraced run installs none.

A span is a list [name, start, end, parent index, info]; `info` holds the
counts a hook records at the call (points, flops, flags).  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("networks", "ritz", "training", "sampling", "problems", "gadgets")
PROBLEM_CALLABLES = ("f", "w", "g", "u_star", "grad_u_star")
ROOT_SPAN = "bench.op"


def _points(x, *_args, **_kwargs):
    return int(np.atleast_2d(x).shape[0])


def _points_of_second(net, x, *_args, **_kwargs):
    return _points(x)


def _describe_value_grad(net, x, chunk_size=None):
    """(points, computed Jacobian Gflop, nonzero weights, weights)."""
    dims = net.architecture.layer_dims
    b, d = np.atleast_2d(x).shape
    layer_macs = sum(dims[k] * dims[k + 1] for k in range(len(dims) - 1))
    nnz = sum(int(np.count_nonzero(w)) for w in net.weights)
    return b, 2.0 * b * d * layer_macs / 1e9, nnz, sum(w.size for w in net.weights)


def _describe_adjoint(net, x, value_weights, gradient_weights=None, chunk_size=None):
    """(points, runs the Jacobian recursion, every weight is zero)."""
    zero = not np.any(value_weights) and (gradient_weights is None or not np.any(gradient_weights))
    return int(np.atleast_2d(x).shape[0]), gradient_weights is not None, zero


def _ritzlab_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "ritzlab" or name.startswith("ritzlab.")]


class Tracer:
    """Context manager: install hooks on entry, restore every binding on exit."""

    def __init__(self, rl):
        self.rl = rl
        self.spans = []
        self.training_samples = None  # loss+grad on this set is a checkpoint
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, describe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            info = describe(*args, **kwargs) if describe is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, info]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr, name, describe=None):
        """Replace every ritzlab module binding of module.attr with a span wrapper."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, describe)
        for mod in _ritzlab_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, describe=None):
        original = vars(cls)[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, describe))

    def traced_problem(self, problem):
        """A copy of the problem whose f, w, g, u*, grad u* record spans."""
        return dataclasses.replace(problem, **{
            key: self.wrap("problems." + key, getattr(problem, key), _points)
            for key in PROBLEM_CALLABLES
        })

    def _describe_loss_grad(self, net, p, samples):
        return samples.n_domain, samples is self.training_samples

    def __enter__(self):
        rl = self.rl
        for module, attr, name, describe in (
            (rl.networks, "values_and_input_gradients", "networks.value_grad", _describe_value_grad),
            (rl.networks, "weighted_parameter_gradient", "networks.adjoint", _describe_adjoint),
            (rl.networks, "forward_batch", "networks.forward", _points_of_second),
            (rl.ritz, "loss_and_parameter_gradient", "ritz.loss_grad", self._describe_loss_grad),
            (rl.ritz, "energy_excess", "ritz.energy_excess", None),
            (rl.training, "train", "training.train", None),
            (rl.sampling, "sample_domain", "sampling.sample", None),
            (rl.sampling, "sample_boundary", "sampling.sample", None),
            (rl.sampling, "make_sample_set", "sampling.make_sample_set", None),
            (rl.sampling, "h1_error", "sampling.h1_error", None),
            (rl.gadgets, "fit_spline_coefficients", "gadgets.fit", None),
            (rl.gadgets, "build_spline_combination", "gadgets.build", None),
        ):
            self.patch_function(module, attr, name, describe)
        self.patch_method(rl.networks.Network, "with_parameters", "networks.rebuild")
        self.patch_method(rl.training.AdamState, "step", "training.optimizer_step")
        self.patch_method(rl.sampling.SampleSet, "__post_init__", "sampling.sampleset_validate")
        return self

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __exit__(self, *exc):
        self.restore()
        return False


# name, unit, better -- the traced run prints exactly these, per traced op
# unless the unit is a ratio or a rate.
PER_LAYER = (
    ("networks.value_grad_s", "s", "lower"),
    ("networks.value_grad_points", "count", "lower"),
    ("networks.adjoint_s", "s", "lower"),
    ("networks.adjoint_points", "count", "lower"),
    ("networks.adjoint_zero_weight_points", "count", "lower"),
    ("networks.jacobian_reuse_ratio", "ratio", "higher"),
    ("networks.forward_s", "s", "lower"),
    ("networks.forward_points", "count", "lower"),
    ("networks.jacobian_gflop", "Gflop-computed", "lower"),
    ("networks.jacobian_gflops", "Gflop/s", "higher"),
    ("networks.weight_density", "ratio", "lower"),
    ("networks.rebuilds", "count", "lower"),
    ("networks.rebuild_s", "s", "lower"),
    ("networks.module_self_s", "s", "lower"),
    ("ritz.loss_grad_calls", "count", "lower"),
    ("ritz.loss_grad_self_s", "s", "lower"),
    ("ritz.energy_excess_self_s", "s", "lower"),
    ("ritz.module_self_s", "s", "lower"),
    ("training.checkpoint_s", "s", "lower"),
    ("training.checkpoint_share", "ratio", "lower"),
    ("training.optimizer_s", "s", "lower"),
    ("training.self_s", "s", "lower"),
    ("training.module_self_s", "s", "lower"),
    ("sampling.sample_s", "s", "lower"),
    ("sampling.sampleset_builds", "count", "lower"),
    ("sampling.sampleset_validate_s", "s", "lower"),
    ("sampling.h1_error_self_s", "s", "lower"),
    ("sampling.module_self_s", "s", "lower"),
    ("problems.callable_s", "s", "lower"),
    ("problems.callable_points", "count", "lower"),
    ("problems.module_self_s", "s", "lower"),
    ("gadgets.fit_s", "s", "lower"),
    ("gadgets.build_s", "s", "lower"),
    ("gadgets.module_self_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.module_self_share", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer_metrics(spans, untraced_op_s):
    """Aggregate spans into the PER_LAYER values, normalised per traced op."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    loss_grad_of = [-1] * n  # nearest ritz.loss_grad ancestor (or self)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
        loss_grad_of[i] = i if name == "ritz.loss_grad" else (
            loss_grad_of[parent] if parent >= 0 else -1)

    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    module_self = defaultdict(float)
    c = defaultdict(float)  # counts recorded by the hooks
    for i, (name, _, _, _, info) in enumerate(spans):
        own = dur[i] - child[i]
        total[name] += dur[i]
        self_s[name] += own
        calls[name] += 1
        module_self[name.split(".")[0]] += own
        in_loss_grad = loss_grad_of[i] >= 0 and loss_grad_of[i] != i
        if name == "networks.value_grad":
            points, gflop, nnz, size = info
            c["value_grad_points"] += points
            c["gflop"] += gflop
            c["nnz"] += nnz
            c["weights"] += size
            if in_loss_grad:
                c["jacobian_pushes"] += points
        elif name == "networks.adjoint":
            points, jacobian, zero = info
            c["adjoint_points"] += points
            if zero:
                c["zero_points"] += points
            if jacobian and in_loss_grad:
                c["jacobian_pushes"] += points
        elif name == "networks.forward":
            c["forward_points"] += info
        elif name == "ritz.loss_grad":
            c["distinct_domain"] += info[0]
            if info[1]:
                c["checkpoint_s"] += dur[i]
        elif name.startswith("problems."):
            c["callable_points"] += info
            c["callable_s"] += dur[i]

    n_ops = max(calls[ROOT_SPAN], 1)
    op_s = total[ROOT_SPAN] / n_ops
    traced_module_self = sum(module_self[m] for m in MODULES)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "networks.value_grad_s": total["networks.value_grad"],
        "networks.value_grad_points": c["value_grad_points"],
        "networks.adjoint_s": total["networks.adjoint"],
        "networks.adjoint_points": c["adjoint_points"],
        "networks.adjoint_zero_weight_points": c["zero_points"],
        "networks.forward_s": total["networks.forward"],
        "networks.forward_points": c["forward_points"],
        "networks.jacobian_gflop": c["gflop"],
        "networks.rebuilds": calls["networks.rebuild"],
        "networks.rebuild_s": total["networks.rebuild"],
        "ritz.loss_grad_calls": calls["ritz.loss_grad"],
        "ritz.loss_grad_self_s": self_s["ritz.loss_grad"],
        "ritz.energy_excess_self_s": self_s["ritz.energy_excess"],
        "training.checkpoint_s": c["checkpoint_s"],
        "training.optimizer_s": total["training.optimizer_step"],
        "training.self_s": self_s["training.train"],
        "sampling.sample_s": total["sampling.sample"],
        "sampling.sampleset_builds": calls["sampling.sampleset_validate"],
        "sampling.sampleset_validate_s": total["sampling.sampleset_validate"],
        "sampling.h1_error_self_s": self_s["sampling.h1_error"],
        "problems.callable_s": c["callable_s"],
        "problems.callable_points": c["callable_points"],
        "gadgets.fit_s": total["gadgets.fit"],
        "gadgets.build_s": total["gadgets.build"],
        "trace.spans": n,
    }
    for m in MODULES:
        values[m + ".module_self_s"] = module_self[m]
    values = {k: v / n_ops for k, v in values.items()}
    values.update({
        "networks.jacobian_reuse_ratio": ratio(c["distinct_domain"], c["jacobian_pushes"]),
        "networks.jacobian_gflops": ratio(c["gflop"], total["networks.value_grad"]),
        "networks.weight_density": ratio(c["nnz"], c["weights"]),
        "training.checkpoint_share": ratio(c["checkpoint_s"], total["training.train"]),
        "trace.op_s": op_s,
        "trace.module_self_share": ratio(traced_module_self, total[ROOT_SPAN]),
        "trace.overhead_share": ratio(op_s, untraced_op_s) - 1.0 if untraced_op_s else 0.0,
    })
    return {name: values[name] for name, _, _ in PER_LAYER}


def spans_document(spans) -> dict:
    """Compact JSON form: a name table plus [name index, start, end, parent] rows."""
    names = sorted({s[0] for s in spans})
    index = {name: k for k, name in enumerate(names)}
    return {
        "names": names,
        "columns": ["name", "start_s", "end_s", "parent"],
        "spans": [[index[s[0]], s[1], s[2], s[3]] for s in spans],
    }
