"""The benchmark's workloads, the closed loop that runs them, and output checks.

Every workload uses the cosine problem (g = 0 on the boundary).  The
benchmark seed picks one of N_CASES input cases; each case is a ritzlab seed
with reference outputs stored in reference.json, so every op's outputs are
checked against values computed independently of the run being timed.
"""

from __future__ import annotations

import gc
import importlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import spans

N_CASES = 8
# set-up samples taken before the first op and, untraced, after every op
SETUP_SAMPLES_PER_ROUND = 5
# traced runs whose module self times miss more than this share of op time
# have an uninstrumented span and are reported as not correct
MODULE_SHARE_TOL = 0.01
EVAL_NETS = ("dense", "spline")

# name, unit, better -- the untraced run prints exactly these.
END_TO_END = (
    ("work_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _mismatches(outputs: dict, expected: dict, rtol: float, scales: dict) -> list:
    """Names of outputs that are non-finite or differ from expected by more
    than rtol times their scale (0 scale = must match exactly)."""
    bad = []
    for key, want in expected.items():
        got = outputs.get(key)
        if got is None or not np.isfinite(got):
            bad.append(f"{key}: got {got!r}")
        elif abs(got - want) > rtol * scales.get(key, abs(want)):
            bad.append(f"{key}: got {got!r}, expected {want!r}")
    return bad


@dataclass
class TrainState:
    problem: object
    samples: object
    net0: object
    config: object


@dataclass(frozen=True)
class TrainWorkload:
    """One op is one train() call from a fixed initial net, checkpoints included."""

    name: str
    why: str
    d: int
    arch_n: int  # n handed to prescribe_architecture
    n_samples: int  # N = M
    iterations: int
    batch: int = 256
    eval_every: int = 50
    # best_loss and the parameter digest after `iterations` Adam steps; a
    # rounding change may be amplified by training, so this is looser than
    # the evaluate tolerance.
    rtol: float = 1e-6
    rate_name: str = "train_steps_per_s"  # what work_per_s means here

    @property
    def work_per_op(self) -> float:
        return float(self.iterations)

    def setup(self, rl, case: int) -> TrainState:
        problem = rl.make_cosine_problem(self.d)
        samples = rl.make_sample_set(self.n_samples, self.n_samples, self.d, case)
        arch = rl.prescribe_architecture(self.d, self.arch_n, 0.0)
        net0 = rl.init_network(arch, 1.0, case)
        config = rl.TrainConfig(
            optimizer="adam",
            learning_rate=1e-3,
            iterations=self.iterations,
            batch_domain=self.batch,
            batch_boundary=self.batch,
            eval_every=self.eval_every,
            seed=case,
        )
        return TrainState(problem, samples, net0, config)

    def op(self, rl, state: TrainState, problem):
        return rl.train(state.net0, problem, state.samples, state.config)

    def outputs(self, result) -> dict:
        """The checked values of an op's result; not part of the timed op."""
        best, history = result
        theta = best.flatten_parameters()
        direction = np.random.Generator(np.random.Philox(key=[0, 7])).standard_normal(theta.size)
        return {
            "best_loss": float(history.best_loss),
            "best_iteration": float(history.best_iteration),
            "theta_norm": float(np.linalg.norm(theta)),
            "theta_projection": float(theta @ direction / np.linalg.norm(direction)),
        }

    def check(self, outputs: dict, expected: dict) -> list:
        theta_scale = abs(expected["theta_norm"])
        return _mismatches(outputs, expected, self.rtol, {
            "best_iteration": 0.0,
            "theta_norm": theta_scale,
            "theta_projection": theta_scale,
        })


@dataclass
class EvaluateState:
    problem: object
    dense: object
    case: int


@dataclass(frozen=True)
class EvaluateWorkload:
    """One op: h1_error and energy_excess on a dense net and on the
    decomposition's fitted spline-combination net, as in
    run_error_decomposition."""

    name: str
    why: str
    d: int = 2
    arch_n: int = 1024
    n_quad: int = 100_000
    spline_level: int = 2
    rtol: float = 1e-9
    rate_name: str = "eval_points_per_s"

    @property
    def work_per_op(self) -> float:
        # per net: h1_error draws n_quad domain points; energy_excess draws
        # n_quad domain + n_quad boundary points, then n_quad domain points
        return float(len(EVAL_NETS) * 4 * self.n_quad)

    def setup(self, rl, case: int) -> EvaluateState:
        problem = rl.make_cosine_problem(self.d)
        arch = rl.prescribe_architecture(self.d, self.arch_n, 0.0)
        return EvaluateState(problem, rl.init_network(arch, 1.0, case), case)

    def op(self, rl, state: EvaluateState, problem) -> dict:
        comb = rl.fit_spline_coefficients(problem.u_star, self.spline_level, self.d)
        nets = {"dense": state.dense, "spline": rl.build_spline_combination(comb)}
        out = {}
        for k, label in enumerate(EVAL_NETS):
            seed = 1000 * state.case + 2 * k
            err = rl.h1_error(nets[label], problem, self.n_quad, seed)
            exc = rl.energy_excess(nets[label], problem, self.n_quad, seed + 1)
            out[f"{label}.h1_err"] = float(err.h1_err)
            out[f"{label}.h1_err_se"] = float(err.h1_err_se)
            out[f"{label}.excess"] = float(exc.excess)
        return out

    def outputs(self, result: dict) -> dict:
        return result

    def check(self, outputs: dict, expected: dict) -> list:
        return _mismatches(outputs, expected, self.rtol, {})


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="train_wide",
            why="d=2 prescribed net (2,128,128,128,1): large array ops, adjoint-bound training",
            d=2, arch_n=4096, n_samples=4096, iterations=150,
        ),
        TrainWorkload(
            name="train_narrow",
            why="shipped d=1 config net (1,48,48,1): training bound by small numpy call dispatch",
            d=1, arch_n=4096, n_samples=4096, iterations=1000,
        ),
        EvaluateWorkload(
            name="evaluate",
            why="post-training estimators on a dense and a sparse spline net; no adjoint or optimizer",
        ),
    )
}


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict
    op_seconds: list
    messages: list
    spans: list
    accounting_errors: list


def _timed_op(rl, workload, state, problem, expected, op):
    t0 = time.perf_counter()
    try:
        result = op(rl, state, problem)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        elapsed = time.perf_counter() - t0
        return elapsed, [f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"]
    elapsed = time.perf_counter() - t0
    return elapsed, workload.check(workload.outputs(result), expected)


def _is_ritzlab(module_name: str) -> bool:
    return module_name == "ritzlab" or module_name.startswith("ritzlab.")


def _setup_seconds(rl, workload, case: int) -> float:
    """Time one set-up: import ritzlab from scratch, then build the
    workload's problem, sample set and initial nets.  The freshly imported
    modules are dropped afterwards; ops keep using `rl`."""
    live = {name: sys.modules.pop(name) for name in list(sys.modules) if _is_ritzlab(name)}
    try:
        t0 = time.perf_counter()
        importlib.import_module("ritzlab")
        import_s = time.perf_counter() - t0
    finally:
        for name in [name for name in sys.modules if _is_ritzlab(name)]:
            del sys.modules[name]
        sys.modules.update(live)
    gc.collect()  # the dropped modules' garbage, so no op pays for it
    t0 = time.perf_counter()
    workload.setup(rl, case)
    return import_s + time.perf_counter() - t0


def run_workload(rl, workload, seed: int, seconds: float, trace: bool,
                 reference: list) -> RunResult:
    """Set up, then run ops back to back (closed loop, one caller) for about
    `seconds`; a new round of ops starts only if the previous round's time
    still fits.

    setup_s is the median of the set-up samples.  They are spread over the
    run, SETUP_SAMPLES_PER_ROUND before the first op and after every op, so
    that they see the same host load as the ops.
    With trace, one untraced warm-up op runs first; then each round is one
    untraced op followed by one op with every hook installed, so that the
    tracing overhead compares ops run under the same host load.  The traced
    ops' module self times must sum to within MODULE_SHARE_TOL of their wall
    time, or the run lists an accounting error.
    """
    case = seed % N_CASES
    expected = reference[case]
    setup_times = []

    def sample_setups():
        for _ in range(SETUP_SAMPLES_PER_ROUND):
            setup_times.append(_setup_seconds(rl, workload, case))

    state = workload.setup(rl, case)
    sample_setups()

    results = []
    start = time.perf_counter()

    def run_op(problem, op) -> float:
        results.append(_timed_op(rl, workload, state, problem, expected, op))
        return results[-1][0]

    def loop(one_round):
        while True:
            round_s = one_round()
            if time.perf_counter() - start + round_s > seconds:
                return

    tracer_spans = []
    accounting_errors = []
    if trace:
        run_op(state.problem, workload.op)  # warm-up
        tracer = spans.Tracer(rl)
        tracer.training_samples = getattr(state, "samples", None)
        traced_problem = tracer.traced_problem(state.problem)
        traced_op = tracer.wrap(spans.ROOT_SPAN, workload.op)
        untraced_s = []

        def untraced_then_traced() -> float:
            untraced_s.append(run_op(state.problem, workload.op))
            with tracer:
                return untraced_s[-1] + run_op(traced_problem, traced_op)

        loop(untraced_then_traced)
        tracer_spans = tracer.spans
        metrics = spans.per_layer_metrics(tracer_spans, untraced_op_s=statistics.fmean(untraced_s))
        share = metrics["trace.module_self_share"]
        if abs(share - 1.0) > MODULE_SHARE_TOL:
            accounting_errors.append(
                f"trace.module_self_share = {share:.4f}, not within {MODULE_SHARE_TOL} of 1")
    else:
        def op_then_setups() -> float:
            op_s = run_op(state.problem, workload.op)
            sample_setups()
            return op_s

        loop(op_then_setups)
        metrics = {
            "work_per_s": statistics.median(workload.work_per_op / s for s, _ in results),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    messages = [m for _, msgs in results for m in msgs]
    return RunResult(
        attempted=len(results),
        failed=sum(1 for _, msgs in results if msgs),
        metrics=metrics,
        op_seconds=[s for s, _ in results],
        messages=messages,
        spans=tracer_spans,
        accounting_errors=accounting_errors,
    )
