"""Fast self-test of the benchmark (not part of the package test suite).

    python3 -m pytest -q bench/tests

Runs every workload at toy size, untraced and traced, and checks what the
benchmark prints against BENCHMARK.json, that tracing leaves no patched
binding behind, and that the output check rejects a perturbed reference.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ritzlab as rl  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = {
    "train_wide": {"iterations": 2, "n_samples": 300},
    "train_narrow": {"iterations": 3, "n_samples": 300},
    "evaluate": {"n_quad": 500},
}


def toy(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TOY[name])


def toy_reference(workload):
    """Outputs of one untraced op per case, standing in for reference.json."""
    out = []
    for case in range(workloads.N_CASES):
        state = workload.setup(rl, case)
        out.append(workload.outputs(workload.op(rl, state, state.problem)))
    return out


def bindings():
    """Identity of every ritzlab module attribute and every hooked class attribute."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "ritzlab" or name.startswith("ritzlab."):
            snap.update({(name, k): id(v) for k, v in vars(mod).items()})
    for cls in (rl.networks.Network, rl.training.AdamState, rl.sampling.SampleSet):
        snap.update({(cls.__qualname__, k): id(v) for k, v in vars(cls).items()})
    return snap


def test_tables_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in workloads.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER]
    assert sorted(TOY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(name, trace):
    workload = toy(name)
    before = bindings()
    result = workloads.run_workload(rl, workload, seed=3, seconds=0.0, trace=trace,
                                    reference=toy_reference(workload))
    assert bindings() == before
    section = "per_layer" if trace else "end_to_end"
    assert list(result.metrics) == [m["name"] for m in SPEC[section]]
    assert all(math.isfinite(v) for v in result.metrics.values())
    assert result.failed == 0 and result.attempted == (3 if trace else 1), result.messages
    if trace:
        assert result.spans and all(s[2] >= s[1] for s in result.spans)
        share = result.metrics["trace.module_self_share"]
        assert abs(share - 1) < workloads.MODULE_SHARE_TOL, share
        assert result.accounting_errors == []
        if name.startswith("train"):
            assert result.metrics["networks.jacobian_reuse_ratio"] == 0.5
            assert result.metrics["networks.adjoint_zero_weight_points"] > 0
        else:
            assert result.metrics["networks.adjoint_points"] == 0
            assert result.metrics["gadgets.build_s"] > 0


def test_tracer_patches_every_consumer_binding_and_restores_it():
    originals = {
        "values_and_input_gradients": rl.networks.values_and_input_gradients,
        "loss_and_parameter_gradient": rl.ritz.loss_and_parameter_gradient,
        "forward_batch": rl.networks.forward_batch,
    }
    before = bindings()
    with spans.Tracer(rl):
        for name, mod in sys.modules.items():
            if name == "ritzlab" or name.startswith("ritzlab."):
                for value in vars(mod).values():
                    assert all(value is not f for f in originals.values()), name
        assert rl.training.loss_and_parameter_gradient.__wrapped__ is originals[
            "loss_and_parameter_gradient"]
    assert bindings() == before


def test_tracer_restores_bindings_when_an_op_raises():
    before = bindings()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer(rl):
            raise ZeroDivisionError
    assert bindings() == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_output_check_rejects_perturbed_reference(name):
    workload = toy(name)
    state = workload.setup(rl, 0)
    outputs = workload.outputs(workload.op(rl, state, state.problem))
    assert workload.check(outputs, outputs) == []
    for key, value in outputs.items():
        perturbed = dict(outputs, **{key: value * (1 + 1e-4) + 1e-4})
        assert workload.check(outputs, perturbed), key
    assert workload.check(dict(outputs, **{key: math.nan}), outputs)


def test_stored_reference_covers_every_workload_and_case():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert reference["n_cases"] == workloads.N_CASES
    for name in workloads.WORKLOADS:
        cases = reference["workloads"][name]
        assert len(cases) == workloads.N_CASES
        assert all(all(math.isfinite(v) for v in case.values()) for case in cases)
