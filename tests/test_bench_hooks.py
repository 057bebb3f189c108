"""bench/spans.py's tracer finds every ritzlab name it hooks and puts back
every binding it replaced.  bench/tests, which checks this too, is not part of
the package suite, so a renamed hook would otherwise first fail in a benchmark
run."""

import types
from pathlib import Path

import ritzlab
import ritzlab.harness  # noqa: F401  (its own bindings of the hooked functions are patched too)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PATCHED_CLASSES = (ritzlab.networks.Network, ritzlab.training.AdamState,
                   ritzlab.sampling.SampleSet)


def _load_spans():
    """bench/spans.py as a module, compiled from its source so that no
    bytecode cache is written under bench/."""
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def _bindings(spans) -> dict:
    """Every name bound in a loaded ritzlab module or in a class the tracer patches."""
    out = {(mod.__name__, key): value for mod in spans._ritzlab_modules()
           for key, value in vars(mod).items()}
    out.update(((cls.__qualname__, key), value) for cls in PATCHED_CLASSES
               for key, value in vars(cls).items())
    return out


def test_bench_tracer_hooks_every_name_and_restores_every_binding():
    spans = _load_spans()
    before = _bindings(spans)
    tracer = spans.Tracer(ritzlab)
    try:
        tracer.__enter__()  # an AttributeError here names a hook that ritzlab lost
        patches = list(tracer._patches)
        assert all(getattr(owner, key) is not original for owner, key, original in patches)
    finally:
        tracer.__exit__(None, None, None)
    # 12 functions, each in every loaded module that binds it, and 3 methods
    assert len({id(original) for _, _, original in patches}) == 15
    after = _bindings(spans)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
