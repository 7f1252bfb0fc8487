"""The layers the benchmark's tracer wraps still exist in the package, and
a small traced job still reaches the ones a workload requires.

``perfbench/tracing.py`` replaces each label in its ``LAYERS`` with a
timing wrapper: a function through its module attribute, a class through
the ``__init__`` in the class's own ``__dict__``.  A refactor that renames
such a function, or drops a class's own ``__init__``, breaks the traced
benchmark run; one that stops calling a layer a workload lists in
``must_run``, or stops advancing the flow time its ``StepClock`` reads,
fails that workload's gates.  These tests catch both first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def traced_modules(tracing):
    """The dsmcf modules the tracer's labels name, by short name."""
    names = {label.split(".", 1)[0] for label in tracing.LAYERS}
    return SimpleNamespace(**{name: importlib.import_module(f"dsmcf.{name}") for name in names})


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    modules = traced_modules(tracing)
    missing = []
    for label in tracing.LAYERS:
        owner, attr = tracing._resolve(modules, label)
        if attr not in owner.__dict__ or not callable(owner.__dict__[attr]):
            missing.append(label)
    assert not missing, f"the tracer cannot wrap {missing}"


def run_warmup_traced(name, tmp_path):
    """Workload ``name``'s warm-up job, run under the tracer and the step
    clock as a traced benchmark run runs it: (workload, outcome, totals)."""
    tracing, workloads = load_tracing(), load_perfbench("workloads")
    modules = traced_modules(tracing)
    workload = workloads.WORKLOADS[name](0, tmp_path, modules)
    workload.write_configs()
    with tracing.Tracer(modules) as tracer:
        outcome = workload.iterate(warmup=True)
    return workload, outcome, tracer.totals()


def assert_reaches_every_required_layer(workload, outcome, totals):
    """Every ``must_run`` label records a call, and the flow time advances."""
    assert outcome.exit_code == 0
    missing = [label for label in workload.must_run if totals[label][0] == 0]
    assert not missing, f"no calls to {missing}"
    assert outcome.flow_time > 0.0 and outcome.stepping_s > 0.0


def test_small_cartesian_verify_reaches_every_required_layer(tmp_path):
    """``CartesianVerify``'s config at 25^3 (its warm-up job): the checking
    window advances the clock's flow time."""
    workload, outcome, totals = run_warmup_traced("cartesian_verify", tmp_path)
    assert workload.warmup_config()["grid"]["resolution"] == 25
    assert_reaches_every_required_layer(workload, outcome, totals)


@pytest.mark.parametrize("name", ["wrinkled_simulate", "pinned_disk"])
def test_radial_warmup_jobs_reach_every_required_layer(tmp_path, name):
    """The radial workloads' warm-up jobs, a ``simulate`` with its reload
    and convergence table and a pinned-disk ``barrier``, reach their own
    ``must_run`` labels."""
    assert_reaches_every_required_layer(*run_warmup_traced(name, tmp_path))
