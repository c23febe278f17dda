'''
A traced benchmark run resolves every per-layer metric.

bench/worker.py times the package from outside: it wraps public functions
where callers look them up, and bench/summary.py turns the spans into the
per_layer metrics that BENCHMARK.json lists. When a refactor stops a call
from going through a wrapped name (a batch that never calls retrieve, say),
that metric silently drops out of the run's last line, while the tracer's
absent list, which only names targets that no longer exist, stays empty.
This runs one small traced measurement per recipe in-process and checks
that every metric is there. It also regenerates each workload's inputs at
the pinned seed and checks them against bench/pins.json, so a change to
the generator or the dataset writers shows here, not only in a bench run.
'''

import importlib
import json
import sys
import time
import types
from pathlib import Path

import pytest

from conformal_retrieval.dataset import save_dataset
from conformal_retrieval.synthgen import generate

ROOT = Path(__file__).resolve().parents[1]
BENCH_MODULES = ("spec", "tracer", "summary", "worker")
# what this test uses of bench/, by module
USED = {"spec": ("WORKLOADS", "input_digest", "PIN_SEED"), "summary": ("per_layer",),
        "worker": ("Run", "PHASE_S", "synth_config")}


@pytest.fixture(scope="module")
def bench():
    '''bench/'s modules, imported without leaving bytecode in bench/.'''
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        modules = types.SimpleNamespace(**{
            name: importlib.import_module(name) for name in BENCH_MODULES})
    except ImportError as exc:
        pytest.skip(f"bench/ does not import as expected: {exc}")
    finally:
        sys.path.remove(str(ROOT / "bench"))
        sys.dont_write_bytecode = saved
    missing = [f"{name}.{attr}" for name, attrs in USED.items()
               for attr in attrs if not hasattr(getattr(modules, name), attr)]
    if missing:
        pytest.skip(f"bench/ no longer has {', '.join(missing)}")
    yield modules
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["exact-dense", "shortlist-wide"])
def test_traced_run_has_every_per_layer_metric(bench, tmp_path, monkeypatch,
                                               workload):
    spec = dict(bench.spec.WORKLOADS[workload],
                n_queries=60, n_references=120, dim=16)
    data = tmp_path / "data"
    start = time.perf_counter()
    dataset = generate(bench.worker.synth_config(spec, seed=3))
    generate_s = time.perf_counter() - start
    save_dataset(dataset, data)

    monkeypatch.setattr(bench.worker, "PHASE_S", 0.01)
    opts = types.SimpleNamespace(
        workload=workload, seed=3, seconds=0.0, trace=1, final=0,
        data=str(data), digest=bench.spec.input_digest(data),
        work=str(tmp_path / "work"), record=None, spans=None)
    (tmp_path / "work").mkdir()
    run = bench.worker.Run(opts)
    run.spec = spec
    try:
        run.execute()
    finally:
        run.tracer.uninstall()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        names = [m["name"] for m in json.load(handle)["per_layer"]]
    metrics = bench.summary.per_layer([run.record], spec["k"], generate_s)
    assert [name for name in names if name not in metrics] == []
    assert run.ops.failed == 0, run.ops.failures
    assert run.tracer.absent == []


def test_pinned_inputs_are_unchanged(bench, tmp_path):
    pins = json.loads((ROOT / "bench" / "pins.json").read_text(encoding="utf-8"))
    for workload, spec in bench.spec.WORKLOADS.items():
        data = tmp_path / workload
        save_dataset(generate(bench.worker.synth_config(spec, bench.spec.PIN_SEED)), data)
        assert bench.spec.input_digest(data) == pins[workload], workload
