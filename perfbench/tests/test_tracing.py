import json
from pathlib import Path

import pytest

from perfbench import run, tracing
from skewsum import _kernels, bounds, cli, linalg, measures, rng, scenarios, states

ROOT = Path(__file__).resolve().parents[2]


def namespaces():
    """Every namespace the tracer may patch, copied."""
    owners = (_kernels, bounds, cli, linalg, measures, rng, scenarios, states,
              rng.SplitMix64, states.DensityMatrix, linalg.HermitianMatrix)
    snap = {repr(o): dict(vars(o)) for o in owners}
    snap["_BOUND_FUNCS"] = dict(bounds._BOUND_FUNCS)
    snap["SCENARIOS"] = dict(scenarios.SCENARIOS)
    return snap


def assert_restored(before):
    after = namespaces()
    assert after.keys() == before.keys()
    for owner, names in before.items():
        assert after[owner].keys() == names.keys(), owner
        for name, value in names.items():
            assert after[owner][name] is value, f"{owner}.{name} not restored"


def test_patches_are_installed_then_restored():
    before = namespaces()
    with tracing.installed(tracing.Tracer()):
        assert cli.fuzz_instance is not before[repr(cli)]["fuzz_instance"]
        assert measures.hermitian_eig is not before[repr(measures)]["hermitian_eig"]
        assert bounds._BOUND_FUNCS["theorem1"] is not before["_BOUND_FUNCS"]["theorem1"]
        assert scenarios.SCENARIOS["example1"] is not before["SCENARIOS"]["example1"]
        assert vars(linalg.HermitianMatrix)["__init__"] is not (
            before[repr(linalg.HermitianMatrix)]["__init__"]
        )
    assert_restored(before)


def test_patches_restored_after_exception():
    before = namespaces()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("op failed")
    assert_restored(before)


def test_patches_restored_when_install_fails_partway():
    class Failing(tracing.Tracer):
        def __init__(self):
            super().__init__()
            self.wrapped = 0

        def wrap(self, name, fn, on_return=None):
            self.wrapped += 1
            if self.wrapped == 6:
                raise RuntimeError("wrapper failed")
            return super().wrap(name, fn, on_return)

    before = namespaces()
    with pytest.raises(RuntimeError):
        with tracing.installed(Failing()):
            pass
    assert_restored(before)


def test_missing_targets_are_skipped():
    class Empty:
        pass

    patches = tracing.Patches()
    patches.attr(Empty, "absent", lambda fn: fn)
    patches.item({}, "absent", lambda fn: fn)
    patches.restore()
    assert not hasattr(Empty, "absent")


def traced_fuzz(path):
    tracer = tracing.Tracer()
    main = tracer.wrap("cli.main", cli.main)
    argv = ["fuzz", "--dims", "2,3", "--ns", "2,3", "--trials", "1", "--seed", "5",
            "--output", str(path)]
    with tracing.installed(tracer):
        assert main(argv) == 0
    return tracer, path.read_bytes()


def test_tracing_keeps_output_bytes_and_counts_repeat(tmp_path):
    plain = tmp_path / "plain.csv"
    assert cli.main(["fuzz", "--dims", "2,3", "--ns", "2,3", "--trials", "1", "--seed", "5",
                     "--output", str(plain)]) == 0
    first, out1 = traced_fuzz(tmp_path / "a.csv")
    second, out2 = traced_fuzz(tmp_path / "b.csv")
    assert out1 == out2 == plain.read_bytes()

    m1 = tracing.layer_metrics(first, evals=4, overhead_frac=0.0)
    m2 = tracing.layer_metrics(second, evals=4, overhead_frac=0.0)
    counts = [k for k, unit in tracing.LAYER_UNITS.items() if unit == "count"]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    for key in ("rng.normals", "states.density_calls", "linalg.eig_calls",
                "kernels.jacobi_sweeps", "bounds.evaluate_calls", "kernels.scan_calls"):
        assert m1[key] > 0, key
    assert m1["bounds.evaluate_ms.d3n3"] > 0
    assert m1["bounds.evaluate_ms.d4n4"] == 0


def test_self_times_partition_the_root_span(tmp_path):
    tracer, _ = traced_fuzz(tmp_path / "out.csv")
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.total["cli.main"], abs=1e-6)
    assert all(v >= 0 for v in tracer.self_time.values())


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
