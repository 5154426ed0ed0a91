"""Tests of the benchmark's own machinery: span arithmetic, wrapper
removal, and the metric names BENCHMARK.json declares.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import layer_trace  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """Integer nanoseconds that only the toy calls below advance."""

    def __init__(self) -> None:
        self.t = 0

    def __call__(self) -> int:
        return self.t


CLOCK = FakeClock()


class Toy:
    """outer(10 + middle + 5) -> middle(3 + inner + inner + 2) -> inner(7)."""

    def outer(self) -> None:
        CLOCK.t += 10
        self.middle()
        CLOCK.t += 5

    def middle(self) -> None:
        CLOCK.t += 3
        self.inner()
        self.inner()
        CLOCK.t += 2

    def inner(self) -> None:
        CLOCK.t += 7


TOY_LAYERS = {
    "a": [(__name__, "Toy", "outer")],
    "b": [(__name__, "Toy", "middle")],
    "c": [(__name__, "Toy", "inner")],
}


def test_self_time_is_duration_minus_child_spans():
    trace = layer_trace.LayerTrace(TOY_LAYERS, layer_trace.SpanLog(CLOCK))
    with trace:
        Toy().outer()
        Toy().inner()  # a second root span
    assert trace.log.self_times() == {
        "a.Toy.outer": (1, 15),
        "b.Toy.middle": (1, 5),
        "c.Toy.inner": (3, 21),
    }
    assert list(trace.log.parent) == [-1, 0, 1, 1, -1]
    report = trace.report(traced_s=41e-9, overhead=1.0)
    assert report["a.self_s"] == 15e-9
    assert report["c.calls"] == 3
    # self times partition the traced time: no gap, no double count
    assert abs(report["trace.coverage"] - 1.0) < 1e-12


def _targets():
    """(owner, attribute) of every binding the layer trace patches."""
    import importlib

    out = []
    for targets in layer_trace.LAYERS.values():
        for module, cls, attr in targets:
            mod = importlib.import_module(module)
            if cls is None:
                original = getattr(mod, attr)
                out += [
                    (m, attr)
                    for m in list(sys.modules.values())
                    if getattr(m, "__name__", "").startswith("repro")
                    and getattr(m, attr, None) is original
                ]
            else:
                out.append((getattr(mod, cls), attr))
    return out


def test_wrappers_are_removed_after_the_traced_run():
    from repro.experiments import runner
    from repro.metrics import summary
    from repro.perf.scenarios import bench_sim_config, stream_synth_jobs
    from repro.sim.simulator import Simulation

    targets = _targets()
    originals = [vars(owner)[attr] for owner, attr in targets]
    assert (runner, "summarize") in targets  # bound by name, patched too

    def simulate():
        config = bench_sim_config()
        result = Simulation(stream_synth_jobs(300, seed=3), config).run()
        return summary.summarize(result, config.instant_threshold_s)

    trace = layer_trace.LayerTrace()
    with trace:
        assert all(
            vars(owner)[attr] is not orig
            for (owner, attr), orig in zip(targets, originals)
        )
        traced = simulate()
    assert [vars(owner)[attr] for owner, attr in targets] == originals
    n_spans = len(trace.log)
    assert n_spans > 300
    untraced = simulate()
    assert len(trace.log) == n_spans  # unwrapped code records nothing
    assert summary.deterministic_view(traced) == summary.deterministic_view(
        untraced
    )
    report = trace.report(traced_s=1.0, overhead=1.0)
    assert report["sim.calls"] == 1 and report["metrics.calls"] == 301
    assert report["workload.calls"] == 301  # 300 jobs, then StopIteration


def test_wrappers_are_removed_when_install_fails():
    from repro.sim.engine import EventQueue

    push = vars(EventQueue)["push"]
    layers = {
        "engine": [("repro.sim.engine", "EventQueue", "push")],
        "broken": [("repro.sim.engine", "EventQueue", "no_such_method")],
    }
    try:
        with layer_trace.LayerTrace(layers):
            raise AssertionError("install should have failed")
    except KeyError:
        pass
    assert vars(EventQueue)["push"] is push


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_the_name_pattern():
    spec = _benchmark_json()
    metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names = [w["name"] for w in spec["workloads"]]
    for name in metrics + names + list(layer_trace.metric_units()):
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert len(set(metrics)) == len(metrics)
    assert len(set(names)) == len(names)


def test_declared_metrics_are_the_reported_ones():
    spec = _benchmark_json()
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layer_trace.metric_units()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {
        "jobs_per_s": "1/s",
        "setup_s": "s",
        "peak_rss_mib": "MiB",
        **{name: unit for name, (unit, _) in workloads.OUTCOMES.items()},
    }
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
