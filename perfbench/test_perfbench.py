"""Tests of the benchmark's own machinery: self time, failure counting, tracer cleanup."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
from checks import Expectation, digests, toolchain  # noqa: E402
from tracing import OVERHEAD, WRAPPED_MARK, Span, Target, Tracer, package_modules, self_times  # noqa: E402

run.import_program()

# A two-sample fig4a run: the real CLI path, small enough for a unit test.
SMALL = Expectation("fig4a", factor_dim=40, n_factors=1, samples=2, qlbit=True)
SEED = 7


def wrapped_attributes() -> list[str]:
    """Names under qlgraph that still hold a tracer wrapper (empty when clean)."""
    found = []
    for mod in package_modules("qlgraph"):
        for attr, value in vars(mod).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                found += [f"{mod.__name__}.{attr}.{k}" for k, v in vars(value).items()
                          if hasattr(v, WRAPPED_MARK)]
    return found


def test_self_time_subtracts_child_durations():
    # Nested and sequential, as a single-threaded stack tracer records them.
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 4.5, 6.0, 0),
        Span("a", 7.0, 8.0, 0),   # a second call of "a" adds to its total
        Span("other", 20.0, 21.0, None),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 3.0 - 1.5 - 1.0)
    assert got["a"] == pytest.approx(2.0 + 1.0)
    assert got["b"] == pytest.approx(1.5)
    assert got["leaf"] == pytest.approx(1.0)
    assert got["other"] == pytest.approx(1.0)


def test_wrapper_bookkeeping_is_not_charged_to_the_caller():
    import qlgraph.graphs as graphs

    targets = (Target("graphs.adjacency", "qlgraph.graphs", "adjacency"),)
    graph = graphs.cycle_graph(5)
    with Tracer(targets) as tracer:
        graphs.adjacency(graph)
    call, *overhead = tracer.spans
    assert call.name == "graphs.adjacency"
    assert [s.name for s in overhead] == [OVERHEAD, OVERHEAD]
    entry, exit_ = overhead
    assert entry.end == call.start and exit_.start == call.end
    assert entry.start <= call.start and exit_.end >= call.end


def test_speed_scale_divides_by_the_kernel_times_around_each_interval(monkeypatch):
    kernel = iter([0.02, 0.04, 0.08])
    monkeypatch.setattr(speed, "reference_kernel", lambda: 0)
    monkeypatch.setattr(speed, "kernel_seconds", lambda: next(kernel))
    scale = speed.SpeedScale()
    assert scale.scaled(1.0) == pytest.approx(speed.REFERENCE_S / 0.03)
    assert scale.scaled(1.0) == pytest.approx(speed.REFERENCE_S / 0.06)
    assert scale.kernel_s == [0.02, 0.04, 0.08]


def _bench(tmp_path, pinned=None):
    return run.Bench(SMALL, "small", SEED, tmp_path, pinned)


def test_flipped_byte_in_any_artifact_counts_as_failed(tmp_path):
    bench = _bench(tmp_path)
    _, artifacts = bench.run_once()
    assert bench.fail_ratio == 0.0
    for name, data in artifacts.items():
        flipped = bytearray(data)
        flipped[len(data) // 2] ^= 0x01
        before = bench.fail_ratio
        assert not bench.judge(0, dict(artifacts, **{name: bytes(flipped)}))
        assert bench.fail_ratio > before, name
    assert bench.judge(0, artifacts)


def test_pinned_digest_mismatch_fails_only_when_toolchain_matches(tmp_path):
    _, artifacts = _bench(tmp_path).run_once()
    record = {"seed": SEED, "samples": SMALL.samples, "artifacts": digests(artifacts)}
    name = f"{SMALL.name}_metadata.json"
    tampered = dict(artifacts, **{name: artifacts[name].replace(b"\n}", b"\n }")})

    pinned = _bench(tmp_path, {"toolchain": toolchain(), "workloads": {"small": record}})
    assert pinned.digest_status == "passed"
    pinned.reference = {SEED: digests(tampered)}  # isolate the pinned comparison
    assert not pinned.judge(0, tampered)
    assert pinned.digest_status == "failed"

    other = dict(toolchain(), numpy="0.0")
    unchecked = _bench(tmp_path, {"toolchain": other, "workloads": {"small": record}})
    assert unchecked.digest_status.startswith("unchecked")
    unchecked.reference = {SEED: digests(tampered)}
    assert unchecked.judge(0, tampered)


def test_other_program_seeds_skip_the_pin_and_get_their_own_reference(tmp_path):
    seeds = run.program_seeds(SEED)
    assert seeds == run.program_seeds(SEED) and seeds[0] == SEED
    assert len(set(seeds)) == run.SEEDS_PER_RUN
    _, artifacts = _bench(tmp_path).run_once()
    record = {"seed": SEED, "samples": SMALL.samples, "artifacts": digests(artifacts)}
    bench = _bench(tmp_path, {"toolchain": toolchain(), "workloads": {"small": record}})
    bench.run_once(seeds[1])
    bench.run_once(seeds[1])
    bench.run_once()
    assert bench.failed == 0 and bench.digest_status == "passed"
    assert set(bench.reference) == {SEED, seeds[1]}
    assert bench.reference[seeds[1]] != bench.reference[SEED]


def test_nonzero_exit_counts_as_failed(tmp_path):
    bench = _bench(tmp_path)
    assert not bench.judge(3, {})
    assert bench.failed == 1


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    import qlgraph.experiments as experiments
    import qlgraph.graphs as graphs
    import qlgraph.rng as rng

    originals = (experiments.d_regular_random, graphs.Graph.__dict__["__post_init__"],
                 rng.RngSeed.__dict__["derive"], sys.modules["qlgraph.cli"].main)
    bench = _bench(tmp_path)
    with Tracer() as tracer:
        assert experiments.d_regular_random is not originals[0]
        assert wrapped_attributes()
        bench.run_once()
        assert tracer.counts["experiments.run_sample.calls"] > 0
        assert tracer.counts["graphs.d_regular_random.calls"] > 0
    assert wrapped_attributes() == []
    assert (experiments.d_regular_random, graphs.Graph.__dict__["__post_init__"],
            rng.RngSeed.__dict__["derive"], sys.modules["qlgraph.cli"].main) == originals
    assert graphs.d_regular_random is originals[0]

    tracer.reset()
    bench.run_once()
    assert not tracer.spans and not tracer.counts


def test_missing_target_or_unreadable_count_is_reported_absent():
    import qlgraph.graphs as graphs

    def reads_missing_argument(t, name, args, result):
        t.counts[f"{name}.values"] += args["values"].size

    targets = (Target("graphs.gone", "qlgraph.graphs", "no_such_function"),
               Target("nowhere.f", "qlgraph.no_such_module", "f"),
               Target("graphs.adjacency", "qlgraph.graphs", "adjacency", reads_missing_argument))
    with Tracer(targets) as tracer:
        assert tracer.absent == ["graphs.gone", "nowhere.f"]
        graphs.adjacency(graphs.cycle_graph(5))
    assert tracer.failed_counters == {"graphs.adjacency"}
    assert tracer.counts["graphs.adjacency.calls"] == 1
    assert wrapped_attributes() == []


def test_traced_measurement_reports_every_per_layer_metric(tmp_path):
    bench = _bench(tmp_path)
    metrics, detail = run.per_layer(bench, seconds=0.0)
    assert set(metrics) == set(run.PER_LAYER)
    assert detail["absent"] == []
    assert bench.failed == 0
    assert metrics["experiments.sample_ratio"]["value"] > 0
    assert wrapped_attributes() == []
