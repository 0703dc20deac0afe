"""qlgraph benchmark: one closed-loop caller of the CLI `run` path.

Usage, from the repository root:

    python3 perfbench/run.py --workload qlbit-ensemble --seed 401 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs one bundled figure through `qlgraph.cli.main(["run", ...])`
back to back in this one process, with BLAS pinned to one thread. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of traced runs, which
alternate with untraced ones. End-to-end times are in reference seconds
(speed.py), and the untraced loop cycles through program seeds derived
from ``--seed``. The line before the result records the environment, the
digest status and whatever failed. See README.md.

``--record-digests`` runs every workload once at its bundled seed and size
and rewrites digests.json; do that only for an intended output change.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from checks import (BLAS_THREAD_VARS, Expectation, check_artifacts, compare_digests,
                    digests, environment, toolchain)

# One BLAS thread, set before numpy loads BLAS: every matrix here is at most
# 40x40 and the machine is small.
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402
from speed import REFERENCE_S, SpeedScale  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
DIGESTS = HERE / "digests.json"

# Why each workload exists is in README.md; sizes are the bundled ones, so
# the pinned digests and the per-layer counts describe the shipped figures.
WORKLOADS = {
    "qlbit-ensemble": Expectation("fig4a", factor_dim=40, n_factors=1, samples=100, qlbit=True),
    "product-spectrum": Expectation("fig4f", factor_dim=14, n_factors=4, samples=1, qlbit=True),
    "disordered-ensemble": Expectation("fig3", factor_dim=12, n_factors=3, samples=100,
                                       qlbit=False),
}

SETUP_REPEATS = 11
SEEDS_PER_RUN = 32
TAIL_BEYOND = 10
MIN_RUNS = TAIL_BEYOND + 1
MIN_PAIRS = 2  # untraced-traced pairs; two traced runs compare their counts

# Fresh interpreter: import the package and load and validate the descriptor,
# the work every `qlgraph run` pays before its first sample.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import qlgraph.cli
from qlgraph.experiments import BUNDLED_EXPERIMENTS
desc = BUNDLED_EXPERIMENTS[sys.argv[1]].with_overrides(
    master_seed=int(sys.argv[2]), n_samples=int(sys.argv[3]))
errors = desc.validate()
print(time.perf_counter() - t0)
sys.exit(1 if errors else 0)
"""

# Metrics whose span is not their name's prefix.
SPAN_OF = {"experiments.sample_ratio": "experiments.run_sample"}

PER_LAYER = {
    "graphs.d_regular_random.calls": "count",
    "graphs.d_regular_random.self_s": "s",
    "graphs.d_regular_random.distinct_ratio": "ratio",
    "graphs.Graph.calls": "count",
    "graphs.Graph.self_s": "s",
    "graphs.Graph.edges": "count",
    "graphs.adjacency.self_s": "s",
    "graphs.delete_random_edges.self_s": "s",
    "graphs.apply_diagonal_disorder.self_s": "s",
    "graphs.is_connected.self_s": "s",
    "rng.RngSeed.derive.calls": "count",
    "rng.RngSeed.derive.self_s": "s",
    "rng.RngSeed.generator.self_s": "s",
    "qlbits.couple.self_s": "s",
    "qlbits.emergent_pair.self_s": "s",
    "qlbits.predict_splitting.self_s": "s",
    "spectra.eigendecompose.calls": "count",
    "spectra.eigendecompose.self_s": "s",
    "spectra.eigendecompose.distinct_ratio": "ratio",
    "spectra.eigendecompose.dim3_sum": "count",
    "products.compose_spectra.self_s": "s",
    "products.compose_spectra.values": "count",
    "products.write_composed_spectrum_csv.self_s": "s",
    "products.write_composed_spectrum_csv.rows": "count",
    "ensembles.histogram_from_values.self_s": "s",
    "ensembles.histogram_from_values.values": "count",
    "ensembles.write_histogram_csv.self_s": "s",
    "projection.project_alphas.self_s": "s",
    "experiments.run_sample.calls": "count",
    "experiments.run_sample.self_s": "s",
    "experiments.sample_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace_overhead_s": "s",
}


def import_program():
    """Import qlgraph from this checkout's src/, never from anywhere else."""
    package = SRC / "qlgraph"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qlgraph sources at {package}")
    sys.path.insert(0, str(SRC))
    import qlgraph.cli

    if Path(qlgraph.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported qlgraph from {qlgraph.__file__}, not {package}")
    return qlgraph


def setup_seconds(exp: Expectation, seed: int) -> float:
    """Seconds one fresh interpreter takes to import qlgraph and validate the descriptor."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, exp.name, str(seed), str(exp.samples)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Bench:
    """Runs one workload through the CLI and judges every run's artifacts."""

    def __init__(self, exp: Expectation, workload: str, seed: int, scratch: Path,
                 pinned: dict | None):
        self.exp = exp
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, dict[str, str]] = {}  # first digests per program seed
        self.pinned, self.digest_status = None, "not recorded for this seed and size"
        record = (pinned or {}).get("workloads", {}).get(workload)
        if record and record["seed"] == seed and record["samples"] == exp.samples:
            if pinned["toolchain"] == toolchain():
                self.pinned, self.digest_status = record["artifacts"], "passed"
            else:
                self.digest_status = "unchecked: toolchain differs from the recorded one"

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def argv(self, seed: int) -> list[str]:
        return ["run", self.exp.name, "--seed", str(seed), "--samples", str(self.exp.samples)]

    def run_once(self, seed: int | None = None) -> tuple[float, dict[str, bytes]]:
        """One timed CLI run; returns its wall time and the artifacts it committed.

        `seed` is the program seed, by default the workload seed.
        """
        seed = self.seed if seed is None else seed
        cli = sys.modules["qlgraph.cli"]
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        stdout = io.StringIO()
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with redirect_stdout(stdout):
                code = cli.main(self.argv(seed) + ["--out", str(out)])
        except (Exception, SystemExit):
            code = traceback.format_exc()
        elapsed = time.perf_counter() - start
        artifacts = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        self.judge(code, artifacts, seed)
        return elapsed, artifacts

    def judge(self, code, artifacts: dict[str, bytes], seed: int | None = None) -> bool:
        """Count the run as failed on an exit code, exception, digest or invariant."""
        seed = self.seed if seed is None else seed
        if code != 0:
            problems = [f"run ended with {code!r}"]
        else:
            problems = check_artifacts(artifacts, self.exp)
            found = digests(artifacts)
            reference = self.reference.setdefault(seed, found)
            problems += compare_digests(found, reference, "run-to-run")
            if self.pinned is not None and seed == self.seed:
                problems += compare_digests(found, self.pinned, "pinned")
        if problems:
            self.failed += 1
            self.problems += problems
            if self.pinned is not None and any(p.startswith("pinned") for p in problems):
                self.digest_status = "failed"
        return not problems

    def loop(self, seconds: float, min_steps: int, step) -> list:
        """`step` back to back for `seconds`; its results.

        `step` gets the share of `seconds` elapsed so far.
        """
        results = []
        start = time.perf_counter()
        while len(results) < min_steps or time.perf_counter() - start < seconds:
            results.append(step((time.perf_counter() - start) / seconds if seconds else 1.0))
        return results


def layer_numbers(tracer: Tracer, artifacts: dict[str, bytes]) -> tuple[dict, dict]:
    counts = dict(tracer.counts)
    for name, keys in tracer.distinct.items():
        counts[f"{name}.distinct"] = len(keys)
    counts["cli.artifact_bytes"] = sum(len(b) for b in artifacts.values())
    return self_times(tracer.spans), counts


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND runs beyond it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def program_seeds(seed: int) -> list[int]:
    """The workload seed and SEEDS_PER_RUN - 1 seeds derived from it.

    Run time depends on the seed (the pairing model retries until an
    attempt succeeds), so the loop cycles through these seeds and neither
    the median nor the tail hinges on one seed's graphs.
    """
    derived = np.random.SeedSequence(seed).generate_state(SEEDS_PER_RUN - 1)
    return [seed] + [int(s) for s in derived]


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    # Set-up samples are spread over the loop so that they see the same
    # machine load as the runs; the first one only warms the file cache.
    # Every time is in reference seconds (speed.py); the wall times are
    # kept for the detail record.
    setup: list[float] = []
    walls: list[float] = []
    seeds = program_seeds(bench.seed)
    bench.run_once()
    scale = SpeedScale()

    def timed_setup() -> None:
        setup.append(scale.scaled(setup_seconds(bench.exp, bench.seed)))

    def step(fraction: float) -> float:
        if len(setup) <= SETUP_REPEATS and fraction >= len(setup) / (SETUP_REPEATS + 1):
            timed_setup()
        walls.append(bench.run_once(seeds[len(walls) % len(seeds)])[0])
        return scale.scaled(walls[-1])

    times = bench.loop(seconds, MIN_RUNS, step)
    while len(setup) <= SETUP_REPEATS:
        timed_setup()
    setup = setup[1:]
    tail_s, percentile = tail(times)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "run_s": metric(statistics.median(times), "s"),
        "run_s_tail": metric(tail_s, "s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }
    detail = {"setup_repeats": len(setup), "runs": len(times),
              "run_s_tail_percentile": percentile, "runs_beyond_tail": TAIL_BEYOND,
              "run_wall_s": statistics.median(walls), "reference_s": REFERENCE_S,
              "kernel_s": statistics.median(scale.kernel_s), "program_seeds": seeds}
    return metrics, detail


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()

    # Untraced and traced runs alternate, so that both medians see the same
    # machine speed; the tracer is installed only around each traced run.
    def step(fraction: float) -> tuple[float, float, tuple[dict, dict]]:
        plain, _ = bench.run_once()
        tracer.reset()
        with tracer:
            traced, artifacts = bench.run_once()
        return plain, traced, layer_numbers(tracer, artifacts)

    bench.run_once()
    plain, traced, layers = zip(*bench.loop(seconds, MIN_PAIRS, step))

    def lost(name: str) -> bool:
        """A name a refactor removed, or a count its counter can no longer read."""
        span, _, quantity = name.rpartition(".")
        span = SPAN_OF.get(name, span)
        return span in tracer.absent or (span in tracer.failed_counters
                                         and quantity not in ("calls", "self_s"))

    counts = [{k: v for k, v in c.items() if not lost(k)} for _, c in layers]
    if any(c != counts[0] for c in counts):
        bench.failed += 1
        bench.problems.append("traced runs disagree on a count")
    counts = counts[0]
    samples = bench.exp.samples

    def layer(name: str) -> float:
        span, _, quantity = name.rpartition(".")
        if lost(name):
            return 0
        if quantity == "self_s":
            return statistics.median(s.get(span, 0.0) for s, _ in layers)
        if quantity == "distinct_ratio":
            calls = counts.get(f"{span}.calls", 0)
            return counts.get(f"{span}.distinct", 0) / calls if calls else 1.0
        if name == "experiments.sample_ratio":
            calls = counts.get("experiments.run_sample.calls", 0)
            return samples / calls if calls else 0.0
        if name == "trace_overhead_s":
            return statistics.median(traced) - statistics.median(plain)
        return counts.get(name, 0)

    metrics = {name: metric(layer(name), unit) for name, unit in PER_LAYER.items()}
    detail = {"untraced_runs": len(plain), "traced_runs": len(traced),
              "spans_per_run": len(tracer.spans), "absent": sorted(filter(lost, PER_LAYER))}
    return metrics, detail


def load_pinned() -> dict | None:
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return None


def record_digests(qlgraph) -> None:
    record = {"toolchain": toolchain(), "workloads": {}}
    for workload, exp in WORKLOADS.items():
        seed = qlgraph.BUNDLED_EXPERIMENTS[exp.name].master_seed
        with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
            bench = Bench(exp, workload, seed, Path(scratch), None)
            _, artifacts = bench.run_once()
        if bench.failed:
            raise SystemExit(f"perfbench: {workload} failed: {bench.problems}")
        record["workloads"][workload] = {"seed": seed, "samples": exp.samples,
                                         "artifacts": digests(artifacts)}
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload, each in its own process, "
                             "and prints a table of their metrics")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed passed to the CLI (default: the figure's bundled seed)")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
                        help="length of the measured closed loop (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from one run of every workload")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process); one table."""
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{workload}\texited with {done.returncode}\n{done.stderr}")
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{workload}\tcorrect={result['correct']}\tattempted={result['attempted']}"
              f"\tfailed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"{workload}\t{name}\t{m['value']}\t{m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    qlgraph = import_program()
    SCRATCH.mkdir(exist_ok=True)
    try:
        if args.record_digests:
            record_digests(qlgraph)
            return 0
        exp = WORKLOADS[args.workload]
        seed = args.seed
        if seed is None:
            seed = qlgraph.BUNDLED_EXPERIMENTS[exp.name].master_seed
        scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
        try:
            bench = Bench(exp, args.workload, seed, scratch, load_pinned())
            measure = per_layer if args.trace else end_to_end
            metrics, detail = measure(bench, args.seconds)
        finally:
            shutil.rmtree(scratch)
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another benchmark process still uses it
    detail.update(workload=args.workload, figure=exp.name, seed=seed, samples=exp.samples,
                  environment=environment(ROOT), digests=bench.digest_status,
                  fail_ratio=bench.fail_ratio, problems=bench.problems[:20])
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
