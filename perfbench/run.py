"""symres benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Run from the root of a source checkout; the library is imported from src/:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 [--trace 1]

One run drives one workload from this process in a closed loop: the next
item starts after the previous one finished, and each item is checked
outside the timed region. Items come in rounds of fixed composition whose
values come from ``--seed``. Whole rounds run until ``--seconds`` of item
time, scaled by the host-speed probe, is measured, so every run measures
the same mix.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The exit code is nonzero when any item fails its check, when
a gate self-test fails, or when the checkout holds no library to measure.

``--workload all`` runs every workload in a fresh process of its own and
prints every end-to-end metric by name with its unit, plus ``failed_ratio``.
It also runs ``sweep_cli_n10``, which fails through a known defect (see
``workloads.SweepCliN10``), so it exits 1 until that defect is fixed;
with ``--trace 1`` it also makes the traced runs and prints the tracing
overhead. A traced run traces every second round only and reports the
overhead as the drop of ``items_per_s`` from its untraced to its traced
rounds, so both sides see the same machine state.

Every time the benchmark reports is scaled by a host-speed probe of
``probe.py``, timed beside it: times read as on a host where the probe
takes its reference time. The raw wall times are printed beside them.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("certify", "configuratrix", "sweep_cli")
#: Workloads that fail at this commit through a known defect: kept out of
#: BENCHMARK.json, run and reported by ``--workload all``.
DEFECT_WORKLOADS = ("sweep_cli_n10",)

#: ``setup_s`` is the median over SETUP_GROUPS groups of SETUP_GROUP fresh
#: interpreters each, each spawn scaled by the probes around it; the groups
#: are spread over the run.
SETUP_GROUPS = 5
SETUP_GROUP = 4
#: What a fresh interpreter must finish before it counts as set up.
SETUP_CODE = {
    "certify": "import symres",
    "configuratrix": "import symres",
    "sweep_cli": "import symres.cli; symres.cli.build_parser()",
    "sweep_cli_n10": "import symres.cli; symres.cli.build_parser()",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + DEFECT_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupTimer:
    """Times a fresh interpreter from spawn to its set-up completing.

    The child reports ``time.monotonic()``, one system-wide clock on Linux,
    once its imports are done, so interpreter exit is not counted. One
    untimed spawn first lets the bytecode cache fill. Each spawn is scaled
    by the probes of its group, and ``setup_s`` is the median of the scaled
    spawns of several groups, timed at even steps of the run, so that it
    samples the whole run.
    """

    def __init__(self, workload: str):
        probe.spawn()  # the first start of an interpreter fills the file cache
        self.code = ("import time, sys\n" + SETUP_CODE[workload]
                     + "\nsys.stdout.write(repr(time.monotonic()))")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.groups = 0
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._spawn()

    def _spawn(self) -> float:
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", self.code], env=self.env, check=True,
                              capture_output=True, text=True).stdout
        return float(done) - start

    def progress(self, share: float) -> None:
        """Time the groups due once ``share`` of the run is done."""
        while self.groups < SETUP_GROUPS and share >= self.groups / SETUP_GROUPS:
            clock = probe.HostClock("spawn")
            spawns = []
            for _ in range(SETUP_GROUP):
                clock.sample()
                spawns.append(self._spawn())
            clock.sample()
            self.raw.extend(spawns)
            self.scaled.extend(t * clock.scale(i) for i, t in enumerate(spawns))
            self.groups += 1

    def setup_s(self) -> float:
        self.progress(1.0)
        return statistics.median(self.scaled)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Round(NamedTuple):
    units: int
    first: int  # index of the round's first item
    end: int  # index after its last item
    traced: bool


class Run:
    """One closed-loop run of a workload, optionally traced."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        import workloads
        self.wl = {
            "certify": workloads.Certify,
            "configuratrix": workloads.Configuratrix,
            "sweep_cli": lambda: workloads.SweepCli(workdir),
            "sweep_cli_n10": lambda: workloads.SweepCliN10(workdir),
        }[workload]()
        self.replays = trace and workload.startswith("sweep_cli")
        self.rng = random.Random(f"{workload}/{seed}")
        self.seconds = seconds
        self.clock = probe.HostClock(self.wl.PROBE)
        self.raw: list[float] = []  # wall time per item
        self.latencies: list[float] = []  # scaled time per item, set by go()
        self.rounds: list[Round] = []
        self.units = self.vanishing = 0
        self.failures: list[str] = []
        self.tracer = None
        # Sums over sweep invocations replayed in-process under tracing.
        self.replay = {"process_s": 0.0, "untraced_s": 0.0, "bytes": 0}
        if trace:
            import tracer
            self.tracer = tracer.Tracer()

    def go(self, setup: SetupTimer | None = None) -> None:
        misses = self.wl.selftest()
        if misses:
            raise SystemExit("gate self-test failed: " + "; ".join(misses))
        busy = 0.0
        while busy < self.seconds:
            if setup is not None:
                setup.progress(busy / self.seconds)
            first = len(self.raw)
            self._round()
            busy += sum(self.raw[i] * self.clock.scale(i) for i in range(first, len(self.raw)))
        self.clock.sample()
        self.latencies = [t * self.clock.scale(i) for i, t in enumerate(self.raw)]

    def _round(self) -> None:
        """Run one round. A traced run leaves every second round untraced,
        so that the tracing overhead is measured in the same run."""
        traced = self.tracer is not None and len(self.rounds) % 2 == 0
        units, first = self.units, len(self.raw)
        if traced:
            self.tracer.install()
        try:
            for item in self.wl.round(self.rng):
                self._item(item, self.tracer if traced else None)
        finally:
            if traced:
                self.tracer.uninstall()
        self.rounds.append(Round(self.units - units, first, len(self.raw), traced))

    def _item(self, item, tracer) -> None:
        wl = self.wl
        wl.prepare(item)
        if tracer is not None:
            tracer.item = len(self.raw)
        self.clock.sample()
        start = time.perf_counter()
        try:
            output = wl.run(item)
            problem = None
        except Exception as exc:  # an item that raises counts as failed
            output, problem = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if problem is None:
            problem = self._check(item, output, tracer)
            if problem is None and self.replays and tracer is not None:
                elapsed = self._replay(item, elapsed)
        wl.discard(item)
        self.raw.append(elapsed)
        self.units += wl.units(item)
        if problem is None:
            self.vanishing += wl.vanishes(item, output)
        else:
            self.failures.append(f"{item.kind}: {problem}")

    def _check(self, item, output, tracer):
        """The item's gate; an output the gate cannot even read counts as failed."""
        try:
            if tracer is None:
                return self.wl.check(item, output)
            with tracer.pause():
                return self.wl.check(item, output)
        except Exception as exc:
            return f"check raised {exc!r}"

    def _replay(self, item, elapsed: float) -> float:
        """Run ``symres.cli.main`` on the item in this process, untraced then traced.

        Only items of traced rounds are replayed, so the replay totals share
        their item count with the traced rounds. Returns the item's time for
        the layer accounting: the subprocess time with its in-process part
        replaced by the traced replay.
        """
        import symres.cli
        out = item.files["out"].with_suffix(".replay")
        item.files["replay"] = out
        argv = self.wl.argv(item, out)
        with self.tracer.pause():
            start = time.perf_counter()
            symres.cli.main(argv)
            untraced = time.perf_counter() - start
        start = time.perf_counter()
        symres.cli.main(argv)
        traced = time.perf_counter() - start
        self.replay["process_s"] += elapsed
        self.replay["untraced_s"] += untraced
        self.replay["bytes"] += out.stat().st_size
        return elapsed - untraced + traced

    # -- metrics -----------------------------------------------------------

    @staticmethod
    def rate(rounds: list[Round], times: list[float]) -> float:
        """Units completed per second of item time, over whole rounds."""
        return sum(r.units for r in rounds) / sum(sum(times[r.first:r.end]) for r in rounds)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        return {
            "items_per_s": self.rate(self.rounds, self.latencies),
            "latency_p50_ms": 1000 * statistics.median(self.latencies),
            "latency_tail_ms": 1000 * tail(self.latencies)[1],
            "peak_rss_mb": self.wl.peak_rss_kb() / 1024,
            "setup_s": setup_s,
        }

    def per_layer(self) -> dict[str, float]:
        import tracer as tracing
        traced = [r for r in self.rounds if r.traced]
        items = sum(r.end - r.first for r in traced)
        wall = sum(sum(self.raw[r.first:r.end]) for r in traced)
        out = tracing.layer_metrics(self.tracer, items)
        overhead = self.replay["process_s"] - self.replay["untraced_s"]
        out["cli.process_overhead_s"] = overhead / items
        out["cli.output_bytes"] = self.replay["bytes"] / items
        out["cli.self_s"] += overhead / items
        out["items.vanish_share"] = self.vanishing / self.units
        out["bench.wall_s"] = wall / items
        out["bench.unattributed_s"] = (wall / items
                                       - sum(out[layer + ".self_s"] for layer in tracing.LAYERS))
        untraced = [r for r in self.rounds if not r.traced]
        out["trace.overhead"] = (1 - self.rate(traced, self.latencies)
                                 / self.rate(untraced, self.latencies)) if untraced else 0.0
        return out


def result_line(values: dict[str, float], declared: list[dict], attempted: int, failed: int) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        setup = None if args.trace else SetupTimer(args.workload)
        run.go(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = len(run.raw), len(run.failures)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} items in "
          f"{len(run.rounds)} rounds, "
          f"{failed} failed (failed_ratio {failed / attempted:.6f}), "
          f"vanishing share {run.vanishing / run.units:.4f}")
    if args.trace:
        values, declared = run.per_layer(), spec["per_layer"]
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        run.tracer.write(trace_file)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        values, declared = run.end_to_end(setup.setup_s()), spec["end_to_end"]
        percentile, _ = tail(run.latencies)
        print(f"latency_tail_ms is p{percentile:.2f} over {attempted} samples")
        print(f"unscaled: items_per_s {run.rate(run.rounds, run.raw):.6g}, "
              f"latency_p50_ms {1000 * statistics.median(run.raw):.6g}, "
              f"latency_tail_ms {1000 * tail(run.raw)[1]:.6g}, "
              f"setup_s {statistics.median(setup.raw):.6g} (median spawn); "
              f"probe median {1000 * statistics.median(run.clock.samples):.4g} ms")
    for m in declared:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(result_line(values, declared, attempted, failed))
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints each end-to-end metric with its unit."""
    status = 0
    rows = []
    for workload in WORKLOADS + DEFECT_WORKLOADS:
        results = {}
        for trace in ((0, 1) if args.trace and workload in WORKLOADS else (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
            lines = proc.stdout.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                results[trace] = json.loads(lines[-1])
        if 0 not in results:
            continue
        last = results[0]
        for name, metric in last["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
        rows.append((workload, "failed_ratio", last["failed"] / last["attempted"], "share"))
        if 1 in results:
            overhead = results[1]["metrics"]["trace.overhead"]["value"]
            rows.append((workload, "trace.overhead", overhead, "share"))
    print()
    for workload, name, value, unit in rows:
        print(f"{workload:14s} {name:16s} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symres" / "__init__.py").is_file():
        sys.stderr.write(f"no symres sources under {SRC}; run from a source checkout\n")
        return 2
    probe.pin()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
