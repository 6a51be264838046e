#!/usr/bin/env python3
"""homlab benchmark: one workload per run, or all three in turn.

    python3 perfbench/run.py --workload container-soundness --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # the three workloads

A run repeats whole rounds of the workload's tasks and CLI calls for at most
--seconds, measures set-up in fresh processes spread over the run, then
checks the first round's outputs against independent oracles and every later
round against the first.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer ones (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from probe import REF_NOMINAL_S, reference, short_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("container-soundness", "exact-kernels", "cli-session")
# numpy may start one BLAS thread per core; the benchmark's only parallelism
# is run_experiment's two workers
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MAX_RUN_S = 120.0  # stop starting rounds after this, whatever --seconds says

# Every reported time is scaled to the reference's nominal speed
# (probe.REF_NOMINAL_S): a child process by the reference it timed itself at
# its start and end, each call of a task that runs homlab's worker threads by
# the reference timed on every CPU right before and right after it, other
# in-process work piecewise by a short reference timed from a timer signal
# every SAMPLE_EVERY_S while it runs.
SAMPLE_EVERY_S = 0.1
STEADY_TOLERANCE = 0.2

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]
TASKS = ("exhaustive", "sweep", "roundtrip", "overlay", "homogeneous", "tournament", "cli")
CLI_LABELS = ("construct", "hom", "containers_verify", "tournament_dist", "params", "experiment_run")
IMPORTS = ("numpy", "mpmath", "click", "homlab")
COUNTERS = [
    ("containers.segments", "count"),
    ("graphs.count_induced_p4.copies", "count"),
    ("tournaments.dp_states", "count"),
    ("experiments.run_experiment.cpu_per_wall", "ratio"),
    ("experiments.qualifying_per_attempt", "ratio"),
    ("homogeneous.premise_per_attempt", "ratio"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    import tracing

    out = []
    for name in tracing.span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    out += COUNTERS
    out += [(f"cli.{label}.ms", "ms") for label in CLI_LABELS]
    out += [(f"import.{mod}_ms", "ms") for mod in IMPORTS]
    out += [(f"task.{task}_s", "s") for task in TASKS]
    out += [("cli_call_ms", "ms"), ("trace.overhead_s", "s"), ("reference_ms", "ms")]
    return out


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# set-up probes


def run_probe(workload: str, seed: int, size: str, workdir: Path) -> tuple[float, float, float]:
    """(set-up seconds, first and last reference seconds) of one fresh probe
    process; set-up runs from before the process is started until it reports
    its inputs ready, less the reference it timed on the way."""
    cmd = [sys.executable, str(HERE / "probe.py"), "setup", workload, str(seed), size, str(workdir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait(timeout=120)
    shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    first = float(line.split()[1])
    return elapsed - first, first, float(rest.split()[0])


def import_breakdown(samples: int = 3) -> dict[str, float]:
    """Cumulative import time (ms) of numpy, mpmath, click and homlab, from
    `python -X importtime -c "import homlab.cli"`, median of `samples`."""
    per_mod: dict[str, list[float]] = {m: [] for m in IMPORTS}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import homlab.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in per_mod:
                per_mod[parts[2].strip()].append(int(parts[1]) / 1000)
    return {m: statistics.median(v) if v else 0.0 for m, v in per_mod.items()}


# ---------------------------------------------------------------------------
# CLI calls


def run_call(call, workdir: Path, spans_path: Path | None):
    """Run one homlab CLI call in a fresh process.  Returns (exit code,
    seconds without the child's reference timings, the child's first and last
    reference seconds, peak RSS in MB, stdout, stderr)."""
    ref_path = workdir / "call.ref"
    cmd = [sys.executable, str(HERE / "probe.py"), "cli", str(ref_path),
           str(spans_path) if spans_path else "-", "--", *call.argv]
    out_path, err_path = workdir / "call.out", workdir / "call.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    first, last = (float(x) for x in ref_path.read_text().split())
    return (proc.returncode, elapsed - first - last, first, last, usage.ru_maxrss / 1024,
            out_path.read_text(), err_path.read_text())


# ---------------------------------------------------------------------------
# one workload


ARRAY_NOMINAL_S = 0.0027  # its median while the exhaustive task runs here


def array_reference() -> float:
    """Fixed numpy work over 5 MB of arrays, for tasks whose time goes to
    large array passes: their speed follows the memory system's load, which
    the pure-Python reference does not see.  In ARRAY_NOMINAL_S units."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.arange(1 << 20, dtype=np.uint32)
    b = (a & np.uint32(0x5A5A5)) == 0
    np.maximum(a.astype(np.uint8), b.view(np.uint8), out=b.view(np.uint8))
    return (time.perf_counter() - t0) * REF_NOMINAL_S / ARRAY_NOMINAL_S


class SpeedSampler:
    """Runs single-threaded in-process work while a timer signal samples the
    machine's speed.

    Every SAMPLE_EVERY_S the handler times a short reference (a few
    milliseconds, in the main thread, between bytecodes).  The time between
    two samples, less the handlers' own time, is scaled by the mean of the two
    samples.  Work that runs other threads is not sampled: the reference would
    compete with them for the CPUs and the GIL."""

    def __init__(self, array: bool = False) -> None:
        self.reference = array_reference if array else short_reference
        self.samples: list[tuple[float, float, float]] = []  # (start, end, reference s)
        self.raw = self.scaled = 0.0

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        ref = self.reference()
        self.samples.append((t0, time.perf_counter(), ref))

    def run(self, fn):
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()
            for (_, end, ref_a), (start, _, ref_b) in zip(self.samples, self.samples[1:]):
                self.raw += start - end
                self.scaled += (start - end) * REF_NOMINAL_S * 2 / (ref_a + ref_b)


def at_nominal(seconds: float, first: float, last: float) -> float:
    """Work timed between two reference timings, at the reference's nominal speed."""
    return seconds * REF_NOMINAL_S * 2 / (first + last)


def all_cpu_reference() -> float:
    """Mean of reference() timed on each CPU this process may use, the calling
    thread pinned to each in turn: the CPUs change speed independently, and
    worker threads may run on any of them."""
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(reference())
        return statistics.mean(times)
    finally:
        os.sched_setaffinity(0, allowed)


class CallTimer:
    """Passes a task's operations on to `ops` and times each between two
    all_cpu_reference() timings (one call's closing timing opens the next).
    For tasks that run worker threads: a reference timed while the workers run
    would compete with them, and one timed in the main thread alone sees only
    the CPU that thread is on."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.refs = [all_cpu_reference()]
        self.raw = self.scaled = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.ops(fn, *args, **kwargs)
        finally:
            raw = time.perf_counter() - t0
            self.refs.append(all_cpu_reference())
            self.raw += raw
            self.scaled += at_nominal(raw, *self.refs[-2:])


def steady(first: float, last: float) -> bool:
    """A child process whose two reference timings disagree by more than
    STEADY_TOLERANCE ran across a switch of the machine's speed; its scaled
    time is then unreliable and is left out of medians when steady ones exist."""
    return abs(first - last) <= STEADY_TOLERANCE * (first + last) / 2


def steady_median(samples: list[tuple[float, bool]]) -> float:
    values = [v for v, ok in samples if ok] or [v for v, _ in samples]
    return statistics.median(values)


class Run:
    """One workload run: set-up probes, rounds of timed pieces, checks."""

    def __init__(self, args) -> None:
        import workloads

        self.args = args
        self.workloads = workloads
        self.wl = workloads.WORKLOADS[args.workload]
        self.size = workloads.SIZES[args.size]
        self.workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.ops = workloads.Ops()
        self.refs: list[float] = []  # parent-process reference samples, in run order
        # timed pieces in run order: a task, or one CLI call, of one round
        self.pieces: list[dict] = []
        self.rounds_done: dict[bool, int] = {False: 0, True: 0}
        self.probes: list[tuple[float, float, float]] = []
        self.probe_interval = args.seconds / self.size["probes"]
        self.last_probe = 0.0
        self.child_rss: list[float] = []
        self.first: dict | None = None
        self.problems: list[str] = []
        self.fault_failures: list[str] = []
        self.tracer = None

    def _slot(self) -> None:
        """Between two timed pieces: collect garbage, time the reference, and
        run a set-up probe when one is due, so that probes spread over the run."""
        gc.collect()
        self.refs.append(reference())
        if time.perf_counter() - self.last_probe >= self.probe_interval:
            self._probe()

    def _probe(self) -> None:
        args = self.args
        self.probes.append(run_probe(args.workload, args.seed, args.size,
                                     self.workdir / f"probe{len(self.probes)}"))
        self.last_probe = time.perf_counter()

    def _task(self, name: str, traced: bool, task):
        """One in-process task; untraced, a task that runs worker threads is
        timed call by call, any other runs under the speed sampler."""
        self._slot()
        if traced:
            self.tracer.install()
            t0 = time.perf_counter()
            try:
                return task(self.ops, self.inputs)
            finally:
                raw = time.perf_counter() - t0
                self.tracer.uninstall()
                self._piece(name, traced, raw, raw)
        if name in self.workloads.POOL_TASKS:
            timer = CallTimer(self.ops)
            try:
                return task(timer, self.inputs)
            finally:
                self._piece(name, traced, timer.raw, timer.scaled, refs=timer.refs)
        sampler = SpeedSampler(array=name in self.workloads.ARRAY_TASKS)
        try:
            return sampler.run(lambda: task(self.ops, self.inputs))
        finally:
            self._piece(name, traced, sampler.raw, sampler.scaled)

    def _piece(self, label: str, traced: bool, raw: float, scaled: float, **extra) -> None:
        self.pieces.append({"label": label, "traced": traced, "round": self.rounds_done[traced],
                            "s": raw, "scaled": scaled, **extra})

    def _call(self, index: int, call, traced: bool):
        self._slot()
        spans = self.workdir / f"spans{index}.json" if traced else None
        self.ops.attempted += 1
        code, seconds, first, last, rss, stdout, stderr = run_call(call, self.workdir, spans)
        self._piece(f"cli.{call.label}", traced, seconds, at_nominal(seconds, first, last),
                    refs=(first, last), steady=steady(first, last), fault=call.fault is not None)
        if traced and spans.exists():
            self.tracer.merge(json.loads(spans.read_text()))
        self.child_rss.append(rss)
        if code != call.expect_code:
            self.ops.failed += 1
            if call.fault:
                self.fault_failures.append(f"{' '.join(call.argv)}: exit {code}, expected "
                                           f"{call.expect_code}; fault: {call.fault}")
            else:
                self.ops.errors.append(f"{' '.join(call.argv)}: exit {code}: {stderr[-500:]}")
            return None
        file_text = Path(call.out_file).read_text() if call.out_file else None
        return stdout, file_text

    def round(self, traced: bool) -> None:
        outputs = {name: self._task(name, traced, task) for name, task in self.wl.tasks}
        outputs["cli"] = [self._call(i, call, traced) for i, call in enumerate(self.calls)]
        self._slot()
        self.rounds_done[traced] += 1
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            self.problems.append("a round's outputs differ from the first round's")

    def check(self) -> None:
        """Oracle checks of the first round (untimed)."""
        self.problems += self.wl.check(self.inputs, self.first)
        files = {}
        for call in self.calls:
            for arg in call.argv:
                if arg.startswith(str(self.workdir)) and Path(arg).is_file() and arg != call.out_file:
                    files[arg] = Path(arg).read_text()
        for call, result in zip(self.calls, self.first["cli"]):
            if result is not None and call.fault is None:
                try:
                    self.problems += self.workloads.check_call(call, result[0], result[1], files)
                except (ValueError, KeyError, json.JSONDecodeError) as exc:
                    self.problems.append(f"cli {' '.join(call.argv)}: unreadable output: {exc}")

    def execute(self) -> dict:
        args = self.args
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        try:
            import homlab.cli  # noqa: F401

            run_probe(args.workload, args.seed, args.size, self.workdir / "warmup")  # fills caches
            self.inputs = self.wl.inputs(args.seed, self.workdir, self.size)
            self.calls = self.inputs.get("calls", [])
            if args.trace:
                import tracing

                self.tracer = tracing.Tracer()
            start = time.perf_counter()
            self._probe()
            while True:
                before = time.perf_counter()
                self.round(False)
                if args.trace:  # untraced and traced rounds alternate
                    self.round(True)
                now = time.perf_counter()
                # whole rounds only: stop before a round that would end past --seconds
                if 2 * now - before - start > min(args.seconds, MAX_RUN_S):
                    break
            self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            while len(self.probes) < self.size["probes"]:
                self._probe()
            self.check()
            return self.metrics(self_rss)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def per_round(self, traced: bool) -> list[dict[str, list[float]]]:
        """Per round: {task: [raw s, scaled s]}, CLI calls summed under "cli"."""
        out = [{} for _ in range(self.rounds_done[traced])]
        for p in self.pieces:
            if p["traced"] == traced:
                row = out[p["round"]].setdefault(p["label"].split(".")[0], [0.0, 0.0])
                row[0] += p["s"]
                row[1] += p["scaled"]
        return out

    def wall(self, traced: bool, scaled: bool) -> list[float]:
        """Round times: the named tasks, or the CLI calls where a workload has
        no other task."""
        col = int(scaled)
        return [sum(v[col] for k, v in r.items() if k != "cli" or not self.wl.tasks)
                for r in self.per_round(traced)]

    def cli_latencies(self, scaled: bool) -> dict[str, list[tuple[float, bool]]]:
        """Untraced (latency ms, steady) per position in the workload's call list."""
        out: dict[str, list[tuple[float, bool]]] = {}
        calls_per_round = len(self.calls)
        untraced = [p for p in self.pieces if p["label"].startswith("cli.") and not p["traced"]]
        for i, p in enumerate(untraced):
            if not p["fault"]:
                key = f"{i % calls_per_round}:{p['label'][4:]}"
                out.setdefault(key, []).append(((p["scaled"] if scaled else p["s"]) * 1000,
                                                p["steady"] or not scaled))
        return out

    def metrics(self, self_rss) -> dict:
        setups = [s for s, _, _ in self.probes]
        rounds = self.per_round(False)
        # a typical call: geometric mean over the distinct calls of their medians
        cli = {scale: statistics.geometric_mean(
                   steady_median(v) for v in self.cli_latencies(scale).values()) if self.calls else 0.0
               for scale in (False, True)}
        metrics = {
            "setup_s": steady_median([(at_nominal(s, a, b), steady(a, b)) for s, a, b in self.probes]),
            "wall_s": statistics.median(self.wall(False, scaled=True)),
            "peak_rss_mb": max(self.child_rss) if not self.wl.tasks else self_rss,
        }
        raw = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(self.wall(False, scaled=False)),
               "cli_call_ms": cli[False]}
        tasks = {t: [statistics.median(r[t][col] for r in rounds) for col in (0, 1)]
                 for t in rounds[0]}
        extra = {"raw": raw, "cli_call_ms": cli[True], "tasks_raw_scaled_s": tasks,
                 "probes": self.probes, "refs": self.refs, "pieces": self.pieces}
        if not self.args.trace:
            return {"metrics": {k: (metrics[k], u) for k, u in END_TO_END}, "extra": extra}
        return {"metrics": self.layer_metrics(tasks, cli[True]), "extra": extra}

    def layer_metrics(self, tasks, cli_call_ms: float) -> dict:
        import tracing

        rounds = self.rounds_done[True]
        table = tracing.summarize(self.tracer.spans)
        counters = self.tracer.counters
        values: dict[str, float] = {}
        for name in tracing.span_names():
            row = table.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in ("calls", "busy_s", "self_s"):
                values[f"{name}.{key}"] = row[key] / rounds
        values["containers.segments"] = counters["containers.segments"] / rounds
        values["graphs.count_induced_p4.copies"] = counters["graphs.count_induced_p4.copies"] / rounds
        values["tournaments.dp_states"] = counters["tournaments.dp_states"] / rounds
        values["experiments.run_experiment.cpu_per_wall"] = _ratio(
            counters["experiments.run_experiment.cpu_s"], counters["experiments.run_experiment.wall_s"])
        values["experiments.qualifying_per_attempt"] = _ratio(
            counters["experiments.qualifying.rows"], counters["experiments.qualifying.attempts"])
        values["homogeneous.premise_per_attempt"] = _ratio(
            counters["homogeneous.premise.ok"], counters["homogeneous.premise.attempts"])
        by_label: dict[str, list[tuple[float, bool]]] = {}
        for key, latencies in self.cli_latencies(scaled=True).items():
            by_label.setdefault(key.split(":")[1], []).extend(latencies)
        for label in CLI_LABELS:
            values[f"cli.{label}.ms"] = steady_median(by_label[label]) if label in by_label else 0.0
        for mod, ms in import_breakdown().items():
            values[f"import.{mod}_ms"] = ms
        for task in TASKS:
            values[f"task.{task}_s"] = tasks[task][1] if task in tasks else 0.0
        traced_wall = self.wall(True, scaled=False)
        values["trace.overhead_s"] = (statistics.median(traced_wall)
                                      - statistics.median(self.wall(False, scaled=False)))
        values["cli_call_ms"] = cli_call_ms
        values["reference_ms"] = statistics.median(self.refs) * 1000
        self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        all_pieces = [sum(v[0] for v in r.values()) for r in self.per_round(True)]
        if self_total > statistics.mean(all_pieces) * 1.000001:
            self.problems.append(f"self times sum to {self_total:.3f} s, more than a traced round")
        units = dict(per_layer_metrics())
        return {name: (values[name], units[name]) for name in units}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_one(args) -> int:
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    run = Run(args)
    result = run.execute()
    correct = not run.problems
    for problem in run.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for line in run.ops.errors[:20]:
        print(f"OPERATION FAILED: {line}")
    for line in sorted(set(run.fault_failures)):
        print(f"OPERATION FAILED (known fault): {line}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload}  {name:<58} {value:>16.6f} {unit}")
    print(f"{args.workload}  attempted {run.ops.attempted}  failed {run.ops.failed}  "
          f"correct {correct}")
    print("raw " + json.dumps(result["extra"]))
    doc = {
        "correct": correct,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "seconds": args.seconds, **doc, "extra": result["extra"]}) + "\n")
    print(json.dumps(doc))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; prints their result lines."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: smallest inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "homlab" / "__init__.py").is_file():
        print(f"error: no homlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
