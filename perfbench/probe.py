"""Code that runs in the benchmark's fresh child processes, and the
machine-speed reference that they and the parent time.

    python3 perfbench/probe.py setup WORKLOAD SEED SIZE WORKDIR
    python3 perfbench/probe.py cli REF_FILE SPANS_FILE -- <homlab arguments>

`setup` times the reference, imports homlab, builds the workload's inputs,
prints "ready <reference seconds>", then times the reference again and
prints it.  `cli` times the reference, runs one homlab CLI call
exactly as the installed `homlab` script would, times the reference again
and writes both times to REF_FILE; with a SPANS_FILE other than "-" the call
runs under the tracer and its spans are written there.  The reference is
timed in the process whose work it scales, at both ends of that work: this
machine switches between a fast and a slow speed (about 1.7x apart) every
second or two.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Median time of reference() on the machine the README's figures were taken
# on; scaled timings are reported at this speed.
REF_NOMINAL_S = 0.020


def reference(steps: int = 40000) -> float:
    """Fixed pure-Python work that calls no homlab code (integer bit
    twiddling and a small set, like homlab's bitmask kernels); returns its
    duration in seconds."""
    t0 = time.perf_counter()
    x, acc, seen = 0x243F6A8885A308D3, 0, set()
    for i in range(steps):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc += (x & (x >> 17)).bit_count()
        if i & 7 == 0:
            seen.add(x & 0xFFFF)
    return time.perf_counter() - t0


def short_reference() -> float:
    """A tenth of reference(), in reference() units: cheap enough to sample
    ten times a second while timed work runs."""
    return reference(4000) * 10


def setup(workload: str, seed: int, size: str, workdir: Path) -> None:
    first = reference()
    import homlab.cli  # noqa: F401

    sys.path.insert(0, str(HERE))
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[workload].inputs(seed, workdir, workloads.SIZES[size])
    print(f"ready {first:.9f}", flush=True)
    print(f"{reference():.9f}", flush=True)


def cli(ref_file: Path, spans_file: str, args: list[str]) -> None:
    first = reference()
    tracer = None
    try:
        from homlab.cli import main

        if spans_file != "-":
            sys.path.insert(0, str(HERE))
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        main(args=args, prog_name="homlab")
    finally:
        if tracer is not None:
            import json

            Path(spans_file).write_text(json.dumps(tracer.dump()))
        ref_file.write_text(f"{first:.9f} {reference():.9f}")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _, _, name, seed, size, workdir = sys.argv
        setup(name, int(seed), size, Path(workdir))
    elif sys.argv[1] == "cli" and sys.argv[4] == "--":
        cli(Path(sys.argv[2]), sys.argv[3], sys.argv[5:])
    else:
        raise SystemExit(__doc__)
