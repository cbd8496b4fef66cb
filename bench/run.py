"""Run one gorsim benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload classify --seed 1 --seconds 22 --trace 0

gorsim is imported from the src/ directory next to this one, never from an
installed copy.  Set-up (a fresh import plus building the workload's inputs)
is repeated in blocks of at least SETUP_SECONDS; setup_s is the median
sample, the first counted from the start of this script.  Whole rounds of
the workload's fixed operation list run in one thread, one after another,
until they add up to --seconds; between rounds another set-up block is
timed and thrown away.
With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
traces one more set-up, then alternates untraced and traced rounds, and the
metrics are the per-layer ones plus the tracing overhead, the median over
pairs of rounds of traced minus untraced round time.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; the same record, and
the spans of a traced run, go to bench/out/.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SECONDS = 1.0
MODULES = ("cli", "classifier", "residues", "delta", "simplex", "exactla", "catalog")


def gorsim_modules():
    return {n: m for n, m in sys.modules.items() if n == "gorsim" or n.startswith("gorsim.")}


def load_gorsim():
    """A fresh import of every gorsim module, from SRC only."""
    for name in gorsim_modules():
        del sys.modules[name]
    mods = types.SimpleNamespace(
        **{name: importlib.import_module(f"gorsim.{name}") for name in MODULES})
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gorsim was imported from {mods.cli.__file__}, not {SRC}")
    return mods


def set_up(build, seed, samples, begin):
    """Set up until SETUP_SECONDS have been spent, at least once; returns the plan.

    Each sample runs from begin, or from the end of the one before, to the
    plan being built.
    """
    spent = 0.0
    while spent < SETUP_SECONDS:
        plan = build(load_gorsim(), random.Random(seed))
        samples.append(time.perf_counter() - begin)
        spent += samples[-1]
        gc.collect()  # free the previous import, so repeats do not inflate peak_rss_mb
        begin = time.perf_counter()
    return plan


def more_set_up(build, seed, samples):
    """One more set-up block, thrown away, to spread the samples over the run.

    The rounds keep running on the first import, so sys.modules is put back.
    """
    kept = gorsim_modules()
    set_up(build, seed, samples, time.perf_counter())
    sys.modules.update(kept)
    gc.collect()


def run_round(plan):
    """Every operation once; returns (outputs, errors, op seconds, round seconds)."""
    outputs, errors, times = [], [], []
    clock = time.perf_counter
    begin = clock()
    for _, fn in plan.ops:
        t = clock()
        try:
            outputs.append(fn())
            errors.append(None)
        except Exception as e:  # noqa: BLE001 - a raising operation is a failed one
            outputs.append(None)
            errors.append(f"{type(e).__name__}: {e}")
        times.append(clock() - t)
    return outputs, errors, times, clock() - begin


class Tally:
    """Failed operations per round, judged against the first round's checks.

    Only a digest of each output is kept, so rounds after the first are
    compared without holding earlier outputs in memory.
    """

    def __init__(self, plan):
        self.labels = [label for label, _ in plan.ops]
        self.check = plan.check
        self.reference = None
        self.problems = {}
        self.attempted = self.failed = 0
        self.correct = True

    def add(self, outputs, errors):
        digests = [None if out is None else hashlib.sha256(repr(out).encode()).digest()
                   for out in outputs]
        if self.reference is None:
            self.reference = digests
            self.problems = {i: p for i, p in self.check(outputs).items() if p}
            for i, ps in self.problems.items():
                self.correct = False
                for p in ps:
                    print(f"wrong output: {self.labels[i]}: {p}", file=sys.stderr)
        for i, (digest, err) in enumerate(zip(digests, errors)):
            bad = err is not None or i in self.problems
            if err is not None:
                print(f"failed: {self.labels[i]}: {err}", file=sys.stderr)
            elif self.reference[i] is not None and digest != self.reference[i]:
                print(f"wrong output: {self.labels[i]}: differs from the first round",
                      file=sys.stderr)
                self.correct = False
                bad = True
            self.failed += bad
        self.attempted += len(outputs)


def median_metrics(samples):
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gorsim" / "__init__.py").is_file():
        print(f"error: no gorsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = workloads.WORKLOADS[args.workload]

    setup = []
    plan = set_up(build, args.seed, setup, START)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        mods = load_gorsim()
        tracer.install()
        try:
            plan = build(mods, random.Random(args.seed))
        finally:
            tracer.uninstall()
        setup_mark = tracer.mark()

    tally = Tally(plan)
    walls = {False: [], True: []}
    op_times, layers = [], []
    while True:
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.install()
            try:
                outputs, errors, times, wall = run_round(plan)
            finally:
                if traced:
                    tracer.uninstall()
            tally.add(outputs, errors)
            outputs = None  # the next round must not start with this one's outputs held
            walls[traced].append(wall)
            if not traced:
                op_times.append(times)
                continue
            if plan.probe:
                tracer.install()
                try:
                    plan.probe()
                finally:
                    tracer.uninstall()
            layers.append(spans.layer_metrics(tracer.spans, tracer.counts))
            trace_dump = [s.as_list() for s in tracer.spans]
            tracer.rollback(setup_mark)
        if sum(walls[False]) + sum(walls[True]) >= args.seconds:
            break
        if not tracer:
            more_set_up(build, args.seed, setup)

    if tracer:
        values = median_metrics(layers)
        values["trace.overhead_s"] = statistics.median(
            t - u for u, t in zip(walls[False], walls[True]))
        metrics = {k: {"value": v, "unit": spans.layer_unit(k)}
                   for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "max_op_s": {"value": max(map(statistics.median, zip(*op_times))),
                         "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, setup_samples=setup, round_walls=walls[False],
                  traced_round_walls=walls[True], python=sys.version.split()[0])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(trace_dump) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, print no result, exit non-zero
        traceback.print_exc()
        sys.exit(1)
