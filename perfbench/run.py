"""nestevo benchmark: batch commands in a closed loop, one at a time, each in
a fresh process.  Run from the root of a checkout:

    python3 perfbench/run.py --workload search-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

With --trace 0 it reports the end-to-end metrics; with --trace 1 one
command runs under perfbench/trace.py and the per-layer split is reported.
The last line of standard output is the result as one JSON object.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))

from workloads import (WORK_DIR, WORKLOADS, Input, Outcome, Workload,
                       check_output, command_args, make_inputs, write_table)

END_TO_END = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "out_mb": "MB",
    "front_hv": "1",
}
PER_LAYER = {
    "ooe.static_s": "s", "ooe.prune_s": "s", "ooe.rank_s": "s",
    "ooe.merge_s": "s", "ooe.merge_rows": "count",
    "ooe.archive_size": "count", "ooe.distinct_vectors": "count",
    "ooe.gen_first_s": "s", "ooe.gen_last_s": "s",
    "ioe.run_s": "s", "ioe.eval_s": "s", "ioe.eval_us": "us",
    "ioe.evals": "count", "ioe.breed_s": "s", "ioe.rank_s": "s",
    "ioe.merge_s": "s", "ioe.merge_rows": "count",
    "ioe.archive_size_mean": "count", "ioe.dup_eval_frac": "1",
    "evaluator.backend_calls": "count", "evaluator.backend_s": "s",
    "moea.mask_s": "s", "moea.mask_rows": "count",
    "moea.sort_s": "s", "moea.sort_rows": "count",
    "metrics.hv_s": "s", "metrics.rod_s": "s", "metrics.front_s": "s",
    "archive.save_s": "s", "archive.save_bytes": "bytes",
    "archive.csv_s": "s", "archive.checkpoint_s": "s",
    "trace.wall_s": "s", "trace.other_s": "s", "trace_overhead_s": "s",
}

# Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 160.0
MB = 1e6


@dataclass
class Record:
    """One command of the closed loop."""

    input: Input
    traced: bool
    wall_s: float
    rss_mb: float
    outcome: Outcome
    trace: dict = field(default_factory=dict)


class Runner:
    def __init__(self, root: str, workload: Workload, seed: int,
                 smoke: bool) -> None:
        self.root = root
        self.workload = workload
        self.started = time.perf_counter()
        self.run_dir = os.path.join(root, WORK_DIR,
                                    f"{workload.name}-{os.getpid()}")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.env = dict(os.environ)
        self.env.pop("NESTEVO_OUTPUT_DIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.table_problems = write_table(root) if workload.table else []
        self.inputs = make_inputs(root, self.run_dir, workload, seed, smoke)
        self.records: list[Record] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], log_name: str) -> tuple[int, float, float]:
        """Run one process to completion through perfbench/spawn.py;
        (exit code, wall s, peak RSS MB).  A process still running when the
        hard limit arrives is killed."""
        limit = max(self.remaining(), 0.1)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "spawn.py"),
             os.path.join(self.run_dir, log_name), repr(limit), "--"] + argv,
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, check=True,
            timeout=limit + 10)
        result = json.loads(proc.stdout)
        return result["code"], result["wall_s"], result["maxrss_kb"] * 1024 / MB

    def setup_probe(self) -> float:
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                self.inputs[0].config_path]
        code, wall, _ = self.spawn(argv, "setup.log")
        if code != 0:
            raise RuntimeError(f"set-up probe exited with status {code}")
        return wall

    def command(self, inp: Input, traced: bool) -> Record:
        n = len(self.records)
        out_dir = os.path.join(self.run_dir, f"out_{n}")
        args = command_args(self.workload, inp, out_dir)
        trace_path = os.path.join(self.run_dir, f"trace_{n}.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "trace.py"),
                    trace_path, "--"] + args
        else:
            argv = [sys.executable, "-m", "nestevo.cli"] + args
        log = f"command_{n}.log"
        code, wall, rss = self.spawn(argv, log)
        if code == 0:
            outcome = check_output(self.workload, inp, out_dir)
        else:
            with open(os.path.join(self.run_dir, log), "rb") as fh:
                tail = fh.read().decode(errors="replace").strip()[-300:]
            outcome = Outcome(problems=[f"exit status {code}: {tail}"])
        trace = {}
        if traced and code == 0:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
        shutil.rmtree(out_dir, ignore_errors=True)
        rec = Record(inp, traced, wall, rss, outcome, trace)
        self.records.append(rec)
        return rec

    def closed_loop(self, schedule, seconds: float, mandatory: int,
                    probe_setup: bool = False) -> list[float]:
        """Run commands from `schedule` ((input, traced) pairs) one after
        the other: the first `mandatory` always, then more while the next
        one is expected to end within `seconds`.  With `probe_setup`, time
        one set-up before each command, so that set-up is sampled across
        the whole run, and return those times."""
        setups = []
        end = time.perf_counter() + seconds
        for n, (inp, traced) in enumerate(schedule):
            walls = [r.wall_s for r in self.records]
            expected = statistics.median(walls) if walls else 0.0
            if n >= mandatory and time.perf_counter() + expected > end:
                break
            if self.remaining() < 1.5 * expected:
                break
            if probe_setup:
                setups.append(self.setup_probe())
            self.command(inp, traced)
        return setups

    def check_sets(self) -> None:
        """Every command of one input must write the same bytes."""
        first: dict[int, dict] = {}
        for rec in self.records:
            if rec.outcome.problems:
                continue
            ref = first.setdefault(rec.input.index, rec.outcome.digests)
            if rec.outcome.digests != ref:
                rec.outcome.problems.append(
                    f"output digests differ from the first run of input "
                    f"{rec.input.index}")

    def close(self) -> None:
        shutil.rmtree(os.path.join(self.root, WORK_DIR), ignore_errors=True)


def end_to_end(runner: Runner, setups: list[float]) -> dict[str, float]:
    ok = [r for r in runner.records if not r.outcome.problems]
    if not ok:
        return {}
    by_input: dict[int, list[Record]] = {}
    for rec in ok:
        by_input.setdefault(rec.input.index, []).append(rec)
    walls, rates, outs, hvs = [], [], [], []
    for recs in by_input.values():
        wall = statistics.median(r.wall_s for r in recs)
        walls.append(wall)
        rates.append(recs[0].outcome.evals / wall)
        outs.append(recs[0].outcome.out_bytes / MB)
        hvs.append(recs[0].outcome.front_hv)
    return {
        "wall_s": statistics.median(walls),
        "evals_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok),
        "out_mb": statistics.mean(outs),
        "front_hv": statistics.mean(hvs),
    }


def per_layer(runner: Runner) -> dict[str, float]:
    ok = [r for r in runner.records if not r.outcome.problems]
    traced = [r for r in ok if r.traced]
    plain = [r.wall_s for r in ok if not r.traced]
    if not traced or not plain:
        return {}
    metrics = {k: v for k, v in traced[0].trace["metrics"].items()
               if k in PER_LAYER}
    metrics["trace_overhead_s"] = traced[0].wall_s - statistics.median(plain)
    return metrics


def report(runner: Runner, metrics: dict[str, float], units: dict[str, str],
           failed: int) -> str:
    wl = runner.workload
    lines = [f"workload {wl.name}: {wl.why}"]
    for inp in runner.inputs:
        recs = [r for r in runner.records if r.input is inp]
        if not recs:
            continue
        walls = ", ".join(f"{r.wall_s:.3f}{'T' if r.traced else ''}" for r in recs)
        lines.append(f"  input {inp.index} (nestevo seed {inp.seed}): "
                     f"wall s [{walls}]")
        for name, digest in sorted(recs[0].outcome.digests.items()):
            lines.append(f"    sha256 {name} {digest}")
        for r in recs:
            for p in r.outcome.problems:
                lines.append(f"    FAILED: {p}")
    for p in runner.table_problems:
        lines.append(f"  FAILED table self-check: {p}")
    attempted = len(runner.records)
    lines.append(f"  failed_frac {failed}/{attempted} = "
                 f"{failed / attempted if attempted else 0.0:.3f}")
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "not measured" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {name:26s} {shown}")
    traced = [r for r in runner.records if r.traced and r.trace]
    if traced:
        doc = traced[0].trace
        wall = doc["metrics"]["trace.wall_s"]
        lines.append(f"  split of the traced wall time ({wall:.3f} s):")
        for name, secs in sorted(doc["split"].items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:22s} {secs:9.3f} s {100 * secs / wall:5.1f}%")
        lines.append(f"    {'sum':22s} {sum(doc['split'].values()):9.3f} s")
        for m in doc["missing"]:
            lines.append(f"  missing probe: {m}")
        for e in doc["errors"]:
            lines.append(f"  broken counter: {e}")
    return "\n".join(lines)


def run(root: str, workload: Workload, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    runner = Runner(root, workload, seed, smoke)
    try:
        if trace:
            # Same input untraced, traced, untraced: the overhead is measured
            # against its neighbours, and tracing must not change the bytes.
            first = runner.inputs[0]
            runner.closed_loop([(first, False), (first, True), (first, False)],
                               seconds, mandatory=3)
        else:
            runner.setup_probe()          # fills the bytecode caches
            schedule = itertools.cycle([(i, False) for i in runner.inputs])
            setups = runner.closed_loop(schedule, seconds,
                                        mandatory=len(runner.inputs) + 1,
                                        probe_setup=True)
        runner.check_sets()
        failed = sum(1 for r in runner.records if r.outcome.problems)
        if trace:
            metrics, units = per_layer(runner), PER_LAYER
        else:
            metrics, units = end_to_end(runner, setups), END_TO_END
        print(report(runner, metrics, units, failed), flush=True)
        correct = (failed == 0 and not runner.table_problems
                   and set(metrics) == set(units))
        return {
            "correct": correct,
            "attempted": len(runner.records),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units if k in metrics},
        }
    finally:
        runner.close()


def smoke(root: str) -> int:
    """Every workload at toy size, traced and untraced; checks that every
    metric BENCHMARK.json names is printed with its unit."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for name in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run(root, WORKLOADS[name], 0, 1, trace, smoke=True)
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: not correct")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name} trace={int(trace)}: metric "
                                    f"{m['name']} [{m['unit']}] printed as {got}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size; checks the output")
    args = parser.parse_args(argv)
    root = os.getcwd()
    needed = [p for p in (os.path.join("src", "nestevo", "cli.py"),
                          os.path.join("configs", "default.yaml"))
              if not os.path.isfile(os.path.join(root, p))]
    if needed:
        print(f"perfbench: run from the root of a nestevo checkout "
              f"(missing {', '.join(needed)})", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(root, WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
