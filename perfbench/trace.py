"""Traced run of one nestevo command.

    python3 perfbench/trace.py TRACE.json -- search --config C.yaml ...

Wraps the package's module-level callables at the boundaries of its layers,
runs the command in this process through the package's own CLI entry point
and writes per-layer times and counts to TRACE.json.  Nothing under `src/`
changes: the wrappers exist only in this process.  A callable that no longer
exists is listed under "missing" and its metrics read 0; the run goes on.

Two kinds of probe:
- a *layer* owns the time spent in it, minus the time of the layers it
  calls;
- a *kernel* is shared code (dominance passes, hypervolume, the hardware
  backend).  Its time stays with the layer that called it and is reported
  separately as inclusive time; only when no layer encloses it does the
  kernel own that time.

The split gives every instant of the run to the innermost owner of each
thread that is inside a probe, shared equally between such threads, and to
"other" when no thread is.  Its entries therefore sum to the traced wall
time, with or without the inner engine's worker threads.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402

perf_counter = time.perf_counter


class ThreadState:
    """Probe state of one thread; merged after the run."""

    def __init__(self) -> None:
        self.stack: list[str | None] = [None]   # innermost owner last
        self.timeline: list[tuple[float, str | None]] = []
        self.inclusive: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.last: dict[str, float] = {}
        self.seen: set = set()                   # candidate keys of one inner run


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self.threads: list[ThreadState] = []
        self.missing: list[str] = []
        self.errors: list[str] = []

    def state(self) -> ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ThreadState()
            self.threads.append(st)
        return st

    def span(self, st: ThreadState, name: str, layer: bool, fn, args, kwargs):
        top = st.stack[-1]
        owner = name if layer or top is None else top
        t0 = perf_counter()
        if owner != top:
            st.timeline.append((t0, owner))
        st.stack.append(owner)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            st.stack.pop()
            if owner != top:
                st.timeline.append((t1, top))
            st.inclusive[name] += t1 - t0

    def count(self, probe: str, hook, *args) -> None:
        """Run a counting hook; a hook broken by a refactor is reported, and
        the traced command goes on."""
        try:
            hook(*args)
        except Exception as exc:  # noqa: BLE001 - the command must finish
            msg = f"{probe}: {exc!r}"
            if msg not in self.errors:
                self.errors.append(msg)

    def split(self, t_end: float) -> dict[str, float]:
        events = sorted(
            ((t, i, owner) for i, st in enumerate(self.threads)
             for t, owner in st.timeline),
            key=lambda e: e[0])
        shares: dict[str, float] = defaultdict(float)
        current: dict[int, str | None] = {}
        prev = T_START
        for t, i, owner in events + [(t_end, -1, None)]:
            if t > prev:
                active = [o for o in current.values() if o is not None]
                if active:
                    for o in active:
                        shares[o] += (t - prev) / len(active)
                else:
                    shares["other"] += t - prev
                prev = t
            current[i] = owner
        return dict(shares)


def _resolve(module: str, qualname: str):
    """(owner object, attribute name, original) or None when missing."""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    original = getattr(obj, attr, None)
    if original is None or not callable(original):
        return None
    return obj, attr, original


def _patch(module: str, qualname: str, everywhere: bool, make_wrapper,
           tracer: Tracer, probe: str) -> None:
    """Replace a callable by its wrapper.  A class attribute is patched on
    the class; a function in its own module and, when `everywhere`, in every
    loaded nestevo module that imported it by name."""
    found = _resolve(module, qualname)
    if found is None:
        tracer.missing.append(f"{probe} ({module}:{qualname})")
        return
    obj, attr, original = found
    wrapper = make_wrapper(original)
    setattr(obj, attr, wrapper)
    if everywhere and "." not in qualname:
        for name, mod in list(sys.modules.items()):
            if name.startswith("nestevo") and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    import nestevo.cli  # noqa: F401 - loads every module the CLI uses

    def plain(name: str, layer: bool, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                st = tracer.state()
                result = tracer.span(st, name, layer, fn, args, kwargs)
                if after is not None:
                    tracer.count(name, after, st, args, result)
                return result
            return wrapper
        return make

    def rows(metric: str):
        def after(st, args, result):
            st.counts[metric] += len(args[0])
        return after

    def calls(metric: str):
        def after(st, args, result):
            st.counts[metric] += 1
        return after

    def saved_bytes(st, args, result):
        st.counts["archive.save_bytes"] += os.path.getsize(args[0])

    # Outer engine layers: bindings inside nestevo.ooe only, so that the
    # ablation's own static evaluation is not counted as outer work.
    _patch("nestevo.ooe", "eval_static", False,
           plain("ooe.static", True), tracer, "ooe.static")
    _patch("nestevo.ooe", "static_rank_and_prune", False,
           plain("ooe.prune", True), tracer, "ooe.prune")
    _patch("nestevo.ooe", "combined_rank", False,
           plain("ooe.rank", True), tracer, "ooe.rank")

    def make_merge(fn):
        def merge_batch(self, items, *args, **kwargs):
            st = tracer.state()
            prefix = "ioe" if "ioe.run" in st.stack else "ooe"
            result = tracer.span(st, prefix + ".merge", True, fn,
                                 (self, items) + args, kwargs)

            def after():
                st.counts[prefix + ".merge_rows"] += len(items)
                if prefix == "ooe":
                    st.last["ooe.archive_size"] = len(self)
                    st.last["ooe.distinct_vectors"] = len(
                        {e.vector.values for e in self.entries})
            tracer.count(prefix + ".merge", after)
            return result
        return merge_batch
    _patch("nestevo.moea", "ParetoArchive.merge_batch", False, make_merge,
           tracer, "ooe.merge / ioe.merge")

    def make_run_ooe(fn):
        def run_ooe(*args, **kwargs):
            started = perf_counter()
            ends: list[float] = []
            callback = kwargs.get("on_generation")
            if callback is not None:
                def on_generation(*a, **k):
                    try:
                        return tracer.span(tracer.state(), "archive.checkpoint",
                                           True, callback, a, k)
                    finally:
                        ends.append(perf_counter())
                kwargs["on_generation"] = on_generation
            result = fn(*args, **kwargs)
            if ends:
                marks = [started] + ends
                st = tracer.state()
                st.last["ooe.gen_first_s"] = marks[1] - marks[0]
                st.last["ooe.gen_last_s"] = marks[-1] - marks[-2]
            return result
        return run_ooe
    _patch("nestevo.ooe", "run_ooe", True, make_run_ooe, tracer, "ooe.run")

    def make_run_ioe(fn):
        def run_ioe(*args, **kwargs):
            st = tracer.state()
            st.seen = set()
            result = tracer.span(st, "ioe.run", True, fn, args, kwargs)

            def after():
                st.counts["ioe.runs"] += 1
                st.counts["ioe.archive_size_sum"] += len(result.solutions)
            tracer.count("ioe.run", after)
            return result
        return run_ioe
    _patch("nestevo.ioe", "run_ioe", True, make_run_ioe, tracer, "ioe.run")

    def make_evaluate(fn):
        def evaluate(self, *args, **kwargs):
            st = tracer.state()
            result = tracer.span(st, "ioe.eval", True, fn, (self,) + args, kwargs)

            def after():
                x, f = args[:2]
                key = (x.key(),) + f.key()
                st.counts["ioe.evals"] += 1
                if key in st.seen:
                    st.counts["ioe.dup_evals"] += 1
                else:
                    st.seen.add(key)
            tracer.count("ioe.eval", after)
            return result
        return evaluate
    _patch("nestevo.ioe", "_DynamicEvaluator.evaluate", False, make_evaluate,
           tracer, "ioe.eval")
    _patch("nestevo.ioe", "_breed", False, plain("ioe.breed", True), tracer,
           "ioe.breed")
    _patch("nestevo.ioe", "rank_population", False, plain("ioe.rank", True),
           tracer, "ioe.rank")

    # Kernels shared by several layers.
    for cls in ("SyntheticHardwareModel", "TableHardwareModel"):
        _patch("nestevo.evaluator", f"{cls}.latency_energy", False,
               plain("evaluator.backend", False,
                     calls("evaluator.backend_calls")),
               tracer, f"evaluator.backend ({cls})")
    _patch("nestevo.moea", "nondominated_mask", True,
           plain("moea.mask", False, rows("moea.mask_rows")), tracer, "moea.mask")
    _patch("nestevo.moea", "fast_nondominated_sort", True,
           plain("moea.sort", False, rows("moea.sort_rows")), tracer, "moea.sort")
    _patch("nestevo.metrics", "hypervolume", True, plain("metrics.hv", False),
           tracer, "metrics.hv")
    _patch("nestevo.metrics", "ratio_of_dominance", True,
           plain("metrics.rod", False), tracer, "metrics.rod")
    _patch("nestevo.metrics", "Front.__init__", False,
           plain("metrics.front", False), tracer, "metrics.front")

    # Persistence.
    _patch("nestevo.archive", "save_json", True,
           plain("archive.save", True, saved_bytes), tracer, "archive.save")
    _patch("nestevo.archive", "write_front_csv", True,
           plain("archive.csv", True), tracer, "archive.csv")


LAYERS = ("ooe.static", "ooe.prune", "ooe.rank", "ooe.merge", "ioe.run",
          "ioe.eval", "ioe.breed", "ioe.rank", "ioe.merge", "archive.save",
          "archive.csv", "archive.checkpoint")
KERNELS = ("evaluator.backend", "moea.mask", "moea.sort", "metrics.hv",
           "metrics.rod", "metrics.front")


def summarize(tracer: Tracer, t_end: float) -> dict:
    inclusive: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    last: dict[str, float] = {}
    for st in tracer.threads:
        for k, v in st.inclusive.items():
            inclusive[k] += v
        for k, v in st.counts.items():
            counts[k] += v
        last.update(st.last)
    split = tracer.split(t_end)
    metrics = {f"{name}_s": split.get(name, 0.0) for name in LAYERS}
    metrics.update({f"{name}_s": inclusive.get(name, 0.0) for name in KERNELS})
    evals = counts["ioe.evals"]
    runs = counts["ioe.runs"]
    metrics.update({
        "ooe.merge_rows": counts["ooe.merge_rows"],
        "ooe.archive_size": last.get("ooe.archive_size", 0),
        "ooe.distinct_vectors": last.get("ooe.distinct_vectors", 0),
        "ooe.gen_first_s": last.get("ooe.gen_first_s", 0.0),
        "ooe.gen_last_s": last.get("ooe.gen_last_s", 0.0),
        "ioe.evals": evals,
        "ioe.eval_us": 1e6 * inclusive.get("ioe.eval", 0.0) / evals if evals else 0.0,
        "ioe.dup_eval_frac": counts["ioe.dup_evals"] / evals if evals else 0.0,
        "ioe.merge_rows": counts["ioe.merge_rows"],
        "ioe.archive_size_mean": counts["ioe.archive_size_sum"] / runs if runs else 0.0,
        "evaluator.backend_calls": counts["evaluator.backend_calls"],
        "moea.mask_rows": counts["moea.mask_rows"],
        "moea.sort_rows": counts["moea.sort_rows"],
        "archive.save_bytes": counts["archive.save_bytes"],
        "trace.wall_s": t_end - T_START,
        "trace.other_s": split.get("other", 0.0),
    })
    return {"metrics": metrics, "split": split, "missing": tracer.missing,
            "errors": tracer.errors}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from nestevo.cli import main as cli_main

    try:
        cli_main(args=cli_args, prog_name="nestevo")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    doc = summarize(tracer, perf_counter())
    doc["exit_code"] = code
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
