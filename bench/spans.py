"""Span tracing for the benchmark, applied to vcomp from outside.

``Tracer.install`` replaces vcomp's public functions with timing wrappers at
every place the package binds them (the defining module, modules that
imported the name, the package namespace), and ``Tracer.uninstall`` puts the
originals back.  vcomp's source is never edited.  A span is recorded as
``(id, parent, name, pid, start, end, repeat, attrs)``; spans stay in memory
and are written out by the caller when the benchmark ends.

Process pools: the wrapper around ``ProcessPoolExecutor`` in
``vcomp.experiments`` records the parent's wait on the pool and hands each
worker task a ``_Task`` that records the worker's spans and appends them to
``spans-<pid>.jsonl`` in the trace directory after every task.

The tracer assumes vcomp calls it from one thread per process, which holds
for every path the benchmark runs.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

# public functions timed as spans, by vcomp module; qform is listed whole
# because any public entry into it counts towards ``qform.calls``
SPAN_TARGETS = {
    "laws": ("sample_vector",),
    "model": ("gen_design", "gen_independent"),
    "spectrum": ("decompose_gram",),
    "estimator": ("fit_mle", "asymptotic_cov"),
    "qform": None,
    "experiments": ("run_experiment", "gaussian_expectation"),
    "matio": ("save_matrix_csv", "load_matrix"),
    "cli": ("cmd_generate", "cmd_fit"),
}

# functions that are only counted, on the innermost open span; one profile
# likelihood or score evaluation is too short to time without distorting it
COUNT_TARGETS = {"estimator": ("profile_loglik", "profile_score")}

# span names that differ from ``<module>.<function>``
SPAN_NAMES = {"cli.cmd_generate": "cli.generate", "cli.cmd_fit": "cli.fit"}

POOL_SPAN = "experiments.pool"
TASK_SPAN = "experiments.pool_task"

# the tracer whose wrappers are installed in this process; pool tasks find it
# here after a fork
_active: "Tracer | None" = None


def _vcomp_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "vcomp" or name.startswith("vcomp."))]


def _public_functions(module) -> tuple[str, ...]:
    return tuple(
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    )


class Tracer:
    """Records spans for the functions in ``SPAN_TARGETS`` while installed."""

    def __init__(self, trace_dir: str | Path):
        self.trace_dir = Path(trace_dir)
        self.repeat = 0
        self._stack: list[list] = []  # open spans: [id, name, start, counts]
        self._patches: list[tuple] = []
        self._adopt(os.getpid())

    def _adopt(self, pid: int) -> None:
        """Start this process's own span buffer; a forked worker keeps the
        parent's open spans on its stack so its spans link to the pool span."""
        self.pid = pid
        self.spans: list[tuple] = []
        self._ids = itertools.count()

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [f"{self.pid}:{next(self._ids)}", name, time.perf_counter(), {}]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, **attrs) -> None:
        end = time.perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        parent = self._stack[-1][0] if self._stack else None
        attrs.update(frame[3])
        self.spans.append(
            (frame[0], parent, frame[1], self.pid, frame[2], end, self.repeat, attrs)
        )

    def count(self, key: str) -> None:
        if self._stack:
            counts = self._stack[-1][3]
            counts[key] = counts.get(key, 0) + 1

    def flush(self) -> None:
        """Append this process's finished spans to its file and drop them."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with open(self.trace_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        global _active
        if self._patches:
            raise RuntimeError("tracer already installed")
        import vcomp.cli  # noqa: F401  (loads every vcomp module)
        import vcomp.experiments as experiments

        for mod_name, names in SPAN_TARGETS.items():
            module = sys.modules[f"vcomp.{mod_name}"]
            for fn_name in names or _public_functions(module):
                name = SPAN_NAMES.get(f"{mod_name}.{fn_name}", f"{mod_name}.{fn_name}")
                original = getattr(module, fn_name)
                self._patch(original, self._span_wrapper(name, original))
        for mod_name, names in COUNT_TARGETS.items():
            module = sys.modules[f"vcomp.{mod_name}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                self._patch(original, self._count_wrapper("profile_evals", original))
        self._patch(experiments.ProcessPoolExecutor, _TracedPool)
        _active = self

    def uninstall(self) -> None:
        global _active
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []
        _active = None

    def _patch(self, original, replacement) -> None:
        for module in _vcomp_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def _span_wrapper(self, name: str, fn):
        extra = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(frame, raised=True)
                raise
            self.close(frame, **(extra(args, result) if extra else {}))
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# extra attributes per span, computed from the call's arguments and result
_ATTRS = {
    "estimator.fit_mle": lambda args, result: {"newton_iters": result.newton_iters},
    "matio.save_matrix_csv": _file_bytes,
    "matio.load_matrix": _file_bytes,
}


class _TracedPool(concurrent.futures.ProcessPoolExecutor):
    """The program's process pool, with the parent's wait on it as a span."""

    def __init__(self, *args, **kwargs):
        self._tracer = _active
        self._frame = self._tracer.open(POOL_SPAN)
        try:
            super().__init__(*args, **kwargs)
        except BaseException:
            self._tracer.close(self._frame, raised=True)
            raise

    def map(self, fn, *iterables, **kwargs):
        return super().map(_Task(fn), *iterables, **kwargs)

    def __exit__(self, *exc):
        try:
            return super().__exit__(*exc)
        finally:
            self._tracer.close(self._frame)


class _Task:
    """A pool task that records the worker's spans around the program's task."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, task):
        tracer = _active
        if tracer is None:
            raise RuntimeError("pool worker started without the parent's tracer (needs fork)")
        if tracer.pid != os.getpid():
            tracer._adopt(os.getpid())
        frame = tracer.open(TASK_SPAN)
        try:
            return self.fn(task)
        finally:
            tracer.close(frame)
            tracer.flush()


def read_spans(trace_dir: str | Path) -> list[list]:
    """Every span written under ``trace_dir``, ordered by start time."""
    found = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            found.extend(json.loads(line) for line in fh)
    return sorted(found, key=lambda span: span[4])


def repeat_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repeat from its spans in all processes.

    A span's self time is its duration minus that of its children in the
    same process; times from pool workers are summed over the workers.
    """
    by_id = {span[0]: span for span in spans}
    child_s = {}
    for sid, parent, name, pid, start, end, _, _ in spans:
        if parent in by_id and by_id[parent][3] == pid:
            child_s[parent] = child_s.get(parent, 0.0) + end - start
    calls, self_s, wall = {}, {}, {}
    for sid, parent, name, pid, start, end, _, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + end - start - child_s.get(sid, 0.0)
        wall[name] = wall.get(name, 0.0) + end - start
    fits = [span[7] for span in spans if span[2] == "estimator.fit_mle"]
    qform_entries = sum(
        1 for span in spans
        if span[2].startswith("qform.")
        and not (span[1] in by_id and by_id[span[1]][2].startswith("qform."))
    )
    roots_s = sum(span[5] - span[4] for span in spans if span[1] is None)

    def byte_sum(name):
        return sum(span[7].get("bytes", 0) for span in spans if span[2] == name)

    metrics = {
        "estimator.profile_evals_per_fit":
            sum(f.get("profile_evals", 0) for f in fits) / len(fits) if fits else 0.0,
        "estimator.newton_zero_frac":
            sum(f["newton_iters"] == 0 for f in fits) / len(fits) if fits else 0.0,
        "qform.calls": qform_entries,
        "experiments.self_s": self_s.get("experiments.run_experiment", 0.0),
        "experiments.pool_starts": calls.get(POOL_SPAN, 0),
        "experiments.pool_wait_s": wall.get(POOL_SPAN, 0.0),
        "matio.bytes_written": byte_sum("matio.save_matrix_csv"),
        "matio.bytes_read": byte_sum("matio.load_matrix"),
        "cli.generate.wall_s": wall.get("cli.generate", 0.0),
        "cli.fit.wall_s": wall.get("cli.fit", 0.0),
        "trace.coverage_frac": roots_s / wall_s,
    }
    for module, names in SPAN_TARGETS.items():
        for fn_name in names or ():
            name = SPAN_NAMES.get(f"{module}.{fn_name}", f"{module}.{fn_name}")
            metrics[f"{name}.calls"] = calls.get(name, 0)
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    return metrics


def layer_metrics(spans: list[list], untraced: list, traced: list) -> dict[str, float]:
    """Median over traced repeats of each per-layer metric, plus the tracing
    overhead: the traced repeats' median wall time against the untraced."""
    per_repeat = [
        repeat_metrics([span for span in spans if span[6] == k], outcome.seconds)
        for k, outcome in enumerate(traced)
    ]
    metrics = {name: statistics.median(m[name] for m in per_repeat) for name in per_repeat[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(o.seconds for o in traced)
        / statistics.median(o.seconds for o in untraced) - 1.0
    )
    return metrics
