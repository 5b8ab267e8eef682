"""In-process pass over the steps of every workload, traced or not.

    python3 perfbench/trace.py PLAN_FILE 0|1 SUMMARY_FILE

Runs each step of the plan in this one process through steps.execute: CLI
steps through coinwalk.cli.main, API steps through the job functions a
fresh step process calls. With tracing on, every public function (no
leading underscore) of coinwalk.localization, walk, spectral, coins, io
and cli, except the per-value helpers in UNTRACED, is replaced, from here,
by a wrapper that records a span: name <module>.<function>, a label
drawn from its arguments where one function serves several sizes, the
step, start, end and the enclosing span. Calls that a module makes to its
own public functions go through its globals and are traced too; names a
module imported from another one are not. Spans stay in memory and are
written out when the pass ends.

The stack of open spans assumes one thread, which holds while GW_THREADS
is unset.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("localization", "walk", "spectral", "coins", "io", "cli")
# called once per printed number; a wrapper would double their cost and
# inflate the span of io.write_csv around them
UNTRACED = {"io.fmt_float"}


def _quad_label(a, k):
    quad = a[2] if len(a) > 2 else k.get("quad")
    return f"{a[0]}.M{getattr(quad, 'M', 512)}"


def _coin_label(a, k):
    from coinwalk.coins import COIN_FAMILIES
    kind = "closed" if getattr(a[0], "family", None) in COIN_FAMILIES else "raw"
    return f"{kind}.N{a[1] if len(a) > 1 else k['N']}"


LABELS = {
    "localization.pbar_matrix": _quad_label,
    "spectral.coin_eigensystem": _coin_label,
    "spectral.finite_N_pbar_matrix": _coin_label,
    "spectral.reconstruct_state": _coin_label,
    "walk.step": lambda a, k: f"N{a[0].N}",
    "coins.classify_batch_errors": lambda a, k: str(len(a[0])),
}


class Tracer:
    """Spans as [name, label, step, start, end, parent index]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.step = ""

    def _open(self, name, label):
        self.spans.append([name, label, self.step, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][4] = time.perf_counter()

    def wrap(self, name, fn):
        labeler = LABELS.get(name, lambda a, k: "")
        if inspect.isgeneratorfunction(fn):
            # the span covers the iteration, from the first item to the last
            @functools.wraps(fn)
            def gen(*a, **k):
                self._open(name, labeler(a, k))
                try:
                    yield from fn(*a, **k)
                finally:
                    self._close()
            return gen

        @functools.wraps(fn)
        def call(*a, **k):
            self._open(name, labeler(a, k))
            try:
                return fn(*a, **k)
            finally:
                self._close()
        return call

    def install(self):
        import importlib
        for short in MODULES:
            mod = importlib.import_module(f"coinwalk.{short}")
            for n, obj in list(vars(mod).items()):
                name = f"{short}.{n}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not n.startswith("_") and name not in UNTRACED):
                    setattr(mod, n, self.wrap(name, obj))


def span_cost_s() -> float:
    """Seconds a wrapper adds to one call, timed over 1e5 calls of a
    function that does nothing (spans of this calibration are discarded)."""
    calls = 100_000

    def noop():
        return None
    tracer = Tracer()
    wrapped = tracer.wrap("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max((time.perf_counter() - t1) - (t1 - t0), 0.0) / calls


def run_plan(plan: dict, tracer: Tracer | None) -> dict:
    import steps
    step_s, codes = {}, {}
    for wl in plan["workloads"]:
        for st in wl["steps"]:
            key = f"{wl['name']}/{st['name']}"
            if tracer:
                tracer.step = key
            t0 = time.perf_counter()
            codes[key] = steps.execute(st["kind"], st["args"], st["path"])
            step_s[key] = time.perf_counter() - t0
    return {"step_s": step_s, "codes": codes}


def main(argv: list) -> int:
    plan_file, traced, summary_file = argv[0], argv[1] == "1", argv[2]
    with open(plan_file) as fh:
        plan = json.load(fh)
    import coinwalk.cli  # noqa: F401  (imported before timing, in both passes)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    summary = run_plan(plan, tracer)
    if tracer:
        summary["span_cost_s"] = span_cost_s()
        summary["spans"] = tracer.spans
    with open(summary_file, "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
