"""Run one benchmark operation in this process with every odelab layer traced.

Usage::

    python3 perfbench/traced.py SPANS.npz -m odelab.cli <cli args...>
    python3 perfbench/traced.py SPANS.npz perfbench/master_pipeline.py <args...>

The public functions of ``kernels``, ``smoothness``, ``flow``,
``hypotheses``, ``geometry`` and ``statmodel`` (module-level functions
whose names do not start with ``_``), plus ``geometry._slice_distances``
for its point x slice count and ``cli.main``, are replaced by wrappers
before the operation starts.  Each call records one span: name, parent
span, start and end (``perf_counter_ns``) and up to three work counts.
Spans stay in memory and are written to SPANS.npz when the operation
ends; ``perfbench/spans.py`` turns them into per-layer metrics.  Nothing
in ``src/`` is modified: the wrappers are module attributes, so calls
between modules and inside one module both go through them.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import json
import runpy
import sys
import time

import numpy as np

from spans import LAYERS

LIBRARY = tuple(m for m in LAYERS if m != "cli")
EXTRA = {"geometry": ("_slice_distances",)}


class Recorder:
    """Spans in flat arrays, parents by index; -1 is the root."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.work = [array.array("d") for _ in range(3)]
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """Wrapper that records a span around ``fn``.

        ``before(args, kwargs)`` returns the (args, kwargs) to call with;
        ``after(args, kwargs, result)`` returns up to three work counts.
        """
        nid = self.name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.start.append(0)
            self.end.append(0)
            for w in self.work:
                w.append(0.0)
            self.stack.append(i)
            self.start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if after is not None:
                for k, v in enumerate(after(args, kwargs, result)):
                    self.work[k][i] = float(v)
            return result

        return traced

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            work=np.stack([np.frombuffer(w, dtype=np.float64) for w in self.work]),
        )


class _CountingEval:
    """Field evaluation that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def _arg(name: str, index: int, default=None):
    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[index] if len(args) > index else default
    return get


def _hooks():
    """Work counts per traced function: name -> (before, after)."""
    budget, pairs = _arg("budget", 3, 4096), _arg("pairs", 4, 10**5)
    extra_centers = _arg("extra_centers", 2, 256)

    def counting_field(args, kwargs):
        # integrate(f, x0, T, tol, ...) gets a copy of f that counts evaluations
        f = _arg("f", 0)(args, kwargs)
        g = dataclasses.replace(f, eval=_CountingEval(f.eval))
        if "f" in kwargs:
            return args, dict(kwargs, f=g)
        return (g,) + tuple(args[1:]), kwargs

    def integrate_counts(args, kwargs, traj):
        f = _arg("f", 0)(args, kwargs)
        return (len(traj.ts) - 1, f.eval.calls, f.dim)

    def certify_counts(args, kwargs, rep):
        # samples per output component: the sup-norm mesh plus the Hölder pairs
        return (budget(args, kwargs) + pairs(args, kwargs), rep.cls.dim_out)

    def cover_counts(args, kwargs, rep):
        return (args[0].initials.shape[0] + extra_centers(args, kwargs) + 1,)

    def size_of_first(args, kwargs, result):
        return (np.size(args[0]),)

    return {
        "flow.integrate": (counting_field, integrate_counts),
        "kernels.standard_kernel_deriv": (None, size_of_first),
        "kernels.periodic_kernel_deriv": (None, size_of_first),
        "smoothness.certify_membership": (None, certify_counts),
        "geometry._slice_distances": (None, lambda a, k, r: (len(a[0]) * len(a[1]),)),
        "statmodel.check_cover": (None, cover_counts),
        "statmodel.monte_carlo_two_point": (None, lambda a, k, r: (r.n_trials,)),
    }


def install(rec: Recorder):
    """Replace every traced function in every odelab module that holds it."""
    from odelab import cli

    modules = [importlib.import_module(f"odelab.{m}") for m in LIBRARY] + [cli]
    hooks = _hooks()
    for mod_name, mod in zip(LIBRARY, modules):
        for attr, obj in list(vars(mod).items()):
            public = not attr.startswith("_") or attr in EXTRA.get(mod_name, ())
            function = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
            if not (public and function and obj.__module__ == mod.__name__):
                continue
            name = f"{mod_name}.{attr}"
            before, after = hooks.get(name, (None, None))
            wrapped = rec.wrap(obj, name, before, after)
            for holder in modules:
                for key, val in list(vars(holder).items()):
                    if val is obj:
                        setattr(holder, key, wrapped)
    cli.main = rec.wrap(cli.main, "cli.main")
    return cli


def main(argv: list[str]) -> int:
    spans, target, rest = argv[0], argv[1], argv[2:]
    rec = Recorder()
    cli = install(rec)
    try:
        if target == "-m":
            if rest[0] != "odelab.cli":
                raise SystemExit(f"traced.py: unsupported module {rest[0]}")
            return int(cli.main(rest[1:]))
        sys.argv = [target] + rest
        runpy.run_path(target, run_name="__main__")
        return 0
    finally:
        rec.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
