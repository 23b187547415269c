"""Per-layer spans recorded from outside the library.

`Tracer.install()` wraps every public function of the library modules and
every public method of `FinitePoset`, and rebinds each wrapper at *every*
module attribute that held the original: `from .rng import philox_generator`
leaves separate bindings in `experiments`, `measures`, `cli` and the package
namespace, and a wrapper installed in `rng` alone would miss all of them.
In `cli` only `main` and the `cmd_*` handlers are wrapped, so that
`cli.main.self_s` is argument parsing, serialisation and the write, and
`cli.handler.self_s` is payload assembly.

Spans are aggregated as they close rather than kept one by one (the spin
workload opens millions): per span name, calls, busy time (the span's own
duration) and self time (busy time minus the time of the spans it caused).
Nothing in the library queues, waits or retries, so there is no wait metric.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

LIBRARY_MODULES = ("rng", "qubit", "experiments", "measures", "states", "poset", "context")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _vector_size(x) -> int:
    probs = getattr(x, "probs", None)
    if probs is not None:
        return int(probs.size)
    try:
        return len(x)
    except TypeError:
        return int(getattr(x, "size", 1))


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, busy_s, self_s]
        self.counts = defaultdict(int)
        self._stack = [0.0]  # child time accumulated by each open span
        self._saved = []  # (owner, attribute, original) to undo install()
        self._enumerated = weakref.WeakSet()

    # -- counters observed at span boundaries --------------------------------

    def _count_extra(self, name, args, kwargs, result):
        c = self.counts
        if name == "experiments.qubit_experiment":
            c["experiments.qubit_experiment.trials"] += result.trials
        elif name == "experiments.fixed_basis_repeat":
            c["experiments.fixed_basis_repeat.trials"] += int(_arg(args, kwargs, 1, "trials"))
        elif name == "experiments.boxes_experiment":
            c["experiments.boxes_experiment.steps"] += len(result.steps)
        elif name == "measures.shannon_bits":
            c["measures.shannon_bits.elements"] += _vector_size(args[0] if args else kwargs["x"])
        elif name == "measures.verify_axioms":
            c["measures.verify_axioms.samples"] += result.samples
        elif name == "context.qubit_distance_curve":
            c["context.qubit_distance_curve.points"] += len(result)
        elif name == "poset.directed_family":
            poset = args[0]
            # the family is enumerated once per poset; later calls reuse it
            if poset not in self._enumerated:
                self._enumerated.add(poset)
                c["poset.directed_family.subsets_scanned"] += (1 << len(poset)) - 1
                c["poset.directed_family.directed_found"] += len(result)

    _COUNTED = frozenset({
        "experiments.qubit_experiment", "experiments.fixed_basis_repeat", "experiments.boxes_experiment",
        "measures.shannon_bits", "measures.verify_axioms", "context.qubit_distance_curve",
        "poset.directed_family",
    })

    def wrap(self, name, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        extra = self._count_extra if name in self._COUNTED else None
        refusal = name == "poset.directed_family"
        size_limit = sys.modules["orderctx.errors"].SizeLimitError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except size_limit:
                if refusal:
                    self.counts["poset.size_refusals"] += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if extra is not None:
                extra(name, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the library's public functions at every binding."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        cli = sys.modules["orderctx.cli"]
        poset_cls = sys.modules["orderctx.poset"].FinitePoset
        wrappers = {}  # id(original) -> (original, wrapper)

        def add(name, fn):
            wrappers[id(fn)] = (fn, self.wrap(name, fn))

        for short in LIBRARY_MODULES:
            mod = sys.modules["orderctx." + short]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    add(f"{short}.{attr}", obj)
        add("cli.main", cli.main)
        for attr, obj in vars(cli).items():
            if attr.startswith("cmd_") and inspect.isfunction(obj):
                add("cli.handler", obj)

        for attr, obj in list(vars(poset_cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._set(poset_cls, attr, self.wrap(f"poset.{attr}", obj))
            elif isinstance(obj, classmethod):
                self._set(poset_cls, attr, classmethod(self.wrap(f"poset.{attr}", obj.__func__)))

        modules = [m for n, m in list(sys.modules.items()) if n == "orderctx" or n.startswith("orderctx.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Flat metric dict: span calls/busy/self plus the counters."""
        out = {}
        for name, (calls, busy, own) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy
            out[f"{name}.self_s"] = own
        out.update(self.counts)
        return out
