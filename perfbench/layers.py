"""Outside-in layer trace for the in-process workloads.

The benchmark does not change the program: it wraps the layers' public
functions from here, records one span per call (layer, name, start,
end, parent, the cell it served) and restores the originals afterwards.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its direct children cover.

Wrapped entry points, by layer:

* ``synth``     — ``repro.synth.registry.build_benchmark``
* ``opt``       — ``repro.opt.Optimizer.run``, every
  ``repro.mig.rewrite.PASSES`` entry, ``repro.mig.rewrite.rebuild``
* ``plim``      — ``repro.plim.compiler.PlimCompiler.compile``
* ``verify``    — ``repro.plim.verify.verify_program``,
  ``repro.mig.simulate.simulate``, ``repro.plim.controller.PlimController.run``
* ``diskcache`` — ``repro.analysis.diskcache.DiskCache.load`` / ``store``
* ``runner``    — one span per matrix cell, opened by the workload around
  its ``Session.run_matrix`` call
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module
from typing import Callable, Dict, List, Optional

#: Rewrite passes of the paper's two scripts (Algorithms 1 and 2).
SCRIPT_PASSES = ("M", "D_rl", "A", "Psi_C", "I_rl_1_3", "I_rl")

LAYERS = ("runner", "synth", "opt", "plim", "verify", "diskcache")


class Span:
    __slots__ = ("id", "parent", "layer", "name", "trace", "start", "end",
                 "child_s", "attrs")

    def __init__(self, id, parent, layer, name, trace):
        self.id = id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.trace = trace
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.attrs: Dict[str, object] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "layer": self.layer,
            "name": self.name, "trace": self.trace, "start": self.start,
            "end": self.end, "self_s": self.self_s, **self.attrs,
        }


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, name: str, trace: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            len(self.spans),
            parent.id if parent else None,
            layer,
            name,
            trace if trace is not None else (parent.trace if parent else None),
        )
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.seconds

    # -- patching ----------------------------------------------------------

    def _wrapper(self, original: Callable, layer: str, name: str,
                 after: Optional[Callable] = None, before=None) -> Callable:
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            with recorder.span(layer, name) as span:
                result = original(*args, **kwargs)
            if after is not None:
                after(span, args, kwargs, result, pre)
            return result

        return wrapper

    def _set(self, owner, attr, value, original) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, layer: str, **hooks) -> None:
        """Wrap a module-level function in every ``repro`` module that
        imported it by name."""
        original = getattr(module, attr)
        wrapper = self._wrapper(original, layer, attr, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if vars(mod).get(attr) is original:
                self._set(mod, attr, wrapper, original)

    def wrap_method(self, cls, attr: str, layer: str, **hooks) -> None:
        original = vars(cls)[attr]
        wrapper = self._wrapper(
            original, layer, f"{cls.__name__}.{attr}", **hooks
        )
        self._set(cls, attr, wrapper, original)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer entry point listed in the module docstring."""
        # import_module, not "from package import name": several
        # packages re-export a function under its module's name.
        diskcache = import_module("repro.analysis.diskcache")
        rewrite = import_module("repro.mig.rewrite")
        simulate = import_module("repro.mig.simulate")
        controller = import_module("repro.plim.controller")
        verify = import_module("repro.plim.verify")
        registry = import_module("repro.synth.registry")
        Optimizer = import_module("repro.opt.engine").Optimizer
        PlimCompiler = import_module("repro.plim.compiler").PlimCompiler

        def gates(span, args, kwargs, result, pre):
            span.attrs["gates_in"] = args[1].num_live_gates()
            span.attrs["gates_out"] = result.num_live_gates()

        def compiled(span, args, kwargs, result, pre):
            span.attrs["gates"] = args[1].num_live_gates()

        def checked(span, args, kwargs, result, pre):
            mig = args[1]
            limit = kwargs.get("exhaustive_limit", 10)
            exhaustive = mig.num_pis <= limit
            span.attrs["exhaustive"] = exhaustive
            span.attrs["patterns"] = (
                1 << mig.num_pis if exhaustive else kwargs.get("patterns", 256)
            )

        def loaded(span, args, kwargs, result, pre):
            span.attrs["hit"] = result is not None

        def stat(args, kwargs):
            try:
                info = args[0].entry_path(args[1]).stat()
            except OSError:
                return None
            return (info.st_mtime_ns, info.st_size)

        def stored(span, args, kwargs, result, pre):
            after = stat(args, kwargs)
            span.attrs["bytes"] = after[1] if after and after != pre else 0

        self.wrap_function(registry, "build_benchmark", "synth")
        self.wrap_method(Optimizer, "run", "opt", after=gates)
        for name, fn in list(rewrite.PASSES.items()):
            self._patches.append((rewrite.PASSES, name, fn))
            rewrite.PASSES[name] = self._wrapper(fn, "opt", f"pass.{name}")
        self.wrap_function(rewrite, "rebuild", "opt")
        self.wrap_method(PlimCompiler, "compile", "plim", after=compiled)
        self.wrap_function(verify, "verify_program", "verify", after=checked)
        self.wrap_function(simulate, "simulate", "verify")
        self.wrap_method(controller.PlimController, "run", "verify")
        self.wrap_method(diskcache.DiskCache, "load", "diskcache", after=loaded)
        self.wrap_method(
            diskcache.DiskCache, "store", "diskcache", before=stat,
            after=stored,
        )

    # -- reports -----------------------------------------------------------

    def by_name(self) -> Dict[str, List[Span]]:
        groups: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            groups[span.name].append(span)
        return groups

    def layer_metrics(self) -> Dict[str, float]:
        """The ``synth``/``opt``/``plim``/``verify``/``runner``/
        ``diskcache`` per-layer metrics of this trace."""
        g = self.by_name()

        def total(name):
            return sum(s.seconds for s in g.get(name, ()))

        def attr(name, key):
            return sum(s.attrs.get(key, 0) for s in g.get(name, ()))

        passes = [n for n in g if n.startswith("pass.")]
        verifies = g.get("verify_program", [])
        loads = g.get("DiskCache.load", [])
        compile_s = total("PlimCompiler.compile")
        gates = attr("PlimCompiler.compile", "gates")
        metrics = {
            "synth.build_s": total("build_benchmark"),
            "synth.builds": len(g.get("build_benchmark", ())),
            "opt.rewrite_s": total("Optimizer.run"),
            "opt.rewrites": len(g.get("Optimizer.run", ())),
            "opt.gates_in": attr("Optimizer.run", "gates_in"),
            "opt.gates_out": attr("Optimizer.run", "gates_out"),
            "opt.pass_calls": sum(len(g[n]) for n in passes),
            "mig.rebuilds": len(g.get("rebuild", ())),
            "plim.compile_s": compile_s,
            "plim.compiles": len(g.get("PlimCompiler.compile", ())),
            "plim.gates_compiled": gates,
            "plim.us_per_gate": compile_s / gates * 1e6 if gates else 0.0,
            "verify.verify_s": total("verify_program"),
            "verify.calls": len(verifies),
            "verify.patterns": attr("verify_program", "patterns"),
            "verify.sim_s": total("simulate"),
            "verify.exec_s": total("PlimController.run"),
            "verify.exhaustive_share": (
                sum(1 for s in verifies if s.attrs.get("exhaustive"))
                / len(verifies) if verifies else 0.0
            ),
            "runner.self_s": sum(s.self_s for s in g.get("cell", ())),
            "diskcache.load_s": total("DiskCache.load"),
            "diskcache.loads": len(loads),
            "diskcache.store_s": total("DiskCache.store"),
            "diskcache.stores": len(g.get("DiskCache.store", ())),
            "diskcache.bytes_written": attr("DiskCache.store", "bytes"),
            "diskcache.hit_ratio": (
                sum(1 for s in loads if s.attrs.get("hit")) / len(loads)
                if loads else 0.0
            ),
        }
        for name in SCRIPT_PASSES:
            metrics[f"opt.pass.{name}_s"] = total(f"pass.{name}")
        return {key: float(value) for key, value in metrics.items()}

    def layer_table(self) -> List[str]:
        """Self time and calls per layer and per wrapped entry point."""
        cells = [s for s in self.spans if s.name == "cell"]
        wall = sum(s.seconds for s in cells) or 1.0
        layer_self: Dict[str, float] = defaultdict(float)
        layer_calls: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            layer_self[span.layer] += span.self_s
            layer_calls[span.layer] += 1
        lines = [
            f"layer table: {len(cells)} cells, {wall:.3f} s in cells "
            "(self time = span minus direct children; runner = "
            "run_matrix time no wrapped layer covers)",
            f"  {'layer':<24}{'self_s':>10}{'share':>9}{'calls':>9}",
        ]
        for layer in LAYERS:
            lines.append(
                f"  {layer:<24}{layer_self[layer]:>10.3f}"
                f"{layer_self[layer] / wall:>9.1%}{layer_calls[layer]:>9}"
            )
        lines.append(f"  {'entry point':<24}{'self_s':>10}{'total_s':>10}"
                     f"{'calls':>9}")
        for name, spans in sorted(self.by_name().items()):
            lines.append(
                f"  {name:<24}{sum(s.self_s for s in spans):>10.3f}"
                f"{sum(s.seconds for s in spans):>10.3f}{len(spans):>9}"
            )
        return lines

    def split(self, keep: Callable[[str], bool]) -> str:
        """Self-time share per layer over the cells whose trace id
        *keep* accepts."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.trace is not None and keep(span.trace):
                totals[span.layer] += span.self_s
        wall = sum(totals.values()) or 1.0
        return ", ".join(
            f"{layer} {totals[layer] / wall:.1%}" for layer in LAYERS
        )

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
