"""Per-layer spans for the benchmark's traced run.

`traced(tracer)` wraps every public function of the qfoliation layer modules
and rebinds each name wherever the package looks it up (e.g.
`scenarios.lindblad_propagate`, `dynamics.validate_density`), so calls
between modules are seen too. Each call is one span; spans are aggregated
in memory as they close:

* self time: the span minus the spans of wrapped functions it calls;
* inclusive time: the whole span, counted only for the outermost call of a
  function, so recursion is not counted twice;
* chain time: self time credited to the outermost function of a run of
  nested calls within one module, so `cli.run` owns the cli helpers
  (formatting, matrix encoding) it calls;
* exact counts: calls per function, plus work counts derived from call
  arguments and results (trajectory steps, normals drawn, report bytes).

`errors` is not wrapped: it does no work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import Counter

LAYERS = ("rng", "linalg", "foliation", "dynamics", "scenarios", "cli")

# stochastic integrators: entry points that advance trajectories
QSD_ENTRIES = ("dynamics.ensemble_final_states", "dynamics.qsd_trajectory", "dynamics.qsd_step")

# name -> unit of every per-layer metric, in print order
UNITS = {
    "setup.import_numpy_s": "s",
    "setup.import_scipy_linalg_s": "s",
    "setup.import_qfoliation_self_s": "s",
    "cli.parse_config_s": "s",
    "cli.run_self_s": "s",
    "cli.report_bytes": "bytes",
    "scenarios.run_counterexample_self_s": "s",
    "scenarios.sweep_velocity_self_s": "s",
    "scenarios.calls": "count",
    "dynamics.qsd_kernel_s": "s",
    "dynamics.traj_steps": "count",
    "dynamics.traj_steps_per_s": "1/s",
    "dynamics.lindblad_propagate_self_s": "s",
    "dynamics.lindblad_propagate_calls": "count",
    "dynamics.liouvillian_s": "s",
    "dynamics.liouvillian_calls": "count",
    "dynamics.boost_transport_s": "s",
    "rng.wiener_block_s": "s",
    "rng.wiener_block_calls": "count",
    "rng.normals_drawn": "count",
    "rng.stream_keys_s": "s",
    "linalg.validate_density_s": "s",
    "linalg.validate_density_calls": "count",
    "linalg.trace_distance_s": "s",
    "linalg.expectation_s": "s",
    "linalg.expm_generator_s": "s",
    "foliation.calls": "count",
    "trace.overhead_s": "s",
}


class _Frame:
    __slots__ = ("name", "layer", "chain", "child")

    def __init__(self, name: str, layer: str, chain: str):
        self.name = name
        self.layer = layer
        self.chain = chain
        self.child = 0.0


class Tracer:
    """Span aggregates of one traced run."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.chain_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[_Frame] = []
        self._depth: Counter = Counter()

    def wrap(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        count_work = _work_counter(name, fn)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            parent = stack[-1] if stack else None
            chain = parent.chain if parent is not None and parent.layer == layer else name
            frame = _Frame(name, layer, chain)
            stack.append(frame)
            depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                stack.pop()
                depth[name] -= 1
                own = span - frame.child
                self.self_s[name] += own
                self.chain_s[chain] += own
                if depth[name] == 0:
                    self.incl_s[name] += span
                self.calls[name] += 1
                if parent is not None:
                    parent.child += span
            if count_work is not None:
                count_work(self, args, kwargs, result)
            return result

        return traced_call

    def counts(self) -> dict:
        """Every exact count of the run: calls per function and work counts."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update({f"work.{k}": v for k, v in self.work.items()})
        return dict(sorted(out.items()))

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this run, except setup.* and trace.overhead_s."""
        qsd_incl = sum(self.incl_s[q] for q in QSD_ENTRIES)
        steps = self.work["dynamics.traj_steps"]
        return {
            "cli.parse_config_s": self.incl_s["cli.parse_config"],
            "cli.run_self_s": self.chain_s["cli.run"],
            "cli.report_bytes": self.work["cli.report_bytes"],
            "scenarios.run_counterexample_self_s": self.self_s["scenarios.run_counterexample"],
            "scenarios.sweep_velocity_self_s": self.self_s["scenarios.sweep_velocity"],
            "scenarios.calls": self._layer_calls("scenarios"),
            "dynamics.qsd_kernel_s": sum(self.self_s[q] for q in QSD_ENTRIES),
            "dynamics.traj_steps": steps,
            "dynamics.traj_steps_per_s": steps / qsd_incl if qsd_incl > 0.0 else 0.0,
            "dynamics.lindblad_propagate_self_s": self.self_s["dynamics.lindblad_propagate"],
            "dynamics.lindblad_propagate_calls": self.calls["dynamics.lindblad_propagate"],
            "dynamics.liouvillian_s": self.incl_s["dynamics.liouvillian"],
            "dynamics.liouvillian_calls": self.calls["dynamics.liouvillian"],
            "dynamics.boost_transport_s": self.incl_s["dynamics.boost_transport"],
            "rng.wiener_block_s": self.incl_s["rng.wiener_block"],
            "rng.wiener_block_calls": self.calls["rng.wiener_block"],
            "rng.normals_drawn": self.work["rng.normals_drawn"],
            "rng.stream_keys_s": self.incl_s["rng.stream_keys"],
            "linalg.validate_density_s": self.incl_s["linalg.validate_density"],
            "linalg.validate_density_calls": self.calls["linalg.validate_density"],
            "linalg.trace_distance_s": self.incl_s["linalg.trace_distance"],
            "linalg.expectation_s": self.incl_s["linalg.expectation"],
            "linalg.expm_generator_s": self.incl_s["linalg.expm_generator"],
            "foliation.calls": self._layer_calls("foliation"),
        }

    def _layer_calls(self, layer: str) -> int:
        return sum(n for k, n in self.calls.items() if k.startswith(layer + "."))

    def _in_qsd_entry(self) -> bool:
        # the frame of the call being counted is already popped
        return any(f.name in QSD_ENTRIES for f in self._stack)


def _work_counter(name: str, fn):
    """The work-count hook of a wrapped function, or None."""
    if name in QSD_ENTRIES:
        sig = inspect.signature(fn)

        def traj_steps(tracer, args, kwargs, result):
            if tracer._in_qsd_entry():
                return
            bound = sig.bind(*args, **kwargs).arguments
            rows = bound.get("n_traj", 1)
            steps = bound["cfg"].steps if "cfg" in bound else 1
            tracer.work["dynamics.traj_steps"] += rows * steps

        return traj_steps
    if name == "rng.standard_normals":
        def normals(tracer, args, kwargs, result):
            tracer.work["rng.normals_drawn"] += sum(int(g.size) for g in result)

        return normals
    if name == "cli.run":
        def report_bytes(tracer, args, kwargs, result):
            if result == 0:
                tracer.work["cli.report_bytes"] += os.path.getsize(args[0].output_path)

        return report_bytes
    return None


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install `tracer`'s wrappers for the duration of the block."""
    modules = {layer: importlib.import_module(f"qfoliation.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for fname, fn in vars(mod).items():
            if (not fname.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                wrappers[id(fn)] = (fn, tracer.wrap(layer, fname, fn))
    patched = []
    for mod in (importlib.import_module("qfoliation"), *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patched.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    try:
        yield tracer
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)
