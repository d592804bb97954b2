"""Spans around the public functions of each layer, recorded from outside.

``Tracer.install`` replaces each listed function at every module attribute
bound to it (``channel`` imports ``overlaps`` by name, the package re-exports
most of them), so calls between layers are seen too.  A function a later
version no longer has is skipped and reported absent.  Spans (name, start,
end, parent, operation id) stay in memory in flat arrays and are written
out once, at the end; self time is a span's duration minus its children's.
"""
from __future__ import annotations

import statistics
import subprocess
import time
from array import array

import numpy as np

LAYER_FUNCTIONS = {
    "cavity": ("response_arrays",),
    "pulses": (
        "gauss_hermite_mean",
        "adaptive_simpson_mean",
        "overlaps",
        "gate_metrics",
        "metrics_residual",
        "sweep",
    ),
    "channel": ("build_model", "apply_noisy_cswap", "loss_probability", "fidelity"),
    "circuits": ("apply", "swap_test", "run", "synthesize", "equivalent_up_to_phase"),
    "cli": ("run",),
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _omega_points(args, kwargs, result):
    return {"omega_points": int(np.size(_arg(args, kwargs, 3, "omega")))}


def _amplitudes(args, kwargs, result):
    n = int(np.size(_arg(args, kwargs, 0, "state").amplitudes))
    # one read and one write of complex128 amplitudes, computed not measured
    return {"amplitudes": n, "bytes": 32 * n}


def _sweep_points(args, kwargs, result):
    return {"points": len(result), "failed_points": sum(1 for row in result if row.error)}


def _synthesis(args, kwargs, result):
    return {"candidates": int(result.search_space), "matches": len(result.matches)}


# counters read from a call's arguments and result, keyed by span name
COUNTERS = {
    "cavity.response_arrays": _omega_points,
    "circuits.apply": _amplitudes,
    "pulses.sweep": _sweep_points,
    "circuits.synthesize": _synthesis,
}


class Tracer:
    def __init__(self, package_modules):
        """package_modules: {short layer name: module}, plus the package
        itself under any key, all searched for bindings to wrap."""
        self.modules = package_modules
        self.names = []
        self.absent = []
        self.name_ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.raised = array("b")
        self.counters = {}
        self.current_op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, func):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(tracer.start)
            tracer.span_name.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.raised.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(index)
            tracer.start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.end[index] = clock()
                tracer.raised[index] = 1
                tracer._stack.pop()
                raise
            tracer.end[index] = clock()
            tracer._stack.pop()
            if counter is not None:
                totals = tracer.counters.setdefault(name, {})
                for key, value in counter(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def install(self):
        for layer, functions in LAYER_FUNCTIONS.items():
            module = self.modules[layer]
            for fname in functions:
                original = getattr(module, fname, None)
                name = f"{layer}.{fname}"
                if original is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod in self.modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def arrays(self):
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "raised": np.array(self.raised, dtype=np.int8),
        }

    def write(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self):
        """Per wrapped function: calls, self_s, total_s, raised, counters;
        plus equivalence checks made inside synthesize."""
        spans = self.arrays()
        n = spans["name"].size
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child = np.bincount(spans["parent"][has_parent], weights=duration[has_parent], minlength=n)
        self_time = duration - child[:n]
        out = {}
        for name_id, name in enumerate(self.names):
            mask = spans["name"] == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_time[mask].sum()),
                "total_s": float(duration[mask].sum()),
                "raised": int(spans["raised"][mask].sum()),
                **self.counters.get(name, {}),
            }
        if "circuits.synthesize" in self.name_ids and "circuits.equivalent_up_to_phase" in self.name_ids:
            synth = np.nonzero(spans["name"] == self.name_ids["circuits.synthesize"])[0]
            checks = spans["name"] == self.name_ids["circuits.equivalent_up_to_phase"]
            out["circuits.synthesize"]["confirmations"] = int(np.isin(spans["parent"][checks], synth).sum())
        return out


def import_times(python, env, cwd, runs=3):
    """Median cumulative import time of numpy, and of cavityswap without
    numpy, from ``python -X importtime -c 'import cavityswap.cli'``."""
    numpy_s, own_s = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import cavityswap.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        numpy_s.append(cumulative.get("numpy", 0.0))
        # cavityswap.cli is the outermost import; it includes the package and numpy
        own_s.append(cumulative.get("cavityswap.cli", 0.0) - numpy_s[-1])
    return statistics.median(numpy_s), statistics.median(own_s)

