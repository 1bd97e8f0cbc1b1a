"""Per-layer tracing from outside the library.

Each layer is a set of public entfrac functions.  The tracer replaces every
module attribute that holds one of them, so a caller that imported the name
(``entfrac.campaign.fully_entangled_fraction``, ``entfrac.applications.
nelder_mead``) calls the wrapper.  A wrapper opens a span, and on exit adds
the span's duration minus its child spans' to the layer's self time.  A
target that no longer exists is reported as missing.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time

import numpy as np

import reference

# (layer, home module, function names, reported metrics)
LAYERS = (
    ("states.draw", "entfrac.states",
     ("random_density", "fig2_mixture", "werner", "lower_family", "upper_family"),
     ("calls", "self_us")),
    ("states.density_violations", "entfrac.states", ("density_violations",),
     ("calls", "self_us", "states_per_call")),
    ("states.load_density_json", "entfrac.states", ("load_density_json",), ("calls", "self_us")),
    ("fef.fully_entangled_fraction", "entfrac.fef", ("fully_entangled_fraction",),
     ("calls", "self_us", "states_per_call")),
    ("fef.fef_oracle_sphere", "entfrac.fef", ("fef_oracle_sphere",), ("calls", "self_us", "gap")),
    ("fef.fef_oracle_unitary", "entfrac.fef", ("fef_oracle_unitary",), ("calls", "self_us", "gap")),
    ("concurrence.concurrence", "entfrac.concurrence", ("concurrence",),
     ("calls", "self_us", "states_per_call")),
    # bell_max is one function; its mode argument picks the layer
    ("applications.bell_max.angles", "entfrac.applications", ("bell_max",), ("calls", "self_us", "gap")),
    ("applications.bell_max.local_unitaries", "entfrac.applications", (), ("calls", "self_us", "gap")),
    ("applications.bell_canonical", "entfrac.applications", ("bell_canonical",),
     ("calls", "self_us", "states_per_call")),
    ("applications.dense_coding_fidelity", "entfrac.applications", ("dense_coding_fidelity",),
     ("calls", "self_us")),
    ("applications.teleportation_fidelity", "entfrac.applications", ("teleportation_fidelity",),
     ("calls", "self_us")),
    ("applications.swapping_fidelity", "entfrac.applications", ("swapping_fidelity",),
     ("calls", "self_us")),
    ("applications.analyze_state", "entfrac.applications", ("analyze_state",), ("self_us",)),
    ("optimize.nelder_mead", "entfrac.optimize", ("nelder_mead",), ("calls", "self_us", "fevals")),
    ("campaign.sample_record", "entfrac.campaign", ("sample_record",), ("calls", "self_us")),
    ("campaign.records_csv", "entfrac.campaign", ("records_csv",), ("calls", "self_us")),
    ("ddim.fef_numeric_d", "entfrac.ddim", ("fef_numeric_d",), ("calls", "self_us", "gap")),
    ("ddim.dense_coding_fidelity_d", "entfrac.ddim", ("dense_coding_fidelity_d",), ("calls", "self_us")),
    ("verify.run_identity_suite", "entfrac.verify", ("run_identity_suite",), ("self_us",)),
    ("verify.run_ddim_suite", "entfrac.verify", ("run_ddim_suite",), ("self_us",)),
    ("cli.main", "entfrac.cli", ("main",), ("self_us",)),
    ("linalg.hermitian_eig", "entfrac.linalg", ("hermitian_eig",), ("calls",)),
    ("linalg.psd_sqrt", "entfrac.linalg", ("psd_sqrt",), ("calls",)),
)

# metric -> (unit, better)
METRIC_KINDS = {
    "calls": ("calls/op", "lower"),
    "self_us": ("us", "lower"),
    "states_per_call": ("states", "higher"),
    "fevals": ("fevals/call", "lower"),
    "gap": ("1", "lower"),
}


def _bell_max_layer(args, kwargs, sig):
    try:
        mode = sig.bind(*args, **kwargs).arguments.get("mode", "angles")
    except (AttributeError, TypeError):
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "angles")
    return f"applications.bell_max.{mode}"


def _reference_for(layer, rho):
    """The benchmark's own value of what a search layer maximizes, or None."""
    if layer in ("fef.fef_oracle_sphere", "fef.fef_oracle_unitary"):
        return reference.fef(rho)
    if layer == "applications.bell_max.angles":
        return reference.chsh_angles(rho)
    if layer == "applications.bell_max.local_unitaries":
        return reference.chsh_unitaries(rho)
    if layer == "ddim.fef_numeric_d":
        return reference.d_level_fef(rho, round(np.sqrt(rho.shape[0])))
    return None


def _states_in(arg) -> int:
    shape = np.shape(arg)
    return int(np.prod(shape[:-2])) if len(shape) >= 2 else 0


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    states: int = 0
    fevals: int = 0
    # (args, result) of search layers; gaps are computed after the run so
    # the reference work stays out of every span
    searches: list = dataclasses.field(default_factory=list)


# spans kept for the trace file; the aggregates above count every call
SPAN_LIMIT = 20000


class Tracer:
    """Context manager that installs the layer wrappers and removes them on exit.

    ``op`` is the operation the next spans belong to; the caller sets it.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.stats = {name: LayerStats() for name, *_ in layers}
        self.missing: list[str] = []
        self.spans: list[tuple] = []  # (id, parent id, op, layer, start_ns, end_ns)
        self.op = 0
        self._opened = 0
        self._gap_layers = {name for name, _, _, metrics in layers if "gap" in metrics}
        self._state_layers = {name for name, _, _, metrics in layers if "states_per_call" in metrics}
        self._stack: list[list] = []  # [layer, start_ns, child_ns, span id]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("entfrac") and m]
        for layer, home, names, _ in self.layers:
            try:
                home_mod = importlib.import_module(home)
            except ImportError:
                self.missing.extend(f"{home}.{n}" for n in names)
                continue
            for name in names:
                target = getattr(home_mod, name, None)
                if not callable(target):
                    self.missing.append(f"{home}.{name}")
                    continue
                wrapper = self._wrap(layer, target)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        return False

    def _wrap(self, layer, target):
        is_bell_max = layer == "applications.bell_max.angles"
        sig = inspect.signature(target) if is_bell_max else None
        is_simplex = layer == "optimize.nelder_mead"
        stack = self._stack

        def wrapper(*args, **kwargs):
            name = _bell_max_layer(args, kwargs, sig) if is_bell_max else layer
            stats = self.stats.get(name)
            if stats is None or (stack and stack[-1][0] == name):
                # a draw built from another draw is one draw
                return target(*args, **kwargs)
            stats.calls += 1
            if name in self._state_layers and args:
                stats.states += _states_in(args[0])
            if is_simplex and args:
                objective = args[0]

                def counted(x):
                    stats.fevals += 1
                    return objective(x)

                args = (counted,) + args[1:]
            self._opened += 1
            span_id = self._opened if self._opened <= SPAN_LIMIT else 0
            frame = [name, time.perf_counter_ns(), 0, span_id]
            stack.append(frame)
            try:
                result = target(*args, **kwargs)
            finally:
                stack.pop()
                end = time.perf_counter_ns()
                duration = end - frame[1]
                stats.self_ns += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if span_id:
                    parent = stack[-1][3] if stack else 0
                    self.spans.append((span_id, parent, self.op, name, frame[1], end))
            if name in self._gap_layers:
                stats.searches.append((np.array(args[0], dtype=complex), float(result)))
            return result

        wrapper.__wrapped__ = target
        return wrapper

    # -- results -------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, dict]:
        """Every reported layer metric; calls are per operation, the rest per call."""
        out = {}
        for layer, _, _, metrics in self.layers:
            st = self.stats[layer]
            per_call = (lambda x: x / st.calls) if st.calls else (lambda x: 0.0)
            values = {
                "calls": st.calls / ops,
                "self_us": per_call(st.self_ns / 1000.0),
                "states_per_call": per_call(float(st.states)),
                "fevals": per_call(float(st.fevals)),
                "gap": self._gap(layer),
            }
            for m in metrics:
                out[f"{layer}.{m}"] = {"value": values[m], "unit": METRIC_KINDS[m][0]}
        return out

    def _gap(self, layer) -> float:
        gaps = []
        for rho, value in self.stats[layer].searches:
            ref = _reference_for(layer, rho)
            if ref is not None:
                gaps.append(ref - value)
        return float(max(gaps)) if gaps else 0.0


def per_layer_spec():
    """The per_layer entries of BENCHMARK.json, in table order."""
    return [
        {"name": f"{layer}.{m}", "unit": METRIC_KINDS[m][0], "better": METRIC_KINDS[m][1]}
        for layer, _, _, metrics in LAYERS
        for m in metrics
    ]
