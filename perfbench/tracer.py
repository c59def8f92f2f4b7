"""Spans and call counts around the public functions of ``algfield``.

The traced run installs wrappers in the module namespaces through which
the package calls each instrumented function (every ``algfield``
submodule that holds a reference to it), so calls made from inside the
package are seen as well as calls from the CLI.  Layer functions get a
span each (name, start, end, parent span, pass id, units of work); hot
callables get only a counter, because a span per gauge or coefficient
call would cost more than the call.  Spans are kept in memory and
written out when the traced passes end.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from collections import Counter
from math import prod

MODULES = ("algebroid", "cli", "differentiation", "fibred", "fields",
           "scenarios", "smoothfields", "variational")


def _nodes(grid) -> int:
    return int(prod(grid.extents))


def _steps(a) -> int:
    return int(round((a["t_end"] - a["initial"].t) / a["dt"]))


# span name -> (module, function, units of work per call from bound args)
SPAN_FUNCTIONS = {
    "cli.run_command": ("cli", "run_command", None),
    "fields.residual_report": ("fields", "residual_report",
                               lambda a: _nodes(a["section"].grid)),
    "scenarios.flat_connection_generator": ("scenarios", "flat_connection_generator",
                                            lambda a: _nodes(a["grid"])),
    "scenarios.integrate_mechanics": ("scenarios", "integrate_mechanics", _steps),
    "variational.el_residual_field": ("variational", "el_residual_field",
                                      lambda a: _nodes(a["section"].grid)),
    "variational.first_variation_identity_defect": (
        "variational", "first_variation_identity_defect", lambda a: 1),
    "algebroid.structure_residual_max": ("algebroid", "structure_residual_max",
                                         lambda a: len(a["points"])),
}

# span name -> (module, class, methods, units of work per call)
SPAN_METHODS = {
    "fields.from_functions": ("fields", "DiscretizedSection", ("from_functions",),
                              lambda a: _nodes(a["grid"])),
    "scenarios.trajectory_series": (
        "scenarios", "MechanicsTrajectory",
        ("energy_series", "momentum_series", "el_residual_series"),
        lambda a: int(a["self"].times.size)),
}

# counter name -> (module, functions); ``own`` says whether calls made
# inside the defining module are counted too
COUNTED_FUNCTIONS = {
    "fields.node_residual": ("fields", ("admissibility_residual", "morphism_residual"), True),
    "variational.el_residual": ("variational", ("el_residual",), True),
    # calls from the rest of the package into the helpers it imports;
    # gradient() calling partial_derivative() inside differentiation is
    # one call, not n+1
    "differentiation.fd": ("differentiation", ("gradient", "partial_derivative_two_slot"),
                           False),
}

COUNTED_METHODS = {
    "smoothfields.trig": ("smoothfields", "TrigPolynomial", ("__call__", "gradient")),
}

# builders whose returned pairs and Lagrangians get counted callables
BUILDERS = ("builder_time_dependent", "rigid_body_pair", "heavy_top_pair",
            "free_particle_pair", "builder_standard", "builder_atiyah",
            "builder_chern_simons", "quadratic_kinetic_lagrangian",
            "rigid_body_lagrangian", "heavy_top_lagrangian",
            "scalar_field_lagrangian", "chern_simons_lagrangian")
PAIR_COEFFICIENTS = ("rho_f", "c_f", "rho_base_u", "rho_kernel_u",
                     "c_base_kernel", "c_mixed", "c_kernel")
LAGRANGIAN_CALLBACKS = {"grad_u": "variational.lagrangian_grad",
                        "grad_y": "variational.lagrangian_grad",
                        "hess_yy": "variational.lagrangian_hess",
                        "hess_yu": "variational.lagrangian_hess"}

_MARK = "_perfbench_counted"


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them again."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.spans = []       # [id, name, start, end, parent, pass, work]
        self.counts = Counter()
        self.pass_id = 0
        self._stack = []
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def spanned(self, name, fn, work=None, signature=None):
        spans, stack = self.spans, self._stack
        bind = (signature or inspect.signature(fn)).bind

        def wrapper(*args, **kwargs):
            units = work(bind(*args, **kwargs).arguments) if work else 0
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = [sid, name, start, end, parent, self.pass_id, units]

        return wrapper

    def _instrument(self, obj):
        """Count the callables of a pair or Lagrangian (once per object)."""
        if isinstance(obj, tuple):
            return tuple(self._instrument(o) for o in obj)
        if isinstance(obj, self.package.FibredAlgebroidPair):
            names = dict.fromkeys(PAIR_COEFFICIENTS, "fibred.coefficient")
        elif isinstance(obj, self.package.Lagrangian):
            names = LAGRANGIAN_CALLBACKS
        else:
            return obj
        changes = {f: self.counted(names[f], getattr(obj, f)) for f in names
                   if getattr(obj, f) is not None
                   and not getattr(getattr(obj, f), _MARK, False)}
        return dataclasses.replace(obj, **changes) if changes else obj

    def _builder(self, fn):
        def wrapper(*args, **kwargs):
            return self._instrument(fn(*args, **kwargs))

        return wrapper

    def _gauge_counting(self, fn):
        def wrapper(gauge, *args, **kwargs):
            return fn(self.counted("scenarios.gauge", gauge), *args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original, wrapper, skip=None):
        """Point every namespace of the package that holds ``original`` at ``wrapper``."""
        found = False
        for module in (self.package, *self.modules.values()):
            if module is skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"no namespace of the package holds {original!r}")

    def _replace_method(self, cls, attr, wrapper):
        raw = vars(cls)[attr]
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def install(self):
        for name, (mod, attr, work) in SPAN_FUNCTIONS.items():
            original = getattr(self.modules[mod], attr)
            fn = original
            if attr == "flat_connection_generator":
                fn = self._gauge_counting(original)
            self._replace_everywhere(original, self.spanned(
                name, fn, work, inspect.signature(original)))
        for name, (mod, cls_name, methods, work) in SPAN_METHODS.items():
            cls = getattr(self.modules[mod], cls_name)
            for attr in methods:
                fn = getattr(cls, attr)
                self._replace_method(cls, attr, self.spanned(name, fn, work))
        for name, (mod, attrs, own) in COUNTED_FUNCTIONS.items():
            module = self.modules[mod]
            for attr in attrs:
                original = getattr(module, attr)
                self._replace_everywhere(original, self.counted(name, original),
                                         skip=None if own else module)
        for name, (mod, cls_name, methods) in COUNTED_METHODS.items():
            cls = getattr(self.modules[mod], cls_name)
            for attr in methods:
                self._replace_method(cls, attr, self.counted(name, vars(cls)[attr]))
        scenarios = self.modules["scenarios"]
        for attr in BUILDERS:
            original = getattr(scenarios, attr)
            self._replace_everywhere(original, self._builder(original))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def start_pass(self, pass_id):
        self.pass_id = pass_id
        self.counts.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, pass_id, work in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": pass_id, "work": work}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans (used by the parent process)
# ---------------------------------------------------------------------------

def pass_summaries(spans):
    """Per pass and span name: inclusive seconds, self seconds and work units."""
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {}
    for s in spans:
        dur = s["end"] - s["start"]
        agg = out.setdefault(s["run"], {}).setdefault(
            s["name"], {"s": 0.0, "self_s": 0.0, "work": 0})
        agg["s"] += dur
        agg["self_s"] += dur - child_time[s["id"]]
        agg["work"] += s["work"]
    return out
