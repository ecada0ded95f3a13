"""Span recorder that wraps the lab's public calls from outside.

Nothing in ``src/`` is edited: each hook replaces a function with a
timing wrapper in every ``expanderlab`` module namespace that holds it,
because ``from .x import f`` binds ``f`` locally in the importer (for
example ``cli.evolve`` or ``entropy.smallest_eigenpair``).  Lazy
imports inside function bodies read the patched module attribute.

Spans are kept in memory as ``(name, start, end, parent, pass_id)``
rows and handed back when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

# (module, attribute, span name).
# The two private kernels are the ROADMAP's shooting and oracle hot
# spots; they have no public entry, so they are wrapped by name and may
# disappear in a refactor.
HOOKS = [
    ("cli", "run_scenario_doc", "cli.run_scenario_doc"),
    ("flow", "evolve", "flow.evolve"),
    ("conjugate_heat", "solve_conjugate_backward", "conjugate_heat.backward"),
    ("conjugate_heat", "construct_immortal_density", "conjugate_heat.immortal"),
    ("conjugate_heat", "check_harnack_identity", "conjugate_heat.checks"),
    ("conjugate_heat", "check_steady_harnack", "conjugate_heat.checks"),
    ("conjugate_heat", "check_f_plus_evolution", "conjugate_heat.checks"),
    ("entropy", "lambda_min", "entropy.lambda_min"),
    ("entropy", "mu_plus", "entropy.mu_plus"),
    ("entropy", "nu_plus", "entropy.nu_plus"),
    ("entropy", "build_entropy_report", "entropy.reports"),
    ("entropy", "asymptotics_report", "entropy.reports"),
    ("entropy", "long_time_residual_integral", "entropy.reports"),
    ("reduced", "ell_plus_field", "reduced.field"),
    ("reduced", "_torus_shoot_targets", "reduced.shoot"),
    ("reduced", "_oracle_torus_batch", "reduced.oracle"),
    ("reduced", "_radial_field", "reduced.radial"),
    ("reduced", "check_gradient_time_identities", "reduced.checks"),
    ("reduced", "check_inequalities", "reduced.checks"),
    ("reduced", "theta_plus", "reduced.checks"),
    ("reduced", "hessian_check_cor21", "reduced.checks"),
    ("numerics", "integrate_ode", "numerics.integrate_ode"),
    ("numerics", "smallest_eigenpair", "numerics.smallest_eigenpair"),
    ("reports", "write_csv", "reports.write"),
    ("reports", "write_json", "reports.write"),
    ("reports", "write_svg_chart", "reports.write"),
]

# Metrics read from a hook's returned objects whose names do not start
# with the hook's span name.
DERIVED = {"reports.write": "reports.bytes"}

# Span of the scenario workloads' entry point.  Its self time is glue
# code that no layer accounts for, as is the acceptance criteria's own
# code, which runs outside any span.
TOP_SPAN = "cli.run_scenario_doc"


class Tracer:
    """In-memory span and count recorder for one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans = []          # [name, start, end, parent index, pass_id]
        self.counts = Counter()
        self.absent = {}         # span name -> reason
        self._stack = []

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` recording a span.  ``on_return(result, arguments)``
        reads outcome counts from the returned object."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(result, bound)
            return result

        return traced

    def install(self):
        """Patch every hook into the loaded ``expanderlab`` modules."""
        on_return = {
            "conjugate_heat.immortal": self._count_immortal,
            "entropy.mu_plus": self._count_mu_plus,
            "reduced.field": self._count_flags,
            "reduced.shoot": self._count_targets("reduced.shoot.targets"),
            "reduced.oracle": self._count_targets("reduced.oracle.targets"),
            "reports.write": self._count_bytes,
        }
        missing, live = {}, set()
        for mod_name, attr, span in HOOKS:
            mod = importlib.import_module(f"expanderlab.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.setdefault(span, f"expanderlab.{mod_name}.{attr} not found")
                continue
            live.add(span)
            _replace_everywhere(fn, self.wrap(span, fn, on_return.get(span)))
        # a span name with at least one live hook is measured, if partially
        for span, reason in missing.items():
            if span not in live:
                self.absent[span] = reason
                if span in DERIVED:
                    self.absent[DERIVED[span]] = reason

        from expanderlab import flow

        stepper = getattr(flow, "TorusStepper", None)
        step = getattr(stepper, "step", None)
        if step is None:
            self.absent["flow.torus_steps"] = "expanderlab.flow.TorusStepper.step not found"
        else:
            def counted_step(obj, *args, **kwargs):
                self.counts["flow.torus_steps"] += 1
                return step(obj, *args, **kwargs)

            stepper.step = counted_step

    # -- outcome counts read from returned objects ------------------------

    def _count_immortal(self, dens, _args):
        self.counts["conjugate_heat.immortal.converged"] += bool(dens.converged)

    def _count_mu_plus(self, res, _args):
        self.counts["entropy.mu_plus.unconverged"] += not bool(res.converged)

    def _count_flags(self, fld, _args):
        flags = getattr(fld, "oracle_flags", None)
        if flags is not None:
            self.counts["reduced.flagged"] += int(flags.sum())
            self.counts["reduced.flag_checked"] += int(flags.size)

    def _count_targets(self, key):
        def count(_res, args):
            self.counts[key] += len(args.get("targets", ()))
        return count

    def _count_bytes(self, _res, args):
        self.counts["reports.bytes"] += os.path.getsize(args["path"])


def _replace_everywhere(old, new):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "expanderlab" or mod_name.startswith("expanderlab."):
            for key, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, key, new)


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    own = [end - start for _name, start, end, _parent, _pid in spans]
    for name, start, end, parent, _pid in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
