"""Spans around the public functions of every pemshuffle module.

The tracer replaces each public function, in its own module and in every
module that imported it by name, with a wrapper that records calls, self
time (the span's duration minus the part its child spans cover) and
inclusive time per layer.  It also wraps the charged and the free
operations of ``Machine``.  Nothing under ``src/`` changes: the wrapping
happens in the benchmark's process only, after import.

``run_lockstep`` and ``create_machine`` stay unwrapped on purpose: the
action scripts run inside ``run_lockstep``, so their time lands on the
caller's span, the pipeline entry point or primitive that started them,
and machine construction lands on the loader that asked for it.

Hooks that inspect arguments or results (counting elements, capturing
outputs for the checks) run outside every span and their time is taken
off the enclosing span's self time, so they only show in the wall time
of the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# Layer of each wrapped function; the module's default applies to the
# rest of its public functions.
MODULE_LAYER = {
    "pemshuffle.algorithms": "algorithms",
    "pemshuffle.primitives": "primitives",
    "pemshuffle.workload": "workload",
    "pemshuffle.cost_model": "bounds",
    "pemshuffle.harness": "harness",
    "pemshuffle.cli": "cli",
}
FUNCTION_LAYER = {
    "machine_with_instance": "load",
    "machine_with_vectors": "load",
    "instance_blocks": "load",
    "generate": "generate",
    "elementary_products": "generate",
    "make_map_task": "generate",
    "oracle_shuffle": "oracle",
    "oracle_combined_mxv": "oracle",
    "potential": "potential",
    "check_potential_deltas": "potential",
}
SIMULATION = ("algorithms", "primitives")  # layers that drive the machine


class Tracer:
    """Per-layer counters of one traced process."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()     # per layer
        self.depth: Counter = Counter()
        self.stack: list[list] = []         # [layer, seconds covered by children]
        self.steps = 0                      # parallel steps the rows are charged
        self.elements_moved = 0
        self.primitive_io = 0
        self.replayed_steps = 0
        self.rows = 0
        self.capture: dict = {}

    # -- wrapping ---------------------------------------------------------

    def install(self, row_hook) -> None:
        """Wrap every public function and Machine's operations.

        ``row_hook(tracer, row)`` runs after each ``run_point``.
        """
        from pemshuffle import machine

        self._region = machine.Region
        hooks = {
            "parallel_step": self._after_step,
            "generate": self._keep_instance,
            "elementary_products": self._keep_vectors,
            "make_map_task": self._keep_vectors,
            "machine_with_instance": self._keep_machine,
            "machine_with_vectors": self._keep_machine,
            "check_potential_deltas": self._after_replay,
        }
        replaced = {}
        for modname, default in MODULE_LAYER.items():
            module = importlib.import_module(modname)
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                layer = FUNCTION_LAYER.get(name, default)
                before, after = None, hooks.get(name)
                if name == "run_point":
                    before = self._before_row
                    after = lambda args, kw, row: row_hook(self, row)
                elif layer in SIMULATION:
                    after = self._keep_output
                replaced[fn] = self._wrap(fn, layer, before, after)
        for name, layer in (("parallel_step", "step"), ("create", "free"),
                            ("discard", "free"), ("compute", "free")):
            fn = getattr(machine.Machine, name)
            setattr(machine.Machine, name,
                    self._wrap(fn, layer, None, hooks.get(name)))
        for module in [m for n, m in sys.modules.items() if n.startswith("pemshuffle")]:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, name, replaced[value])

    def _wrap(self, fn, layer, before, after):
        stack, self_s, incl_s = self.stack, self.self_s, self.incl_s
        calls, depth, clock = self.calls, self.depth, time.perf_counter
        tags = (layer, "simulation") if layer in SIMULATION else (layer,)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            for tag in tags:
                depth[tag] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self_s[layer] += dt - frame[1]
                calls[layer] += 1
                for tag in tags:
                    depth[tag] -= 1
                    if not depth[tag]:
                        incl_s[tag] += dt
            if after is not None:
                self._hook(after, args, kwargs, result)
            return result

        return traced

    def _hook(self, hook, *hook_args) -> None:
        t0 = time.perf_counter()
        hook(*hook_args)
        if self.stack:
            self.stack[-1][1] += time.perf_counter() - t0

    # -- hooks --------------------------------------------------------------

    def _after_step(self, args, kwargs, results) -> None:
        moved = sum(len(r) for r in results if r is not None)
        for action in args[1]:
            moved += len(getattr(action, "elements", ()))
        self.elements_moved += moved
        # a step the harness issues itself stages a row's input and is
        # not charged to the row
        if not (self.stack and self.stack[-1][0] == "harness"):
            self.steps += 1
        if self.depth["primitives"]:
            self.primitive_io += 1

    def _after_replay(self, args, kwargs, report) -> None:
        self.replayed_steps += len(args[0].steps)

    def _keep_instance(self, args, kwargs, result) -> None:
        self.capture["instance"] = result

    def _keep_vectors(self, args, kwargs, result) -> None:
        self.capture["vectors"] = args[1] if len(args) > 1 else kwargs.get("input_vectors")

    def _keep_machine(self, args, kwargs, result) -> None:
        self.capture["machine"] = result[0]

    def _keep_output(self, args, kwargs, result) -> None:
        # the last Region an outermost pipeline call returns is the output
        if not self.depth["simulation"] and isinstance(result, self._region):
            self.capture["output"] = result

    def _before_row(self, args, kwargs) -> None:
        self.rows += 1
        self.capture = {"simulation_s": self.incl_s["simulation"]}
