"""The benchmark's tracer charges every row exactly its measured I/Os.

``perfbench/tracer.py`` wraps the public functions of the pemshuffle
modules and charges a parallel step to the running row unless the
innermost wrapped span is the harness, which stages a row's input
itself.  A public helper that issues steps for the harness would move
staging steps into the row's count and break the traced benchmark's
``machine.steps == sim_io`` check; this test runs the tracer over all
pipelines in a fresh process and catches that.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
from tracer import Tracer
from pemshuffle import harness

tracer = Tracer()
tracer.install(lambda tracer, row: None)
point = dict(N_M=128, N_R=32, H=1024, v=1, w=1, P=8, M=24, B=4)
rows = []
for name in harness.PIPELINES:
    before = tracer.steps
    row = harness.run_point(name, point, 0)
    rows.append([name, row["status"], row.get("measured_io"), tracer.steps - before])
print(json.dumps(rows))
"""


def test_traced_steps_equal_measured_io():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert len(rows) == 11
    for name, status, measured, traced in rows:
        assert status == "ok", name
        assert traced == measured, f"{name}: traced {traced} steps, measured {measured}"


def test_hooked_names_are_public_functions():
    """Every name the tracer puts in a layer of its own is a public function
    of a wrapped module.  The tracer skips a name it does not find, so a
    deleted or renamed function would zero its layer's metrics silently."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    public = set()
    for modname in tracer.MODULE_LAYER:
        module = importlib.import_module(modname)
        public.update(name for name, fn in vars(module).items()
                      if not name.startswith("_") and inspect.isfunction(fn)
                      and fn.__module__ == modname)
    missing = sorted(set(tracer.FUNCTION_LAYER) - public)
    assert not missing, f"hooked names with no public function: {missing}"
