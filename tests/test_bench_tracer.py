import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_tracer_binds_every_name():
    # bench/tracer.py wraps psg functions and methods by name, so deleting or
    # renaming one of them fails its install; it runs in a fresh interpreter
    # so that the wrapping cannot leak into other tests
    code = "import sys; sys.path.insert(0, 'bench'); from tracer import Tracer; Tracer().install()"
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
