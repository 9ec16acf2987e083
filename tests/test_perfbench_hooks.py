"""The benchmark's tracing hooks still find what they wrap.

``perfbench/tracing.py`` wraps package functions by name and counts CSV
rows from the text ``cli.write_csv`` returns; a rename breaks it silently
until a traced run. It is loaded by path, as the harness is not a package.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fractalcalc
from fractalcalc import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: Runs each CLI command once under the tracer, in a process of its own
#: (``install`` rebinds module globals), and prints the spans as JSON.
SPAN_SCRIPT = """
import importlib.util
import json
import os
import sys
import time

from fractalcalc import cli

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer(time.perf_counter)
tracing.install(tracer)
for args in ["dimension --level 3", "staircase --level 3 --grid 16",
             "cdf --level 3 --grid 16", "sample --level 3 --count 20",
             "correlation --curve line --points 3 --n 100",
             "msdiag --curve line --fixture linear-amplitude --tau 0.5 --n 200",
             "sde --curve line --a2 1 --order 5 --grid 8 --n 100"]:
    name = args.split()[0]
    out = os.path.join(sys.argv[2], name + ".csv")
    assert cli.main([*args.split(), "--out", out]) == 0, args
print(json.dumps([[name, parent] for name, _, _, parent in tracer.spans]))
"""


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_callable(tracing):
    for mod_name, path, *_ in tracing.TARGETS:
        owner = importlib.import_module(f"fractalcalc.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{path}"


def test_write_csv_returns_the_text_it_wrote(tmp_path):
    out = tmp_path / "t.csv"
    text = cli.write_csv(str(out), {"command": "x"}, {"t": [0.5, 1.0], "ok": [True, False]},
                         trailing_comments=["end"])
    assert text == out.read_text()
    assert text == "# command=x\nt,ok\n0.5,true\n1,false\n# end\n"


def test_each_command_span_holds_its_csv_write(tmp_path):
    # cli.<command>.ms is inclusive, so it covers the CSV write only while
    # write_csv runs inside the command's own call
    path = [str(Path(fractalcalc.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    done = subprocess.run(
        [sys.executable, "-c", SPAN_SCRIPT, str(TRACING), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    spans = json.loads(done.stdout.splitlines()[-1])  # after dimension's own line
    tops = [i for i, (name, _) in enumerate(spans) if name.startswith("cli.")
            and name != "cli.write_csv"]
    assert [spans[i][0] for i in tops] == [
        "cli.dimension", "cli.staircase", "cli.cdf", "cli.sample", "cli.correlation",
        "cli.msdiag", "cli.sde"]
    for i in tops:
        assert spans[i][1] is None
        assert [name for name, parent in spans if parent == i].count("cli.write_csv") == 1
    assert sum(name == "cli.write_csv" for name, _ in spans) == len(tops)
