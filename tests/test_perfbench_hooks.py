"""The benchmark's tracing hooks still find what they wrap.

``perfbench/tracing.py`` wraps package functions by name and counts CSV
rows from the text ``cli.write_csv`` returns; a rename breaks it silently
until a traced run. It is loaded by path, as the harness is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fractalcalc import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
