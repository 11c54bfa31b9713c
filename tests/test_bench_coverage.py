"""The benchmark's tracer still sees every layer of the program.

``perfbench/tracing.py`` measures per-layer time by wrapping named entry
points.  If a refactor renames one of them, or binds it so that the wrapper
is never called, the per-layer metrics go quietly blind.  This test runs one
tiny call of each CLI command under the tracer and requires every entry point
to resolve and every layer to record at least one span.  ``main`` is looked
up on the module at call time, as the benchmark does, so its wrapper runs.
"""

import importlib.util
from pathlib import Path

import archcredit.cli as cli

ROOT = Path(__file__).resolve().parent.parent
DESK = str(ROOT / "tests" / "golden" / "desk.json")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_records_spans(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        codes = [
            cli.main(["estimate", "--config", DESK, "--method", "naive", "--method",
                      "importance", "--method", "conditional", "--m", "50", "--seed", "1"]),
            cli.main(["es", "--config", DESK, "--m", "500", "--seed", "2"]),
            cli.main(["asymptotic", "--config", DESK, "--es"]),
        ]
    capsys.readouterr()
    assert codes == [0, 0, 0]
    assert tracer.missing == []
    summary = tracing.summarize(tracer.spans())
    silent = [layer for layer in tracing.LAYERS if summary[layer]["calls"] == 0]
    assert silent == []
