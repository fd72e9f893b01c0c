"""The benchmark's layer tracer rebinds package names by hand; a traced run must
find the names it patches and leave every one of them as it was."""

import importlib.util
import json
import sys
from pathlib import Path

from planevar import approx, cli, geom

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name in every loaded planevar module, and the two patched methods."""
    out = {(name, key): value
           for name, module in list(sys.modules.items())
           if module is not None and (name == "planevar" or name.startswith("planevar."))
           for key, value in vars(module).items()}
    out[("Poly2", "eval_float_grid")] = approx.Poly2.__dict__["eval_float_grid"]
    out[("Triangle", "contains")] = geom.Triangle.__dict__["contains"]
    return out


def test_a_traced_exact_run_restores_every_patched_name(tmp_path, capsys):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"points": [[0, 0], [3, 1], [1, 4], [5, 2], [2, 6]],
                              "values": ["1/2", -3, 2, "5/3", 0]}))
    tracer = _load_tracer()
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert _bindings() != before            # the run below goes through the wrappers
        code = cli.main(["var", "--fn", str(fn), "--mode", "exact", "--max-len", "3"])
    finally:
        t.uninstall()
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "5"
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    # the kernel span saw every list it stepped once: 5 + 5 * 4 + 16 * 4, after
    # branch and bound dropped 4 of the 20 two-point parents (105 unpruned)
    metrics = tracer.layer_metrics(t.spans, t.probes, 1)
    assert metrics["variation.var_exact_small.lists"] == (89, "count")
