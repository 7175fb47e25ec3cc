"""End-to-end tests over the committed 6502-class example netlist."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro import api, kernels
from repro.cli import main
from repro.netlist import load_yosys

REPO = Path(__file__).resolve().parents[1]
EXAMPLE = REPO / "examples" / "mos6502_mapped.json"
GENERATOR = REPO / "examples" / "make_mos6502.py"


def test_example_is_committed():
    assert EXAMPLE.is_file(), "examples/mos6502_mapped.json missing"


def test_generator_reproduces_committed_file():
    spec = importlib.util.spec_from_file_location("make_mos6502", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    regenerated = json.dumps(module.build(), indent=1, sort_keys=False) + "\n"
    assert regenerated == EXAMPLE.read_text()


def test_ingest_cli(capsys):
    assert main(["ingest", str(EXAMPLE)]) == 0
    out = capsys.readouterr().out
    assert "mos6502" in out
    assert "terminals" in out


def test_ingest_structure():
    design = load_yosys(str(EXAMPLE))
    assert design.name == "mos6502"
    assert int(design.movable.sum()) == 468
    assert design.num_cells - int(design.movable.sum()) == 44  # port bits
    assert design.num_nets > 400
    # Registers made it through: every DFF output bit got a net.
    assert any(name.startswith("IR") for name in design.net_names)


def test_place_puffer_cli_route_verify_full(capsys):
    code = main(
        ["place", str(EXAMPLE), "--flow", "puffer", "--route", "--verify", "full"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "puffer:" in out
    assert "legal=True" in out
    assert "0 errors" in out


@pytest.fixture(scope="module")
def puffer_runs():
    """The routed, fully verified PUFFER run under each kernel backend."""
    runs = {}
    for backend in ("vectorized", "reference"):
        with kernels.using(backend):
            runs[backend] = api.run(
                str(EXAMPLE),
                "puffer",
                api.RunConfig(verify="full"),
                route=True,
                verify_legal=True,
            )
    return runs


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
def test_api_puffer_run_verified(puffer_runs, backend):
    result = puffer_runs[backend]
    assert result.flow == "puffer"
    assert result.verify_report.ok, result.verify_report.errors
    assert result.route_report is not None
    assert result.legality.ok
    assert result.to_summary()["route"]["wirelength"] > 0


def test_api_puffer_run_bit_identical_across_backends(puffer_runs):
    vec, ref = puffer_runs["vectorized"], puffer_runs["reference"]
    assert np.array_equal(vec.design.x, ref.design.x)
    assert np.array_equal(vec.design.y, ref.design.y)
    assert vec.hpwl == ref.hpwl
