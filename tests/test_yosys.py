"""Tests for the Yosys ``write_json`` netlist frontend."""

import json

import numpy as np
import pytest

from repro.netlist import CellLibrary, load_yosys
from repro.verify import VerifyContext, check_netlist


def _write(tmp_path, data, name="mapped.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _tiny_module():
    """clk -> two DFFs through an inverter; one output port."""
    return {
        "attributes": {"top": 1},
        "ports": {
            "clk": {"direction": "input", "bits": [2]},
            "d": {"direction": "input", "bits": [3]},
            "q": {"direction": "output", "bits": [6]},
        },
        "cells": {
            "ff0": {
                "type": "sky130_fd_sc_hd__dfxtp_1",
                "port_directions": {"CLK": "input", "D": "input", "Q": "output"},
                "connections": {"CLK": [2], "D": [3], "Q": [4]},
            },
            "inv0": {
                "type": "sky130_fd_sc_hd__inv_1",
                "port_directions": {"A": "input", "Y": "output"},
                "connections": {"A": [4], "Y": [5]},
            },
            "ff1": {
                "type": "sky130_fd_sc_hd__dfxtp_1",
                "port_directions": {"CLK": "input", "D": "input", "Q": "output"},
                "connections": {"CLK": [2], "D": [5], "Q": [6]},
            },
        },
        "netnames": {
            "clk": {"bits": [2]},
            "d": {"bits": [3]},
            "ff0_q": {"bits": [4]},
            "inv_y": {"bits": [5]},
            "q": {"bits": [6]},
        },
    }


class TestCellLibrary:
    def test_exact_entry_wins(self):
        lib = CellLibrary(widths={"sky130_fd_sc_hd__inv_1": 9})
        assert lib.width_sites("sky130_fd_sc_hd__inv_1") == 9

    def test_inferred_widths(self):
        lib = CellLibrary()
        assert lib.width_sites("sky130_fd_sc_hd__inv_1") == 1
        # Fanin and drive strength add sites on top of the base width.
        assert lib.width_sites("sky130_fd_sc_hd__nand2_1") == 2
        assert lib.width_sites("sky130_fd_sc_hd__nand4_1") == 4
        assert lib.width_sites("sky130_fd_sc_hd__nand2_4") == 5
        assert lib.width_sites("sky130_fd_sc_hd__dfxtp_1") == 6

    def test_unknown_type_falls_back_to_default(self):
        lib = CellLibrary(default_width=7)
        assert lib.width_sites("completely_unknown!!") == 7

    def test_from_json(self, tmp_path):
        path = _write(
            tmp_path, {"default_width": 3, "widths": {"inv_1": 2}}, "lib.json"
        )
        lib = CellLibrary.from_json(path)
        assert lib.default_width == 3
        assert lib.width_sites("vendor__inv_1") == 2

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = _write(tmp_path, {"heights": {}}, "lib.json")
        with pytest.raises(ValueError, match="unknown keys"):
            CellLibrary.from_json(path)


class TestLoadYosys:
    def test_structure(self, tmp_path):
        path = _write(tmp_path, {"modules": {"tiny": _tiny_module()}})
        design = load_yosys(path)
        assert design.name == "tiny"
        # 3 cells + 3 single-bit port terminals.
        assert design.num_cells == 6
        assert int(design.movable.sum()) == 3
        # Bits 2..6 are all used -> five nets, named from netnames.
        assert design.num_nets == 5
        assert set(design.net_names) == {"clk", "d", "ff0_q", "inv_y", "q"}
        # Terminals are fixed, on the boundary, inside the die.
        found = check_netlist(VerifyContext(design=design))
        assert [v for v in found if v.severity == "error"] == []

    def test_cell_sizes_from_library(self, tmp_path):
        path = _write(tmp_path, {"modules": {"tiny": _tiny_module()}})
        design = load_yosys(path)
        tech = design.technology
        idx = {name: i for i, name in enumerate(design.cell_names)}
        assert design.w[idx["inv0"]] == pytest.approx(1 * tech.site_width)
        assert design.w[idx["ff0"]] == pytest.approx(6 * tech.site_width)
        assert np.all(design.h[design.movable] == pytest.approx(tech.row_height))

    def test_deterministic(self, tmp_path):
        path = _write(tmp_path, {"modules": {"tiny": _tiny_module()}})
        d1, d2 = load_yosys(path), load_yosys(path)
        assert d1.cell_names == d2.cell_names
        assert d1.net_names == d2.net_names
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.pin_net, d2.pin_net)

    def test_constant_bits_produce_no_net(self, tmp_path):
        module = _tiny_module()
        module["cells"]["tie0"] = {
            "type": "sky130_fd_sc_hd__nand2_1",
            "port_directions": {"A": "input", "B": "input", "Y": "output"},
            "connections": {"A": ["1"], "B": ["0"], "Y": [7]},
        }
        path = _write(tmp_path, {"modules": {"tiny": module}})
        design = load_yosys(path)
        assert design.num_nets == 6  # bit 7 only; "0"/"1" are ties

    def test_wide_port_terminal_per_bit(self, tmp_path):
        module = _tiny_module()
        module["ports"]["bus"] = {"direction": "output", "bits": [4, 5]}
        path = _write(tmp_path, {"modules": {"tiny": module}})
        design = load_yosys(path)
        assert "bus[0]" in design.cell_names
        assert "bus[1]" in design.cell_names

    def test_top_selection(self, tmp_path):
        wrapper = _tiny_module()
        del wrapper["attributes"]["top"]
        top = _tiny_module()
        path = _write(tmp_path, {"modules": {"wrap": wrapper, "cpu": top}})
        assert load_yosys(path).name == "cpu"  # attribute wins
        assert load_yosys(path, top="wrap").name == "wrap"  # explicit wins
        with pytest.raises(ValueError, match="no module 'nope'"):
            load_yosys(path, top="nope")

    def test_top_attribute_zero_is_not_top(self, tmp_path):
        a = _tiny_module()
        a["attributes"]["top"] = "00000000000000000000000000000000"
        b = _tiny_module()
        b["attributes"]["top"] = 1
        path = _write(tmp_path, {"modules": {"a": a, "b": b}})
        assert load_yosys(path).name == "b"

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_yosys(str(path))

    def test_not_a_netlist_raises(self, tmp_path):
        path = _write(tmp_path, {"cells": {}})
        with pytest.raises(ValueError, match="no 'modules'"):
            load_yosys(path)

    def test_cell_without_type_raises(self, tmp_path):
        module = _tiny_module()
        del module["cells"]["inv0"]["type"]
        path = _write(tmp_path, {"modules": {"tiny": module}})
        with pytest.raises(ValueError, match="'inv0' has no 'type'"):
            load_yosys(path)

    def test_bool_bit_raises(self, tmp_path):
        module = _tiny_module()
        module["cells"]["inv0"]["connections"]["A"] = [True]
        path = _write(tmp_path, {"modules": {"tiny": module}})
        with pytest.raises(ValueError, match="bad bit"):
            load_yosys(path)

    def test_bad_utilization_raises(self, tmp_path):
        path = _write(tmp_path, {"modules": {"tiny": _tiny_module()}})
        with pytest.raises(ValueError, match="utilization"):
            load_yosys(path, utilization=1.5)

    def test_duplicate_netname_bits_disambiguated(self, tmp_path):
        module = _tiny_module()
        # Two netname entries claiming the same name for different bits.
        module["netnames"] = {"n": {"bits": [4]}, "m": {"bits": [5]}}
        module["netnames"]["n2"] = {"bits": [2]}
        path = _write(tmp_path, {"modules": {"tiny": module}})
        design = load_yosys(path)
        assert len(set(design.net_names)) == design.num_nets
