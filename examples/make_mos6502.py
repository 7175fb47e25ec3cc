#!/usr/bin/env python3
"""Regenerate ``examples/mos6502_mapped.json`` deterministically.

The file is a synthetic 6502-class CPU netlist in Yosys ``write_json``
format: the real register/bus/ALU skeleton of a MOS 6502 (A/X/Y/SP/
PC/IR/P registers, an 8-bit ripple ALU, PC increment, address and data
output registers) with seeded-random combinational clouds standing in
for the decode ROM and control PLA, mapped onto sky130-style cell
names.  It is *not* a synthesized 6502 — it is a structurally honest
stand-in with the right port list, register set, and netlist shape for
exercising the Yosys frontend and the PUFFER place-and-route flow.

Run from the repository root:

    python examples/make_mos6502.py

The output is bit-identical across runs (seeded RNG, ordered dicts).
"""

from __future__ import annotations

import json
import os
import random

SEED = 6502
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mos6502_mapped.json")

# (type, input port names); output port is always the last single bit.
GATES = [
    ("sky130_fd_sc_hd__inv_1", ("A",), "Y", 4),
    ("sky130_fd_sc_hd__buf_1", ("A",), "X", 2),
    ("sky130_fd_sc_hd__nand2_1", ("A", "B"), "Y", 6),
    ("sky130_fd_sc_hd__nor2_1", ("A", "B"), "Y", 4),
    ("sky130_fd_sc_hd__and2_1", ("A", "B"), "X", 2),
    ("sky130_fd_sc_hd__or2_1", ("A", "B"), "X", 2),
    ("sky130_fd_sc_hd__nand3_1", ("A", "B", "C"), "Y", 2),
    ("sky130_fd_sc_hd__xor2_1", ("A", "B"), "X", 2),
    ("sky130_fd_sc_hd__xnor2_1", ("A", "B"), "Y", 1),
    ("sky130_fd_sc_hd__a21oi_1", ("A1", "A2", "B1"), "Y", 2),
    ("sky130_fd_sc_hd__o21ai_1", ("A1", "A2", "B1"), "Y", 2),
]


class Netlist:
    def __init__(self) -> None:
        self.rng = random.Random(SEED)
        self.next_bit = 2  # Yosys reserves low ids for constants
        self.ports = {}
        self.cells = {}
        self.netnames = {}
        self.cell_count = 0

    def bits(self, n: int) -> list:
        out = list(range(self.next_bit, self.next_bit + n))
        self.next_bit += n
        return out

    def input(self, name: str, width: int = 1) -> list:
        b = self.bits(width)
        self.ports[name] = {"direction": "input", "bits": b}
        self.netnames[name] = {"hide_name": 0, "bits": b, "attributes": {}}
        return b

    def output(self, name: str, bits: list) -> None:
        self.ports[name] = {"direction": "output", "bits": bits}
        self.netnames[name] = {"hide_name": 0, "bits": bits, "attributes": {}}

    def cell(self, ctype: str, conns: dict, dirs: dict) -> None:
        name = f"_{self.cell_count:05d}_"
        self.cell_count += 1
        self.cells[name] = {
            "hide_name": 1,
            "type": ctype,
            "parameters": {},
            "attributes": {},
            "port_directions": dirs,
            "connections": conns,
        }

    def gate(self, pool: list) -> int:
        ctype, ins, out_port, weight = self.rng.choices(
            GATES, weights=[g[3] for g in GATES]
        )[0]
        picks = [self.rng.choice(pool) for _ in ins]
        out = self.bits(1)[0]
        conns = {p: [b] for p, b in zip(ins, picks)}
        conns[out_port] = [out]
        dirs = {p: "input" for p in ins}
        dirs[out_port] = "output"
        self.cell(ctype, conns, dirs)
        return out

    def cloud(self, sources: list, n_gates: int, locality: int = 12) -> list:
        """Random logic cloud; returns its output bits (newest last)."""
        pool = list(sources)
        outs = []
        for _ in range(n_gates):
            window = pool[-max(locality, len(sources)) :]
            out = self.gate(window)
            pool.append(out)
            outs.append(out)
        return outs

    def dff(self, d: int, clk: int) -> int:
        q = self.bits(1)[0]
        self.cell(
            "sky130_fd_sc_hd__dfxtp_1",
            {"CLK": [clk], "D": [d], "Q": [q]},
            {"CLK": "input", "D": "input", "Q": "output"},
        )
        return q

    def register(self, name: str, d_bits: list, clk: int) -> list:
        q = [self.dff(d, clk) for d in d_bits]
        self.netnames[name] = {"hide_name": 0, "bits": q, "attributes": {}}
        return q

    def mux(self, a: int, b: int, s: int) -> int:
        out = self.bits(1)[0]
        self.cell(
            "sky130_fd_sc_hd__mux2_1",
            {"A0": [a], "A1": [b], "S": [s], "X": [out]},
            {"A0": "input", "A1": "input", "S": "input", "X": "output"},
        )
        return out

    def buf(self, a: int, drive: int = 2) -> int:
        out = self.bits(1)[0]
        self.cell(
            f"sky130_fd_sc_hd__buf_{drive}",
            {"A": [a], "X": [out]},
            {"A": "input", "X": "output"},
        )
        return out

    def full_adder(self, a: int, b: int, cin: int) -> tuple:
        s, cout = self.bits(2)
        self.cell(
            "sky130_fd_sc_hd__fa_1",
            {"A": [a], "B": [b], "CIN": [cin], "SUM": [s], "COUT": [cout]},
            {
                "A": "input",
                "B": "input",
                "CIN": "input",
                "SUM": "output",
                "COUT": "output",
            },
        )
        return s, cout


def build() -> dict:
    n = Netlist()
    clk = n.input("clk")[0]
    rst_n = n.input("rst_n")[0]
    rdy = n.input("rdy")[0]
    irq_n = n.input("irq_n")[0]
    nmi_n = n.input("nmi_n")[0]
    so_n = n.input("so_n")[0]
    data_in = n.input("data_in", 8)

    ctrl_in = [rst_n, rdy, irq_n, nmi_n, so_n]

    # Instruction register: data bus through a small input cloud.
    ir_d = n.cloud(data_in + [rdy], 16)[-8:]
    ir = n.register("IR", ir_d, clk)

    # Timing state (T0..T6 one-hot-ish: 3 encoded bits + decode).
    t_d = n.cloud(ir + ctrl_in, 10)[-3:]
    t = n.register("T", t_d, clk)

    # Decode / control PLA stand-in: the big cloud.
    control = n.cloud(ir + t + ctrl_in, 170, locality=16)

    # Processor status register P (7 architectural flags).
    p_d = n.cloud(control[-24:] + [so_n], 14)[-7:]
    p = n.register("P", p_d, clk)

    # ALU input muxes: operand A from registers, operand B from data bus.
    def bus(name: str, sources: list, selects: list) -> list:
        out = []
        for i in range(8):
            picked = sources[0][i]
            for src, sel in zip(sources[1:], selects):
                picked = n.mux(picked, src[i], sel)
            out.append(picked)
        n.netnames[name] = {"hide_name": 0, "bits": out, "attributes": {}}
        return out

    # Architectural registers (fed back through the ALU result bus below;
    # seed their D inputs with placeholder clouds first, then rewire via
    # muxes — structurally we just wire D from the result bus).
    a_reg = n.register("A", n.cloud(data_in + control[:8], 8)[-8:], clk)
    x_reg = n.register("X", n.cloud(data_in + control[8:16], 8)[-8:], clk)
    y_reg = n.register("Y", n.cloud(data_in + control[16:24], 8)[-8:], clk)
    sp_reg = n.register("SP", n.cloud(data_in + control[24:32], 8)[-8:], clk)

    sb_bus = bus("SB", [a_reg, x_reg, y_reg, sp_reg], control[32:35])
    db_bus = bus("DB", [data_in, a_reg], control[35:36])

    # 8-bit ripple-carry ALU.
    carry = p[0]
    alu = []
    for i in range(8):
        s, carry = n.full_adder(sb_bus[i], db_bus[i], carry)
        alu.append(s)
    n.netnames["ALU"] = {"hide_name": 0, "bits": alu, "attributes": {}}
    logic = [
        n.gate([sb_bus[i], db_bus[i], control[36 + i % 4]]) for i in range(8)
    ]
    alu_out = [n.mux(alu[i], logic[i], control[40]) for i in range(8)]

    return _finish(n, clk, control, alu_out, data_in, a_reg, p)


def _finish(n, clk, control, alu_out, data_in, a_reg, p):
    # Program counter: PCL/PCH with a half-adder increment chain.
    def half_adder(a: int, b: int) -> tuple:
        s, c = n.bits(2)
        n.cell(
            "sky130_fd_sc_hd__ha_1",
            {"A": [a], "B": [b], "SUM": [s], "COUT": [c]},
            {"A": "input", "B": "input", "SUM": "output", "COUT": "output"},
        )
        return s, c

    pcl_d = [n.mux(alu_out[i], data_in[i], control[44]) for i in range(8)]
    pcl = n.register("PCL", pcl_d, clk)
    carry = control[45]
    pcl_inc = []
    for i in range(8):
        s, carry = half_adder(pcl[i], carry)
        pcl_inc.append(s)
    pch_d = [n.mux(pcl_inc[i], data_in[i], control[46]) for i in range(8)]
    pch = n.register("PCH", pch_d, clk)

    # Address output registers ADL/ADH with source muxes.
    adl_d = [n.mux(pcl[i], alu_out[i], control[47]) for i in range(8)]
    adh_d = [n.mux(pch[i], data_in[i], control[48]) for i in range(8)]
    adl = n.register("ADL", adl_d, clk)
    adh = n.register("ADH", adh_d, clk)

    # Data output register.
    dor_d = [n.mux(a_reg[i], alu_out[i], control[49]) for i in range(8)]
    dor = n.register("DOR", dor_d, clk)

    # Output pads: buffered.
    n.output("addr", [n.buf(b, 4) for b in adl] + [n.buf(b, 4) for b in adh])
    n.output("data_out", [n.buf(b, 2) for b in dor])
    n.output("rw", [n.buf(n.gate(control[50:54]), 2)])
    n.output("sync", [n.buf(n.gate(control[54:58]), 2)])
    n.output("flags_dbg", [n.buf(b, 1) for b in p[:4]])

    module = {
        "attributes": {"top": 1, "src": "examples/make_mos6502.py"},
        "ports": n.ports,
        "cells": n.cells,
        "netnames": n.netnames,
    }
    return {
        "creator": "examples/make_mos6502.py (synthetic 6502-class netlist)",
        "modules": {"mos6502": module},
    }


def main() -> None:
    data = build()
    with open(OUT, "w") as f:
        json.dump(data, f, indent=1, sort_keys=False)
        f.write("\n")
    ncells = len(data["modules"]["mos6502"]["cells"])
    print(f"wrote {OUT}: {ncells} cells")


if __name__ == "__main__":
    main()
