"""Placement / padding / netlist / routing invariant checkers.

Each checker is a pure function ``checker(ctx) -> list[Violation]`` over
a :class:`VerifyContext`; it inspects one invariant family and reports
structured findings instead of raising.  :func:`run_checkers` drives a
level of the registry (``"cheap"`` or ``"full"``), wraps every checker
in a ``verify/<name>`` observability span, and bumps the
``verify/violations`` counter, so a traced run records exactly which
invariants were checked and what they found.

Checkers that need inputs the context does not carry (padding arrays,
a route report) skip silently — a skipped checker does not appear in
``VerifyReport.checkers_run``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..legalizer.padding import DEFAULT_AREA_CAP
from ..netlist.design import Design
from ..router.router import wirelength_and_vias
from .violations import VerifyReport, Violation

#: Verification levels, in increasing coverage order.
LEVELS = ("off", "cheap", "full")

#: Cap on per-checker reported ids so a catastrophically broken
#: placement cannot produce a gigabyte of violations.
MAX_REPORTED = 50


@dataclass
class VerifyContext:
    """Everything the checkers may inspect.

    Only ``design`` is required; the optional fields unlock the padding
    and routing checkers.

    Attributes:
        design: the (placed) design under test.
        tolerance: geometric slack in database units.
        pad: per-cell *continuous* padding (pre-discretization).
        padded_widths: per-cell legalization footprint widths
            (``design.w`` + discrete padding).
        area_cap: padded-area budget as a fraction of movable area.
        grid: routing grid of the evaluation router.
        demand: per-direction demand maps on ``grid``.
        route_report: the router's :class:`~repro.router.RouteReport`.
    """

    design: Design
    tolerance: float = 1e-6
    pad: np.ndarray | None = None
    padded_widths: np.ndarray | None = None
    area_cap: float = DEFAULT_AREA_CAP
    grid: object | None = None
    demand: object | None = None
    route_report: object | None = None


def _std_bounds(design: Design):
    """Movable standard cells and their bounding boxes."""
    idx = np.flatnonzero(design.movable & ~design.is_macro)
    xlo = design.x[idx] - design.w[idx] / 2
    ylo = design.y[idx] - design.h[idx] / 2
    xhi = design.x[idx] + design.w[idx] / 2
    yhi = design.y[idx] + design.h[idx] / 2
    return idx, xlo, ylo, xhi, yhi


def _ids(cells) -> tuple:
    return tuple(int(c) for c in cells[:MAX_REPORTED])


def check_die_containment(ctx: VerifyContext) -> list:
    """Every movable standard cell lies fully inside the die."""
    design, die, tol = ctx.design, ctx.design.die, ctx.tolerance
    idx, xlo, ylo, xhi, yhi = _std_bounds(design)
    if len(idx) == 0:
        return []
    outside = (
        (xlo < die.xlo - tol)
        | (ylo < die.ylo - tol)
        | (xhi > die.xhi + tol)
        | (yhi > die.yhi + tol)
    )
    if not outside.any():
        return []
    bad = idx[outside]
    spill = np.maximum.reduce(
        [
            die.xlo - xlo[outside],
            die.ylo - ylo[outside],
            xhi[outside] - die.xhi,
            yhi[outside] - die.yhi,
        ]
    )
    return [
        Violation(
            checker="placement/containment",
            severity="error",
            message=f"{len(bad)} cells extend outside the die",
            cells=_ids(bad),
            measured=float(spill.max()),
            allowed=tol,
        )
    ]


def check_row_alignment(ctx: VerifyContext) -> list:
    """Movable standard cells sit exactly on a row boundary."""
    design, tol = ctx.design, ctx.tolerance
    idx, _xlo, ylo, _xhi, _yhi = _std_bounds(design)
    if len(idx) == 0:
        return []
    offset = (ylo - design.die.ylo) / design.technology.row_height
    err = np.abs(offset - np.round(offset))
    bad = err > tol
    if not bad.any():
        return []
    return [
        Violation(
            checker="placement/row_alignment",
            severity="error",
            message=f"{int(bad.sum())} cells not row-aligned",
            cells=_ids(idx[bad]),
            measured=float(err.max()),
            allowed=tol,
        )
    ]


def check_site_alignment(ctx: VerifyContext) -> list:
    """Movable standard-cell left edges fall on the site grid."""
    design, tol = ctx.design, ctx.tolerance
    idx, xlo, _ylo, _xhi, _yhi = _std_bounds(design)
    if len(idx) == 0:
        return []
    offset = (xlo - design.die.xlo) / design.technology.site_width
    err = np.abs(offset - np.round(offset))
    bad = err > tol
    if not bad.any():
        return []
    return [
        Violation(
            checker="placement/site_alignment",
            severity="error",
            message=f"{int(bad.sum())} cells not site-aligned",
            cells=_ids(idx[bad]),
            measured=float(err.max()),
            allowed=tol,
        )
    ]


def check_overlaps(ctx: VerifyContext) -> list:
    """No movable cell overlaps any other cell (movable or fixed).

    Pairs of *fixed* objects are exempt: generated designs legitimately
    place fixed power-grid cells over macro outlines, and no placement
    decision can change fixed-on-fixed geometry anyway.

    A plane sweep over x with an active interval set: near-linear on
    legal placements, worst-case quadratic only when the placement is
    badly broken (in which case reporting caps at :data:`MAX_REPORTED`
    pairs anyway).
    """
    design, tol = ctx.design, ctx.tolerance
    n = design.num_cells
    if n < 2:
        return []
    xlo = design.x - design.w / 2
    ylo = design.y - design.h / 2
    xhi = design.x + design.w / 2
    yhi = design.y + design.h / 2
    movable = design.movable
    order = np.argsort(xlo, kind="stable")
    active: list = []
    pairs: list = []
    for i in order:
        i = int(i)
        active = [j for j in active if xhi[j] > xlo[i] + tol]
        for j in active:
            if not (movable[i] or movable[j]):
                continue
            if ylo[i] < yhi[j] - tol and ylo[j] < yhi[i] - tol:
                pairs.append((j, i))
                if len(pairs) >= MAX_REPORTED:
                    break
        if len(pairs) >= MAX_REPORTED:
            break
        active.append(i)
    if not pairs:
        return []
    worst = 0.0
    for a, b in pairs:
        ox = min(xhi[a], xhi[b]) - max(xlo[a], xlo[b])
        oy = min(yhi[a], yhi[b]) - max(ylo[a], ylo[b])
        worst = max(worst, min(ox, oy))
    suffix = " (truncated)" if len(pairs) >= MAX_REPORTED else ""
    return [
        Violation(
            checker="placement/overlap",
            severity="error",
            message=f"{len(pairs)} overlapping cell pairs{suffix}",
            cells=_ids(sorted({c for pair in pairs for c in pair})),
            measured=float(worst),
            allowed=tol,
        )
    ]


def check_padding(ctx: VerifyContext) -> list:
    """Discrete padding accounting (paper Eq. 17 and the 5 % budget).

    Requires ``ctx.padded_widths``; checks that every movable standard
    cell's extra footprint is a non-negative whole-site multiple, that
    the total padded area respects ``area_cap * movable_area``, that
    zero continuous padding got zero discrete padding (when ``ctx.pad``
    is available), and that fixed cells / macros are unpadded.
    """
    if ctx.padded_widths is None:
        return []
    design, tol = ctx.design, ctx.tolerance
    widths = np.asarray(ctx.padded_widths, dtype=np.float64)
    site = design.technology.site_width
    movable = design.movable & ~design.is_macro
    extra = widths - design.w
    out: list = []

    bad = movable & (extra < -tol)
    if bad.any():
        out.append(
            Violation(
                checker="padding/accounting",
                severity="error",
                message=f"{int(bad.sum())} cells with footprint below native width",
                cells=_ids(np.flatnonzero(bad)),
                measured=float(extra[bad].min()),
                allowed=0.0,
            )
        )

    sites = extra[movable] / site
    off_grid = np.abs(sites - np.round(sites)) > tol
    if off_grid.any():
        out.append(
            Violation(
                checker="padding/accounting",
                severity="error",
                message=f"{int(off_grid.sum())} cells with non-whole-site padding",
                cells=_ids(np.flatnonzero(movable)[off_grid]),
                measured=float(np.abs(sites - np.round(sites)).max()),
                allowed=tol,
            )
        )

    padded_area = float((np.maximum(extra[movable], 0.0) * design.h[movable]).sum())
    budget = ctx.area_cap * design.movable_area
    if padded_area > budget * (1.0 + 1e-9) + tol:
        out.append(
            Violation(
                checker="padding/accounting",
                severity="error",
                message="total padded area exceeds the area budget",
                measured=padded_area,
                allowed=budget,
            )
        )

    if ctx.pad is not None:
        pad = np.asarray(ctx.pad, dtype=np.float64)
        ghost = movable & (pad <= 0.0) & (extra > tol)
        if ghost.any():
            out.append(
                Violation(
                    checker="padding/accounting",
                    severity="error",
                    message=f"{int(ghost.sum())} unpadded cells received discrete padding",
                    cells=_ids(np.flatnonzero(ghost)),
                    measured=float(extra[ghost].max()),
                    allowed=0.0,
                )
            )

    frozen = ~movable
    if frozen.any() and np.abs(extra[frozen]).max() > tol:
        bad = frozen & (np.abs(extra) > tol)
        out.append(
            Violation(
                checker="padding/accounting",
                severity="error",
                message=f"{int(bad.sum())} fixed cells / macros were padded",
                cells=_ids(np.flatnonzero(bad)),
                measured=float(np.abs(extra[frozen]).max()),
                allowed=0.0,
            )
        )
    return out


def check_netlist(ctx: VerifyContext) -> list:
    """Netlist integrity: cell sizes, fixed-cell containment, pin offsets,
    CSR structure, net degrees, floating cells and utilization."""
    design, tol = ctx.design, ctx.tolerance
    if design.num_cells == 0:
        return [
            Violation(
                checker="netlist/integrity",
                severity="error",
                message="design has no cells",
            )
        ]
    out: list = []
    flat = (design.w <= 0) | (design.h <= 0)
    if flat.any():
        out.append(
            Violation(
                checker="netlist/integrity",
                severity="error",
                message="non-positive cell dimensions",
                cells=_ids(np.flatnonzero(flat)),
            )
        )
    out.extend(_fixed_outside_die(design, tol))
    p = design.num_pins
    if p:
        if (
            design.pin_cell.min() < 0
            or design.pin_cell.max() >= design.num_cells
            or design.pin_net.min() < 0
            or design.pin_net.max() >= design.num_nets
        ):
            out.append(
                Violation(
                    checker="netlist/integrity",
                    severity="error",
                    message="dangling pin references (cell or net id out of range)",
                )
            )
            return out  # everything below indexes through these arrays

        inside = (
            np.abs(design.pin_dx) <= design.w[design.pin_cell] / 2 + tol
        ) & (np.abs(design.pin_dy) <= design.h[design.pin_cell] / 2 + tol)
        if not inside.all():
            bad_cells = np.unique(design.pin_cell[~inside])
            out.append(
                Violation(
                    checker="netlist/integrity",
                    severity="error",
                    message=f"{int((~inside).sum())} pin offsets outside the cell outline",
                    cells=_ids(bad_cells),
                )
            )

        counts = np.bincount(design.net_pins, minlength=p)
        if len(design.net_pins) != p or (counts != 1).any():
            out.append(
                Violation(
                    checker="netlist/integrity",
                    severity="error",
                    message="net CSR does not cover every pin exactly once",
                )
            )
        else:
            # pin_net must agree with the CSR grouping.
            owner = np.empty(p, dtype=np.int64)
            for net in range(design.num_nets):
                owner[design.pins_of_net(net)] = net
            mismatched = owner != design.pin_net
            if mismatched.any():
                out.append(
                    Violation(
                        checker="netlist/integrity",
                        severity="error",
                        message=f"{int(mismatched.sum())} pins whose pin_net "
                        "disagrees with the net CSR",
                        nets=_ids(np.unique(design.pin_net[mismatched])),
                    )
                )

        floating = np.flatnonzero(
            design.movable & (np.bincount(design.pin_cell, minlength=design.num_cells) == 0)
        )
        if len(floating):
            out.append(
                Violation(
                    checker="netlist/integrity",
                    severity="warning",
                    message=f"{len(floating)} movable cells with no pins",
                    cells=_ids(floating),
                )
            )

    degrees = design.net_degrees()
    thin = degrees < 2
    if thin.any():
        out.append(
            Violation(
                checker="netlist/integrity",
                severity="warning",
                message=f"{int(thin.sum())} nets with fewer than two pins",
                nets=_ids(np.flatnonzero(thin)),
                measured=float(degrees.min()) if len(degrees) else 0.0,
                allowed=2.0,
            )
        )

    util = design.movable_area / max(_free_area(design), 1e-12)
    if util > 0.95:
        over = util > 1.0
        out.append(
            Violation(
                checker="netlist/integrity",
                severity="error" if over else "warning",
                message=(
                    f"movable area exceeds free die area (util={util:.3f})"
                    if over
                    else f"very high utilization {util:.3f}"
                ),
                measured=float(util),
                allowed=1.0 if over else 0.95,
            )
        )
    return out


def _fixed_outside_die(design: Design, tol: float) -> list:
    """Fixed cells whose outline leaves the die."""
    fixed = np.flatnonzero(~design.movable)
    if len(fixed) == 0:
        return []
    die = design.die
    half_w = design.w[fixed] / 2
    half_h = design.h[fixed] / 2
    outside = (
        (design.x[fixed] - half_w < die.xlo - tol)
        | (design.y[fixed] - half_h < die.ylo - tol)
        | (design.x[fixed] + half_w > die.xhi + tol)
        | (design.y[fixed] + half_h > die.yhi + tol)
    )
    if not outside.any():
        return []
    return [
        Violation(
            checker="netlist/integrity",
            severity="error",
            message=f"{int(outside.sum())} fixed cells extend outside the die",
            cells=_ids(fixed[outside]),
        )
    ]


def _free_area(design: Design) -> float:
    """Die area minus the area of fixed objects (approximate: no dedup).

    Subtracts fixed-cell area plus the die-clipped area of placement
    blockages — blockages on layers below ``routing_layers_start``
    obstruct placement sites, not just routing tracks — so the
    utilization check fires on blockage-heavy designs.
    """
    area = design.die.area
    fixed = ~design.movable
    if fixed.any():
        area -= float((design.w[fixed] * design.h[fixed]).sum())
    routing_start = design.technology.routing_layers_start
    for blk in design.blockages:
        if blk.layer < routing_start:
            area -= blk.rect.overlap_area(design.die)
    return area


def check_routing(ctx: VerifyContext) -> list:
    """Routing accounting: demand non-negative, overflow self-consistent,
    and (when the routing state is kept) wirelength and vias equal to a
    recount of the retained routes."""
    if ctx.grid is None or ctx.demand is None:
        return []
    grid, demand = ctx.grid, ctx.demand
    out: list = []
    for direction, dmd in (("h", demand.dmd_h), ("v", demand.dmd_v)):
        if dmd.min() < -1e-9:
            out.append(
                Violation(
                    checker="routing/accounting",
                    severity="error",
                    message=f"negative {direction}-demand in {int((dmd < -1e-9).sum())} Gcells",
                    measured=float(dmd.min()),
                    allowed=0.0,
                )
            )
    for direction, cap in (("h", grid.cap_h), ("v", grid.cap_v)):
        if cap.min() < 0.0:
            out.append(
                Violation(
                    checker="routing/accounting",
                    severity="error",
                    message=f"negative {direction}-capacity in the grid",
                    measured=float(cap.min()),
                    allowed=0.0,
                )
            )
    if ctx.route_report is not None:
        hof, vof = demand.overflow_ratio(grid)
        for name, reported, recomputed in (
            ("hof", ctx.route_report.hof, hof),
            ("vof", ctx.route_report.vof, vof),
        ):
            if abs(reported - recomputed) > 1e-6 * max(1.0, abs(recomputed)):
                out.append(
                    Violation(
                        checker="routing/accounting",
                        severity="error",
                        message=f"reported {name.upper()} disagrees with the demand maps",
                        measured=float(reported),
                        allowed=float(recomputed),
                    )
                )
        state = ctx.route_report.state
        if state is not None:
            # The report totals the state's kept per-route terms; a
            # recount sums the same terms in the same order, so the two
            # must agree exactly.
            wirelength, vias = wirelength_and_vias(state.routes, state.grid)
            for name, reported, recounted in (
                ("wirelength", ctx.route_report.wirelength, wirelength),
                ("via count", ctx.route_report.via_count, vias),
            ):
                if reported != recounted:
                    out.append(
                        Violation(
                            checker="routing/accounting",
                            severity="error",
                            message=f"reported {name} disagrees with a recount "
                            "of the retained routes",
                            measured=float(reported),
                            allowed=float(recounted),
                        )
                    )
    return out


#: Ordered checker registry: name -> (checker, cheapest level that runs it).
CHECKERS = {
    "placement/containment": (check_die_containment, "cheap"),
    "placement/row_alignment": (check_row_alignment, "cheap"),
    "placement/site_alignment": (check_site_alignment, "cheap"),
    "placement/overlap": (check_overlaps, "cheap"),
    "padding/accounting": (check_padding, "cheap"),
    "netlist/integrity": (check_netlist, "full"),
    "routing/accounting": (check_routing, "full"),
}


def checkers_for(level: str) -> list:
    """Checker names enabled at ``level`` (registry order).

    Raises:
        ValueError: for a level outside :data:`LEVELS`.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown verify level {level!r}; expected one of {LEVELS}")
    if level == "off":
        return []
    if level == "cheap":
        return [n for n, (_f, lv) in CHECKERS.items() if lv == "cheap"]
    return list(CHECKERS)


def run_checkers(
    ctx: VerifyContext, level: str = "cheap", names: list | None = None
) -> VerifyReport:
    """Run the checkers enabled at ``level`` (or exactly ``names``).

    Every checker executes under a ``verify/<name>`` span with its
    violation count attached, and each finding bumps the
    ``verify/violations`` counter, so traces carry the full audit.
    Checkers missing their inputs (no padding arrays, no route report)
    are skipped and excluded from ``checkers_run``.

    Returns:
        A :class:`VerifyReport`.
    """
    selected = names if names is not None else checkers_for(level)
    report = VerifyReport()
    counter = obs.counter("verify/violations")
    for name in selected:
        fn, _lv = CHECKERS[name]
        with obs.span(f"verify/{name}") as sp:
            found = fn(ctx)
            sp.set(violations=len(found))
        skipped = not found and _checker_skipped(name, ctx)
        if skipped:
            continue
        report.checkers_run.append(name)
        if found:
            counter.inc(len(found))
            report.violations.extend(found)
    return report


def _checker_skipped(name: str, ctx: VerifyContext) -> bool:
    """Whether ``name`` could not actually inspect anything on ``ctx``."""
    if name == "padding/accounting":
        return ctx.padded_widths is None
    if name == "routing/accounting":
        return ctx.grid is None or ctx.demand is None
    return False
