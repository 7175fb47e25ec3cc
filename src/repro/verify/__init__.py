"""Correctness tooling: invariant checkers.

PUFFER's quality claims rest on properties the rest of the code only
assumes: legalized placements are overlap-free, row/site-aligned, and
inside the die; discrete padding respects the area budget; netlists are
structurally sound; and routing accounting is self-consistent.  This
package makes every one of those properties *checkable*:
:func:`run_checkers` drives the checker registry over a
:class:`VerifyContext` and returns a :class:`VerifyReport` of
structured :class:`Violation` records — no raising, no string parsing.

Entry points: ``RunConfig(verify="cheap"|"full")`` on the
:mod:`repro.api` facade and ``--verify`` on the CLI run commands.
Checkers run under ``verify/*`` observability spans and bump the
``verify/violations`` counter.
"""

from .checkers import (
    CHECKERS,
    LEVELS,
    VerifyContext,
    check_die_containment,
    check_netlist,
    check_overlaps,
    check_padding,
    check_routing,
    check_row_alignment,
    check_site_alignment,
    checkers_for,
    run_checkers,
)
from .violations import (
    SEVERITIES,
    VerificationError,
    VerifyReport,
    Violation,
)

__all__ = [
    "CHECKERS",
    "LEVELS",
    "SEVERITIES",
    "VerificationError",
    "VerifyContext",
    "VerifyReport",
    "Violation",
    "check_die_containment",
    "check_netlist",
    "check_overlaps",
    "check_padding",
    "check_routing",
    "check_row_alignment",
    "check_site_alignment",
    "checkers_for",
    "run_checkers",
]
