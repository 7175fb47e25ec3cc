"""The workloads of the flow benchmark.

Each workload is a closed loop driven from one client.  ``setup()``
builds its inputs and ends with one untimed warm-up op; a run sets up
several times, and the seeded streams (ECO deltas, TPE seeds) carry on
across set-ups.  ``step(op_span)`` runs one unit of work and returns the
latency of every op in it (the timed interval sits inside ``op_span()``,
which is given only on traced steps) together with what :meth:`check`
needs; ``check()`` verifies that output outside the timed interval and
returns the number of failed ops; ``finish()`` runs the checks at the
end of a set-up.  ``quality`` holds the run's quality numbers, fixed
for a seed.

The designs are the fixed Table-II instances (generator seed 0).  The
seed drives the ECO delta stream and the TPE sampler.  The flow op takes
no seed: one PUFFER run is deterministic, and any change to its input
(another netlist instance, another initial-placement jitter) moves its
op time by up to 20% and its HOF by 2x, which would bury a code change
under input variation.  Every flow run therefore repeats the same op.
"""

from __future__ import annotations

import asyncio
import copy
import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np

from repro import api
from repro.benchgen import make_design
from repro.eco import AddCell, EcoSession, RemoveCell, ResizeCell, nets_of_cells
from repro.legalizer import DEFAULT_AREA_CAP
from repro.placer import PlacementParams
from repro.serve import LocalServiceHost, ServiceConfig
from repro.verify import VerifyContext, run_checkers

#: Design scales: ops of about 1 s (CT_TOP, 1.3k cells), 0.1 s (an
#: OR1200 delta, 512 cells) and 1 s (an OR1200 trial on two busy shards)
#: on a 2-vCPU x86 VM.
FLOW_SCALE = 0.001
ECO_SCALE = 0.004
EXPLORE_SCALE = 0.002

#: Shards of the in-process placement service (one per core).
SHARDS = 2

#: Scratch space of the benchmark, inside the checkout.
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _quality(hpwl, report) -> dict:
    """The quality numbers of one placed-and-routed result.

    ``best_loss`` of a single placement is the exploration objective's
    loss with that placement as its own wirelength reference: its
    total overflow.
    """
    return {
        "hpwl": float(hpwl),
        "routed_wl": float(report.wirelength),
        "hof": float(report.hof),
        "vof": float(report.vof),
        "best_loss": float(report.total_overflow),
    }


class FlowWorkload:
    """``api.run(design, "puffer", route=True)`` on one suite design.

    The design is generated once per set-up and every op restores the
    snapshot taken then, so every op does identical work and must
    reproduce the first warm-up op's quality bit for bit.
    """

    min_steps = 1

    def __init__(self, design: str) -> None:
        self.design_name = design
        self.config = api.RunConfig(scale=FLOW_SCALE)
        self.quality = None
        self.design = None

    def setup(self) -> None:
        self.design = make_design(self.design_name, FLOW_SCALE)
        self.snapshot = self.design.snapshot_positions()
        _, result = self.step()
        if self.check(result):
            raise RuntimeError(f"{self.design_name}: warm-up op failed its check")

    def teardown(self) -> None:
        self.design = None

    def step(self, op_span=None):
        self.design.restore_positions(*self.snapshot)
        with _timed(op_span) as clock:
            result = api.run(self.design, "puffer", self.config, route=True)
        return [clock.seconds], result

    def check(self, result) -> int:
        report = result.route_report
        if report is None:
            return 1
        flow = result.flow_result
        verdict = run_checkers(
            VerifyContext(
                design=result.design,
                pad=flow.padding,
                padded_widths=flow.legal_widths,
                area_cap=DEFAULT_AREA_CAP,
                grid=report.grid,
                demand=report.demand,
                route_report=report,
            ),
            level="cheap",
        )
        quality = _quality(result.hpwl, report)
        if self.quality is None:
            self.quality = quality
        return int(not verdict.ok or quality != self.quality)

    def finish(self) -> int:
        return 0


class EcoWorkload:
    """``EcoSession.apply(delta)`` on OR1200 from a seeded delta stream.

    Deltas are small geometric edits on the local-repair path: resizes
    and buffer inserts.  One step applies an edit and then the delta
    that reverts it, two ops, so traced and untraced steps cover the
    same mix of deltas.  Windowed rerouting lets the routing state
    wander (total overflow drifts between about 0.1 and 0.5 over a
    hundred deltas, and the delta cost with it), so the timed deltas
    start from a copy of the converged cold start, and every
    ``SEGMENT`` steps the session goes back to it.  The quality numbers
    are read at the end of the first segment of the run.
    """

    SEGMENT = 5
    min_steps = SEGMENT

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.serial = 0
        self.revert = None
        self.session = None
        self.quality = None
        self.results: list = []

    def setup(self) -> None:
        self.session = EcoSession(
            "OR1200", config=api.RunConfig(scale=ECO_SCALE)
        )
        self.session.start()
        self.converged = copy.deepcopy(self.session)
        self.pairs = 0
        _, results = self.step()  # warm-up: one edit and its revert
        if self._failures(results):
            raise RuntimeError("OR1200: warm-up delta failed its check")
        self.session = copy.deepcopy(self.converged)
        self.pairs = 0

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def _std_cell(self) -> int:
        d = self.session.design
        return int(self.rng.choice(np.flatnonzero(d.movable & ~d.is_macro)))

    def next_delta(self):
        """The next delta: an edit drawn from the stream, or the revert of
        the previous edit.  Pairing each edit with its revert keeps the
        session near its converged state, so every delta of a run (and of
        every seed) works on the same design."""
        d = self.session.design
        if self.revert is not None:
            delta, self.revert = self.revert(d), None
            return delta
        tech = d.technology
        cell = self._std_cell()
        if self.rng.random() < 0.2:
            nets = nets_of_cells(d, [cell])
            picked = self.rng.choice(nets, size=min(2, len(nets)), replace=False)
            name = f"eco_buf_{self.serial}"
            self.serial += 1
            self.revert = lambda d: RemoveCell(cell=d.cell_names.index(name))
            return AddCell(
                name=name, width=2 * tech.site_width, height=tech.row_height,
                x=float(d.x[cell]), y=float(d.y[cell]),
                nets=[d.net_names[int(n)] for n in picked],
            )
        width = float(d.w[cell])
        sites = max(1, round(width * self.rng.uniform(0.8, 1.3) / tech.site_width))
        self.revert = lambda d: ResizeCell(cell=cell, width=width)
        return ResizeCell(cell=cell, width=sites * tech.site_width)

    def step(self, op_span=None):
        if self.pairs and self.pairs % self.SEGMENT == 0:
            self.session = copy.deepcopy(self.converged)
        self.pairs += 1
        latencies, results = [], []
        for _ in range(2):  # the edit, then its revert
            delta = self.next_delta()
            with _timed(op_span) as clock:
                results.append(self.session.apply(delta))
            latencies.append(clock.seconds)
        return latencies, results

    def _failures(self, results) -> int:
        version = self.session.version - len(results)
        failed = 0
        for result in results:
            version += 1
            values = [result.hpwl, result.wirelength, result.hof, result.vof]
            failed += not (result.version == version and np.isfinite(values).all())
        return failed

    def check(self, results) -> int:
        self.results += results
        if self.quality is None and len(self.results) == 2 * self.SEGMENT:
            self.quality = _quality(results[-1].hpwl, self.session.route_report)
        return self._failures(results)

    def finish(self) -> int:
        return int(not self.session.verify("cheap").ok)


class ExploreWorkload:
    """A TPE exploration through an in-process two-shard service.

    One op is one trial, from submit to result, read off the public
    ``Job`` records.  Each step runs one whole exploration; the i-th
    untraced exploration of a run samples with TPE seed ``1000 * seed +
    i``, so a run's latencies cover many distinct trials, and a traced
    step replays the seed of the untraced step before it, so traced and
    untraced latencies compare the same trials.  The quality numbers
    are medians over the trials of the first ``QUALITY_EXPLORATIONS``
    untraced explorations: the trials of one exploration move with its
    TPE seed, their median over several explorations much less.
    """

    QUALITY_EXPLORATIONS = 4
    min_steps = 1

    def __init__(self, seed: int) -> None:
        self.config = api.ExploreConfig(
            design="OR1200", scale=EXPLORE_SCALE, budget=4, group_evals=2,
            max_group_rounds=1, seed=1000 * seed, batch_size=SHARDS,
            priors="off",
        )
        self.host = None
        self.progress_dir = None
        self.quality = None
        self.explorations: list = []
        self.seeds_drawn = 0
        self._sampled: list = []

    def _submit(self, placement_seed: int):
        wire = api.RunConfig(
            scale=EXPLORE_SCALE, placement=PlacementParams(seed=placement_seed)
        ).to_dict()
        return self._call(self.host.client.submit(
            self.config.design, config=wire, route=True
        ))

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.host.loop).result()

    def setup(self) -> None:
        # The shards' progress files stay inside the checkout.
        os.makedirs(OUT, exist_ok=True)
        self.progress_dir = tempfile.mkdtemp(prefix="progress-", dir=OUT)
        self.host = LocalServiceHost(
            ServiceConfig(shards=SHARDS, capacity=4 * SHARDS,
                          progress_dir=self.progress_dir)
        ).__enter__()
        # One warm-up job per shard: both idle shard workers take one.
        jobs = [self._submit(seed) for seed in range(SHARDS)]
        finals = [self._call(self.host.client.wait(job.id)) for job in jobs]
        if any(job.state != "done" for job in finals):
            raise RuntimeError("warm-up job failed")
        self.warm_shards = sorted(job.shard for job in finals)

    def teardown(self) -> None:
        try:
            if self.host is not None:
                self.host.__exit__(None, None, None)
        finally:
            self.host = None
            if self.progress_dir is not None:
                shutil.rmtree(self.progress_dir, ignore_errors=True)

    def step(self, op_span=None):
        fresh = op_span is None
        self.seeds_drawn += fresh
        config = replace(
            self.config, seed=self.config.seed + self.seeds_drawn - 1
        )
        evaluator = self.host.evaluator(config)
        before = len(self.host.service.jobs())
        with _timed(op_span) as clock:
            outcome = api.run_exploration(config, evaluator=evaluator)
        jobs = self.host.service.jobs()[before:]
        self.explorations.append((clock.seconds, jobs, not fresh))
        latencies = [job.finished_at - job.submitted_at for job in jobs]
        return latencies, (outcome, jobs, fresh)

    def check(self, result) -> int:
        outcome, jobs, fresh = result
        trials = outcome.trials
        bad = sum(
            job.state != "done" or not (job.result or {}).get("route")
            for job in jobs
        )
        global_trials = sum(trial.stage == "global" for trial in trials)
        if (bad or len(trials) != outcome.wire.evaluations
                or len(trials) != len(jobs)
                or global_trials != self.config.budget):
            return max(bad, 1)
        if fresh and len(self._sampled) < self.QUALITY_EXPLORATIONS:
            self._sampled.append((outcome, jobs))
            if len(self._sampled) == self.QUALITY_EXPLORATIONS:
                self.quality = self._median_quality()
        return 0

    def _median_quality(self) -> dict:
        routes = [job.result["route"] for _, jobs in self._sampled for job in jobs]
        return {
            "hpwl": statistics.median(
                job.result["hpwl"] for _, jobs in self._sampled for job in jobs),
            "routed_wl": statistics.median(r["wirelength"] for r in routes),
            "hof": float(statistics.median(r["hof"] for r in routes)),
            "vof": float(statistics.median(r["vof"] for r in routes)),
            "best_loss": float(statistics.median(
                outcome.wire.best_loss for outcome, _ in self._sampled)),
        }

    def finish(self) -> int:
        return 0


class _Clock:
    seconds = 0.0


@contextmanager
def _timed(op_span):
    """Time the enclosed block, inside the traced root span if given."""
    clock = _Clock()
    with op_span() if op_span is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            yield clock
        finally:
            clock.seconds = time.perf_counter() - t0


def make(name: str, seed: int):
    """The workload called ``name``, with inputs drawn from ``seed``."""
    if name == "flow_ct_top":
        return FlowWorkload("CT_TOP")
    if name == "eco_or1200":
        return EcoWorkload(seed)
    if name == "explore_served":
        return ExploreWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

