"""One campaign process: set up, then run the workload's campaign
repeatedly for a time slice and print one JSON line.

Usage (from the repository root; ``run.py`` starts it)::

    python3 perfbench/campaign_child.py <workload> <seed> <seconds> <spawned_at> <trace>

``spawned_at`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports and campaign planning up to the moment the
first replication begins.  With ``trace`` 0 every repetition runs
untraced; with 1 the repetitions alternate untraced and traced.
"""

from __future__ import annotations

import json
import sys
import time

from common import self_peak_rss_mb, use_repro_source

use_repro_source()

from repro.stats import CampaignConfig  # noqa: E402
from repro.stats import campaign as campaign_module  # noqa: E402

#: Each workload's campaign.  ``base_seed`` comes from ``--seed``.
CAMPAIGNS = {
    # EUA* alone on one core in overload: long ready sets, so σ
    # construction and decideFreq dominate.
    "campaign-overload": dict(
        load=1.6, horizon=2.0, schedulers=("EUA*",), n_replications=20,
        arrival_mode="periodic",
    ),
    # EDF on the global two-core engine at 0.8 per core with NHPP
    # arrivals: the engine's per-core pass and thinning dominate, and no
    # EUA* kernel runs.
    "campaign-global": dict(
        load=0.8, horizon=2.0, schedulers=("EDF",), n_replications=6,
        arrival_mode="nhpp-diurnal", cores=2, mp_mode="global",
    ),
}
#: Least number of campaigns a process runs, however short its slice.
MIN_CAMPAIGNS = 2


def config_for(workload: str, seed: int) -> CampaignConfig:
    return CampaignConfig(base_seed=seed, **CAMPAIGNS[workload])


def aggregates(result) -> dict:
    """The checked record: per-scheduler energy and normalised-utility
    means (exact floats) and the pooled assurance counts."""
    return {
        name: {
            "energy_mean": stats.metrics["energy"].mean,
            "normalized_utility_mean": stats.metrics["normalized_utility"].mean,
            "assurance": {a.task: [a.satisfied, a.decided] for a in stats.assurance},
        }
        for name, stats in result.schedulers.items()
    }


class ReplicationClock:
    """Times every replication through the campaign module's
    per-replication function, and marks when the first one began."""

    def __init__(self):
        self.first_start = None
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.original = campaign_module._run_replication

    def __call__(self, spec):
        start = time.monotonic()
        if self.first_start is None:
            self.first_start = start
        self.attempted += 1
        try:
            return self.original(spec)
        except BaseException:
            self.failed += 1
            raise
        finally:
            self.times.append(time.monotonic() - start)


def main(argv) -> int:
    workload, seed, seconds, spawned_at, trace = (
        argv[0], int(argv[1]), float(argv[2]), float(argv[3]), argv[4] == "1")
    config = config_for(workload, seed)
    clock = ReplicationClock()
    campaign_module._run_replication = clock
    out = {"campaign_s": [], "traced_s": [], "records": [], "layers": None}
    tracer = None
    if trace:
        from tracer import Tracer, install_campaign, layer_metrics

        tracer = Tracer()
    deadline = time.monotonic() + seconds
    runs = 0
    try:
        while runs < MIN_CAMPAIGNS or time.monotonic() < deadline:
            traced = tracer is not None and runs % 2 == 1
            if traced:
                install_campaign(tracer)
            start = time.monotonic()
            try:
                result = campaign_module.run_campaign(config, workers=1)
            finally:
                elapsed = time.monotonic() - start
                if traced:
                    tracer.uninstall()
            (out["traced_s"] if traced else out["campaign_s"]).append(elapsed)
            out["records"].append(aggregates(result))
            runs += 1
    except Exception as exc:  # reported to the parent, which fails the run
        out["error"] = f"{type(exc).__name__}: {exc}"
    out.update(
        setup_s=(clock.first_start - spawned_at) if clock.first_start else None,
        replication_s=clock.times,
        attempted=clock.attempted,
        failed=clock.failed,
        replications=config.n_replications,
        peak_rss_mb=self_peak_rss_mb(),
    )
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
