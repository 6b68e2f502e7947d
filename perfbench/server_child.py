"""The service under test, in its own process.

Usage (from the repository root; ``run.py`` starts it)::

    python3 perfbench/server_child.py <rate> <trace>

Hosts the load-0.8 Table-1 task set (synthesised from a fixed seed: the
service's configuration stays put while ``--seed`` varies the traffic) in a
:class:`repro.svc.SchedulerService` running EUA* on a wall clock scaled
by ``rate``, on an ephemeral loopback port.  Prints one JSON line once
it listens (port and each task's maximum utility, which the client
needs for the utility share), serves until ``POST /shutdown``, then
prints one more line: the core's counters and, with ``trace`` 1, the
per-layer metrics recorded by wrappers installed in this process.
"""

from __future__ import annotations

import asyncio
import json
import sys

from common import use_repro_source

use_repro_source()

import numpy as np  # noqa: E402

from repro.experiments import synthesize_taskset  # noqa: E402
from repro.sim import WallClock  # noqa: E402
from repro.svc import SchedulerService, ServiceCore  # noqa: E402

LOAD = 0.8
TASKSET_SEED = 11


async def serve(rate: float) -> dict:
    taskset = synthesize_taskset(LOAD, np.random.default_rng(TASKSET_SEED))
    core = ServiceCore(taskset)
    service = SchedulerService(core, clock=WallClock(rate=rate))
    await service.start()
    print(json.dumps({
        "port": service.port,
        "max_utility": {task.name: task.tuf.max_utility for task in taskset},
    }), flush=True)
    await service.serve_until_shutdown()
    return core.stats()


def main(argv) -> int:
    rate, trace = float(argv[0]), argv[1] == "1"
    tracer = None
    if trace:
        from tracer import Tracer, install_service

        tracer = Tracer()
        install_service(tracer)
    stats = asyncio.run(serve(rate))
    out = {"stats": stats}
    if tracer is not None:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(tracer)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
