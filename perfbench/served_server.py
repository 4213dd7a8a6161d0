"""Server process of ``served_mix``: one tenant behind ``ServingServer``.

Run by ``perfbench/served_mix.py`` as
``python3 -m perfbench.served_server [--trace]``.  It generates the
workload's fixed dataset, constructs the serving stack with default
settings (2 ms window, batch cap 64, 256 pending), prints one JSON line
``{"port", "t0", "gen_s"}`` (``t0`` is ``time.monotonic()`` when
construction began) and then obeys one command per stdin line:

``mark``    start the measured phase (with ``--trace``, drop the spans
            recorded so far and trace from here; without it, sample the
            reference kernel on the event loop every 0.05 s from here);
``unmark``  end the measured phase (and stop tracing or sampling);
``stop``    stop serving, print one JSON report line and exit.

Each command is acknowledged with the process CPU time and the reference
kernel's totals (``perfbench.calibrate``).

The report holds the process's peak resident memory and, with
``--trace``, the span-based per-layer metrics; the spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time

TENANT = "t0"


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def _serve(args) -> dict:
    from perfbench import layers
    from perfbench.calibrate import Calibrator
    from perfbench.common import peak_rss_mb, reset_peak_rss
    from perfbench.point_checks import spec
    from perfbench.tracing import Tracer, install_program_wrappers
    from repro.serving import ServingServer, TenantRegistry
    from repro.workloads import build_workload, install_policies

    started = time.perf_counter()
    workload = build_workload(spec())
    gen_s = time.perf_counter() - started
    gc.collect()
    reset_peak_rss()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_program_wrappers(tracer)
    t0 = time.monotonic()
    registry = TenantRegistry()
    session = registry.create(TENANT, workload.graph)
    install_policies(session.service, workload)
    server = ServingServer(registry)
    _host, port = await server.start()
    _emit({"port": port, "t0": t0, "gen_s": gen_s})

    calibrator = Calibrator()
    sampler = None

    async def sample_reference():
        while True:
            await asyncio.sleep(calibrator.every_s)
            calibrator.sample()

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    try:
        while True:
            line = (await commands.readline()).strip()
            if not line or line == b"stop":
                break
            if tracer is not None and line == b"mark":
                tracer.spans.clear()
                tracer.begin("measured")
            elif tracer is not None and line == b"unmark":
                tracer.uninstall()
            elif line == b"mark":
                sampler = asyncio.create_task(sample_reference())
            elif sampler is not None and line == b"unmark":
                sampler.cancel()
                sampler = None
            _emit({"ack": line.decode(), "cpu_s": time.process_time(), **calibrator.state()})
    finally:
        if sampler is not None:
            sampler.cancel()
        await server.stop()
    report = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.measured()
        report["per_layer"] = layers.derive_from_spans(spans, (), tracer.calls)
        report["self_time_by_layer"] = layers.self_time_by_layer(spans)
        if args.spans:
            report["spans_written"] = tracer.dump(args.spans)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.served_server")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    _emit({"report": asyncio.run(_serve(args))})
    return 0


if __name__ == "__main__":
    sys.exit(main())
