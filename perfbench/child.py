"""One measured process; the runner starts a fresh one for every child.

    child.py setup CPU INPUTS CONFIG OUT
        Cold start to ready: import agentdesk, load the config, then run
        `run_backtest`'s own opening (price, news and filing ingestion,
        the keyword table, the three providers) and stop it there. Prints
        the phase timings as one JSON line.

    child.py run CPU INPUTS CONFIG OUT TRACE SECONDS
        Runs backtests one after another for SECONDS (at least one); each
        is replayed and its SFT samples exported. With TRACE=1 every layer
        call is wrapped in a span. Prints, per backtest, the measurements,
        the artifact digests and (traced) the per-layer totals, as one JSON
        line.

Each child first pins itself to CPU and times its sections with a
`Speedometer` (see run.py). A set-up child imports only the standard
library before its clock starts, so the timed import is the program's
own.
"""

import math
import os
import resource
import signal
import sys
from time import perf_counter, thread_time


def _check_source(agentdesk) -> None:
    """Refuse to measure an agentdesk that is not the checkout's own."""
    from pathlib import Path

    want = Path(__file__).resolve().parent.parent / "src" / "agentdesk"
    if Path(agentdesk.__file__).resolve().parent != want:
        raise SystemExit(f"agentdesk imported from {agentdesk.__file__}, expected {want}")


class _Ready(Exception):
    """Raised once `run_backtest` has built its last provider."""


def _inputs(inputs: str) -> dict:
    return {
        "news_path": f"{inputs}/news.jsonl" if os.path.exists(f"{inputs}/news.jsonl") else None,
        "reports_dir": f"{inputs}/reports" if os.path.exists(f"{inputs}/reports") else None,
    }


def setup(cpu: int, inputs: str, config: str, out: str) -> dict:
    """Times the program's own opening: `run_backtest` is called and
    stopped by an exception as soon as its three provider factories have
    returned, before the day loop writes anything."""
    speed = Speedometer(cpu).start()
    begin = speed.reading()
    import agentdesk
    from agentdesk import backtest
    from agentdesk.config import load_config
    done_import = speed.reading()
    from perfbench import spans
    t_cfg = speed.reading()

    cfg = load_config(config)
    done_cfg = perf_counter()
    tracer = spans.Tracer()
    built = []

    def stopping(factory):
        def make(*args, **kwargs):
            provider = factory(*args, **kwargs)
            built.append(provider)
            if len(built) == 3:
                raise _Ready
            return provider
        return make

    with spans.patched([(backtest, name, stopping(getattr(backtest, name))) for name in (
            "make_chat_provider", "make_embedding_provider", "make_reranker_provider")]):
        with spans.layer_wrappers(tracer):
            try:
                backtest.run_backtest(cfg, f"{inputs}/prices.csv", out, **_inputs(inputs))
            except _Ready:
                ready = speed.reading()
            else:
                raise SystemExit("run_backtest did not build three providers")
    speed.stop()
    _check_source(agentdesk)
    phases = {s.name: (s.end - s.start) * 1e3 for s in tracer.spans}
    # The import of the benchmark's own tracing module is not part of the
    # start-up.
    whole, aside = section(begin, ready), section(done_import, t_cfg)
    return {
        **{key: whole[key] - aside[key] for key in whole},
        "import_ms": section(begin, done_import)["wall_s"] * 1e3,
        "load_config_ms": (done_cfg - t_cfg[0]) * 1e3,
        "load_price_csv_ms": phases.get("marketdata.load_price_csv", 0.0),
        "load_news_jsonl_ms": phases.get("retrieval.load_news_jsonl", 0.0),
    }


def artifact_digests(run_dir) -> dict:
    """sha256 over every artifact (name and bytes), with and without the
    resolved config copy, which names the provider endpoint."""
    import hashlib

    full, no_config = hashlib.sha256(), hashlib.sha256()
    for p in sorted(run_dir.iterdir()):
        part = p.name.encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest()
        full.update(part)
        if p.name != "config.yaml":
            no_config.update(part)
    return {"digest": full.hexdigest(), "digest_without_config": no_config.hexdigest()}


# Minimum time spent re-running the read side after each backtest.
EXPORT_SECONDS = 1.0
EXPORT_STEPS = ("replay", "load_trajectories", "filter_sft", "emit_sft")
# Process CPU time between two speed probes, and the probe's loop length.
PROBE_INTERVAL_S = 0.002
PROBE_ITERATIONS = 200


def probe_loop() -> None:
    """A fixed interpreter-bound loop (dict and list updates, string
    formatting, float math) of about 0.1 ms. It shares no code with the
    program, so a change to the program can move its time only through
    the state it leaves in the caches."""
    counts: dict[int, float] = {}
    parts = []
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        k = i % 37
        counts[k] = counts.get(k, 0.0) + i * 0.5
        parts.append(f"{k}:{i}")
        acc += math.sqrt(i)
    "".join(parts)


def cpu_seconds() -> float:
    """CPU time of every thread of this process, ended ones included.
    (`time.process_time` is coarse while a CPU-time itimer is armed.)"""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def idle_seconds(cpu: int) -> float:
    """Time the kernel has counted `cpu` as idle, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(f"cpu{cpu} "):
                fields = line.split()
                return (int(fields[4]) + int(fields[5])) / os.sysconf("SC_CLK_TCK")
    raise RuntimeError(f"no cpu{cpu} line in /proc/stat")


class Speedometer:
    """Samples how fast the CPU runs this process while the program runs.

    Every `PROBE_INTERVAL_S` of process CPU time a SIGPROF handler times
    one `probe_loop` in thread CPU time, which, like the program's CPU
    time, leaves out the time other processes had the CPU but not the
    time the hypervisor took it away. `reading()` returns running totals;
    `section` turns two readings into the figures of the section between.
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.probes = 0
        self.probe_wall = 0.0
        self.probe_cpu = 0.0

    def _probe(self, signum, frame) -> None:
        w0, c0 = perf_counter(), thread_time()
        probe_loop()
        self.probe_cpu += thread_time() - c0
        self.probe_wall += perf_counter() - w0
        self.probes += 1

    def start(self) -> "Speedometer":
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def reading(self) -> tuple:
        return (perf_counter(), cpu_seconds(), idle_seconds(self.cpu),
                self.probes, self.probe_wall, self.probe_cpu)


def section(begin, end) -> dict:
    """Between two readings: the program's own wall and CPU time, probes
    taken out; the time its CPU sat idle, i.e. the program waited and
    nothing else ran; and the probes' count and summed CPU time."""
    wall, cpu, idle, probes, probe_wall, probe_cpu = (b - a for a, b in zip(begin, end))
    return {"wall_s": wall - probe_wall, "cpu_s": cpu - probe_cpu, "idle_s": idle,
            "probes": probes, "probe_cpu_s": probe_cpu}


def export(run_dir, sft_path, min_seconds: float, best: dict[str, float]) -> int:
    """`replay` plus the export-sft path, repeated until `min_seconds` have
    passed. Lowers `best[step]` to each step's fastest time; returns the
    number of passes."""
    from agentdesk import backtest
    from agentdesk.datasynth import emit_sft, filter_sft, load_trajectories

    start = perf_counter()
    passes = 0
    while not passes or perf_counter() - start < min_seconds:
        t0 = perf_counter()
        backtest.replay(run_dir)
        t1 = perf_counter()
        records = load_trajectories(run_dir / backtest.TRAJECTORIES_FILE)
        t2 = perf_counter()
        samples = filter_sft(records)
        t3 = perf_counter()
        emit_sft(samples, sft_path)
        t4 = perf_counter()
        for step, took in zip(EXPORT_STEPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            best[step] = min(best.get(step, took), took)
        passes += 1
    return passes


def run(cpu: int, inputs: str, config: str, out: str, trace: bool, seconds: float) -> dict:
    """Backtests into OUT/rep-N, one after another in this process, until
    `seconds` have passed; never starts one expected to end later.

    Each backtest is timed from the moment its last provider is built to
    its return, so its set-up is left out; the export passes after it
    are timed together. Both come with the speed probes taken meanwhile.
    """
    import gc
    import shutil
    from pathlib import Path

    import agentdesk
    from agentdesk import backtest
    from agentdesk.config import load_config

    from perfbench import spans

    _check_source(agentdesk)
    cfg = load_config(config)
    kwargs = _inputs(inputs)
    speed = Speedometer(cpu).start()
    reps: list[dict] = []
    best_export: dict[str, float] = {}
    peak_rss_mb = 0.0
    start = perf_counter()
    last = 0.0
    while not reps or perf_counter() - start + last <= seconds:
        began = perf_counter()
        out_dir = Path(out) / f"rep-{len(reps)}"
        tracer = spans.Tracer()
        recorder = (spans.CallRecorder(tracer, speed.reading) if trace
                    else spans.CallCounter(speed.reading))
        with spans.provider_proxies(recorder):
            if trace:
                with spans.layer_wrappers(tracer):
                    with tracer.span("backtest.run_backtest"):
                        arts = backtest.run_backtest(cfg, f"{inputs}/prices.csv", out_dir, **kwargs)
                    end = speed.reading()
                    with tracer.span("backtest.replay"):
                        backtest.replay(out_dir)
            else:
                arts = backtest.run_backtest(cfg, f"{inputs}/prices.csv", out_dir, **kwargs)
                end = speed.reading()
        if not reps:
            # The first backtest's peak; later ones reuse its freed memory.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        rep = {
            "days": len(arts.trades),
            **section(recorder.ready, end),
            "provider_calls": dict(recorder.calls),
            "trajectory_bytes": (out_dir / backtest.TRAJECTORIES_FILE).stat().st_size,
            "records": len(arts.records),
            # run_backtest calls risk.evaluate_position on exactly the
            # days that begin with shares held, and only then.
            "held_days": len({r.date for r in arts.records if r.account_snapshot.shares > 0})
            if cfg.flags.risk_management else 0,
            **artifact_digests(out_dir),
        }
        # The export path runs in its own process in real use: start it
        # from a heap without this backtest's objects.
        del arts
        gc.collect()
        export_start = speed.reading()
        passes = export(out_dir, Path(out) / "sft.jsonl", EXPORT_SECONDS, best_export)
        rep["export"] = dict(section(export_start, speed.reading()), passes=passes)
        if trace:
            durations = sorted(d * 1e3 for d in recorder.durations) or [0.0]
            rep["layers"] = layer_totals(tracer)
            rep["providers"] = {
                "distinct": len(recorder.digests),
                "retries": recorder.retries,
                "failures": recorder.failures,
                "busy_ms": sum(durations),
                "p50_ms": durations[(len(durations) - 1) // 2],
                "p99_ms": durations[min(len(durations) - 1, -(-len(durations) * 99 // 100) - 1)],
            }
        shutil.rmtree(out_dir)
        reps.append(rep)
        last = perf_counter() - began
    speed.stop()
    return {
        "peak_rss_mb": peak_rss_mb,
        "best_export_s": best_export,
        "reps": reps,
    }


def layer_totals(tracer) -> dict:
    """Per root span (run_backtest, replay): its wall time, the overlap of
    concurrent children, the number of spans that never ended, and per
    span name the summed self time, summed duration and call count."""
    import math

    from perfbench import spans

    all_spans = tracer.spans
    selfs = spans.self_times(all_spans)
    overlaps = spans.overlap_times(all_spans)
    out = {}
    for root, s in enumerate(all_spans):
        if s.parent is not None:
            continue
        tree = sorted(spans.descendants(all_spans, root))
        names: dict[str, dict] = {}
        for i in tree:
            entry = names.setdefault(all_spans[i].name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            entry["self_s"] += selfs[i]
            entry["total_s"] += all_spans[i].end - all_spans[i].start
            entry["calls"] += 1
        out[s.name] = {
            "wall_s": s.end - s.start,
            "overlap_s": sum(overlaps[i] for i in tree),
            "unfinished": sum(1 for i in tree if not math.isfinite(all_spans[i].end)),
            "names": names,
        }
    return out


def main(argv: list[str]) -> int:
    import json

    mode, cpu, args = argv[0], int(argv[1]), argv[2:]
    os.sched_setaffinity(0, {cpu})
    if mode == "setup":
        result = setup(cpu, *args)
    elif mode == "run":
        inputs, config, out, trace, seconds = args
        result = run(cpu, inputs, config, out, trace == "1", float(seconds))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
