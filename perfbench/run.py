"""Benchmark runner: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The runner writes the workload's inputs from
the seed, then, for `--seconds`, starts one child process at a time
(`child.py`), alternating:

- backtest children, each running backtests one after another for about
  `CHILD_SECONDS`, every backtest followed by `replay` and the export-sft
  path;
- set-up children, `SETUP_PER_CHILD` after each backtest child, each a
  cold start timed from before `import agentdesk` until `run_backtest`'s
  own opening has built its providers; the run's first one is a
  discarded warm-up start.

The runner pins itself, the loopback server's threads and every child to
one CPU (`pin_to_one_cpu`).

Why speed probes: this benchmark runs on shared virtual machines whose
vCPUs switch between full and about half speed many times a second and
are shared with other tenants' processes, so that the same backtest took
1.2 s or 1.8 s. So every child runs a `Speedometer`: every few
milliseconds of process CPU time a SIGPROF handler times a fixed loop
that shares no code with the program. A timed section (one backtest, the
export passes after it, one cold start) is reported with its probes
taken out and its CPU time scaled by `PROBE_REF_S` over the probes' mean
time during it, i.e. as if run on a CPU of the reference speed; to that
is added, unscaled, the time its CPU sat idle meanwhile (HTTP waits),
but not the time other processes held the CPU. Then:

- every backtest is timed from the return of its last provider factory
  (the end of `run_backtest`'s set-up) to its return, whole, so every
  cost of the day loop, garbage collection included, is in it;
- the simulated-day figures are the median over the run's backtests,
  `export_records_per_s` the median over their export phases (CPU time
  only), and `setup_s` the median over the run's cold starts.

With `--trace 1` untraced and traced children alternate and the result
holds the per-layer figures and the tracing overhead instead.

Correctness, checked on every run: every backtest exits cleanly and passes
`replay`; all backtests of a run give byte-identical artifacts and the
same provider call counts; traced artifacts equal untraced ones; every
wrapped layer the workload runs (all but the workload's recorded idle
ones) is reached, every span ends, and the traced layer self times add
up to `run_backtest`'s wall time;
HTTP-loopback artifacts equal those of the same inputs under stub
providers; for the seed recorded in `reference.json`, the input and
artifact digests equal the recorded ones. Any failure makes the result
`correct: false` and the exit code 1.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"

# Time budget of one backtest child; it always runs at least one backtest.
CHILD_SECONDS = 6.0
# Set-up starts after each backtest child, and at least per run.
SETUP_PER_CHILD = 2
MIN_SETUP_SAMPLES = 9
# Fixed latency of every loopback request, from its headers to its
# answer. Small enough that a backtest covers tens of simulated days in a
# few seconds, large enough that waiting is a visible share of the day
# next to the client's CPU, and longer than the server needs to answer.
HTTP_LATENCY_S = 0.002
# About the mean thread CPU time of one speed probe (`child.probe_loop`)
# inside a backtest on a two-vCPU Intel Xeon virtual machine; CPU times
# are reported scaled to that speed.
PROBE_REF_S = 150e-6
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


def run_child(mode: str, cpu: int, *args: str) -> dict:
    """Run one child pinned to `cpu` to completion; its last stdout line is
    its result."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    # The loopback server is reached directly, and every request takes
    # the same path through the HTTP client's proxy lookup, whatever
    # proxy settings the calling environment has.
    for key in [k for k in env if k.lower().endswith("_proxy")]:
        del env[key]
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, str(cpu), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise ChildFailed(f"child {mode} printed no result: {exc}") from exc


def reference_time(sec: dict) -> tuple[float, float]:
    """A timed section's wall and CPU time on an unshared CPU whose speed
    probes take `PROBE_REF_S`: its CPU time is scaled by the probes' mean
    time during it; its time off the CPU is the time its CPU sat idle
    (HTTP waits), not the time other processes ran there."""
    cpu = sec["cpu_s"] * PROBE_REF_S * sec["probes"] / sec["probe_cpu_s"]
    waited = min(sec["idle_s"], max(0.0, sec["wall_s"] - sec["cpu_s"]))
    return cpu + waited, cpu


def pin_to_one_cpu() -> int:
    """Pin this process, and so the loopback server threads it starts
    later, to its last allowed CPU, and return it; every child runs
    there too. While a child waits for the server, its CPU then idles
    only for the server's fixed latency: the server's own work shows as
    another process holding the CPU, which `reference_time` leaves out."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.inputs = work / "inputs"
        self.server = None
        self.errors: list[str] = []
        self.attempted = 0
        self.children: list[dict] = []  # backtest children, each with "traced"
        self.setup: list[dict] = []
        self.stub_digest: str | None = None
        self.cpu = pin_to_one_cpu()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    @property
    def samples(self) -> list[dict]:
        """Every backtest of every child, each tagged with "traced"."""
        return [dict(rep, traced=c["traced"]) for c in self.children for rep in c["reps"]]

    # -- inputs ------------------------------------------------------------------

    def prepare(self) -> None:
        from perfbench.workloads import generate

        digests = generate(self.workload, self.seed, self.inputs)
        self.reference = json.loads((BENCH / "reference.json").read_text("utf-8"))
        self.is_reference_seed = self.seed == self.reference["seed"]
        if self.is_reference_seed:
            want = self.reference["workloads"][self.workload.name]["input_digests"]
            self.check(digests == want, "generated inputs differ from the recorded input digests")

    def config_path(self, http: bool) -> Path:
        if not http:
            return self.inputs / "config.yaml"
        from perfbench.workloads import http_config

        path = self.work / "http-config.yaml"
        path.write_text(json.dumps(http_config(self.seed, self.server.url)) + "\n", "utf-8")
        return path

    # -- children ----------------------------------------------------------------

    def setup_child(self) -> None:
        config = str(self.config_path(self.workload.http))
        out = self.work / "setup-out"
        try:
            self.setup.append(run_child("setup", self.cpu, str(self.inputs), config,
                                        str(out)))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def backtest_child(self, trace: bool, http: bool, seconds: float) -> dict | None:
        """One child running backtests for `seconds`; None if it failed."""
        out = self.work / f"child-{len(self.children)}-{self.attempted}"
        self.attempted += 1
        if http:
            self.server.reset()
        try:
            result = run_child("run", self.cpu, str(self.inputs),
                               str(self.config_path(http)), str(out), "1" if trace else "0",
                               f"{seconds:.3f}")
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            self.check(False, f"backtest child: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        reps = result["reps"]
        self.attempted += len(reps) - 1
        result["traced"] = trace
        if http:
            # Every backtest of one child sends the same requests.
            for rep in reps:
                rep["server"] = {"connections": self.server.connections / len(reps),
                                 "held_s": self.server.held_s / len(reps),
                                 "late": self.server.late / len(reps)}
        return result

    def measure(self) -> None:
        """Children until `seconds` have passed, never starting a round
        expected to end after that; at least one round."""
        http = self.workload.http
        if http:
            stub = self.backtest_child(trace=False, http=False, seconds=0.0)
            if stub is None:
                return
            self.stub_digest = stub["reps"][0]["digest_without_config"]
        self.setup_child()
        self.setup.clear()  # warm-up start: .pyc compilation and cold page cache
        start = time.perf_counter()
        step = 0.0
        while not self.children or time.perf_counter() - start + step <= self.seconds:
            began = time.perf_counter()
            for trace in ((False, True) if self.trace else (False,)):
                child = self.backtest_child(trace, http, CHILD_SECONDS)
                if child is None:
                    return
                self.children.append(child)
            for _ in range(SETUP_PER_CHILD):
                self.setup_child()
            step = time.perf_counter() - began
        while len(self.setup) < MIN_SETUP_SAMPLES:
            self.setup_child()

    def verify(self) -> None:
        samples = self.samples
        if not samples:
            return
        first = samples[0]
        self.check(len({s["digest"] for s in samples}) == 1,
                   "backtests of one run gave different artifacts")
        self.check(len({json.dumps(s["provider_calls"], sort_keys=True) for s in samples}) == 1,
                   "provider call counts differ between backtests")
        if self.workload.http:
            self.check(first["digest_without_config"] == self.stub_digest,
                       "HTTP-loopback artifacts differ from the stub-provider artifacts")
        if self.is_reference_seed:
            want = self.reference["workloads"][self.workload.name]["artifact_digest"]
            self.check(first["digest_without_config"] == want,
                       "artifacts differ from the recorded reference digest")
        from perfbench.spans import LAYER_ATTRS

        idle = set(self.reference["workloads"][self.workload.name]["idle_layers"])
        for s in samples:
            if not s["traced"]:
                continue
            # Every wrapped layer the workload runs was reached, so none
            # of them is silently folded into loop_other ...
            # risk.evaluate_position runs only on days that begin with
            # shares held, which a short history may never have; it must
            # run on exactly those days.
            calls = {name: e["calls"] for root in s["layers"].values()
                     for name, e in root["names"].items()}
            called = {name for name, n in calls.items() if n}
            missing = [name for _, _, name in LAYER_ATTRS
                       if name not in called | idle | {"risk.evaluate_position"}]
            self.check(not missing, f"traced backtest never reached {missing}")
            self.check(calls.get("risk.evaluate_position", 0) == s["held_days"],
                       f"risk.evaluate_position ran {calls.get('risk.evaluate_position', 0)} "
                       f"times, {s['held_days']} days began with shares held")
            # ... every span ended, and no child span outlived its parent,
            # in which case self times would not add up to the root's.
            self.check(all(root["unfinished"] == 0 for root in s["layers"].values()),
                       "a traced span never ended")
            tree = s["layers"]["backtest.run_backtest"]
            covered = sum(e["self_s"] for e in tree["names"].values()) - tree["overlap_s"]
            self.check(abs(covered - tree["wall_s"]) <= 1e-6 * tree["wall_s"] + 1e-6,
                       f"layer self times add up to {covered} s, "
                       f"run_backtest took {tree['wall_s']} s")

    # -- metrics -----------------------------------------------------------------

    def backtests(self, traced: bool) -> list[dict]:
        return [rep for c in self.children if c["traced"] == traced for rep in c["reps"]]

    def export_s(self, step: str) -> float:
        """Fastest time of one export step in the traced children."""
        return min(c["best_export_s"][step] for c in self.children if c["traced"])

    def end_to_end(self) -> dict:
        reps = self.backtests(traced=False)
        days = reps[0]["days"]
        # The export path's CPU time: its few waits for file writes are
        # shorter than the 10 ms tick /proc/stat counts idle time in.
        export_pass_s = statistics.median(
            reference_time(r["export"])[1] / r["export"]["passes"] for r in reps)
        return {
            "days_per_s": (days / statistics.median(reference_time(r)[0] for r in reps), "1/s"),
            "cpu_ms_per_day": (statistics.median(reference_time(r)[1] for r in reps) * 1e3 / days, "ms"),
            "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in self.children), "MB"),
            "setup_s": (statistics.median(reference_time(x)[0] for x in self.setup), "s"),
            "export_records_per_s": (reps[0]["records"] / export_pass_s, "1/s"),
            "provider_calls_per_day": (sum(reps[0]["provider_calls"].values()) / days, "count"),
            "run_ok_ratio": ((self.attempted - len(self.errors)) / self.attempted, "ratio"),
        }

    def per_sample(self) -> dict:
        """Each untraced backtest's and cold start's own figures, of which
        `end_to_end` takes medians; with the unscaled times beside them."""
        reps = self.backtests(traced=False)
        days, records = reps[0]["days"], reps[0]["records"]
        return {
            "days_per_s": [days / reference_time(r)[0] for r in reps],
            "cpu_ms_per_day": [reference_time(r)[1] * 1e3 / days for r in reps],
            "export_records_per_s": [records * r["export"]["passes"] / reference_time(r["export"])[1]
                                     for r in reps],
            "setup_s": [reference_time(x)[0] for x in self.setup],
            "unscaled_setup_s": [x["wall_s"] for x in self.setup],
            "probe_us": [r["probe_cpu_s"] / r["probes"] * 1e6 for r in reps],
            "unscaled_wall_s": [r["wall_s"] for r in reps],
            "idle_s": [r["idle_s"] for r in reps],
            "late_requests": [r["server"]["late"] for r in reps] if self.workload.http else [],
        }

    def per_layer(self) -> dict:
        traced = [s for s in self.samples if s["traced"]]
        http = self.workload.http

        def over(fn):
            return statistics.median(fn(s) for s in traced)

        def span(s, root, name):
            return s["layers"][root]["names"].get(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})

        def self_ms_per_day(name):
            return over(lambda s: span(s, "backtest.run_backtest", name)["self_s"] * 1e3 / s["days"])

        def per_day(fn):
            return over(lambda s: fn(s) / s["days"])

        def setup_ms(key):
            return statistics.median(x[key] for x in self.setup)

        ms_day = {
            "marketdata.build_snapshot.ms_per_day": "marketdata.build_snapshot",
            "risk.compute_thresholds.ms_per_day": "risk.compute_thresholds",
            "gate.classify_trend.ms_per_day": "gate.classify_trend",
            "portfolio.apply_action.ms_per_day": "portfolio.apply_action",
            "retrieval.score_news.self_ms_per_day": "retrieval.score_news",
            "retrieval.dedupe.self_ms_per_day": "retrieval.dedupe",
            "retrieval.chunk_report.ms_per_day": "retrieval.chunk_report",
            "retrieval.retrieve_topk.self_ms_per_day": "retrieval.retrieve_topk",
            "retrieval.rerank.self_ms_per_day": "retrieval.rerank",
            "agents.news.self_ms_per_day": "agents.news",
            "agents.report.self_ms_per_day": "agents.report",
            "agents.forecast.self_ms_per_day": "agents.forecast",
            "agents.style.self_ms_per_day": "agents.style",
            "agents.decision.self_ms_per_day": "agents.decision",
            "agents.build_reflection.ms_per_day": "agents.build_reflection",
            "datasynth.label_day.ms_per_day": "datasynth.label_day",
            "datasynth.emit_trajectories.ms_per_day": "datasynth.emit_trajectories",
            "backtest.loop_other.ms_per_day": "backtest.run_backtest",
        }
        m = {key: (self_ms_per_day(name), "ms/day") for key, name in ms_day.items()}
        m.update({
            "marketdata.load_price_csv.ms": (setup_ms("load_price_csv_ms"), "ms"),
            "retrieval.load_news_jsonl.ms": (setup_ms("load_news_jsonl_ms"), "ms"),
            "config.load_config.ms": (setup_ms("load_config_ms"), "ms"),
            "setup.import_ms": (setup_ms("import_ms"), "ms"),
            "risk.evaluate_position.calls_per_day": (per_day(
                lambda s: span(s, "backtest.run_backtest", "risk.evaluate_position")["calls"]), "1/day"),
            "portfolio.compute_metrics.ms": (over(
                lambda s: span(s, "backtest.replay", "portfolio.compute_metrics")["total_s"] * 1e3), "ms"),
            **{f"providers.{kind}.calls_per_day": (per_day(
                lambda s, kind=kind: s["provider_calls"].get(kind, 0)), "1/day")
               for kind in ("chat", "dense", "sparse", "rerank")},
            "providers.distinct_ratio": (over(
                lambda s: s["providers"]["distinct"] / sum(s["provider_calls"].values())), "ratio"),
            "providers.retries_per_day": (per_day(lambda s: s["providers"]["retries"]), "1/day"),
            "providers.failures_per_day": (per_day(lambda s: s["providers"]["failures"]), "1/day"),
            "providers.busy_ms_per_day": (per_day(lambda s: s["providers"]["busy_ms"]), "ms/day"),
            "providers.http.rtt_ms_p50": (over(lambda s: s["providers"]["p50_ms"]) if http else 0.0, "ms"),
            "providers.http.rtt_ms_p99": (over(lambda s: s["providers"]["p99_ms"]) if http else 0.0, "ms"),
            "providers.http.wait_ms_per_day": (
                per_day(lambda s: s["server"]["held_s"] * 1e3) if http else 0.0, "ms/day"),
            "providers.http.connections_per_day": (
                per_day(lambda s: s["server"]["connections"]) if http else 0.0, "1/day"),
            "datasynth.trajectory_bytes_per_day": (per_day(lambda s: s["trajectory_bytes"]), "B/day"),
            "datasynth.load_trajectories.ms": (self.export_s("load_trajectories") * 1e3, "ms"),
            "datasynth.filter_sft.ms": (self.export_s("filter_sft") * 1e3, "ms"),
            "datasynth.emit_sft.ms": (self.export_s("emit_sft") * 1e3, "ms"),
            "backtest.replay.ms": (self.export_s("replay") * 1e3, "ms"),
            "trace.overhead_ratio": (
                statistics.median(reference_time(r)[0] for r in self.backtests(True))
                / statistics.median(reference_time(r)[0] for r in self.backtests(False)), "ratio"),
            "trace.parallel_overlap_ms_per_day": (per_day(
                lambda s: s["layers"]["backtest.run_backtest"]["overlap_s"] * 1e3), "ms/day"),
        })
        return m

    def execute(self) -> dict:
        self.measure()
        self.verify()
        if not self.children or self.errors:
            return {}
        return self.per_layer() if self.trace else self.end_to_end()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "agentdesk" / "__init__.py").is_file():
        print(f"no agentdesk sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import STUB_POLICY, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    work = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    run = Run(workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.prepare()
        if workload.http:
            from perfbench.loopback import LoopbackServer

            with LoopbackServer(STUB_POLICY, HTTP_LATENCY_S) as run.server:
                metrics = run.execute()
        else:
            metrics = run.execute()
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        run.check(False, str(exc))
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    samples = run.samples
    traced = sum(1 for s in samples if s["traced"])
    print(f"workload {workload.name}: {workload.describe()}; seed {args.seed}")
    print(f"samples: {len(run.setup)} set-up starts; {len(samples) - traced} untraced and "
          f"{traced} traced backtests in {len(run.children)} children; "
          f"{sum(r['export']['passes'] for r in samples)} export passes")
    if samples and not args.trace:
        print("per-sample " + json.dumps(run.per_sample()))
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit}")
    for error in run.errors:
        print(f"FAILED: {error}", file=sys.stderr)

    ok = bool(metrics) and not run.errors
    print(json.dumps({
        "correct": ok,
        "attempted": max(run.attempted, 1),
        "failed": 0 if ok else max(len(run.errors), 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
