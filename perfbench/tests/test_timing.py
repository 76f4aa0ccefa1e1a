"""Speed probes and the scaling of timed sections to the reference CPU."""

from __future__ import annotations

import os
import signal
from time import perf_counter

import pytest

from perfbench.child import Speedometer, section
from perfbench.run import PROBE_REF_S, reference_time


def test_speedometer_probes_a_busy_process_and_takes_the_probes_out():
    speed = Speedometer(sorted(os.sched_getaffinity(0))[0]).start()
    try:
        begin = speed.reading()
        stop = perf_counter() + 0.2
        while perf_counter() < stop:
            pass
        end = speed.reading()
    finally:
        speed.stop()
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    sec = section(begin, end)
    assert sec["probes"] > 0
    assert 0 < sec["probe_cpu_s"] < 0.2
    assert 0 < sec["wall_s"] < end[0] - begin[0]
    assert sec["idle_s"] >= 0


def test_reference_time_scales_cpu_time_and_keeps_idle_waits():
    # Probes ran at half the reference speed, so CPU time halves. Of the
    # 0.5 s off the CPU, 0.3 s the CPU sat idle (a wait the program
    # chose) and 0.2 s other processes ran (not the program's cost).
    sec = {"wall_s": 1.5, "cpu_s": 1.0, "idle_s": 0.3, "probes": 10,
           "probe_cpu_s": 20 * PROBE_REF_S}
    wall, cpu = reference_time(sec)
    assert cpu == pytest.approx(0.5)
    assert wall == pytest.approx(0.8)
