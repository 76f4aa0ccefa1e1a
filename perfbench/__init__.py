"""Seeded end-to-end and per-layer benchmark for the agentdesk backtester.

Run it from the repository root:

    python3 perfbench/run.py --workload long-history --seed 1 --seconds 55 --trace 0

Its own tests run with:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
