"""Installs the benchmark's span recorder in Spark's Python workers.

This directory is on the workers' ``PYTHONPATH`` only in a traced run, which
also sets ``PERFBENCH_TRACE_DIR``; Python imports ``sitecustomize`` at start-up,
so every daemon-forked worker inherits the wrapped ``repro`` functions.
"""
import os
import sys

_trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
if _trace_dir:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    tracing.install(tracing.Recorder(_trace_dir))
