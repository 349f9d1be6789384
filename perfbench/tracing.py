"""Spans around calls into repro's layers, recorded from the benchmark's own files.

``install`` replaces public functions and methods of the ``repro`` modules (and
the few PySpark driver calls that block on Spark) with wrappers that record a
span per call: name, parent span, start on the machine-wide monotonic clock,
busy seconds and the counts the layer reports (bytes, rows, requests). The
driver installs it in-process; Spark's Python workers install it through
``worker_hook/sitecustomize.py``. Spans stay in memory; a worker appends its
spans to ``spans-<pid>.jsonl`` when a top-level call ends (a worker has no
other moment at which it is known to be alive), the driver keeps its own.

A generator (``S3SelectReader.read``, ``pushFilters``) is busy only while its
consumer is inside ``next()``; that is the time its span records. Self time is
busy time minus the busy time of direct children.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
import zlib
from collections import defaultdict
from pathlib import Path


class Recorder:
    """The spans of one process.

    A span is ``[sid, parent_sid, name, t0, busy_s, counts]``. In a worker
    (``trace_dir`` given) recording is on while ``trace_dir/ON`` exists, so
    the driver can switch all workers at once; in the driver it follows
    :attr:`enabled`.
    """

    def __init__(self, trace_dir: str | None = None):
        self.spans: list = []
        self.enabled = False
        self._dir = trace_dir
        self._flag = os.path.join(trace_dir, "ON") if trace_dir else None
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        if self._stack():
            return True
        return os.path.exists(self._flag) if self._flag else self.enabled

    def new_span(self, name: str) -> list:
        stack = self._stack()
        return [next(self._ids), stack[-1][0] if stack else None, name,
                time.perf_counter(), 0.0, None]

    def resume(self, span: list) -> None:
        self._stack().append(span)

    def suspend(self) -> None:
        self._stack().pop()

    def finish(self, span: list, busy: float, counts: dict | None) -> None:
        span[4] = busy
        span[5] = counts
        self.spans.append(span)
        if self._dir and not self._stack():
            self.flush()

    def flush(self) -> None:
        """Append this worker's spans to its file and forget them."""
        pid = os.getpid()
        lines = "".join(json.dumps([pid, *s]) + "\n" for s in self.spans)
        self.spans.clear()
        with open(os.path.join(self._dir, f"spans-{pid}.jsonl"), "a") as f:
            f.write(lines)


def _wrap(rec: Recorder, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active():
            return fn(*args, **kwargs)
        span = rec.new_span(name)
        rec.resume(span)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            busy = time.perf_counter() - span[3]
            rec.suspend()
            rec.finish(span, busy, count(args, kwargs, out) if count else None)

    return traced


def _wrap_gen(rec: Recorder, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active():
            yield from fn(*args, **kwargs)
            return
        span = rec.new_span(name)
        it = fn(*args, **kwargs)
        busy, n = 0.0, 0
        try:
            while True:
                t = time.perf_counter()
                rec.resume(span)
                try:
                    item = next(it)
                except StopIteration:
                    break
                finally:
                    rec.suspend()
                    busy += time.perf_counter() - t
                n += 1
                yield item
        finally:
            rec.finish(span, busy, count(args, kwargs, n))

    return traced


# -- what each layer counts -------------------------------------------------


def _n(obj) -> int:
    return len(obj) if obj is not None else 0


def _parse(a, k, out):
    sql = a[0].encode()
    return {"bytes": len(sql), "h": zlib.crc32(sql)}


def _get(a, k, out):
    rng = a[2] if len(a) > 2 else k.get("rng")
    return {"ranged": rng is not None, "bytes": _n(out)}


def _read_since(a, k, out):
    pos = a[1] if len(a) > 1 else k.get("pos", 0)
    with open(a[0].path, "rb") as f:
        f.seek(pos)
        return {"lines": f.read().count(b"\n")}


def _push_filters(a, k, rejected):
    return {"offered": len(a[1]), "pushed": len(a[1]) - rejected}


def _create_df(a, k, out):
    data = a[1] if len(a) > 1 else k.get("data")
    return {"rows": len(data) if hasattr(data, "__len__") else 0}


# (module, attribute path, span name, count, is generator)
TARGETS = [
    ("repro.s3sim.sql_parser", "parse", "sql_parser.parse", _parse, False),
    ("repro.s3sim.sql_eval", "eval_query", "sql_eval.eval_query",
     lambda a, k, o: {"rows_in": _n(a[1])}, False),
    ("repro.s3sim.select_engine", "s3_select", "select_engine.s3_select",
     lambda a, k, o: {"rows_out": _n(o)}, False),
    ("repro.s3sim.csvio", "from_csv_bytes", "csvio.decode",
     lambda a, k, o: {"bytes": _n(a[0])}, False),
    ("repro.s3sim.csvio", "to_csv_bytes", "csvio.encode",
     lambda a, k, o: {"bytes": _n(o)}, False),
    ("repro.s3sim.parquetio", "read_columns", "parquetio.decode", None, False),
    ("repro.s3sim.store", "ObjectStore.get", "store.get", _get, False),
    ("repro.s3sim.store", "ObjectStore.storage_read", "store.storage_read",
     lambda a, k, o: {"bytes": _n(o)}, False),
    ("repro.s3sim.store", "ObjectStore.put", "store.put", None, False),
    ("repro.s3sim.usage", "UsageLog.record", "usage.record", None, False),
    ("repro.s3sim.usage", "UsageLog.read_since", "usage.read_since", _read_since, False),
    ("repro.datasource.s3select", "read_table", "datasource.read_table", None, False),
    ("repro.datasource.s3select", "S3SelectReader.partitions", "datasource.partitions",
     lambda a, k, o: {"n": _n(o)}, False),
    ("repro.datasource.s3select", "S3SelectReader.pushFilters", "datasource.push_filters",
     _push_filters, True),
    ("repro.datasource.s3select", "S3SelectReader.read", "datasource.read",
     lambda a, k, n: {"rows": n}, True),
    ("repro.core.bloom", "fit_fpr_to_limit", "bloom.fit",
     lambda a, k, o: {"fit": o is not None}, False),
    ("repro.core.bloom", "build_from_keys", "bloom.build", None, False),
    ("repro.core.bloom", "BloomFilter.to_predicate", "bloom.to_predicate",
     lambda a, k, o: {"bytes": _n(o)}, False),
    ("repro.core.tables", "write_table", "tables.write", None, False),
    ("repro.core.tables", "read_stored_table", "tables.open", None, False),
    *[("repro.synth_data", g, "synth_data.gen", None, False)
      for g in ("lineitem", "orders", "customer", "part", "filter_table",
                "groups_table", "wide_table")],
    ("pyspark.sql.classic.dataframe", "DataFrame.toPandas", "spark.action", None, False),
    ("pyspark.sql.classic.dataframe", "DataFrame.collect", "spark.action", None, False),
    ("pyspark.sql.session", "SparkSession.createDataFrame", "spark.create_dataframe",
     _create_df, False),
]


def install(rec: Recorder) -> None:
    """Wrap every target; rebind names other modules imported with ``from``."""
    replaced = {}
    for mod_name, path, name, count, is_gen in TARGETS:
        owner = importlib.import_module(mod_name)
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        orig = owner.__dict__[attr] if cls else getattr(owner, attr)
        wrapped = (_wrap_gen if is_gen else _wrap)(rec, name, orig, count)
        setattr(owner, attr, wrapped)
        if not cls:
            replaced[id(orig)] = (orig, wrapped)
    for mod in list(sys.modules.values()):
        ns = getattr(mod, "__dict__", None)
        if not ns:
            continue
        for key, value in list(ns.items()):
            hit = replaced.get(id(value))
            if hit and hit[0] is value:
                ns[key] = hit[1]


def read_worker_spans(trace_dir: Path) -> list:
    """All spans the workers wrote, as ``[pid, sid, parent, name, t0, busy, counts]``."""
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    return spans


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(spans: list, driver_pid: int, wall_s: float) -> dict:
    """Per-layer metrics of one window (a pass or the set-up) from its spans."""
    by_key = {(s[0], s[1]): s for s in spans}
    child_busy = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child_busy[(s[0], s[2])] += s[5]

    def parent_name(s):
        p = by_key.get((s[0], s[2]))
        return p[3] if p else None

    named = defaultdict(list)
    for s in spans:
        named[s[3]].append(s)

    def busy(name, where=lambda s: True):
        return sum(s[5] for s in named[name] if where(s))

    def self_s(name):
        return sum(s[5] - child_busy[(s[0], s[1])] for s in named[name])

    def total(name, key, where=lambda s: True):
        return sum((s[6] or {}).get(key, 0) for s in named[name] if where(s))

    def calls(name, where=lambda s: True):
        return sum(1 for s in named[name] if where(s))

    def ratio(a, b):
        return a / b if b else 0.0

    parses = calls("sql_parser.parse")
    offered = total("datasource.push_filters", "offered")
    fits = total("bloom.fit", "fit")
    attempts = calls("bloom.build", lambda s: parent_name(s) == "bloom.fit")
    ranged = lambda s: s[6]["ranged"]  # noqa: E731
    driver_top = [s for s in spans if s[0] == driver_pid and s[2] is None]
    return {
        "sql_eval.calls": calls("sql_eval.eval_query"),
        "sql_eval.busy_s": busy("sql_eval.eval_query"),
        "sql_eval.rows_in": total("sql_eval.eval_query", "rows_in"),
        "sql_parser.calls": parses,
        "sql_parser.busy_s": busy("sql_parser.parse"),
        "sql_parser.sql_bytes": total("sql_parser.parse", "bytes"),
        "sql_parser.distinct_sql_per_call": ratio(
            len({(s[6] or {}).get("h") for s in named["sql_parser.parse"]}), parses),
        "select_engine.requests": calls("select_engine.s3_select"),
        "select_engine.busy_s": busy("select_engine.s3_select"),
        "select_engine.self_s": self_s("select_engine.s3_select"),
        "select_engine.rows_out_per_row_in": ratio(
            total("select_engine.s3_select", "rows_out"),
            total("sql_eval.eval_query", "rows_in")),
        "csvio.decode_busy_s": busy("csvio.decode"),
        "csvio.decode_bytes": total("csvio.decode", "bytes"),
        "csvio.encode_busy_s": busy("csvio.encode"),
        "csvio.encode_bytes": total("csvio.encode", "bytes"),
        "parquetio.decode_calls": calls("parquetio.decode"),
        "parquetio.decode_busy_s": busy("parquetio.decode"),
        "store.get_requests": calls("store.get", lambda s: not ranged(s)),
        "store.ranged_get_requests": calls("store.get", ranged),
        "store.get_busy_s": busy("store.get"),
        "store.storage_read_busy_s": busy("store.storage_read"),
        "store.put_requests": calls("store.put"),
        "usage.records": calls("usage.record"),
        "usage.record_busy_s": busy("usage.record"),
        "usage.read_since_lines": total("usage.read_since", "lines"),
        "usage.read_since_busy_s": busy("usage.read_since"),
        "datasource.plan_busy_s": busy("datasource.read_table"),
        "datasource.partitions": total("datasource.partitions", "n"),
        "datasource.read_busy_s": busy("datasource.read"),
        "datasource.read_self_s": self_s("datasource.read"),
        "datasource.rows_yielded": total("datasource.read", "rows"),
        "datasource.filters_pushed_per_offered": ratio(
            total("datasource.push_filters", "pushed"), offered),
        "spark.action_wall_s": busy("spark.action", lambda s: parent_name(s) != "spark.action"),
        "spark.create_dataframe_calls": calls("spark.create_dataframe"),
        "spark.create_dataframe_rows": total("spark.create_dataframe", "rows"),
        "bloom.fits": fits,
        "bloom.fit_attempts": attempts,
        "bloom.fits_per_attempt": ratio(fits, attempts),
        "bloom.fit_busy_s": busy("bloom.fit"),
        "bloom.predicate_bytes": total(
            "bloom.to_predicate", "bytes", lambda s: parent_name(s) != "bloom.fit"),
        "tables.write_busy_s": busy("tables.write"),
        "tables.open_busy_s": busy("tables.open"),
        "tables.open_bytes_read": total(
            "store.storage_read", "bytes", lambda s: parent_name(s) == "tables.open"),
        "synth_data.gen_busy_s": busy("synth_data.gen"),
        "trace.coverage_frac": ratio(sum(s[5] for s in driver_top), wall_s),
    }


def median_metrics(per_window: list) -> dict:
    """Median of each metric over windows; counts stay whole numbers."""
    out = {}
    for k in per_window[0]:
        values = [m[k] for m in per_window]
        exact = all(isinstance(v, int) for v in values)
        out[k] = (statistics.median_low if exact else statistics.median)(values)
    return out
