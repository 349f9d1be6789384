"""The benchmark's workloads: what tables each one lands and which operations a pass runs.

Every operation calls an entry point of ``repro`` exactly as the tests and
figure experiments do, and carries the DuckDB check the tests apply to it
(same SQL text). Inputs come from ``repro.synth_data`` with generator seeds
derived from the benchmark seed, so seed 0 reproduces the generators' own
default seeds.

The ``bench`` scale keeps one pass to a few seconds: Spark's per-task and
per-query overhead, not data volume, dominates a pass at this size. ``toy``
scale is for the self-test only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pandas as pd

from repro import synth_data
from repro.core import filter_ops, tpch
from repro.core.tables import get_or_create, read_stored_table
from repro.experiments import common, fig11_parquet
from repro.oracle import assert_equivalent

# Seeds of the synth_data generators at their defaults; a benchmark seed
# shifts each by a multiple of SEED_STRIDE so tables stay independent.
SEED_STRIDE = 1000
_DEFAULT_SEEDS = {"lineitem": 0, "part": 5, "filter_table": 10, "wide_table": 12}

SCALES = {
    # TPC-H-lite scale factor, objects per table, synthetic-table rows.
    "bench": {"sf": 0.01, "objects": 8, "filter_rows": 100_000, "wide_rows": 40_000},
    "toy": {"sf": 0.005, "objects": 4, "filter_rows": 5_000, "wide_rows": 5_000},
}

TPCH_QUERIES = ("q1", "q6", "q19")


def gen_seed(generator: str, seed: int) -> int:
    return _DEFAULT_SEEDS[generator] + SEED_STRIDE * seed


class _Collected:
    """A driver-side result handed to ``repro.oracle`` without a Spark round trip."""

    def __init__(self, pdf: pd.DataFrame):
        self._pdf = pdf

    def toPandas(self) -> pd.DataFrame:  # noqa: N802 (oracle's interface)
        return self._pdf


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` is timed, ``check`` raises if the result is wrong."""

    name: str
    run: Callable  # (spark, runner, tables) -> QueryResult
    check: Callable  # (result, tables) -> None
    table: str  # table whose size sets the 10 GB projection factor


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    tables: tuple  # names in TABLES

    def land(self, spark, store, seed: int, scale: dict) -> dict:
        """Generate, land and open this workload's tables (the set-up path)."""
        for name in self.tables:
            build, kw = TABLES[name]
            get_or_create(store, name, lambda: build(spark, seed, scale).toPandas(),
                          n_partitions=scale["objects"], **kw)
        return {name: read_stored_table(store, name) for name in self.tables}


def factor(op: Op, tables: dict, scale: dict) -> float:
    """PerfModel's projection factor to the paper's 10 GB for ``op``."""
    if op.table in _TPCH_TABLES:
        return common.tpch_factor(scale["sf"])
    return common.table_factor(tables[op.table].total_bytes)


def _tpch_table(name):
    return lambda spark, seed, scale: getattr(synth_data, name)(
        spark, sf=scale["sf"], seed=gen_seed(name, seed))


_TPCH_TABLES = ("lineitem", "part")

# name -> (generator (spark, seed, scale) -> Spark DataFrame, write_table options)
TABLES = {
    **{name: (_tpch_table(name), {}) for name in _TPCH_TABLES},
    "ftab": (lambda spark, seed, scale: synth_data.filter_table(
        spark, n=scale["filter_rows"], seed=gen_seed("filter_table", seed)),
        {"index_columns": ("u",)}),
    "wtab": (lambda spark, seed, scale: synth_data.wide_table(
        spark, n=scale["wide_rows"], n_cols=10, seed=gen_seed("wide_table", seed)),
        {"parquet": True}),
}


# -- checks: the SQL the tests compare each operator against ----------------


def _tpch_check(q):
    def check(result, tables):
        kw = {n: tables[n].pdf for n in tpch.needed_tables(q)}
        assert_equivalent(_Collected(result.df), tpch.reference_sql(q), **kw)

    return check


def _filter_check(table, sql):
    def check(result, tables):
        assert_equivalent(_Collected(result.df), sql, t=tables[table].pdf)

    return check


# -- operations -------------------------------------------------------------


def _tpch_ops(run):
    return tuple(
        Op(q, lambda spark, runner, tables, q=q: run(spark, runner, tables, q),
           _tpch_check(q), "lineitem")
        for q in TPCH_QUERIES
    )


def _index_filter(sel):
    return Op(
        f"index_filter_{sel:g}",
        lambda spark, runner, tables: filter_ops.s3_index_filter(
            spark, runner, tables["ftab"], "u", "<", sel),
        _filter_check("ftab", f"SELECT * FROM t WHERE u < {sel}"),
        "ftab",
    )


def _side_filter(fmt, sel=0.01):
    # fig11's operation: the single filtered column c1, CSV or Parquet twin.
    return Op(
        f"side_filter_{fmt}",
        lambda spark, runner, tables: fig11_parquet._run_one(
            spark, runner.store, tables["wtab"], fmt, sel),
        _filter_check("wtab", f"SELECT c1 FROM t WHERE c1 < {sel}"),
        "wtab",
    )


WORKLOADS = {
    w.name: w
    for w in (
        # S3 Select in the forms the paper evaluates: Q1's CASE aggregate in a
        # driver-side request loop, Q6's full aggregate pushdown, Q19's Bloom
        # predicate parsed once per object plus a Spark join, the ranged-GET
        # storm of the index filter, and a Parquet scan.
        Workload(
            "pushdown",
            (*_tpch_ops(tpch.run_optimized), _index_filter(0.05), _side_filter("parquet")),
            ("lineitem", "part", "ftab", "wtab"),
        ),
        # The same queries with no S3 Select: plain GETs, CSV decode and
        # Spark only. The bypass for parser, eval and Bloom changes.
        Workload(
            "baseline",
            _tpch_ops(tpch.run_baseline),
            ("lineitem", "part"),
        ),
    )
}
