"""Unit tests for the S3 Select evaluator.

Projection/filter semantics are checked against expected values and,
for a batch of queries, cross-checked against DuckDB evaluating an
equivalent (typed) query over the same rows.
"""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core import tpch
from repro.s3sim.csvio import to_csv_bytes
from repro.s3sim.sql_ast import Cast, walk
from repro.s3sim.sql_eval import SqlEvalError, eval_query
from repro.s3sim.sql_parser import parse


@pytest.fixture()
def df():
    # All-string frame, as CSV objects arrive.
    return pd.DataFrame(
        {
            "a": ["1", "2", "3", "4", ""],
            "b": ["x", "y", "x", "z", "y"],
            "d": ["1992-01-01", "1993-06-15", "1994-01-01", "1992-12-31", "1995-05-05"],
            "v": ["1.5", "2.5", "-1.0", "0.25", "10.0"],
        }
    )


def run(sql, df):
    return eval_query(parse(sql), df)


# -- projection ------------------------------------------------------------

def test_star(df):
    out = run("SELECT * FROM S3Object", df)
    assert out.shape == df.shape


def test_projection_order(df):
    out = run("SELECT b, a FROM S3Object", df)
    assert list(out.columns) == ["b", "a"]


def test_alias(df):
    out = run("SELECT a AS q FROM S3Object", df)
    assert list(out.columns) == ["q"]


def test_expression_column_autoname(df):
    out = run("SELECT a, CAST(a AS INT) + 1 FROM S3Object", df)
    assert list(out.columns) == ["a", "_2"]


def test_case_insensitive_column_lookup(df):
    out = run("SELECT A FROM S3Object", df)
    assert list(out.columns) == ["a"]


def test_unknown_column_raises(df):
    with pytest.raises(SqlEvalError, match="no such column"):
        run("SELECT nope FROM S3Object", df)


# -- filtering -------------------------------------------------------------

def test_numeric_coercion_on_compare(df):
    out = run("SELECT a FROM S3Object WHERE a >= 2", df)
    assert out["a"].tolist() == ["2", "3", "4"]


def test_cast_compare(df):
    out = run("SELECT a FROM S3Object WHERE CAST(a AS INT) = 3", df)
    assert out["a"].tolist() == ["3"]


def test_string_compare_lexicographic(df):
    out = run("SELECT d FROM S3Object WHERE d < '1993-01-01'", df)
    assert out["d"].tolist() == ["1992-01-01", "1992-12-31"]


def test_and_or_not(df):
    out = run(
        "SELECT a FROM S3Object WHERE (b = 'x' OR b = 'y') AND NOT a = 1", df
    )
    assert out["a"].tolist() == ["2", "3", ""]


def test_null_cell_drops_from_numeric_compare(df):
    out = run("SELECT a FROM S3Object WHERE a > 0", df)
    assert "" not in out["a"].tolist()


def test_is_null(df):
    assert run("SELECT b FROM S3Object WHERE a IS NULL", df)["b"].tolist() == ["y"]


def test_is_not_null(df):
    assert len(run("SELECT a FROM S3Object WHERE a IS NOT NULL", df)) == 4


def test_between(df):
    out = run("SELECT a FROM S3Object WHERE a BETWEEN 2 AND 3", df)
    assert out["a"].tolist() == ["2", "3"]


def test_not_between(df):
    out = run("SELECT a FROM S3Object WHERE a NOT BETWEEN 2 AND 3", df)
    assert out["a"].tolist() == ["1", "4"]


def test_in_list_numeric(df):
    out = run("SELECT a FROM S3Object WHERE a IN (1, 4)", df)
    assert out["a"].tolist() == ["1", "4"]


def test_in_list_string(df):
    out = run("SELECT b FROM S3Object WHERE b IN ('x', 'z')", df)
    assert out["b"].tolist() == ["x", "x", "z"]


def test_not_in(df):
    out = run("SELECT b FROM S3Object WHERE b NOT IN ('x')", df)
    assert set(out["b"]) == {"y", "z"}


def test_like_prefix(df):
    out = run("SELECT d FROM S3Object WHERE d LIKE '1992%'", df)
    assert len(out) == 2


def test_like_underscore():
    df = pd.DataFrame({"s": ["cat", "cut", "cart"]})
    out = run("SELECT s FROM S3Object WHERE s LIKE 'c_t'", df)
    assert out["s"].tolist() == ["cat", "cut"]


def test_not_like(df):
    out = run("SELECT d FROM S3Object WHERE d NOT LIKE '1992%'", df)
    assert len(out) == 3


def test_limit(df):
    assert len(run("SELECT a FROM S3Object LIMIT 2", df)) == 2


def test_limit_after_where(df):
    out = run("SELECT a FROM S3Object WHERE a >= 2 LIMIT 1", df)
    assert out["a"].tolist() == ["2"]


# -- scalar expressions ------------------------------------------------------

def test_arithmetic(df):
    out = run("SELECT CAST(v AS FLOAT) * 2 + 1 AS r FROM S3Object", df)
    assert out["r"].tolist() == [4.0, 6.0, -1.0, 1.5, 21.0]


def test_modulo_chain(df):
    out = run("SELECT ((3 * CAST(a AS INT) + 1) % 7) % 5 AS h FROM S3Object", df)
    assert out["h"].tolist()[:4] == [4.0, 0.0, 3.0, 1.0]


def test_unary_minus(df):
    out = run("SELECT -CAST(a AS INT) AS n FROM S3Object WHERE a = 2", df)
    assert out["n"].tolist() == [-2.0]


def test_cast_to_string(df):
    out = run("SELECT CAST(v AS STRING) AS s FROM S3Object LIMIT 1", df)
    assert out["s"].tolist() == ["1.5"]


def test_substring_literal_scalar(df):
    out = run("SELECT SUBSTRING('abcdef', 2, 3) AS s FROM S3Object LIMIT 1", df)
    assert out["s"].tolist() == ["bcd"]


def test_substring_literal_vector_position(df):
    out = run(
        "SELECT SUBSTRING('10110', CAST(a AS INT), 1) AS bit FROM S3Object "
        "WHERE a IS NOT NULL",
        df,
    )
    assert out["bit"].tolist() == ["1", "0", "1", "1"]


def test_substring_literal_vector_position_non_ascii(df):
    out = run(
        "SELECT SUBSTRING('1é0☃1', CAST(a AS INT), 1) AS ch FROM S3Object "
        "WHERE a IS NOT NULL",
        df,
    )
    assert out["ch"].tolist() == ["1", "é", "0", "☃"]


def test_substring_out_of_range_is_empty(df):
    out = run(
        "SELECT SUBSTRING('ab', CAST(a AS INT) * 10, 1) AS s FROM S3Object "
        "WHERE a = 1",
        df,
    )
    assert out["s"].tolist() == [""]


def test_substring_column(df):
    out = run("SELECT SUBSTRING(d, 1, 4) AS y FROM S3Object LIMIT 2", df)
    assert out["y"].tolist() == ["1992", "1993"]


def test_case_when(df):
    out = run(
        "SELECT CASE WHEN b = 'x' THEN 1 ELSE 0 END AS f FROM S3Object", df
    )
    assert out["f"].tolist() == [1, 0, 1, 0, 0]


def test_case_when_no_else_defaults_zero(df):
    out = run("SELECT CASE WHEN b = 'x' THEN 5 END AS f FROM S3Object", df)
    assert out["f"].tolist() == [5, 0, 5, 0, 0]


def test_upper_lower(df):
    out = run("SELECT UPPER(b) AS u FROM S3Object LIMIT 1", df)
    assert out["u"].tolist() == ["X"]


def test_abs(df):
    out = run("SELECT ABS(CAST(v AS FLOAT)) AS r FROM S3Object WHERE v < 0", df)
    assert out["r"].tolist() == [1.0]


# -- aggregates --------------------------------------------------------------

def test_count_star(df):
    assert run("SELECT COUNT(*) AS c FROM S3Object", df)["c"].iloc[0] == 5


def test_count_skips_nulls(df):
    assert run("SELECT COUNT(a) AS c FROM S3Object", df)["c"].iloc[0] == 4


def test_sum(df):
    assert run("SELECT SUM(CAST(a AS INT)) AS s FROM S3Object", df)["s"].iloc[0] == 10


def test_sum_implicit_numeric(df):
    assert run("SELECT SUM(v) AS s FROM S3Object", df)["s"].iloc[0] == 13.25


def test_avg(df):
    assert run("SELECT AVG(CAST(a AS INT)) AS m FROM S3Object", df)["m"].iloc[0] == 2.5


def test_min_max_strings(df):
    out = run("SELECT MIN(d) AS lo, MAX(d) AS hi FROM S3Object", df)
    assert out["lo"].iloc[0] == "1992-01-01"
    assert out["hi"].iloc[0] == "1995-05-05"


def test_aggregate_with_where(df):
    out = run("SELECT SUM(CAST(a AS INT)) AS s FROM S3Object WHERE b = 'x'", df)
    assert out["s"].iloc[0] == 4


def test_sum_case_groupby_encoding(df):
    out = run(
        "SELECT SUM(CASE WHEN b = 'x' THEN CAST(v AS FLOAT) ELSE 0 END) AS sx, "
        "SUM(CASE WHEN b = 'y' THEN CAST(v AS FLOAT) ELSE 0 END) AS sy "
        "FROM S3Object",
        df,
    )
    assert out["sx"].iloc[0] == 0.5
    assert out["sy"].iloc[0] == 12.5


def test_sum_empty_is_null(df):
    out = run("SELECT SUM(CAST(a AS INT)) AS s FROM S3Object WHERE b = 'nope'", df)
    assert out["s"].iloc[0] is None


def test_count_empty_is_zero(df):
    out = run("SELECT COUNT(*) AS c FROM S3Object WHERE b = 'nope'", df)
    assert out["c"].iloc[0] == 0


def test_mixed_agg_and_column_rejected(df):
    with pytest.raises(SqlEvalError, match="mix aggregates"):
        run("SELECT a, SUM(v) FROM S3Object", df)


def test_aggregate_in_where_rejected(df):
    with pytest.raises(SqlEvalError, match="WHERE"):
        run("SELECT a FROM S3Object WHERE SUM(v) > 1", df)


def test_nested_aggregate_rejected(df):
    with pytest.raises(SqlEvalError, match="nested"):
        run("SELECT SUM(SUM(v)) FROM S3Object", df)


# -- cross-check against DuckDB ---------------------------------------------

def _case_sums(v: str, a: str) -> str:
    """Repeated CASE sums sharing the CASTs ``v`` and ``a`` and two conditions."""
    return ", ".join(
        f"SUM(CASE WHEN b = '{g}' THEN {v} ELSE 0 END) AS s{g}, "
        f"SUM(CASE WHEN b = '{g}' THEN {v} * (1 - {a}) ELSE 0 END) AS d{g}"
        for g in ("x", "y")
    )


@pytest.mark.parametrize(
    "ours,duck,csv",
    [
        (
            "SELECT a FROM S3Object WHERE CAST(a AS FLOAT) > 2",
            "SELECT a FROM t WHERE TRY_CAST(a AS DOUBLE) > 2",
            b"a\n3\n4\n",
        ),
        (
            "SELECT SUM(CAST(v AS FLOAT)) AS s FROM S3Object WHERE b != 'y'",
            "SELECT SUM(CAST(v AS DOUBLE)) AS s FROM t WHERE b != 'y'",
            b"s\n0.75\n",
        ),
        (
            "SELECT d FROM S3Object WHERE d BETWEEN '1992-06-01' AND '1994-06-01'",
            "SELECT d FROM t WHERE d BETWEEN '1992-06-01' AND '1994-06-01'",
            b"d\n1993-06-15\n1994-01-01\n1992-12-31\n",
        ),
        (
            "SELECT b, d FROM S3Object WHERE b IN ('x', 'y') AND d < '1994-01-01'",
            "SELECT b, d FROM t WHERE b IN ('x', 'y') AND d < '1994-01-01'",
            b"b,d\nx,1992-01-01\ny,1993-06-15\n",
        ),
        (
            "SELECT COUNT(*) AS c, MIN(d) AS lo FROM S3Object WHERE b LIKE '_'",
            "SELECT COUNT(*) AS c, MIN(d) AS lo FROM t WHERE b LIKE '_'",
            b"c,lo\n5,1992-01-01\n",
        ),
        (
            f"SELECT {_case_sums('CAST(v AS FLOAT)', 'CAST(a AS FLOAT)')} "
            "FROM S3Object WHERE CAST(v AS FLOAT) < 5",
            f"SELECT {_case_sums('CAST(v AS DOUBLE)', 'TRY_CAST(a AS DOUBLE)')} "
            "FROM t WHERE CAST(v AS DOUBLE) < 5",
            b"sx,dx,sy,dy\n0.5,2.0,2.5,-2.5\n",
        ),
        (
            # Equal in Python (1 == 1.0), but int vs float columns.
            "SELECT a * 1 AS p, a * 1.0 AS q FROM S3Object WHERE a IS NOT NULL",
            "SELECT TRY_CAST(a AS INTEGER) * 1 AS p, "
            "TRY_CAST(a AS INTEGER) * 1.0 AS q FROM t WHERE a != ''",
            b"p,q\n1,1.0\n2,2.0\n3,3.0\n4,4.0\n",
        ),
    ],
)
def test_matches_duckdb(df, ours, duck, csv):
    got = run(ours, df).reset_index(drop=True)
    assert to_csv_bytes(got) == csv
    con = duckdb.connect()
    con.register("t", df)
    expected = con.execute(duck).fetchdf()
    con.close()
    got = got.astype(object)
    expected = expected.astype(object)
    pd.testing.assert_frame_equal(
        got.sort_values(list(got.columns)).reset_index(drop=True),
        expected.sort_values(list(expected.columns)).reset_index(drop=True),
        check_dtype=False,
    )


# -- common subexpressions ----------------------------------------------------

def test_q1_converts_each_distinct_cast_once(monkeypatch):
    """Q1's 36 CASE columns share 4 CASTs: one numeric conversion each."""
    combos = [("A", "F"), ("A", "O"), ("N", "F"), ("N", "O"), ("R", "F"), ("R", "O")]
    q = parse(tpch._q1_sql(combos))
    casts = {n for it in q.items for n in walk(it.expr) if isinstance(n, Cast)}
    assert len(q.items) == 36 and len(casts) == 4
    rf, ls = zip(*combos * 2)
    rows = pd.DataFrame(
        {
            "l_returnflag": rf,
            "l_linestatus": ls,
            "l_quantity": [str(i) for i in range(1, 13)],
            "l_extendedprice": ["100.5"] * 12,
            "l_discount": ["0.05"] * 12,
            "l_tax": ["0.25"] * 12,
            "l_shipdate": ["1998-01-01"] * 11 + ["1998-12-01"],
        }
    )
    calls = []
    to_numeric = pd.to_numeric
    monkeypatch.setattr(
        pd, "to_numeric", lambda *a, **k: calls.append(1) or to_numeric(*a, **k)
    )
    out = eval_query(q, rows)
    assert len(calls) == len(casts)
    counts = [out[f"count_order_{gi}"].iloc[0] for gi in range(len(combos))]
    assert counts == [2, 2, 2, 2, 2, 1]
    assert out["sum_qty_0"].iloc[0] == 1 + 7
    assert out["sum_charge_5"].iloc[0] == 100.5 * 0.95 * 1.25


_REPEATED = (
    "SELECT SUM(CASE WHEN b = 'x' THEN CAST(v AS FLOAT) ELSE 0 END) AS sx, "
    "SUM(CASE WHEN b = 'x' THEN CAST(v AS FLOAT) * CAST(v AS FLOAT) ELSE 0 END) AS sxx, "
    "COUNT(CAST(v AS FLOAT)) AS n FROM S3Object"
)


@pytest.mark.parametrize(
    "rows,where,expected",
    [
        (  # full selectivity
            slice(None),
            " WHERE CAST(v AS FLOAT) > -50 AND CAST(v AS FLOAT) < 50",
            [0.5, 3.25, 5],
        ),
        (  # zero selectivity
            slice(None),
            " WHERE CAST(v AS FLOAT) > 50 OR CAST(v AS FLOAT) < -50",
            [None, None, 0],
        ),
        (slice(0, 0), "", [None, None, 0]),  # empty object
    ],
)
def test_repeated_subexpressions_edge_cases(df, rows, where, expected):
    frame = df.iloc[rows]
    assert run(_REPEATED + where, frame).iloc[0].tolist() == expected
    proj = run(
        "SELECT CAST(v AS FLOAT) AS p, CAST(v AS FLOAT) * 2 AS q FROM S3Object"
        + where,
        frame,
    )
    assert len(proj) == expected[2]
    assert (proj["q"] == 2 * proj["p"]).all()


def test_repeated_subexpressions_all_null_column(df):
    out = run(
        "SELECT SUM(CASE WHEN b = 'x' THEN CAST(n AS FLOAT) ELSE 0 END) AS sx, "
        "SUM(CAST(n AS FLOAT)) AS s, COUNT(CAST(n AS FLOAT)) AS c, "
        "COUNT(*) AS r FROM S3Object WHERE n IS NULL AND NOT n IS NOT NULL",
        df.assign(n=[""] * len(df)),
    )
    assert out.iloc[0].tolist() == [0.0, None, 0, 5]


def test_large_frame_vectorized_substring_speed():
    """The Bloom-probe fast path handles 100k rows without blowing up."""
    n = 100_000
    df = pd.DataFrame({"k": np.arange(n).astype(str)})
    bits = "10" * 500
    out = run(
        f"SELECT k FROM S3Object WHERE "
        f"SUBSTRING('{bits}', ((7 * CAST(k AS INT) + 3) % 1009) % 1000 + 1, 1) = '1'",
        df,
    )
    assert 0 < len(out) < n
