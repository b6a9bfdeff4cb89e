"""Oracle-checked tests for the string-level Spark baselines.

Every joinability DataFrame is diffed against an independent DuckDB SQL
over the same inputs (`repro.oracle.assert_equivalent`), so a broken
join or groupBy produces a row-level diff, not just a smoke failure.
"""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.equi import equi_joinability, query_df
from repro.baselines.fuzzy import char_ngrams, fuzzy_joinability
from repro.baselines.jaccard import jaccard_joinability, set_similarity, tokens
from repro.lake.generator import lake_to_spark
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def lake_df(spark, tiny_lake):
    df = lake_to_spark(spark, tiny_lake).select("col_id", "vec_id", "value")
    df.cache().count()
    return df


@pytest.fixture(scope="module")
def lake_pdf(lake_df):
    return lake_df.toPandas()


def _query_pdf(tiny_lake):
    return pd.DataFrame(
        {"q_id": range(len(tiny_lake.query)), "q_value": tiny_lake.query}
    )


def test_equi_matches_oracle(spark, tiny_lake, lake_df, lake_pdf):
    got = equi_joinability(spark, tiny_lake.query, lake_df)
    n_q = len(tiny_lake.query)
    assert_equivalent(
        got,
        f"""
        SELECT l.col_id,
               count(DISTINCT q.q_id) AS n_matched,
               count(DISTINCT q.q_id) / CAST({n_q} AS DOUBLE) AS joinability
        FROM lake l JOIN q ON l.value = q.q_value
        GROUP BY l.col_id
        """,
        lake=lake_pdf,
        q=_query_pdf(tiny_lake),
    )


def test_equi_sees_only_verbatim_overlap(spark, tiny_lake, lake_df):
    """Equi-join joinability equals the planted verbatim overlap exactly."""
    got = {
        r["col_id"]: r["joinability"]
        for r in equi_joinability(spark, tiny_lake.query, lake_df).collect()
    }
    for c in tiny_lake.columns:
        assert got.get(c.col_id, 0.0) == pytest.approx(c.equi_overlap, abs=1e-9)


def _tokenize(s: str) -> set[str]:
    import re

    return set(re.split(r"[\s,]+", s.lower().strip()))


def _grams(s: str, n: int = 3) -> set[str]:
    s = s.lower().strip()
    if len(s) <= n:
        return {s}
    return {s[i : i + n] for i in range(len(s) - n + 1)}


def _exploded(values, make):
    rows = []
    for key, s in values:
        toks = make(s)
        for t in toks:
            rows.append((*key, len(toks), t))
    return rows


@pytest.mark.parametrize(
    "grams,make", [(tokens, _tokenize), (char_ngrams, _grams)],
    ids=["tokens", "char_ngrams"],
)
def test_set_similarity_matches_oracle(spark, tiny_lake, lake_df, lake_pdf, grams, make):
    """Per-pair Jaccard similarity of every (query record, lake row) that
    share a gram — the record-level input of Jaccard, fuzzy, Table IV
    and ML enrichment."""
    got = set_similarity(query_df(spark, tiny_lake.query), lake_df, grams)
    q_g = pd.DataFrame(
        _exploded([((i,), s) for i, s in enumerate(tiny_lake.query)], make),
        columns=["q_id", "q_size", "gram"],
    )
    s_g = pd.DataFrame(
        _exploded(
            [((r.col_id, r.vec_id), r.value) for r in lake_pdf.itertuples()], make
        ),
        columns=["col_id", "vec_id", "s_size", "gram"],
    )
    assert_equivalent(
        got,
        """
        SELECT s.col_id, s.vec_id, q.q_id,
               count(*) / CAST(any_value(q.q_size) + any_value(s.s_size) - count(*)
                               AS DOUBLE) AS sim
        FROM q_g q JOIN s_g s USING (gram)
        GROUP BY s.col_id, s.vec_id, q.q_id
        """,
        q_g=q_g,
        s_g=s_g,
    )


@pytest.mark.parametrize("theta", [0.4, 0.6, 0.8])
def test_jaccard_matches_oracle(spark, tiny_lake, lake_df, lake_pdf, theta):
    got = jaccard_joinability(spark, tiny_lake.query, lake_df, theta=theta)
    n_q = len(tiny_lake.query)
    q_tok = pd.DataFrame(
        _exploded([((i,), s) for i, s in enumerate(tiny_lake.query)], _tokenize),
        columns=["q_id", "q_size", "tok"],
    )
    s_tok = pd.DataFrame(
        _exploded(
            [((r.col_id, r.vec_id), r.value) for r in lake_pdf.itertuples()],
            _tokenize,
        ),
        columns=["col_id", "vec_id", "s_size", "tok"],
    )
    assert_equivalent(
        got,
        f"""
        WITH inter AS (
          SELECT s.col_id, s.vec_id, q.q_id,
                 any_value(q.q_size) AS qs, any_value(s.s_size) AS ss,
                 count(*) AS i
          FROM q_tok q JOIN s_tok s USING (tok)
          GROUP BY s.col_id, s.vec_id, q.q_id
        )
        SELECT col_id,
               count(DISTINCT q_id) AS n_matched,
               count(DISTINCT q_id) / CAST({n_q} AS DOUBLE) AS joinability
        FROM inter
        WHERE CAST(i AS DOUBLE) / (qs + ss - i) >= {theta}
        GROUP BY col_id
        """,
        q_tok=q_tok,
        s_tok=s_tok,
    )


@pytest.mark.parametrize("theta", [0.5, 0.7])
def test_fuzzy_matches_oracle(spark, tiny_lake, lake_df, lake_pdf, theta):
    got = fuzzy_joinability(spark, tiny_lake.query, lake_df, theta=theta)
    n_q = len(tiny_lake.query)
    q_g = pd.DataFrame(
        _exploded([((i,), s) for i, s in enumerate(tiny_lake.query)], _grams),
        columns=["q_id", "q_size", "gram"],
    )
    s_g = pd.DataFrame(
        _exploded(
            [((r.col_id, r.vec_id), r.value) for r in lake_pdf.itertuples()],
            _grams,
        ),
        columns=["col_id", "vec_id", "s_size", "gram"],
    )
    assert_equivalent(
        got,
        f"""
        WITH inter AS (
          SELECT s.col_id, s.vec_id, q.q_id,
                 any_value(q.q_size) AS qs, any_value(s.s_size) AS ss,
                 count(*) AS i
          FROM q_g q JOIN s_g s USING (gram)
          GROUP BY s.col_id, s.vec_id, q.q_id
        )
        SELECT col_id,
               count(DISTINCT q_id) AS n_matched,
               count(DISTINCT q_id) / CAST({n_q} AS DOUBLE) AS joinability
        FROM inter
        WHERE CAST(i AS DOUBLE) / (qs + ss - i) >= {theta}
        GROUP BY col_id
        """,
        q_g=q_g,
        s_g=s_g,
    )


def test_fuzzy_recall_beats_jaccard_on_typos(spark, tiny_lake, lake_df):
    """Char-gram fuzzy matching finds more perturbed records than token
    Jaccard at the same θ on the planted joinable columns — the Table IV
    recall ordering (fuzzy > Jaccard)."""
    theta = 0.5
    joinable_ids = {c.col_id for c in tiny_lake.columns if c.truth_overlap > 0}
    jac = {
        r["col_id"]: r["n_matched"]
        for r in jaccard_joinability(spark, tiny_lake.query, lake_df, theta=theta).collect()
    }
    fuz = {
        r["col_id"]: r["n_matched"]
        for r in fuzzy_joinability(spark, tiny_lake.query, lake_df, theta=theta).collect()
    }
    jac_hits = sum(n for cid, n in jac.items() if cid in joinable_ids)
    fuz_hits = sum(n for cid, n in fuz.items() if cid in joinable_ids)
    assert fuz_hits >= jac_hits


def test_equi_subset_of_jaccard(spark, tiny_lake, lake_df):
    """Verbatim-equal records always pass Jaccard at any θ ≤ 1."""
    eq = {
        r["col_id"]: r["n_matched"]
        for r in equi_joinability(spark, tiny_lake.query, lake_df).collect()
    }
    jac = {
        r["col_id"]: r["n_matched"]
        for r in jaccard_joinability(spark, tiny_lake.query, lake_df, theta=0.99).collect()
    }
    for cid, n in eq.items():
        assert jac.get(cid, 0) >= n
