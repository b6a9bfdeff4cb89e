"""Model training/evaluation for Table V (pyspark.ml, 4-fold CV).

Regression (Airbnb-lite): linear regression, RMSE. Classification
(company-lite): random forest, micro-F1. For single-label multiclass
prediction micro-F1 equals accuracy, which is what we compute. Folds
are deterministic (row index mod k), matching the paper's 4-fold CV
averaging.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.ml.classification import RandomForestClassifier
from pyspark.ml.feature import VectorAssembler
from pyspark.ml.regression import LinearRegression
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.ml.datasets import MLTask
from repro.ml.enrich import enrich, record_pairs

__all__ = ["MLRow", "cross_validate", "run_ml_task"]


@dataclass
class MLRow:
    """One Table V row: method, match rate, score, lifts filled later."""

    method: str
    match_rate: float
    score: float  # RMSE (regression) or micro-F1 (classification)
    seconds: float  # discovery and enrichment: record_pairs + enrich


def _fit_eval(
    spark: SparkSession,
    pdf: pd.DataFrame,
    feature_cols: list[str],
    label_col: str,
    task_type: str,
    fold: int,
    n_folds: int,
    seed: int,
) -> float:
    pdf = pdf.copy()
    pdf["_fold"] = np.arange(len(pdf)) % n_folds
    sdf = spark.createDataFrame(pdf)
    assembler = VectorAssembler(inputCols=feature_cols, outputCol="features")
    train = assembler.transform(sdf.where(F.col("_fold") != fold))
    test = assembler.transform(sdf.where(F.col("_fold") == fold))
    if task_type == "regression":
        model = LinearRegression(
            featuresCol="features", labelCol=label_col, regParam=0.1
        ).fit(train)
        pred = model.transform(test)
        err = pred.select(
            F.sqrt(F.avg((F.col(label_col) - F.col("prediction")) ** 2)).alias("rmse")
        ).first()["rmse"]
        return float(err)
    model = RandomForestClassifier(
        featuresCol="features",
        labelCol=label_col,
        numTrees=40,
        maxDepth=8,
        seed=seed,
    ).fit(train)
    pred = model.transform(test)
    acc = pred.select(
        F.avg((F.col(label_col) == F.col("prediction")).cast("double")).alias("acc")
    ).first()["acc"]
    return float(acc)  # micro-F1 == accuracy for single-label multiclass


def cross_validate(
    spark: SparkSession,
    pdf: pd.DataFrame,
    feature_cols: list[str],
    label_col: str,
    task_type: str,
    *,
    n_folds: int = 4,
    seed: int = 0,
) -> float:
    """Mean fold score: RMSE (lower better) or micro-F1 (higher better)."""
    scores = [
        _fit_eval(spark, pdf, feature_cols, label_col, task_type, f, n_folds, seed)
        for f in range(n_folds)
    ]
    return float(np.mean(scores))


def run_ml_task(
    spark: SparkSession,
    task: MLTask,
    *,
    methods: list[str] | None = None,
    theta: float = 0.5,
    tau: float = 0.5,
    n_folds: int = 4,
    seed: int = 0,
) -> list[MLRow]:
    """Table V harness: evaluate every discovery method on one task."""
    from repro.ml.enrich import METHODS

    rows: list[MLRow] = []
    for method in methods or METHODS:
        t0 = time.perf_counter()
        pairs = record_pairs(spark, task, method, theta=theta, tau=tau)
        widened, new_cols, match_rate = enrich(task, pairs)
        seconds = time.perf_counter() - t0
        feats = task.base_features + new_cols
        score = cross_validate(
            spark, widened, feats, task.label_col, task.task_type,
            n_folds=n_folds, seed=seed,
        )
        rows.append(MLRow(method, match_rate, score, seconds))
    return rows
