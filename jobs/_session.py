"""Shared SparkSession builder for spark-submit jobs.

Jobs are thin wrappers: every experiment is a function taking a
SparkSession (see repro.experiments.*); this module only provides the
session with the same configs as the pytest fixture.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
