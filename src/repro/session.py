"""The one SparkSession definition, shared by the jobs and the tests.

``spark.driver.memory`` and the master are read at JVM launch, not from
SparkConf, so they go in ``PYSPARK_SUBMIT_ARGS``. Only a default is set
there: a caller that exports its own submit arguments first keeps them.
"""
import os


def get_spark(app: str):
    """Get or create the local SparkSession named ``app``.

    Master and driver memory come from ``SPARK_MASTER`` (default
    ``local[*]``) and ``SPARK_DRIVER_MEM`` (default ``8g``). Broadcast
    joins are disabled so the DataFrame paths exercise shuffle joins.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
