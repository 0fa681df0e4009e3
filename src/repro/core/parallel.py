"""The one sample-parallel executor behind Alg. 2, MCS, BG and Exact.

Each of them sums a kernel over ids ``0..n-1`` — sample ids (Δ, MCS),
candidate positions (BG) or combination positions (Exact). A kernel is
``kernel(g, ids) -> (size,)`` array; it must accept an empty ``ids``.

With ``spark`` given, the ids are spread over ``defaultParallelism``
tasks; each task makes one kernel call on the broadcast graph and emits
its non-zero ``(i, v)`` rows, which the driver adds up. Every kernel
value is an integer count or the value of the one id that owns slot
``i``, so the sum does not depend on how ids were partitioned and the
Spark result is bit-identical to the driver path.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.graphs.localgraph import LocalGraph


def sum_over_ids(g: LocalGraph, n: int, size: int, kernel, spark=None) -> np.ndarray:
    """``Σ kernel(g, ids)`` over the ids ``0..n-1``, as a ``(size,)`` float64 vector."""
    if spark is None:
        return np.asarray(kernel(g, range(n)), dtype=np.float64)
    bc = g.broadcast(spark)

    def task(batches):
        ids = [int(i) for pdf in batches for i in pdf["id"]]
        part = np.asarray(kernel(bc.value, ids), dtype=np.float64)
        nz = np.flatnonzero(part)
        yield pd.DataFrame({"i": nz.astype(np.int64), "v": part[nz]})

    out = (
        spark.range(int(n))
        .repartition(spark.sparkContext.defaultParallelism)
        .mapInPandas(task, "i long, v double")
        .toPandas()
    )
    total = np.zeros(size, dtype=np.float64)
    np.add.at(total, out["i"].to_numpy(), out["v"].to_numpy())
    return total
