"""Session and output helpers for the spark-submit entrypoints.

``get_spark`` is ``repro.session.get_spark``, the same session the tests use.
"""
import sys

from repro.session import get_spark  # noqa: F401  (re-exported for the jobs)


def emit(df, out_path: str | None):
    """Print a result frame and optionally write it as CSV."""
    text = df.to_string(index=False)
    print(text)
    if out_path:
        df.to_csv(out_path, index=False)
        print(f"[written] {out_path}", file=sys.stderr)
