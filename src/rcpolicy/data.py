"""Point-treatment dataset container and CSV round-tripping.

A Dataset holds covariates W, a binary treatment A, an outcome Y bounded
to a known interval, and an optional nonnegative cost per observation.
Outcomes are analyzed internally on the [0, 1] scale; `scale_outcome`
produces the rescaled copy and records the original bounds in
`Dataset.y_scale`, from which estimates are mapped back.

CSV text uses shortest exact float representations (round-trip safe at
up to 17 significant digits), so write -> ingest -> write is
byte-identical. `write_rows` holds the one cell rule for every CSV the
package writes.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ColumnSchema",
    "Dataset",
    "ingest_csv",
    "scale_outcome",
    "write_csv",
]


@dataclass(frozen=True)
class ColumnSchema:
    """Column mapping for CSV ingestion.

    outcome_kind: "binary", "bounded_real", or None to auto-detect
    (all outcome values in {0, 1} means binary). y_bounds overrides the
    observed range for bounded_real outcomes; a binary outcome takes none.
    """

    treatment: str
    outcome: str
    covariates: tuple[str, ...]
    cost: str | None = None
    outcome_kind: str | None = None
    y_bounds: tuple[float, float] | None = None


@dataclass(frozen=True)
class Dataset:
    """Columnar point-treatment data.

    y_bounds always brackets y. y_scale, when set, holds the original
    outcome bounds that y was affinely mapped from (lo, hi); None means
    y is on its native scale.
    """

    w: np.ndarray
    a: np.ndarray
    y: np.ndarray
    covariate_names: tuple[str, ...]
    outcome_kind: str = "binary"
    y_bounds: tuple[float, float] = (0.0, 1.0)
    c: np.ndarray | None = None
    y_scale: tuple[float, float] | None = None

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        a = np.asarray(self.a, dtype=int)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)
        if self.c is not None:
            object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        n = len(y)
        if n < 1:
            raise ValueError("dataset must contain at least one observation")
        if w.shape[0] != n or len(a) != n or (self.c is not None and len(self.c) != n):
            raise ValueError("column lengths disagree")
        if w.shape[1] != len(self.covariate_names):
            raise ValueError("covariate_names does not match covariate count")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(y)):
            raise ValueError("non-finite values in covariates or outcome")
        if not np.all((a == 0) | (a == 1)):
            raise ValueError("treatment must be coded 0/1")
        if self.outcome_kind not in ("binary", "bounded_real"):
            raise ValueError(f"unknown outcome_kind {self.outcome_kind!r}")
        lo, hi = self.y_bounds
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("y_bounds must be finite with min < max")
        if np.any(y < lo) or np.any(y > hi):
            raise ValueError("outcome values outside y_bounds")
        if self.outcome_kind == "binary" and not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("binary outcome_kind requires y in {0, 1}")
        if self.c is not None:
            if not np.all(np.isfinite(self.c)) or np.any(self.c < 0):
                raise ValueError("costs must be finite and nonnegative")

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def n_treated(self) -> int:
        return int(np.sum(self.a))

    @property
    def has_both_arms(self) -> bool:
        return 0 < self.n_treated < self.n

    def subset(self, idx: np.ndarray) -> "Dataset":
        c = None if self.c is None else self.c[idx]
        return replace(self, w=self.w[idx], a=self.a[idx], y=self.y[idx], c=c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        same_c = (self.c is None and other.c is None) or (
            self.c is not None and other.c is not None and np.array_equal(self.c, other.c)
        )
        return (
            np.array_equal(self.w, other.w)
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.y, other.y)
            and same_c
            and self.covariate_names == other.covariate_names
            and self.outcome_kind == other.outcome_kind
            and self.y_bounds == other.y_bounds
            and self.y_scale == other.y_scale
        )

    __hash__ = None


def ingest_csv(path, schema: ColumnSchema) -> Dataset:
    """Read and validate a CSV into a Dataset.

    Rejects an empty covariate list, missing or non-numeric cells (naming
    the column), non-binary treatment codes, single-arm data, y_bounds on
    a binary outcome, and out-of-bounds outcomes. Each named column has
    one role: a column used as two of treatment, outcome, cost and
    covariate, a covariate listed twice, and a header that repeats a name
    the schema uses are errors naming the column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if not schema.covariates:
        raise ValueError(f"{path}: no covariates given; name at least one covariate column")

    col_idx = {name: j for j, name in enumerate(header)}
    roles = {}
    for role, name in (("treatment", schema.treatment), ("outcome", schema.outcome),
                       ("cost", schema.cost), *(("covariate", c) for c in schema.covariates)):
        if name is None:
            continue
        if name in roles:
            what = "listed twice" if role == roles[name] else f"used as {roles[name]} and {role}"
            raise ValueError(f"{path}: column {name!r} {what}")
        if name not in col_idx:
            raise ValueError(f"{path}: missing column {name!r}")
        if header.count(name) > 1:
            raise ValueError(f"{path}: header repeats column {name!r}")
        roles[name] = role

    def column(name: str) -> np.ndarray:
        j = col_idx[name]
        out = np.empty(len(rows))
        for i, row in enumerate(rows):
            cell = row[j].strip() if j < len(row) else ""
            if cell == "":
                raise ValueError(f"{path}: missing value in column {name!r} (row {i + 2})")
            try:
                out[i] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell!r} in column {name!r} (row {i + 2})"
                ) from None
        return out

    a_raw = column(schema.treatment)
    if not np.all(np.isin(a_raw, (0.0, 1.0))):
        bad = sorted(set(a_raw[~np.isin(a_raw, (0.0, 1.0))]))
        raise ValueError(
            f"{path}: treatment column {schema.treatment!r} must be coded 0/1, saw {bad[:5]}"
        )
    a = a_raw.astype(int)
    if a.sum() == 0 or a.sum() == len(a):
        raise ValueError(f"{path}: single-arm dataset (treatment column {schema.treatment!r})")

    y = column(schema.outcome)
    w = np.column_stack([column(name) for name in schema.covariates])
    c = column(schema.cost) if schema.cost is not None else None

    kind = schema.outcome_kind
    if kind is None:
        kind = "binary" if np.all((y == 0.0) | (y == 1.0)) else "bounded_real"
    if kind == "binary":
        if schema.y_bounds is not None:
            raise ValueError(
                f"{path}: y_bounds are for bounded_real outcomes, and outcome column "
                f"{schema.outcome!r} is binary; pass --outcome-kind bounded_real to scale it"
            )
        bounds = (0.0, 1.0)
    elif schema.y_bounds is not None:
        bounds = schema.y_bounds
    else:
        lo, hi = float(np.min(y)), float(np.max(y))
        if lo == hi:
            raise ValueError(
                f"{path}: outcome column {schema.outcome!r} is constant; "
                "bounded_real outcomes need a non-degenerate range"
            )
        bounds = (lo, hi)

    return Dataset(
        w=w,
        a=a,
        y=y,
        covariate_names=tuple(schema.covariates),
        outcome_kind=kind,
        y_bounds=bounds,
        c=c,
    )


def _csv_cell(v) -> str:
    """CSV text of one cell: the shortest exact repr of a finite float, an
    int as digits, an empty cell for None or a non-finite float."""
    if v is None:
        return ""
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return repr(f) if math.isfinite(f) else ""
    if isinstance(v, (np.integer, int)) and not isinstance(v, bool):
        return str(int(v))
    return str(v)


def write_rows(fh, header, rows) -> None:
    """A header row, then each row's cells by `_csv_cell`, to an open file."""
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])


def write_csv(ds: Dataset, path) -> list[str]:
    """Write a Dataset with exact-round-trip float formatting; returns the
    header."""
    header = list(ds.covariate_names) + ["a", "y"] + (["c"] if ds.c is not None else [])
    cols = [*ds.w.T, ds.a, ds.y] + ([ds.c] if ds.c is not None else [])
    with open(path, "w", newline="") as fh:
        write_rows(fh, header, zip(*(col.tolist() for col in cols)))
    return header


def scale_outcome(ds: Dataset) -> Dataset:
    """Affinely map the outcome onto [0, 1], recording the original bounds.

    Binary outcomes map through the identity (bounds (0, 1)). Applying the
    transform twice is a no-op. The original bounds land in y_scale so value
    estimates can be mapped back as lo + v * (hi - lo).
    """
    if ds.y_scale is not None:
        return ds
    lo, hi = ds.y_bounds
    if hi <= lo:
        raise ValueError("degenerate outcome bounds")
    y = (ds.y - lo) / (hi - lo)
    # guard against float dust outside [0, 1]
    y = np.clip(y, 0.0, 1.0)
    return replace(ds, y=y, y_bounds=(0.0, 1.0), y_scale=(lo, hi))
