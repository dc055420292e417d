"""Dataset CSV reading and writing, standardization, and synthetic data."""

from __future__ import annotations

import codecs
import csv
import math
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np
import orjson

from .errors import DataError, OprojError, SyntheticSpecError
from .linalg import FeatureMatrix

VALID_ROLES = ("feature", "target", "ignore")
VALID_KINDS = ("numeric", "categorical")


@dataclass(frozen=True)
class ColumnSpec:
    role: str = "feature"
    kind: str = "numeric"

    def __post_init__(self):
        if self.role not in VALID_ROLES:
            raise DataError(f"unknown column role '{self.role}'")
        if self.kind not in VALID_KINDS:
            raise DataError(f"unknown column kind '{self.kind}'")


@dataclass(frozen=True)
class DatasetSchema:
    """Per-column roles and kinds. Columns not listed default to numeric
    features, so an all-numeric CSV needs no schema at all."""

    columns: dict[str, ColumnSpec] = field(default_factory=dict)

    def spec_for(self, name: str) -> ColumnSpec:
        return self.columns.get(name, ColumnSpec())

    def target_column(self) -> str | None:
        targets = [n for n, s in self.columns.items() if s.role == "target"]
        if len(targets) > 1:
            raise DataError(f"schema declares {len(targets)} target columns: {targets}")
        return targets[0] if targets else None

    def categorical_columns(self) -> list[str]:
        return [n for n, s in self.columns.items() if s.kind == "categorical"]

    def with_target(self, name: str) -> "DatasetSchema":
        cols = dict(self.columns)
        kind = cols[name].kind if name in cols else "numeric"
        cols[name] = ColumnSpec(role="target", kind=kind)
        return DatasetSchema(cols)


def _read_text(path: str | Path, error: type[OprojError]) -> str:
    """The UTF-8 text of ``path``, or ``error`` naming why it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        _check_utf8(path, error)
        raise
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from None


_SCAN_BLOCK = 1 << 16  # bytes _check_utf8 reads at a time


def _check_utf8(path: str | Path, error: type[OprojError]) -> None:
    """Raise ``error`` naming ``path`` and the line of its first byte that is
    not UTF-8, if any, reading in blocks so a large file is never held whole."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line = 1
    with open(path, "rb") as fh:
        for block in chain(iter(lambda: fh.read(_SCAN_BLOCK), b""), [b""]):
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                # exc.object may start with a cut-short character: no LF.
                line += exc.object.count(b"\n", 0, exc.start)
                bad = exc.object[exc.start : exc.end]
                raise error(f"{path} line {line} is not UTF-8: {bad!r}") from None
            line += block.count(b"\n")


def _key_value_lines(
    path: str | Path, error: type[OprojError], label: str
) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) of each ``key=value`` line of ``path``,
    key and value stripped. Blank lines and '#' comments are skipped; any
    other line without '=' raises ``error``, naming it as a ``label`` line."""
    for lineno, raw in enumerate(_read_text(path, error).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{label} line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def parse_schema_file(path: str | Path) -> DatasetSchema:
    """Sidecar format: one ``column=role`` or ``column=role:kind`` per line.
    Blank lines and '#' comments are skipped."""
    cols: dict[str, ColumnSpec] = {}
    for lineno, name, value in _key_value_lines(path, DataError, "schema"):
        role, _, kind = value.partition(":")
        spec = ColumnSpec(role=role.strip(), kind=kind.strip() or "numeric")
        if name in cols:
            raise DataError(f"schema line {lineno} repeats column '{name}'")
        cols[name] = spec
    return DatasetSchema(cols)


def _parse_numeric(cell: str, *, row: int, column: str) -> float:
    text = cell.strip()
    if not text:
        raise DataError(
            f"missing value at row {row}, column '{column}'", row=row, column=column
        )
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"unparseable numeric {text!r} at row {row}, column '{column}'",
            row=row,
            column=column,
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"non-finite value {text!r} at row {row}, column '{column}'",
            row=row,
            column=column,
        )
    return value


def _parse_numeric_column(cells: tuple[str, ...], column: str) -> np.ndarray:
    """float() of every cell, or the _parse_numeric error for the first
    cell it rejects. float() strips the same whitespace as str.strip()."""
    try:
        values = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array(
        [_parse_numeric(c, row=r, column=column) for r, c in enumerate(cells, start=1)]
    )


# Every byte a row of plain JSON numbers can hold: digits, sign, point,
# exponent, comma and whitespace.
_NUMBER_BYTES = b"0123456789.eE+-, \t\r\n"
# Small enough that a block's transient bytes and floats leave little freed
# heap behind: on a 50000 x 41 ridge-surrogate audit, 1 MiB blocks raised
# the peak RSS by 4 MiB over one np.loadtxt pass, 128 KiB blocks by 0.4 MiB.
_BLOCK_BYTES = 1 << 17
# An integer -0 cell followed by a separator.
_MINUS_ZERO_INT = (b"-0,", b"-0 ", b"-0\t", b"-0\r", b"-0\n")


def _parse_number_blocks(path: Path, header_lines: int, width: int) -> np.ndarray | None:
    """Every data row as float64, parsed by orjson one block of lines at a
    time, or None when a block is not rows of exactly ``width`` JSON numbers.

    JSON numbers are a subset of what float() reads, and orjson rounds them
    as float() does, so a block that parses holds the per-cell values bit
    for bit. What JSON spells differently (``1.``, ``.5``, ``+1``, ``01``,
    nan, quotes, an out-of-range exponent) raises, and a blank line parses
    as an empty row; both decline. So does a bare CR, which the csv module
    reads as a line break.
    """
    data = np.empty((0, width))
    n = 0
    with path.open("rb") as fh:
        head = b"".join(fh.readline() for _ in range(header_lines))
        if b"\r" in head and head.count(b"\r") != head.count(b"\r\n"):
            return None
        while lines := fh.readlines(_BLOCK_BYTES):
            block = b"".join(lines)
            # The in test spares the two counts on a block with no CR.
            if block.translate(None, _NUMBER_BYTES) or (
                b"\r" in block and block.count(b"\r") != block.count(b"\r\n")
            ):
                return None
            if block.endswith(b"\n"):
                block = block[:-1]
            try:
                rows = np.array(
                    orjson.loads(b"[[" + block.replace(b"\n", b"],[") + b"]]"),
                    dtype=np.float64,
                )
            except ValueError:
                return None
            if rows.shape != (len(lines), width):
                return None
            # orjson reads an integer -0 as int 0, where float() gives -0.0.
            # Only a block holding a zero can hold one.
            if not rows.all() and (
                block.endswith(b"-0") or any(t in block for t in _MINUS_ZERO_INT)
            ):
                return None
            # Grow the result in place, as loadtxt does, rather than keep
            # every block until a final copy.
            if n + len(rows) > len(data):
                data.resize((max(2 * len(data), n + len(rows)), width), refcheck=False)
            data[n : n + len(rows)] = rows
            n += len(rows)
    if n == 0:
        return None
    data.resize((n, width), refcheck=False)
    return data


def load_csv(
    path: str | Path, schema: DatasetSchema | None = None
) -> tuple[FeatureMatrix, np.ndarray | None]:
    """Load a UTF-8, comma-delimited, header-mandatory CSV.

    Numeric columns parse as float64. Categorical columns one-hot encode
    into ``<col>=<level>`` indicator columns, levels ordered
    lexicographically. Missing cells and unparseable numerics are hard
    errors naming the row and column; duplicate headers are rejected, and
    so is a schema naming a column the header lacks, before any row is
    parsed. A UTF-8 byte-order mark before the header is skipped. Returns the
    feature matrix and the target vector when the schema declares a target
    column.

    Every file is first parsed in blocks of JSON numbers, whatever its
    schema: numeric and target columns take their values from the blocks,
    ignored columns are dropped, and categorical columns read their levels
    from the text of their cells. A file the blocks decline, such as one
    with a text cell in any column or with quoted numbers, is parsed cell
    by cell; that parse is the one that names a bad row and column.
    """
    schema = schema or DatasetSchema()
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path} is empty; a header row is required") from None
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                dupes = sorted({h for h in header if header.count(h) > 1})
                raise DataError(f"duplicate header names: {dupes}")
            missing = sorted(set(schema.columns) - set(header))
            if missing:
                raise DataError(f"{path} has no columns named {missing}")
            specs = [schema.spec_for(h) for h in header]
            bulk = _parse_number_blocks(path, reader.line_num, len(header))
            if bulk is not None and not np.isfinite(bulk).all():
                bulk = None
            # Categorical cells, and every cell when the blocks decline, go
            # through the csv module.
            text_needed = bulk is None or any(
                s.role == "feature" and s.kind == "categorical" for s in specs
            )
            rows = list(reader) if text_needed else None
    except UnicodeDecodeError:
        _check_utf8(path, DataError)
        raise
    if rows is not None and not rows:
        raise DataError(f"{path} has a header but no data rows")

    for r, row in enumerate(rows or (), start=1):
        if len(row) != len(header):
            raise DataError(
                f"row {r} has {len(row)} cells, expected {len(header)}", row=r
            )
    # One tuple of cells per column.
    raw_columns = dict(zip(header, zip(*rows))) if rows else {}

    names: list[str] = []
    columns: list[np.ndarray] = []
    target: np.ndarray | None = None
    schema.target_column()  # refuses a schema with two targets
    for j, (h, spec) in enumerate(zip(header, specs)):
        if spec.role == "ignore":
            continue
        if spec.role == "feature" and spec.kind == "categorical":
            cells = [c.strip() for c in raw_columns[h]]
            if "" in cells:
                r = cells.index("") + 1
                raise DataError(f"missing value at row {r}, column '{h}'", row=r, column=h)
            levels = sorted(set(cells))
            index = {level: i for i, level in enumerate(levels)}
            codes = np.array([index[c] for c in cells])
            for i, level in enumerate(levels):
                names.append(f"{h}={level}")
                columns.append(codes == i)
            continue
        values = bulk[:, j] if bulk is not None else _parse_numeric_column(raw_columns[h], h)
        if spec.role == "target":
            target = values.copy()
        else:
            names.append(h)
            columns.append(values)

    if not columns:
        raise DataError(f"{path} contains no feature columns after applying the schema")
    # The parsed cells dominate peak memory; free them before the matrix
    # gets its one (column-major) array.
    del rows, raw_columns
    return FeatureMatrix._adopt(names, np.array(columns, dtype=np.float64).T), target


# Rows encoded per write: enough to amortize the per-call overhead, few
# enough that a block's bytes stay small next to the matrix.
_CSV_BLOCK_ROWS = 1024

# Characters a header cell cannot hold, since the format has no quoting.
_UNQUOTABLE = (",", '"', "\r", "\n")


def check_header_names(names: Sequence[str]) -> None:
    """Raise ``DataError`` naming every name that holds a comma, a double
    quote, CR or LF, which the unquoted CSV header cannot carry."""
    bad = [n for n in names if any(c in n for c in _UNQUOTABLE)]
    if bad:
        raise DataError(
            f"column names {bad} hold a comma, double quote, CR or LF, which "
            "the unquoted CSV header cannot carry"
        )


def format_matrix_csv(names: Sequence[str], data: np.ndarray, out: BinaryIO) -> None:
    """Write UTF-8 CSV to ``out``: a header, then one line per row of ``data``.

    Every value is written as ``repr`` writes it, the shortest decimal that
    parses back to the identical float64. This is both the model wire's
    payload and the ``save_csv`` file format.

    orjson writes each block of rows with the same shortest digits, about
    ten times faster than ``repr``, but spells three kinds of value its own
    way: 1e-9 <= |x| < 1e-4 (``0.00001`` for ``1e-05``, ``1e-6`` for
    ``1e-06``), |x| >= 1e16 (``1e16`` for ``1e+16``) and nan or inf
    (``null``). Below 1e-9 both write the same exponent form. Only those
    cells are rewritten with ``repr``, so the bytes are ``repr``'s byte for
    byte and the extra cost grows with the number of such cells. The rule
    was checked with orjson 3.8.3; ``test_adapters`` checks it against
    ``repr``, and must pass before orjson is upgraded.

    Cells are not quoted, so a name holding a comma, a double quote, CR or
    LF raises ``DataError`` before anything is written.
    """
    check_header_names(names)
    out.write((",".join(names) + "\n").encode("utf-8"))
    for start in range(0, data.shape[0], _CSV_BLOCK_ROWS):
        block = np.ascontiguousarray(
            data[start : start + _CSV_BLOCK_ROWS], dtype=np.float64
        )
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        lines = text[2:-2].split(b"],[")
        mag = np.abs(block)
        # ~(mag < 1e16) also holds for nan and inf. np.nonzero lists the
        # cells row by row, so groupby yields each row once.
        rows, cols = np.nonzero(((mag >= 1e-9) & (mag < 1e-4)) | ~(mag < 1e16))
        respelled = zip(rows.tolist(), cols.tolist(), block[rows, cols].tolist())
        for i, row_cells in groupby(respelled, key=itemgetter(0)):
            cells = lines[i].split(b",")
            for _, j, value in row_cells:
                cells[j] = repr(value).encode("ascii")
            lines[i] = b",".join(cells)
        out.write(b"\n".join(lines) + b"\n")


def save_csv(
    X: FeatureMatrix,
    path: str | Path,
    *,
    target: np.ndarray | None = None,
    target_name: str = "target",
) -> None:
    """Write a matrix (plus optional target column) with full round-trip
    precision, matching what load_csv expects back."""
    path = Path(path)
    names = list(X.names)
    data = X.data
    if target is not None:
        if target.shape[0] != X.n:
            raise DataError(
                f"target length {target.shape[0]} does not match {X.n} rows"
            )
        if target_name in names:
            raise DataError(f"target name '{target_name}' collides with a feature")
        target = np.asarray(target, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(target))
        if bad.size:
            # Rows are numbered as load_csv numbers them, from 1.
            row = int(bad[0]) + 1
            raise DataError(
                f"non-finite target at row {row}, column '{target_name}'",
                row=row,
                column=target_name,
            )
        names.append(target_name)
        data = np.column_stack([data, target])
    check_header_names(names)  # before the file is created or truncated
    with path.open("wb") as fh:
        format_matrix_csv(names, data, fh)


# Below this sd, squared deviations fall out of float64's normal range.
_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))


def _moments(v: np.ndarray) -> tuple[float, float]:
    """Mean and population sd; either is inf or nan when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(v))
        return mean, float(np.sqrt(np.mean((v - mean) ** 2)))


def standardize(X: FeatureMatrix) -> tuple[FeatureMatrix, np.ndarray, np.ndarray]:
    """Z-score every column (population convention, divisor n).

    Returns the standardized matrix and length-k ``offset`` and ``scale``
    arrays with z = (x - offset) / scale, so a standardized block maps back
    as z * scale + offset. A second centering pass, folded into the offset,
    keeps the output mean below 1e-12 even for columns with large offsets.
    A column whose squared deviations overflow or underflow float64 (sd
    beyond about 1e154 or below about 1e-154) is standardized as the column
    times 2**-e, with 2**e just above its largest magnitude, and its offset
    and scale are multiplied back by 2**e; scaling by a power of two is
    exact. So every column is standardized whatever its magnitude, except
    one that is constant or whose sd is below 1e-12 of its mean's
    magnitude: that passes through with offset 0 and scale 1, and the
    audit, not standardization, judges it.
    """
    out = np.empty((X.n, X.k), order="F")
    offset = np.zeros(X.k)
    scale = np.ones(X.k)
    for j in range(X.k):
        v = X.data[:, j]
        e = 0
        mean, sd = _moments(v)
        if not _SQRT_TINY <= sd < np.inf:
            e = int(np.frexp(np.max(np.abs(v)))[1])
            v = np.ldexp(v, -e)
            mean, sd = _moments(v)
        if sd == 0.0 or sd < 1e-12 * abs(mean):
            out[:, j] = X.data[:, j]
            continue
        z = (v - mean) / sd
        resid_mean = float(np.mean(z))
        out[:, j] = z - resid_mean
        offset[j] = np.ldexp(mean + sd * resid_mean, e)
        scale[j] = np.ldexp(sd, e)
    return FeatureMatrix._adopt(X.names, out), offset, scale


@dataclass(frozen=True)
class NonlinearTerm:
    """Extra additive contribution to the synthetic target.

    kind "squared" adds coefficient * x^2; kind "log" adds
    coefficient * log(x - min(x) + 1).
    """

    feature: str
    kind: str
    coefficient: float

    def __post_init__(self):
        if self.kind not in ("squared", "log"):
            raise SyntheticSpecError(f"unknown nonlinear kind '{self.kind}'")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a correlated-Gaussian benchmark with known ground truth."""

    n: int
    coefficients: tuple[float, ...]
    names: tuple[str, ...] = ()
    noise_sd: float = 0.0
    correlation: np.ndarray | None = None
    nonlinear: tuple[NonlinearTerm, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise SyntheticSpecError(f"need n >= 2 samples, got {self.n}")
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise SyntheticSpecError("at least one coefficient is required")
        names = tuple(self.names) or tuple(f"x{j + 1}" for j in range(len(coeffs)))
        if len(names) != len(coeffs):
            raise SyntheticSpecError(
                f"{len(names)} names for {len(coeffs)} coefficients"
            )
        if len(set(names)) != len(names):
            raise SyntheticSpecError("feature names must be unique")
        if self.noise_sd < 0:
            raise SyntheticSpecError("noise_sd must be >= 0")
        corr = self.correlation
        if corr is not None:
            corr = np.asarray(corr, dtype=np.float64)
            k = len(coeffs)
            if corr.shape != (k, k):
                raise SyntheticSpecError(
                    f"correlation matrix shape {corr.shape} does not match k={k}"
                )
            if not np.allclose(corr, corr.T, atol=1e-12):
                raise SyntheticSpecError("correlation matrix must be symmetric")
            corr = corr.copy()
            corr.flags.writeable = False
        for term in self.nonlinear:
            if term.feature not in names:
                raise SyntheticSpecError(
                    f"nonlinear term references unknown feature '{term.feature}'"
                )
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "correlation", corr)
        object.__setattr__(self, "nonlinear", tuple(self.nonlinear))

    @property
    def k(self) -> int:
        return len(self.coefficients)


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[FeatureMatrix, np.ndarray, tuple[str, ...] | None]:
    """Draw correlated Gaussian features and a linear(+optional nonlinear)
    target from a seeded generator.

    Features come from the Cholesky factor of the correlation matrix, so a
    non-positive-definite matrix is a SyntheticSpecError. The returned
    importance order is descending |coefficient| (ties by name) and is None
    when nonlinear terms make it unknowable from coefficients alone.
    """
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal((spec.n, spec.k))
    if spec.correlation is not None:
        try:
            chol = np.linalg.cholesky(spec.correlation)
        except np.linalg.LinAlgError:
            raise SyntheticSpecError(
                "correlation matrix is not positive definite (Cholesky failed)"
            ) from None
        data = z @ chol.T
    else:
        data = z
    X = FeatureMatrix.from_arrays(spec.names, data)
    y = data @ np.asarray(spec.coefficients)
    for term in spec.nonlinear:
        col = data[:, spec.names.index(term.feature)]
        if term.kind == "squared":
            y = y + term.coefficient * col**2
        else:
            y = y + term.coefficient * np.log(col - np.min(col) + 1.0)
    if spec.noise_sd > 0:
        y = y + spec.noise_sd * rng.standard_normal(spec.n)

    if spec.nonlinear:
        order = None
    else:
        order = tuple(
            name
            for _, name in sorted(
                zip(spec.coefficients, spec.names), key=lambda t: (-abs(t[0]), t[1])
            )
        )
    return X, y, order


def parse_synthetic_spec(path: str | Path) -> SyntheticSpec:
    """Parse a key=value spec file.

    Keys: n, coefficients (comma list), names (comma list, optional),
    noise_sd, seed, and repeatable ``corr=name1,name2,rho`` and
    ``nonlinear=name,kind,coef`` lines.
    """
    scalars: dict[str, str] = {}
    corr_entries: list[tuple[str, str, float]] = []
    nonlinear: list[NonlinearTerm] = []
    # Every line is checked for '=' before any value is parsed.
    for lineno, key, value in list(_key_value_lines(path, SyntheticSpecError, "spec")):
        key = key.lower()
        if key in ("corr", "nonlinear"):
            usage, what = (
                ("name1,name2,rho", "correlation")
                if key == "corr"
                else ("name,kind,coef", "coefficient")
            )
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 3:
                raise SyntheticSpecError(f"spec line {lineno}: {key} needs {usage}")
            try:
                number = float(parts[2])
            except ValueError:
                raise SyntheticSpecError(
                    f"spec line {lineno}: bad {what} {parts[2]!r}"
                ) from None
            if key == "corr":
                corr_entries.append((parts[0], parts[1], number))
            else:
                nonlinear.append(NonlinearTerm(parts[0], parts[1], number))
        else:
            if key in scalars:
                raise SyntheticSpecError(f"spec line {lineno} repeats key '{key}'")
            scalars[key] = value

    known = {"n", "coefficients", "names", "noise_sd", "seed"}
    unknown = set(scalars) - known
    if unknown:
        raise SyntheticSpecError(f"unknown spec keys: {sorted(unknown)}")
    if "n" not in scalars or "coefficients" not in scalars:
        raise SyntheticSpecError("spec requires both 'n' and 'coefficients'")
    try:
        n = int(scalars["n"])
        coefficients = tuple(float(c) for c in scalars["coefficients"].split(","))
        noise_sd = float(scalars.get("noise_sd", "0"))
        seed = int(scalars.get("seed", "0"))
    except ValueError as exc:
        raise SyntheticSpecError(f"bad scalar value in spec: {exc}") from None
    names = (
        tuple(s.strip() for s in scalars["names"].split(","))
        if "names" in scalars
        else ()
    )

    correlation = None
    if corr_entries:
        resolved = names or tuple(f"x{j + 1}" for j in range(len(coefficients)))
        correlation = np.eye(len(coefficients))
        for a, b, rho in corr_entries:
            if a not in resolved or b not in resolved:
                raise SyntheticSpecError(f"corr references unknown feature: {a},{b}")
            i, j = resolved.index(a), resolved.index(b)
            if i == j:
                raise SyntheticSpecError(f"corr must name two distinct features: {a}")
            correlation[i, j] = correlation[j, i] = rho

    return SyntheticSpec(
        n=n,
        coefficients=coefficients,
        names=names,
        noise_sd=noise_sd,
        correlation=correlation,
        nonlinear=tuple(nonlinear),
        seed=seed,
    )
