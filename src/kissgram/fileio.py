"""Text file formats: vector sets, Gram matrices, cosine reports, certificates.

All formats are line-oriented with LF endings and a single header line, so
mathematical claims stay human-diffable.  Float scalars are written with 17
significant digits and round-trip exactly; rational scalars are written as
p/q literals.

Vector and Gram files share one grammar.  Rows are the lines between LF
characters: ``#`` starts a comment, blank lines are skipped, and any other
whitespace (CR, tab, form feed, NEL, U+2028, ...) separates entries within a
row.  The first row is the header; it alone tells a Gram file from a vector
file.  Every number read follows a literal rule of ``rational``: a float is
an ASCII token without ``_`` that ``float()`` accepts, an integer ASCII
``[+-]?[0-9]+`` and a rational an ASCII ``p/q`` or integer.  A float vector
file is read by numpy's C reader (``np.loadtxt``), which converts as
``float()`` does; a file it refuses, or reads to another shape than the
header's, is read again row by row, and that reader, the only one for Gram
and rational files, words every parse error.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .cosines import CosineSet, CosineSimResult, CosineValue, snap_value
from .errors import ParseError
from .gram import GramState
from .rational import float_literal, format_rational, integer_literal, parse_numerators
from .verify import Certificate

VECTOR_MAGIC = "kiss-vectors v1"
GRAM_MAGIC = "kiss-gram v1"
COSINE_MAGIC = "kiss-cosines v1"
CERT_MAGIC = "kiss-certificate v1"


def format_float(x: float) -> str:
    return f"{x:.16e}"


def _parse_header(line: str, magic: str, path) -> dict[str, str]:
    if not line.startswith(magic):
        raise ParseError(f"{path}: expected header {magic!r}, got {line[:40]!r}")
    fields = {}
    for token in line[len(magic):].split():
        if "=" not in token:
            raise ParseError(f"{path}: malformed header token {token!r}")
        key, value = token.split("=", 1)
        if key in fields:
            raise ParseError(f"{path}: repeated header key {key!r}")
        fields[key] = value
    return fields


def _data_line(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _data_lines(text: str) -> list[str]:
    """The non-blank lines of ``text`` without comments, split on LF only."""
    return [line for line in map(_data_line, text.split("\n")) if line]


def _require_finite(matrix: np.ndarray, path):
    """Raise ParseError naming the first row that holds a nan or inf entry."""
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: row {bad[0] + 1} has a non-finite entry")


def _header_int(fields: dict[str, str], key: str, path) -> int:
    if key not in fields:
        raise ParseError(f"{path}: header is missing {key}=")
    try:
        return integer_literal(fields[key])
    except ValueError as exc:
        raise ParseError(f"{path}: bad {key}= value {fields[key]!r}") from exc


@contextmanager
def _text_file(path):
    """The file open as UTF-8 text whose lines end at LF only, line endings
    as written; a read or decode error in the block is a ParseError."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_text(path) -> str:
    with _text_file(path) as fh:
        return fh.read()


def _table_header(line: str, magic: str, path) -> tuple[int, int, str]:
    """``dim`` (at least 1), ``count`` (at least 0) and mode of a vector or
    Gram file's header line."""
    fields = _parse_header(line, magic, path)
    dim = _header_int(fields, "dim", path)
    count = _header_int(fields, "count", path)
    if dim < 1 or count < 0:
        raise ParseError(f"{path}: header needs dim >= 1 and count >= 0, got dim={dim} "
                         f"count={count}")
    mode = fields.get("mode", "float")
    if mode not in ("float", "rational"):
        raise ParseError(f"{path}: unknown mode {mode!r}")
    return dim, count, mode


def _table_rows(text: str, magic: str, path) -> tuple[int, int, str, list[str]]:
    """The header fields and the ``count`` data rows of a vector or Gram file."""
    lines = _data_lines(text)
    if not lines:
        raise ParseError(f"{path}: empty file")
    dim, count, mode = _table_header(lines[0], magic, path)
    if len(lines) - 1 != count:
        raise ParseError(f"{path}: header claims {count} rows, found {len(lines) - 1}")
    return dim, count, mode, lines[1:]


def _table_entries(rows: list[str], widths, mode: str, path
                   ) -> tuple[np.ndarray, np.ndarray | None, int | None]:
    """The entries of ``rows``, row i holding ``widths[i]``, row-major: floats
    and, in rational mode, Python-int numerators N over the least common
    denominator D, whose floats are N / D, each correctly rounded.  Storage
    grows with the entries read, never with the widths a header claims."""
    values: list = []  # floats, or in rational mode every literal
    for i, (row, width) in enumerate(zip(rows, widths)):
        parts = row.split()
        if len(parts) != width:
            raise ParseError(f"{path}: row {i + 1} has {len(parts)} entries, expected {width}")
        try:
            values += parts if mode == "rational" else map(float_literal, parts)
        except ValueError as exc:
            raise ParseError(f"{path}: row {i + 1}: {exc}") from exc
    if mode == "float":
        return np.array(values, dtype=float), None, None
    try:
        numerators, scale = parse_numerators(values)
        exact = np.array(numerators, dtype=object)
        return (exact / scale).astype(float), exact, scale
    except (ParseError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class VectorDoc:
    """A vector file.  In rational mode ``exact`` holds the coordinates as an
    m x n object array of Python-int numerators over ``exact_scale`` (D), as
    ``GramState`` holds an exact Gram, and ``vectors`` is their float view."""

    dim: int
    mode: str
    vectors: np.ndarray
    exact: np.ndarray | None = None
    exact_scale: int | None = None

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


def write_vector_file(path, vectors: np.ndarray, mode: str = "float",
                      exact_rows: list[list[Fraction]] | None = None):
    v = np.asarray(vectors, dtype=float)
    m, n = v.shape
    lines = [f"{VECTOR_MAGIC} dim={n} count={m} mode={mode}"]
    if mode == "rational":
        if exact_rows is None or len(exact_rows) != m:
            raise ParseError("rational vector file needs exact coordinates for every row")
        for row in exact_rows:
            lines.append(" ".join(format_rational(Fraction(x)) for x in row))
    else:
        for row in v:
            lines.append(" ".join(format_float(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_float_rows(fh, path) -> np.ndarray | None:
    """The rows of the vector file open as ``fh`` as numpy's C reader reads
    them, or None when the file is not one it reads as ``count`` x ``dim``
    float rows: rational, empty, unreadable or malformed."""
    try:
        header = next(filter(None, map(_data_line, fh)), "")
        dim, count, mode = _table_header(header, VECTOR_MAGIC, path)
        if mode != "float" or count == 0:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a file with no rows
            rows = np.loadtxt(fh, dtype=float, comments="#", ndmin=2)
    except (ParseError, ValueError, OSError, UserWarning):  # UnicodeDecodeError included
        return None
    return rows if rows.shape == (count, dim) else None


def read_vector_file(path) -> VectorDoc:
    with _text_file(path) as fh:
        vectors = _load_float_rows(fh, path)
        if vectors is not None:
            _require_finite(vectors, path)
            return VectorDoc(dim=vectors.shape[1], mode="float", vectors=vectors)
        fh.seek(0)  # the per-row reader decides, and words every error
        text = fh.read()
    dim, count, mode, rows = _table_rows(text, VECTOR_MAGIC, path)
    floats, exact, scale = _table_entries(rows, [dim] * count, mode, path)
    try:  # with no rows, a dim too large for any array shape is only found here
        vectors = floats.reshape(count, dim)
    except ValueError as exc:
        raise ParseError(f"{path}: dim={dim} exceeds numpy's array limits") from exc
    _require_finite(vectors, path)
    if exact is not None:
        exact = exact.reshape(count, dim)
    return VectorDoc(dim=dim, mode=mode, vectors=vectors, exact=exact, exact_scale=scale)


def gram_text(state: GramState, mode: str) -> str:
    """Header line, then the upper triangle (diagonal included) row-major."""
    m = state.m
    lines = [f"{GRAM_MAGIC} dim={state.dim} count={m} mode={mode}"]
    if mode == "rational":
        if state.exact is None:
            raise ParseError("state has no exact entries for a rational gram file")
        keys = state.exact
        label = {n: format_rational(Fraction(n, state.exact_scale)) for n in set(keys.flat)}
    else:
        # Keyed on the bit pattern: -0.0 == 0.0 as dict keys, but they format differently.
        keys = np.ascontiguousarray(state.entries).view(np.int64)
        # Sort and diff rather than np.unique, which imports numpy.ma on first use.
        ordered = np.sort(keys, axis=None)
        distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
        label = dict(zip(distinct.tolist(), map(format_float, distinct.view(np.float64).tolist())))
    lines += [" ".join(map(label.__getitem__, keys[i, i:].tolist())) for i in range(m)]
    return "\n".join(lines) + "\n"


def write_gram_file(path, state: GramState, mode: str | None = None):
    Path(path).write_text(gram_text(state, state.mode if mode is None else mode), encoding="utf-8")


def parse_gram_text(text: str, path) -> GramState:
    """Parse ``gram_text`` output; ``path`` names the source in errors."""
    dim, count, mode, rows = _table_rows(text, GRAM_MAGIC, path)
    floats, numerators, scale = _table_entries(rows, range(count, 0, -1), mode, path)
    upper = np.triu_indices(count)
    entries = np.zeros((count, count))
    entries[upper] = entries[upper[::-1]] = floats
    _require_finite(entries, path)
    exact = None
    if numerators is not None:
        exact = np.zeros((count, count), dtype=object)
        exact[upper] = exact[upper[::-1]] = numerators
    return GramState(dim=dim, entries=entries, exact=exact, exact_scale=scale)


def read_gram_file(path) -> GramState:
    return parse_gram_text(_read_text(path), path)


def read_table_file(path) -> VectorDoc | GramState:
    """A Gram file when its header line, found as the readers find it, is a
    Gram header; else a vector file, whose reader words a header error."""
    with _text_file(path) as fh:
        gram = next(filter(None, map(_data_line, fh)), "").startswith(GRAM_MAGIC)
    return read_gram_file(path) if gram else read_vector_file(path)


def _cosine_value_fields(entry: CosineValue) -> str:
    exact = entry.label if entry.label else "-"
    return f"{format_float(entry.value)} exact={exact}"


def write_cosine_report(path, result: CosineSimResult, dim: int, budget: int):
    lines = [
        f"{COSINE_MAGIC} dim={dim} budget={budget} samples={result.histogram.total()} "
        f"best={result.best_count} converged={int(result.converged)}"
    ]
    total = max(result.histogram.total(), 1)
    for entry, count in zip(result.cosine_set.entries, result.counts):
        lines.append(f"{_cosine_value_fields(entry)} freq={count / total:.6f} stable=1")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class CosineReport:
    dim: int
    budget: int
    samples: int
    best: int
    converged: bool
    cosine_set: CosineSet


def read_cosine_report(path) -> CosineReport:
    text = _read_text(path)
    lines = _data_lines(text)
    if not lines:
        raise ParseError(f"{path}: empty file")
    fields = _parse_header(lines[0], COSINE_MAGIC, path)
    entries = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"{path}: malformed cosine line {line!r}")
        try:  # snap_value's Fraction(value) rejects nan and inf
            value = float_literal(parts[0])
            snapped = snap_value(value)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: bad cosine value {parts[0]!r}") from exc
        exact_label = parts[1].removeprefix("exact=")
        if exact_label == "-":
            entries.append(CosineValue(value=value))
        elif snapped.display() != exact_label:
            raise ParseError(f"{path}: exact form {exact_label!r} does not match value")
        else:
            entries.append(snapped)
    return CosineReport(
        dim=_header_int(fields, "dim", path),
        budget=_header_int(fields, "budget", path),
        samples=_header_int(fields, "samples", path),
        best=_header_int(fields, "best", path),
        converged=bool(_header_int(fields, "converged", path)),
        cosine_set=CosineSet(entries=tuple(entries)),
    )


def _rle(values) -> str:
    """Run-length encode an integer sequence: ``56x240`` means 240 copies."""
    out = []
    run_val, run_len = None, 0
    for v in values:
        if v == run_val:
            run_len += 1
        else:
            if run_val is not None:
                out.append(f"{run_val}x{run_len}" if run_len > 1 else str(run_val))
            run_val, run_len = v, 1
    if run_val is not None:
        out.append(f"{run_val}x{run_len}" if run_len > 1 else str(run_val))
    return " ".join(out)


def _un_rle(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for token in text.split():
        value, x, count = token.partition("x")
        out += [integer_literal(value)] * integer_literal(count if x else "1")
    return tuple(out)


def certificate_text(cert: Certificate) -> str:
    """Canonical key-ordered rendering so certificates diff cleanly."""
    lines = [
        CERT_MAGIC,
        f"mode: {cert.mode}",
        f"dim: {cert.dim}",
        f"sphere-count: {cert.sphere_count}",
        f"verdict: {cert.verdict}" + (f" reason={cert.fail_reason}" if cert.fail_reason else ""),
        f"max-cosine: {cert.max_cosine_text()}",
        f"psd: {'true' if cert.psd else 'false'}",
        f"rank: {cert.rank}",
        f"non-antipodal: {'true' if cert.non_antipodal else 'false'}",
    ]
    if cert.unit_norm_max_error is not None:
        lines.append(f"unit-norm-max-error: {format_float(cert.unit_norm_max_error)}")
    lines.append("spectrum:")
    for entry in cert.cosine_spectrum:
        lines.append(f"  {entry.cosine.display()}: {entry.multiplicity}")
    lines.append(f"contact-degrees: {_rle(cert.contact_degrees)}")
    return "\n".join(lines) + "\n"


def write_certificate(path, cert: Certificate):
    Path(path).write_text(certificate_text(cert), encoding="utf-8")


def read_certificate(path) -> dict:
    """Parse a certificate back into a plain dict (fields as written)."""
    text = _read_text(path)
    lines = text.splitlines()
    if not lines or lines[0] != CERT_MAGIC:
        raise ParseError(f"{path}: not a certificate file")
    out: dict = {"spectrum": {}}
    in_spectrum = False
    try:
        for line in lines[1:]:
            if not line.strip():
                continue
            if line == "spectrum:":
                in_spectrum = True
                continue
            if ":" not in line:
                raise ParseError(f"{path}: malformed certificate line {line!r}")
            if in_spectrum and line.startswith("  "):
                label, mult = line.strip().rsplit(":", 1)
                out["spectrum"][label.strip()] = integer_literal(mult.strip())
                continue
            in_spectrum = False
            key, value = line.split(":", 1)
            out[key.strip()] = value.strip()
        if "contact-degrees" in out:
            out["contact-degrees"] = _un_rle(out["contact-degrees"])
    except ValueError as exc:  # a malformed multiplicity or run-length token
        raise ParseError(f"{path}: {exc}") from exc
    return out
