"""CSV/JSON table emission with re-run metadata sidecars.

Data files are plain UTF-8 CSV (header row, '.' decimal separator, no
thousands separators) with byte-deterministic float formatting; everything
needed to re-run a computation bit-identically goes into a JSON sidecar next
to the data file, so timestamps never perturb the data bytes.  Every file is
written to a temp file in its directory and renamed into place, so an
interrupted write leaves the previous file as it was.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

from . import __version__


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # plain-float repr is the shortest round-trip form; the cast also
        # strips numpy scalar types whose repr is not a bare number
        return repr(float(value))
    return str(value)


@contextmanager
def atomic_open(path):
    """Text handle on `path`.tmp, renamed over `path` when the block succeeds.

    A write that fails part-way leaves the previous `path` byte-identical and
    removes the temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    try:
        with open(scratch, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> Path:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])
    return Path(path)


def write_json(path, payload) -> Path:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return Path(path)


def write_sidecar(data_path, metadata: dict) -> Path:
    payload = dict(metadata)
    payload.setdefault("package_version", __version__)
    payload.setdefault("created_utc", datetime.now(timezone.utc).isoformat())
    return write_json(str(data_path) + ".meta.json", payload)


def params_metadata(params) -> dict:
    return {
        "L": params.L,
        "omega": params.omega,
        "epsilon": params.epsilon,
        "v": params.v,
        "f": params.f,
        "t1": params.t1,
        "t2": params.t2,
        "kernel": params.kernel,
        "dimensionless": params.dimensionless_groups(),
    }
