"""Command-line entry point.

Thin single-threaded dispatcher around the library: run one JSON config
(series, spectrum, overlaps, lifetime or sweep) or one preset figure
(`--figure ID`, which takes no config).  Every table is a CSV with a
metadata sidecar; `lifetime` writes a JSON record.  A point command
evolves once and lays out its observable's record as `sweep.OBSERVABLES`
declares it.  Exit codes: 0 success, 2 config error or a resource the run
cannot get (memory, an unwritable output file), 3 numeric error, also for a
sweep or grid figure whose table holds a numeric error marker (written
first).  Any other exception is a defect and ends in its traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .config import RunConfig, parse_config
from .exceptions import ConfigError, NumericError, ResourceLimitError
from .figures import FIGURE_IDS, figure_command
from .floquet import check_memory, find_pi_pair, floquet_operator, overlaps
from .observables import autocorrelator_series
from .output import params_metadata, write_csv, write_json, write_sidecar
from .sweep import OBSERVABLES, overlap_record, run_sweep, series_record, table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkdtc",
        description="Exact-diagonalization simulator for the two-stage Floquet "
        "protocol on a driven Rydberg chain",
    )
    parser.add_argument("--config", type=Path, help="path to a JSON run configuration")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory (default: .)")
    parser.add_argument(
        "--threads", type=int,
        help="accepted for compatibility; has no effect (runs use one thread, BLAS its own)",
    )
    parser.add_argument("--figure", choices=FIGURE_IDS, help="emit a figure dataset (takes no --config)")
    parser.add_argument("--resume", action="store_true", help="resume a sweep from its journal (sweeps only)")
    return parser


def _load_config(args) -> Optional[RunConfig]:
    """The run's config, or None for a --figure run."""
    if args.figure is not None:
        if args.config is not None:
            raise ConfigError("--figure takes no --config")
        cfg = None
    elif args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        cfg = parse_config(text)
    else:
        raise ConfigError("either --config or --figure is required")
    if args.resume and (cfg is None or cfg.command != "sweep"):
        raise ConfigError("--resume: only a sweep resumes from a journal")
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads: expected a positive integer, got {args.threads}")
    return cfg


def _check_writable(out_dir: Path) -> None:
    # fail before compute starts, not after minutes of work
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".starkdtc-write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir} is not writable: {exc}")


def _run_point(cfg: RunConfig, out_dir: Path) -> list:
    """The series, spectrum or overlaps table (a CSV and its sidecar) or the
    lifetime record of one parameter point, laid out by `sweep.table`."""
    check_memory(cfg.params.L, quasi_spectrum=cfg.command == "overlaps")
    prop = floquet_operator(cfg.params)
    bits = cfg.initial_state or "1" * cfg.params.L  # all ones when left out
    metadata = {"command": cfg.command, "params": params_metadata(cfg.params), "initial_state": bits}
    if cfg.command == "overlaps":
        overlap_table = overlaps(prop.spectrum(), bits)
        pair = find_pi_pair(overlap_table)
        metadata["pi_pair"] = (
            None if pair is None else {"gap": pair.gap, "combined_overlap": pair.combined_overlap}
        )
        record = overlap_record(overlap_table)
    else:  # one evolution, over the count the observable reads
        count = OBSERVABLES[cfg.command][0]
        metadata[count] = getattr(cfg, count)
        record = series_record(cfg.command, autocorrelator_series(prop, bits, metadata[count]).values)
    header, rows, values = table(cfg.command, record)
    metadata.update(values)
    if not header:  # lifetime: the record is its per-point values
        return [write_json(out_dir / "lifetime.json", metadata)]
    path = write_csv(out_dir / f"{cfg.command}.csv", header, rows)
    write_sidecar(path, metadata)
    return [path]


def _run_sweep_command(cfg: RunConfig, out_dir: Path, resume: bool) -> list:
    journal_path = out_dir / "sweep_journal.jsonl"
    result = run_sweep(cfg.sweep, journal_path=journal_path, resume=resume)
    path = result.to_csv(out_dir / "sweep.csv")
    result.check()  # after the CSV: a numeric marker exits 3 with the table written
    return [path, journal_path]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out_dir = args.out
        _check_writable(out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if cfg is None:
            files = figure_command(args.figure, out_dir)
        elif cfg.command == "sweep":
            files = _run_sweep_command(cfg, out_dir, args.resume)
        else:
            files = _run_point(cfg, out_dir)
    except (ConfigError, ResourceLimitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the message names the path
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the allocation
        print(f"memory error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3

    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
