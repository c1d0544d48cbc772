"""Command-line front end: ``repro lint`` / ``python -m repro.analysis``.

Exit codes follow linter convention: 0 clean, 1 findings, 2 bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import LintConfig, LintEngine, all_rules

__all__ = ["main", "build_parser", "default_target"]


def default_target() -> str:
    """The installed ``repro`` package directory (lint ourselves by default)."""
    import repro

    return str(Path(repro.__file__).parent)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="reprolint: static checks for the CBVR contracts",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="output format",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for cls in all_rules():
            summary = (cls.__doc__ or cls.title).strip().splitlines()[0]
            print(f"{cls.rule_id:>4}  {cls.title:<28} {summary}")
        return 0

    select = None
    if args.select is not None:
        select = [item.strip() for item in args.select.split(",") if item.strip()]
        known = {cls.rule_id for cls in all_rules()}
        for rule_id in select:
            if rule_id not in known:
                print(f"error: unknown rule id {rule_id!r}", file=sys.stderr)
                return 2

    config = LintConfig().with_rules(select)
    paths = args.paths or [default_target()]
    for path in paths:
        if not Path(path).exists():
            print(f"error: no such path {path!r}", file=sys.stderr)
            return 2

    report = LintEngine(config).lint_paths(paths)
    if args.fmt == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
