"""Batch front door: parse the command line, run one command, map its
outcome to an exit status.

Subcommands:
  check        run a set of checks on a presentation (+ optional action);
               its pipeline, koszulkit.check, is imported for this command
               only, so the other two load no algebra layer
  fixtures     write the built-in input files by name
  report-diff  compare two reports ignoring timing

Exit status of `check`: 0 all requested checks pass; 1 a validation-style
check failed; 2 parse or usage error; 3 an internal invariant was violated
(something a theorem guarantees failed -- an implementation bug, reported
with coordinates).

Reports are byte-deterministic for identical inputs: timing lives under a
separate top-level "timing" key that `report-diff` ignores.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

CHECK_NAMES = ["validate", "hilbert", "dual", "koszul", "smash", "takiff",
               "duality", "roundtrip"]
DEFAULT_SEED = 20230521


class UsageError(Exception):
    pass


class ParseFailure(Exception):
    pass


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise ParseFailure("cannot read %s: %s" % (path, exc))


# ---------------------------------------------------------------------------
# subcommands

def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def run_fixtures(args):
    from koszulkit.fixtures import FIXTURE_NAMES, fixture_bundle
    if args.list:
        for name in FIXTURE_NAMES:
            print(name)
        return 0
    if not args.name:
        raise UsageError("fixtures requires --name or --list")
    try:
        bundle = fixture_bundle(args.name)
    except KeyError as exc:
        raise UsageError(str(exc))
    outdir = args.out_dir or "."
    os.makedirs(outdir, exist_ok=True)
    written = []
    ppath = os.path.join(outdir, "%s.presentation.json" % args.name)
    with open(ppath, "w", encoding="utf-8") as f:
        json.dump(bundle["presentation"], f, indent=2, sort_keys=True)
        f.write("\n")
    written.append(ppath)
    if bundle["action"] is not None:
        apath = os.path.join(outdir, "%s.action.json" % args.name)
        with open(apath, "w", encoding="utf-8") as f:
            json.dump(bundle["action"], f, indent=2, sort_keys=True)
            f.write("\n")
        written.append(apath)
    for path in written:
        print(path)
    return 0


def run_report_diff(args):
    a = _strip_timing(_load_json(args.report_a))
    b = _strip_timing(_load_json(args.report_b))
    if a == b:
        print("reports identical (timing ignored)")
        return 0
    def walk(pa, pb, prefix):
        diffs = []
        if isinstance(pa, dict) and isinstance(pb, dict):
            for k in sorted(set(pa) | set(pb)):
                if k not in pa:
                    diffs.append("%s.%s: only in second" % (prefix, k))
                elif k not in pb:
                    diffs.append("%s.%s: only in first" % (prefix, k))
                elif pa[k] != pb[k]:
                    diffs.extend(walk(pa[k], pb[k], "%s.%s" % (prefix, k)))
            return diffs
        return ["%s: %r != %r" % (prefix, pa, pb)]
    for line in walk(a, b, "$")[:50]:
        print(line)
    return 1


def _print_summary(report):
    for name, entry in report["checks"].items():
        line = "%-10s %s" % (name, entry["status"])
        det = entry.get("details", {})
        if "verdict" in det:
            line += "  (%s)" % det["verdict"]
        if "failure" in det:
            line += "  (%s)" % det["failure"]
        print(line)
    print("verdict: %s" % report["verdict"])


def build_parser():
    p = argparse.ArgumentParser(prog="koszulkit", description=__doc__)
    sub = p.add_subparsers(dest="command")
    pc = sub.add_parser("check", help="run checks on an input presentation")
    pc.add_argument("--input", required=True,
                    help="presentation JSON (or bundle with a presentation)")
    pc.add_argument("--action", help="action bundle JSON")
    pc.add_argument("--module",
                    help="restrict duality/roundtrip checks to one module")
    pc.add_argument("--max-degree", type=int, default=4)
    pc.add_argument("--checks", default="all",
                    help="comma list of %s or all" % ",".join(CHECK_NAMES))
    pc.add_argument("--out", help="write the JSON report here")
    pc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pc.add_argument("--property-cases", type=int, default=0,
                    help="additionally run this many seeded random cases")
    pf = sub.add_parser("fixtures", help="emit built-in input files")
    pf.add_argument("--name")
    pf.add_argument("--out-dir")
    pf.add_argument("--list", action="store_true")
    pd = sub.add_parser("report-diff",
                        help="compare two reports ignoring timing")
    pd.add_argument("report_a")
    pd.add_argument("report_b")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            from koszulkit import check
            report, code = check.run_check(args)
            text = json.dumps(report, indent=2, sort_keys=True)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as f:
                    f.write(text)
                    f.write("\n")
            _print_summary(report)
            return code
        if args.command == "fixtures":
            return run_fixtures(args)
        if args.command == "report-diff":
            return run_report_diff(args)
        parser.print_usage()
        return 2
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except ParseFailure as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    # run as `python -m koszulkit.cli`, this file is __main__, while
    # koszulkit.check raises the errors of koszulkit.cli: run that module's
    # main, whose handlers catch them
    from koszulkit.cli import main
    sys.exit(main())
