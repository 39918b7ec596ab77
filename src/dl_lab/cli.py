"""Command-line driver: dl-lab <command> --config <path> --out <dir>."""
from __future__ import annotations

import argparse
import sys

from .errors import DLLabError, ValidationError
from .io import save_hamiltonian
from .models import BUNDLED_MODELS, build_model, descriptor_from_document
from .runner import COMMANDS, FORMATS, emit_report, load_config, run


def _parse_value(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dl-lab",
                                     description="frustration-free Hamiltonian checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        cmd = sub.add_parser(command, help=f"run the {command} pipeline")
        cmd.add_argument("--config", required=True, help="run configuration document")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--format", default=None, choices=FORMATS)
        cmd.add_argument("--quiet", action="store_true")
    model = sub.add_parser("model", help="enumerate or emit bundled models")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    model_sub.add_parser("list", help="list bundled model descriptors")
    emit = model_sub.add_parser("emit", help="write a model as a document")
    emit.add_argument("--name", required=True)
    emit.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      help="model parameter, repeatable")
    emit.add_argument("--out", required=True, help="output file path")
    return parser


def _model_main(args) -> int:
    if args.model_command == "list":
        for descriptor in BUNDLED_MODELS:
            print(descriptor.label())
        return 0
    params = {}
    for item in args.set:
        if "=" not in item:
            print(f"bad --set value {item!r}, expected KEY=VALUE", file=sys.stderr)
            return 2
        key, _, raw = item.partition("=")
        if key in params:
            raise ValidationError(f"field 'model.parameters.{key}': set twice by --set")
        params[key] = _parse_value(raw)
    # as a config's model section, so that --set name=... is refused as a model parameter
    descriptor = descriptor_from_document({"name": args.name, "parameters": params})
    save_hamiltonian(args.out, build_model(descriptor))
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "model":
            return _model_main(args)
        config = load_config(args.config, out_dir=args.out, out_format=args.format)
        if config.command != args.command:
            raise ValidationError(f"field 'command': the config names {config.command!r} "
                                  f"but the subcommand is {args.command!r}")
        report = run(config)
        report, paths = emit_report(report, config.out_dir, config.out_format)
        if not args.quiet:
            for record in report.records:
                measured = "" if record.measured is None else f" measured={record.measured:.6g}"
                bound = "" if record.bound is None else f" bound={record.bound:.6g}"
                print(f"[{record.status:>19s}] {record.name}{measured}{bound}")
            print(f"overall: {'pass' if report.overall_pass else 'FAIL'}")
            for path in paths:
                print(f"wrote {path}")
        return 0 if report.overall_pass else 1
    except DLLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
