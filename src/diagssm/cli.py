"""Command-line surface: kernel dumps, cross-check suites, heatmap data,
and the toy long-range trainer.

Exit codes: 0 success, 1 usage or precondition error, 2 file I/O or
malformed input file, 3 a check suite (or the trained lag) failed,
4 training diverged.  All randomness flows from --seed.
"""

import argparse
import inspect
import math
import os
import sys

import numpy as np

from .checks import SUITES, TOLERANCES
from .cnum import _count, _positive
from .kernel import KernelParams, VARIANTS, build_kernel, write_kernel_csv
from .layer import (
    _to_json,
    _write_text,
    init_layer,
    kernel_stats,
    load_layer_params,
    train_toy_delay,
    write_report_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CHECK_FAILED = 3
EXIT_DIVERGED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_float_list(text):
    return np.array([float(v) for v in text.split(",")], dtype=float)


def _parse_complex_list(text):
    flat = _parse_float_list(text)
    if flat.size % 2:
        raise ValueError("complex list needs an even count of re,im values")
    return flat[0::2] + 1j * flat[1::2]


def _cmd_kernel(args):
    delta_log = None if args.delta is None else math.log(_positive("--delta", args.delta))
    overrides = (args.lambda_re, args.lambda_im, args.w)
    if any(o is not None for o in overrides):
        if any(o is None for o in overrides):
            raise ValueError("--lambda-re, --lambda-im and --w go together")
        given = (_parse_float_list(args.lambda_re), _parse_float_list(args.lambda_im),
                 _parse_complex_list(args.w), 0.0)      # delta_log 0: delta = 1
    else:
        layer = init_layer(1, args.n, args.variant, args.seed)
        given = (layer.lambda_re, layer.lambda_im, layer.w[0], layer.delta_log[0])
    *arrays, default_log = given
    params = KernelParams(args.variant, *arrays, default_log if delta_log is None else delta_log)
    write_kernel_csv(args.out or sys.stdout, build_kernel(params, args.l))
    return EXIT_OK


def _cmd_check(args):
    _count("--trials", args.trials)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    count = failed = 0
    for name in names:
        tol = TOLERANCES[name]
        for idx, trial in enumerate(SUITES[name](args.trials, args.seed)):
            err = float(np.max(list(trial.errors.values())))  # NaN fails
            ok = err < tol
            print(f"{'PASS' if ok else 'FAIL'} {name} trial {idx}: "
                  f"max_err={err:.3e} tol={tol:.0e}")
            if not ok:
                failed += 1
                print(f"  failing instance: {trial.detail}", file=sys.stderr)
            count += 1
    print(f"{'FAIL' if failed else 'PASS'}: {count} checks")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_heatmap(args):
    try:
        params = load_layer_params(args.params)
    except (OSError, ValueError) as exc:
        print(f"heatmap: cannot load {args.params}: {exc}", file=sys.stderr)
        return EXIT_IO
    stats = kernel_stats(params, args.l)
    write_kernel_csv(args.out, stats.profiles, header=True)
    _write_text(os.path.splitext(args.out)[0] + ".stats.json",
                _to_json({"argmax": stats.argmax_pos, "argmax_p95": stats.argmax_p95}))
    return EXIT_OK


def _cmd_train_toy(args):
    try:
        report = train_toy_delay(
            n=args.n, l=args.l, lag=args.lag, steps=args.steps,
            lr=args.lr, seed=args.seed)
    except RuntimeError as exc:
        print(f"train-toy: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    if args.out:
        write_report_json(args.out, report)
    print("final_mse=%.6g final_argmax=%d" % (report["final_mse"], report["final_argmax"]))
    return EXIT_OK if report["final_argmax"] == args.lag else EXIT_CHECK_FAILED


def _build_parser():
    parser = _Parser(prog="diagssm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="dump one kernel as CSV")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=None,
                   help="sample time; defaults to the seeded initialization's, "
                        "or to 1 with --lambda-re/--lambda-im/--w")
    p.add_argument("--lambda-re", dest="lambda_re", default=None,
                   help="comma list overriding the spectrum's stored real parts")
    p.add_argument("--lambda-im", dest="lambda_im", default=None,
                   help="comma list overriding the spectrum's imaginary parts")
    p.add_argument("--w", default=None,
                   help="comma list of interleaved re,im weight pairs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("check", help="run cross-oracle verification suites")
    p.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("heatmap", help="normalized |K| profiles plus peak stats")
    p.add_argument("--params", required=True, help="layer parameter JSON file")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV path; stats JSON lands beside it")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("train-toy", help="fit a kernel to a delayed impulse")
    p.add_argument("--lag", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--lr", type=float,
                   default=inspect.signature(train_toy_delay).parameters["lr"].default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_train_toy)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"diagssm {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:      # reads that can fail are caught where they happen
        reason = f"cannot write {exc.filename or 'output'}: {exc.strerror or exc}"
        print(f"diagssm {args.command}: {reason}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
