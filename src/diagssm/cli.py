"""Command-line surface: kernel dumps, cross-check suites, benchmarks,
heatmap data, and the toy long-range trainer.

Exit codes: 0 success, 1 usage or precondition error, 2 file I/O or
malformed input file, 3 a check suite (or the trained lag) failed,
4 training diverged.  All randomness flows from --seed.
"""

import argparse
import math
import os
import sys
import time
import tracemalloc

import numpy as np

from .checks import SUITES, TOLERANCES
from .kernel import KernelParams, VARIANTS, build_kernel, write_kernel_csv
from .layer import (
    _to_json,
    _write_text,
    init_layer,
    kernel_stats,
    layer_kernels,
    load_layer_params,
    ssm_outputs,
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
    if args.delta is not None and args.delta <= 0:
        raise ValueError("--delta must be positive")
    overrides = (args.lambda_re, args.lambda_im, args.w)
    if any(o is not None for o in overrides):
        if any(o is None for o in overrides):
            raise ValueError("--lambda-re, --lambda-im and --w go together")
        lambda_re = _parse_float_list(args.lambda_re)
        lambda_im = _parse_float_list(args.lambda_im)
        w = _parse_complex_list(args.w)
        delta_log = math.log(args.delta) if args.delta is not None else 0.0
        params = KernelParams(args.variant, lambda_re, lambda_im, w, delta_log)
    else:
        layer = init_layer(1, args.n, args.variant, args.seed)
        params = layer.coordinate_kernel_params(0)
        if args.delta is not None:
            params.delta_log = math.log(args.delta)
    write_kernel_csv(args.out or sys.stdout, build_kernel(params, args.l))
    return EXIT_OK


def _cmd_check(args):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
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


_TIMED_CALLS = 5


def _time_ms(fn):
    """Best of 5 timed calls in ms, after one untimed warm-up call."""
    fn()
    best = math.inf
    for _ in range(_TIMED_CALLS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _peak_mb(fn):
    """tracemalloc's peak over one call, in MB of 2^20 bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _cmd_bench(args):
    try:
        l_list = [int(v) for v in args.l.split(",")]
    except ValueError:
        raise ValueError("--l expects comma-separated integers") from None
    if any(l < 1 for l in l_list):
        raise ValueError("sequence lengths must be >= 1")
    params = init_layer(args.h, args.n, args.variant, args.seed)
    rng = np.random.RandomState(args.seed)
    print("L,kernel_ms,conv_ms,recur_ms,conv_peak_mb")
    for l in l_list:
        u = rng.standard_normal((args.b, args.h, l))
        kernel_ms = _time_ms(lambda: layer_kernels(params, l))
        conv_ms = recur_ms = conv_peak_mb = ""
        if args.mode in ("conv", "both"):
            conv_ms = "%.3f" % _time_ms(lambda: ssm_outputs(params, u, mode="conv"))
            conv_peak_mb = "%.3f" % _peak_mb(lambda: ssm_outputs(params, u, mode="conv"))
        if args.mode in ("recurrent", "both"):
            recur_ms = "%.3f" % _time_ms(
                lambda: ssm_outputs(params, u, mode="recurrent"))
        print("%d,%.3f,%s,%s,%s" % (l, kernel_ms, conv_ms, recur_ms, conv_peak_mb))
    return EXIT_OK


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
                   help="sample time; defaults to the seeded initialization")
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

    p = sub.add_parser("bench", help="time kernel, convolution and recurrence "
                                       "(best of 5 warm calls per cell), and "
                                       "trace the convolution's peak memory")
    p.add_argument("--l", required=True, help="comma list of sequence lengths")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--h", type=int, default=16)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--mode", choices=("conv", "recurrent", "both"), default="both")
    p.add_argument("--variant", choices=VARIANTS, default="exp")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

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
    p.add_argument("--lr", type=float, default=1e-3)
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
