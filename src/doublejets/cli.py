"""Command-line interface.

Subcommands: gen | act | compose | exchange | canon | decompose | verify.
Values travel as JSON objects (one per line for streams); input comes from
file paths or standard input ('-'), output goes to standard output.  Exit
codes: 0 success, 1 property or verification failure, 2 input or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import verify
from .actions import act_L_velocity, act_P_double
from .codec import decode, encode
from .contact import (ContactElement, DoubleContactElement,
                      affine_add_contact, contact_of, decompose_contact,
                      double_contact_equal, double_contact_of, representative)
from .core import (DoubleVelocity, Velocity, affine_add_vertical,
                   double_equal, exchange, split_semiholonomic)
from .groups import (JetGroupElement, PrincipalJetElement,
                     SecondOrderJetElement, compose_L, compose_P, exchange_P,
                     from_second_order, to_second_order)
from .linalg import DEFAULT_TOL, ChartError
from .sampling import GEN_KINDS, generate, rng_from

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not accepted")


def _finite(convert):
    """A json number hook: the number, unless it overflows a float."""
    def parse(text: str):
        if not math.isfinite(float(text)):
            raise ValueError(f"number {text[:32]} overflows a float")
        return convert(text)
    return parse


def _read_json(path: str):
    """One JSON value from a file or standard input ('-'); NaN, Infinity
    and numbers that overflow a float are rejected as invalid input."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text, parse_constant=_reject_constant,
                          parse_float=_finite(float), parse_int=_finite(int))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError included
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc


def _read_value(path: str):
    return decode(_read_json(path))


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2))
    else:
        print(json.dumps(obj, separators=(",", ":")))


def cmd_gen(args) -> int:
    if args.m < 1:
        raise ValueError("--m must be at least 1")
    n = args.n if args.n is not None else args.m + 2
    if args.kind not in ("group", "principal") and n <= args.m:
        raise ValueError("--n must exceed --m for velocity-like kinds")
    for index in range(args.count):
        value = generate(args.kind, args.m, n, rng_from(args.seed, index))
        _emit(encode(value), args.pretty)
    return EXIT_OK


def cmd_act(args) -> int:
    value = _read_value(args.value)
    element = _read_value(args.element)
    if isinstance(value, Velocity) and isinstance(element, JetGroupElement):
        _emit(encode(act_L_velocity(value, element)), args.pretty)
    elif isinstance(value, DoubleVelocity) and isinstance(element, PrincipalJetElement):
        _emit(encode(act_P_double(value, element)), args.pretty)
    else:
        raise ValueError(
            f"cannot act on {type(value).__name__} by {type(element).__name__}")
    return EXIT_OK


def cmd_compose(args) -> int:
    left = _read_value(args.left)
    right = _read_value(args.right)
    if isinstance(left, JetGroupElement) and isinstance(right, JetGroupElement):
        _emit(encode(compose_L(left, right)), args.pretty)
    elif isinstance(left, PrincipalJetElement) and isinstance(right, PrincipalJetElement):
        _emit(encode(compose_P(left, right)), args.pretty)
    elif isinstance(left, SecondOrderJetElement) and isinstance(right, SecondOrderJetElement):
        composed = compose_P(from_second_order(left), from_second_order(right))
        _emit(encode(to_second_order(composed)), args.pretty)
    else:
        raise ValueError(
            f"cannot compose {type(left).__name__} with {type(right).__name__}")
    return EXIT_OK


def cmd_exchange(args) -> int:
    value = _read_value(args.value)
    if isinstance(value, DoubleVelocity):
        _emit(encode(exchange(value)), args.pretty)
    elif isinstance(value, PrincipalJetElement):
        _emit(encode(exchange_P(value)), args.pretty)
    else:
        raise ValueError(f"cannot exchange a {type(value).__name__}")
    return EXIT_OK


def cmd_canon(args) -> int:
    value = _read_value(args.value)
    if isinstance(value, Velocity):
        _emit(encode(contact_of(value, args.tol)), args.pretty)
    elif isinstance(value, DoubleVelocity):
        _emit(encode(double_contact_of(value, args.tol)), args.pretty)
    elif isinstance(value, ContactElement):
        _emit(encode(contact_of(Velocity(value.dims, value.u, value.P), args.tol)),
              args.pretty)
    elif isinstance(value, DoubleContactElement):
        _emit(encode(double_contact_of(representative(value), args.tol)), args.pretty)
    else:
        raise ValueError(f"cannot canonicalize a {type(value).__name__}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    value = _read_value(args.value)
    recombined = None
    if isinstance(value, DoubleVelocity):
        holo, curv = split_semiholonomic(value, args.tol)
        if args.check:
            recombined = double_equal(affine_add_vertical(holo, curv, args.tol),
                                      value, args.tol)
    elif isinstance(value, DoubleContactElement):
        holo, curv = decompose_contact(value, args.tol)
        if args.check:
            recombined = double_contact_equal(affine_add_contact(holo, curv, args.tol),
                                              value, args.tol)
    else:
        raise ValueError(f"cannot decompose a {type(value).__name__}")
    out = {"holonomic": encode(holo), "curvature": encode(curv)}
    if args.check:
        out["recombines"] = bool(recombined)
    _emit(out, args.pretty)
    if args.check and not recombined:
        print("decompose: recombination check failed", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.m < 1:
        raise ValueError("--m must be at least 1")
    n = args.n if args.n is not None else args.m + 2
    if n <= args.m:
        raise ValueError("--n must exceed --m")
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    if args.suite not in verify.SUITE_NAMES:
        raise ValueError(
            f"unknown suite {args.suite!r}; choose from {', '.join(verify.SUITE_NAMES)}")
    rep = verify.report(args.suite, args.m, n, args.trials, args.seed, args.tol)
    for prop in rep["properties"]:
        status = "ok" if prop["failures"] == 0 else "FAIL"
        print(f"{status:4s} {prop['name']:40s} trials={prop['trials']:<6d} "
              f"failures={prop['failures']:<4d} max_error={prop['max_error']:.3e}",
              file=sys.stderr)
    print(f"suite={rep['suite']} failures={rep['failures']} "
          f"max_error={rep['max_error']:.3e}", file=sys.stderr)
    _emit(rep, args.pretty)
    return EXIT_OK if rep["failures"] == 0 else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublejets",
        description="Jet calculus for double velocities and contact elements.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit random values of a given kind")
    gen.add_argument("--kind", required=True, choices=GEN_KINDS)
    gen.add_argument("--m", type=int, default=2)
    gen.add_argument("--n", type=int, default=None,
                     help="target dimension (default m + 2)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--pretty", action="store_true")
    gen.set_defaults(fn=cmd_gen)

    act = sub.add_parser("act", help="apply a group element to a value")
    act.add_argument("--value", required=True, help="value file or '-' for stdin")
    act.add_argument("--element", required=True, help="group element file")
    act.add_argument("--pretty", action="store_true")
    act.set_defaults(fn=cmd_act)

    comp = sub.add_parser("compose", help="compose two group elements")
    comp.add_argument("left", help="left factor file or '-'")
    comp.add_argument("right", help="right factor file")
    comp.add_argument("--pretty", action="store_true")
    comp.set_defaults(fn=cmd_compose)

    exch = sub.add_parser("exchange", help="apply the exchange involution")
    exch.add_argument("value", help="value file or '-'")
    exch.add_argument("--pretty", action="store_true")
    exch.set_defaults(fn=cmd_exchange)

    canon = sub.add_parser("canon", help="canonicalize to a contact element")
    canon.add_argument("value", help="value file or '-'")
    canon.add_argument("--tol", type=float, default=DEFAULT_TOL)
    canon.add_argument("--pretty", action="store_true")
    canon.set_defaults(fn=cmd_canon)

    dec = sub.add_parser("decompose",
                         help="split a semiholonomic value into holonomic and curvature parts")
    dec.add_argument("value", help="value file or '-'")
    dec.add_argument("--tol", type=float, default=DEFAULT_TOL)
    dec.add_argument("--check", action="store_true",
                     help="re-add the parts and compare with the input")
    dec.add_argument("--pretty", action="store_true")
    dec.set_defaults(fn=cmd_decompose)

    ver = sub.add_parser("verify", help="run a randomized verification suite")
    ver.add_argument("--suite", default="all",
                     help="one of: " + ", ".join(verify.SUITE_NAMES))
    ver.add_argument("--m", type=int, default=2)
    ver.add_argument("--n", type=int, default=None,
                     help="target dimension (default m + 2)")
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ver.add_argument("--pretty", action="store_true")
    ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ChartError, ValueError, KeyError, TypeError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
