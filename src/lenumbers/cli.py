"""Command-line surface.

Three verbs: compute (le, milnor, sectional, mult, polar), check (one named
inequality on one input) and search (a checker swept over a parameter
family).  Output is human-readable text by default and a JSON document with
--json; identical configuration and seed give byte-identical JSON.

Exit codes: 0 success / inequality holds, 1 bad input, 2 the requested
quantity is undefined (or every sub-check was skipped), 3 a checked
inequality is violated.  3 is a mathematical finding, not a failure of the
tool."""

from __future__ import annotations

import argparse
import json
import os
import re
import secrets
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .checks import (
    check_dagger,
    check_funbound,
    check_leiom,
    check_mainmany,
    check_mainone,
    check_newmpr_and_easybound,
    check_suspension,
    check_teissier,
    search_dagger,
    validate_family_entry,
)
from .cycles import (
    Undefined,
    generic_le,
    lambda_numbers,
    polar_mult,
    sigma_ideal,
    slice_check,
    why_not_singular,
)
from .local import local_dim
from .milnor import milnor, sectional
from .poly import Frame, ParseError, parse


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # input errors are exit code 1 across the board, argparse's 2 included
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# check name -> checker, called with f, the parsed arguments and the frame,
# seed, trials and bound keywords
_CHECKERS = {
    "funbound": lambda f, args, common: check_funbound(f, **common),
    "leiom": lambda f, args, common: check_leiom(f, m=args.power, a=args.coeff, **common),
    "mainone": lambda f, args, common: check_mainone(f, **common),
    "mainmany": lambda f, args, common: check_mainmany(f, **common),
    "dagger": lambda f, args, common: check_dagger(f, **common),
    "suspension": lambda f, args, common: check_suspension(f, **common),
    "newmpr": lambda f, args, common: check_newmpr_and_easybound(f, **common),
    "teissier": lambda f, args, common: check_teissier(f, seed=common["seed"]),
}


def _common_flags(sp, with_poly=True):
    if with_poly:
        sp.add_argument("-f", "--poly", required=True, help="polynomial text")
        sp.add_argument(
            "--vars", required=True, help="comma-separated variables, frame order"
        )
        sp.add_argument(
            "--frame",
            default="random",
            help="identity, random, or a path to a JSON frame file",
        )
    sp.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    sp.add_argument(
        "--entropy",
        action="store_true",
        help="draw the seed from OS entropy; the chosen seed is reported",
    )
    sp.add_argument(
        "--trials",
        type=int,
        default=None,
        help="frames per round (compute, check) or cap on instances (search)",
    )
    sp.add_argument("--bound", type=int, default=10)
    sp.add_argument("--json", dest="json_out", action="store_true")
    sp.add_argument("--out", default=None, help="also write the JSON report here")


def _build_parser() -> _Parser:
    p = _Parser(prog="lenumbers", description="Le numbers of hypersurface singularities")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pc = sub.add_parser("compute", help="compute an invariant")
    pc.add_argument("target", choices=["le", "milnor", "sectional", "mult", "polar"])
    _common_flags(pc)
    pc.add_argument("-k", type=int, default=None, help="slice dimension for sectional")

    ck = sub.add_parser("check", help="check one inequality")
    ck.add_argument("name", choices=list(_CHECKERS))
    _common_flags(ck)
    ck.add_argument("-m", "--power", type=int, default=None, help="leiom exponent")
    ck.add_argument("-a", "--coeff", type=int, default=None, help="leiom coefficient")

    se = sub.add_parser("search", help="sweep a checker over a family file")
    se.add_argument("target", choices=["dagger"])
    se.add_argument("--family", required=True, help="JSONL family file")
    _common_flags(se, with_poly=False)
    return p


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    if args.entropy:
        return secrets.randbits(31)
    env = os.environ.get("LENUMBERS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _InputError("LENUMBERS_SEED must be an integer") from None
    return 0


def _require_singular(f) -> None:
    why = why_not_singular(f)
    if why is not None:
        raise _InputError(why)


def _parse_vars(text: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in text.split(","))
    if any(not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", v) for v in names):
        raise _InputError(f"bad variable list {text!r}")
    if len(set(names)) != len(names):
        raise _InputError("repeated variable name")
    return names


def _load_frame(path: str) -> Frame:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as e:
        raise _InputError(f"cannot read frame file: {e}") from None
    except json.JSONDecodeError as e:
        raise _InputError(f"frame file is not valid JSON: {e}") from None
    rows = data.get("matrix") if isinstance(data, dict) else data
    try:
        matrix = tuple(tuple(Fraction(str(c)) for c in row) for row in rows)
        return Frame(matrix)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise _InputError(f"bad frame matrix: {e}") from None


def _concrete_frame(mode: str, n: int, seed: int, bound: int) -> Frame:
    if mode == "identity":
        return Frame.identity(n)
    if mode == "random":
        return Frame.random(n, seed, bound)
    return _load_frame(mode)


def _frac(x) -> str:
    return str(Fraction(x))


def _frame_json(frame: Frame | None, seed: int | None):
    return {
        "matrix": None
        if frame is None
        else [[_frac(c) for c in row] for row in frame.matrix],
        "seed": seed,
    }


def _le_json(rec):
    return {
        "s": rec.s,
        "lambda": list(rec.lam),
        "gamma": list(rec.gam),
        "defined": [v is not None for v in rec.lam],
    }


def _envelope(f, vars_, frame_obj, le=None, sect=None, checks=(), values=None):
    obj = {
        "input": {"f": str(f), "vars": list(vars_)},
        "frame": frame_obj,
        "le": le,
        "sectional": sect,
        "checks": [
            {
                "name": r.name,
                "lhs": _frac(r.lhs),
                "rhs": _frac(r.rhs),
                "holds": r.holds,
                "equality": r.equality,
            }
            for r in checks
            if not r.skipped
        ],
        "version": __version__,
    }
    if values is not None:
        obj["values"] = values
    return obj


def _emit(obj, args) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if args.json_out:
        sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)


def _frame_text(frame: Frame) -> str:
    n = frame.n
    if frame.matrix == Frame.identity(n).matrix:
        return "identity"
    rows = "; ".join(
        " ".join(_frac(c) for c in row) for row in frame.matrix
    )
    return f"[{rows}]" + (f" (seed {frame.seed})" if frame.seed is not None else "")


def _print_record(rec, values) -> None:
    print(f"s = {rec.s}")
    for j, v in enumerate(rec.lam):
        print(f"lambda^{j} = {'undefined' if v is None else v}")
    for j, v in enumerate(rec.gam, start=1):
        print(f"gamma^{j} = {'undefined' if v is None else v}")
    print(f"mult = {values['mult']}")
    print(f"frame = {_frame_text(rec.frame)}")
    if values.get("slice_check") is not None:
        print(f"slice cross-check: {'passed' if values['slice_check'] else 'FAILED'}")


_CTX_KEYS = (
    "candidate",
    "margin",
    "lam",
    "mu_top",
    "mu_next",
    "ks",
    "D",
    "omega",
    "shifted",
    "m",
    "a",
    "profile",
)


def _print_reports(reps) -> None:
    for r in reps:
        if r.skipped:
            print(f"{r.name}: skipped ({r.reason})")
            continue
        verdict = "holds" if r.holds else "VIOLATED"
        eq = " with equality" if r.equality else ""
        print(f"{r.name}: lhs = {r.lhs}, rhs = {r.rhs}, {verdict}{eq}")
        extra = [f"{k}={r.context[k]}" for k in _CTX_KEYS if k in r.context]
        if extra:
            print("  " + "  ".join(extra))


def _cmd_compute(args) -> int:
    seed = _resolve_seed(args)
    trials = args.trials if args.trials is not None else 3
    vars_ = _parse_vars(args.vars)
    f = parse(args.poly, vars_)
    n1 = len(vars_)
    code = 0
    le = sect = None
    values = {}

    if args.target == "le":
        _require_singular(f)
        values["mult"] = f.mult_origin()
        if args.frame == "random":
            rec = generic_le(f, seed=seed, trials=trials, bound=args.bound)
            values["slice_check"] = None
        else:
            frame = _concrete_frame(args.frame, n1, seed, args.bound)
            rec = lambda_numbers(f, frame)
            values["slice_check"] = slice_check(f, frame, rec)
        le = _le_json(rec)
        frame_obj = _frame_json(rec.frame, rec.frame.seed)
        if not rec.fully_defined:
            code = 2
        if not args.json_out:
            _print_record(rec, values)
    elif args.target == "milnor":
        mu = milnor(f)
        values["milnor"] = mu
        frame_obj = _frame_json(None, seed)
        if mu is None:
            code = 2
        if not args.json_out:
            print("mu undefined (non-isolated singularity)" if mu is None else f"mu = {mu}")
    elif args.target == "sectional":
        if args.k is not None:
            if not 0 <= args.k <= n1:
                raise _InputError(f"k must be between 0 and {n1}")
            v = sectional(f, args.k, seed=seed)
            sect = [None] * (n1 + 1)
            sect[args.k] = v
            values["k"] = args.k
            if v is None:
                code = 2
            if not args.json_out:
                print(f"mu[{args.k}] undefined" if v is None else f"mu[{args.k}] = {v}")
        else:
            sect = [sectional(f, k, seed=seed) for k in range(n1 + 1)]
            if not args.json_out:
                for k, v in enumerate(sect):
                    print(f"mu[{k}] = {'undefined' if v is None else v}")
        frame_obj = _frame_json(None, seed)
    elif args.target == "mult":
        values["mult"] = f.mult_origin()
        frame_obj = _frame_json(None, seed)
        if not args.json_out:
            print(f"mult = {values['mult']}")
    else:  # polar
        _require_singular(f)
        frame = _concrete_frame(args.frame, n1, seed, args.bound)
        s = local_dim(sigma_ideal(f))
        vals = [polar_mult(f, frame, j) for j in range(1, max(s, 0) + 2)]
        values["polar"] = vals
        values["s"] = s
        frame_obj = _frame_json(frame, seed if args.frame == "random" else None)
        if not args.json_out:
            for j, v in enumerate(vals, start=1):
                print(f"mult Gamma^{j} = {'undefined' if v is None else v}")

    _emit(_envelope(f, vars_, frame_obj, le, sect, (), values), args)
    return code


def _cmd_check(args) -> int:
    seed = _resolve_seed(args)
    trials = args.trials if args.trials is not None else 3
    vars_ = _parse_vars(args.vars)
    f = parse(args.poly, vars_)
    _require_singular(f)
    n1 = len(vars_)
    frame = None
    if args.frame != "random":
        frame = _concrete_frame(args.frame, n1, seed, args.bound)
    common = dict(frame=frame, seed=seed, trials=trials, bound=args.bound)
    reps = _CHECKERS[args.name](f, args, common)

    if not args.json_out:
        _print_reports(reps)
    frame_obj = _frame_json(frame, seed)
    _emit(_envelope(f, vars_, frame_obj, None, None, reps, None), args)
    decided = [r for r in reps if not r.skipped]
    if any(not r.holds for r in decided):
        return 3
    return 0 if decided else 2


def _read_family(path: str) -> list[dict]:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise _InputError(f"cannot read family file: {e}") from None
    entries = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            validate_family_entry(entry)
        except ValueError as e:  # json.JSONDecodeError included
            raise _InputError(f"family file line {i}: {e}") from None
        entries.append(entry)
    return entries


def _cmd_search(args) -> int:
    seed = _resolve_seed(args)
    entries = _read_family(args.family)

    def on_report(params, rep):
        if args.json_out:
            return
        inst = rep.context.get("instance", "")
        if rep.skipped:
            print(f"{inst}: skipped ({rep.reason})")
        else:
            margin = rep.lhs - rep.rhs
            verdict = "holds" if rep.holds else "COUNTEREXAMPLE"
            print(f"{inst}: lhs = {rep.lhs}, rhs = {rep.rhs}, margin = {margin}, {verdict}")

    try:
        res = search_dagger(
            entries,
            seed=seed,
            bound=args.bound,
            limit=args.trials,
            on_report=on_report,
        )
    except ValueError as e:
        raise _InputError(str(e)) from None

    decided = [pr for pr in res.reports if not pr[1].skipped]
    if not args.json_out:
        print(
            f"instances = {len(res.reports)}  decided = {len(decided)}  "
            f"candidates = {len(res.candidates)}  counterexamples = {len(res.counterexamples)}"
        )
        for params, rep in res.candidates:
            print(f"  margin {rep.lhs - rep.rhs}  {rep.context['instance']}")

    def entry_json(pr):
        params, rep = pr
        out = {
            "instance": rep.context.get("instance"),
            "params": params,
            "skipped": rep.skipped,
        }
        if rep.skipped:
            out["reason"] = rep.reason
        else:
            out.update(
                lhs=_frac(rep.lhs),
                rhs=_frac(rep.rhs),
                margin=_frac(rep.lhs - rep.rhs),
                holds=rep.holds,
            )
        return out

    obj = {
        "search": {
            "instances": len(res.reports),
            "decided": len(decided),
            "reports": [entry_json(pr) for pr in res.reports],
            "candidates": [entry_json(pr) for pr in res.candidates],
            "counterexamples": [entry_json(pr) for pr in res.counterexamples],
        },
        "version": __version__,
    }
    _emit(obj, args)
    return 3 if res.counterexamples else 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.bound < 1:
            raise _InputError("--bound must be at least 1")
        if args.trials is not None and args.trials < 1:
            raise _InputError("--trials must be at least 1")
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_search(args)
    except (_InputError, ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Undefined as e:
        print(f"undefined: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
