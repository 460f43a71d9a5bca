"""Command line front end.

Subcommands: verify-main, verify-ff, prop-gp, conjecture-scan, gen.
Exit codes: 0 clean, 1 a guaranteed property measured false (finding),
2 usage or precondition error.  All randomness flows through one seed
(--seed, else the config file, else SHIFTPROD_SEED, else 0), and repeated
runs with the same inputs are byte identical.  Every JSON or CSV output
goes through _write, the only serializer of report rows; gen's plain-text
set listing is the one other output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import random
import sys
from fractions import Fraction

from .explorer import conjecture_scan
from .ffharness import (
    FfInput,
    _check_coverage_pairs,
    coverage_check,
    run_field_pipeline,
    subgroup_ggp,
)
from .harness import (
    HarnessConfig,
    PipelineInput,
    PreconditionError,
    run_main_pipeline,
)
from .numeric import ParseError, PrimeField
from .progressions import (
    GapSpec,
    GgpSpec,
    format_gap_spec,
    format_ggp_spec,
    growth_check,
    parse_gap_spec,
    parse_ggp_spec,
)
from .setalg import PointSet2, ScalarSet, format_scalar_set, parse_scalar_set, productset

__all__ = ["entry", "main"]


def _resolve_seed(args, cfg):
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in cfg:
        return _int(cfg["seed"])
    env = os.environ.get("SHIFTPROD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PreconditionError(f"SHIFTPROD_SEED must be an integer, got {env!r}")
    return 0


def _load_config(args):
    if getattr(args, "config", None) is None:
        return {}
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise PreconditionError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise PreconditionError(f"malformed config JSON: {e}")
    if not isinstance(cfg, dict):
        raise PreconditionError("config must be a JSON object")
    return cfg


def _pick(args, cfg, name, default):
    v = getattr(args, name, None)
    if v is not None:
        return v
    if name in cfg:
        return cfg[name]
    return default


def _given(args, cfg, **convert):
    """Keyword arguments for the names that a flag or the config set, each
    through its converter; the library type keeps every other default."""
    return {name: conv(_pick(args, cfg, name, None))
            for name, conv in convert.items()
            if getattr(args, name, None) is not None or name in cfg}


def _int(v) -> int:
    """An int, an integral JSON number or integer text from a flag or the
    config; anything else, bool included, is a ParseError (exit 2)."""
    if type(v) in (int, str) or type(v) is float and v.is_integer():
        try:
            return int(v)
        except ValueError:
            pass
    raise ParseError(f"expected an integer, got {v!r}")


def _bool(v) -> bool:
    """JSON true or false, or a switch flag's value; else a ParseError (exit 2)."""
    if type(v) is not bool:
        raise ParseError(f"expected true or false, got {v!r}")
    return v


def _fraction(v) -> Fraction:
    """A rational from flag or config text; a zero denominator is a
    ParseError, like any other malformed number."""
    try:
        return Fraction(str(v))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {v!r}") from None


def _emit(args, text):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise PreconditionError(f"cannot write output: {e}")
    else:
        sys.stdout.write(text)


def _fraction_text(x):
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _write(args, rows, default_format="json"):
    """Emit one row, or a list of rows, as JSON or CSV (--format, else
    default_format).

    A row is a report dataclass or a plain dict; its keys, in order, are
    the JSON keys and the CSV header.  JSON writes one row as an object
    and a list as an array, with Fractions as "p/q" text.
    """
    dicts = [r if isinstance(r, dict) else dataclasses.asdict(r)
             for r in (rows if isinstance(rows, list) else [rows])]
    if (args.format or default_format) == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if dicts:
            w.writerow(dicts[0])
        w.writerows([_csv_cell(v) for v in d.values()] for d in dicts)
        text = buf.getvalue()
    else:
        payload = dicts if isinstance(rows, list) else dicts[0]
        text = json.dumps(payload, indent=2, default=_fraction_text) + "\n"
    _emit(args, text)


def auto_progression(A: ScalarSet) -> GgpSpec:
    """Powers of two, one generator, length matched to |AA|."""
    n = len(productset(A, A))
    return GgpSpec(2, GapSpec(0, (1,), (max(3, n),)))


def random_integer_set(rng: random.Random, size: int, lo: int, hi: int) -> ScalarSet:
    if hi - lo + 1 < size:
        raise PreconditionError(f"range [{lo}, {hi}] is too small for {size} elements")
    return ScalarSet(rng.sample(range(lo, hi + 1), size))


def geometric_set(base: Fraction, length: int) -> ScalarSet:
    if length < 1:
        raise PreconditionError("length must be positive")
    base = Fraction(base)
    if base <= 0 or base == 1:
        raise PreconditionError("base must be positive and != 1")
    out = []
    acc = Fraction(1)
    for _ in range(length):
        out.append(acc)
        acc *= base
    return ScalarSet(out)


def arithmetic_set(start: Fraction, step: Fraction, length: int) -> ScalarSet:
    if length < 1:
        raise PreconditionError("length must be positive")
    if step == 0:
        raise PreconditionError("step must be nonzero")
    return ScalarSet(Fraction(start) + i * Fraction(step) for i in range(length))


def cmd_verify_main(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(args, cfg)
    hcfg = HarnessConfig(**_given(args, cfg, size_match_factor=_fraction,
                                  degeneracy_threshold=_fraction,
                                  on_size_mismatch=str, skew_e=_bool))
    delta = _fraction(_pick(args, cfg, "delta", None) or
                      _usage("verify-main needs --delta"))
    count = _int(_pick(args, cfg, "count", 1))

    instances = []
    if args.A is not None:
        A = parse_scalar_set(args.A)
        G = parse_ggp_spec(args.G) if args.G else auto_progression(A)
        instances.append((A, G))
    elif args.random_A is not None:
        rng = random.Random(seed)
        lo = _int(_pick(args, cfg, "lo", 1))
        hi = _int(_pick(args, cfg, "hi", 50))
        for _ in range(count):
            A = random_integer_set(rng, args.random_A, lo, hi)
            G = parse_ggp_spec(args.G) if args.G else auto_progression(A)
            instances.append((A, G))
    else:
        _usage("verify-main needs --A or --random-A")

    reports = []
    findings = []
    for A, G in instances:
        rep = run_main_pipeline(PipelineInput(A=A, G=G, delta=delta, config=hcfg))
        reports.append(rep)
        if not rep.structural_ok() or not rep.corollary1_ok:
            findings.append((A, G, rep))

    _write(args, reports[0] if len(reports) == 1 else reports)
    for A, G, rep in findings:
        kind = "empty exceptional set" if rep.c_size == 0 else "structural check failed"
        print(f"finding: {kind} for A={format_scalar_set(A)} "
              f"G={format_ggp_spec(G)}", file=sys.stderr)
    return 1 if findings else 0


def _usage(msg):
    raise PreconditionError(msg)


def _full_plane(F: PrimeField) -> PointSet2:
    return PointSet2.from_lattice([(x, y) for x in range(F.q) for y in range(F.q)
                                   if (x, y) != (0, 0)], F.q, F.q)


def cmd_verify_ff(args) -> int:
    cfg = _load_config(args)
    q = _int(_pick(args, cfg, "q", 0)) or _usage("verify-ff needs --q")
    if args.full_plane:
        F = PrimeField(q)
        # refuse before building the q**2 - 1 points
        _check_coverage_pairs((q * q - 1) ** 2)
        E = _full_plane(F)
        rep = coverage_check(E, E, q)
        _write(args, rep)
        return 1 if rep.hypothesis_ok and not rep.full else 0

    eps = _fraction(_pick(args, cfg, "epsilon", None) or
                    _usage("verify-ff needs --epsilon"))
    delta = _fraction(_pick(args, cfg, "delta", None) or
                      _usage("verify-ff needs --delta"))
    if args.subgroup_t is not None:
        A, G = subgroup_ggp(q, args.subgroup_t)
    elif args.A is not None and args.G is not None:
        field = PrimeField(q)
        A = parse_scalar_set(args.A, field)
        G = parse_ggp_spec(args.G, field)
    else:
        _usage("verify-ff needs --subgroup-t or both --A and --G")

    rep = run_field_pipeline(FfInput(q=q, A=A, G=G, epsilon=eps, delta=delta,
                                     **_given(args, cfg, skew_e=_bool)))
    _write(args, rep)
    if rep.finding():
        print(f"finding: q={q} A={format_scalar_set(A)} "
              f"G={format_ggp_spec(G)}", file=sys.stderr)
        return 1
    return 0


def cmd_prop_gp(args) -> int:
    rows = []
    any_fail = False
    for text in args.spec:
        s = text.strip()
        if s.startswith("ggp"):
            spec = parse_ggp_spec(s)
            canonical = format_ggp_spec(spec)
        else:
            spec = parse_gap_spec(s)
            canonical = format_gap_spec(spec)
        gc = growth_check(spec)
        rows.append({
            "spec": canonical,
            "realized_size": gc.size,
            "formal_length": spec.formal_length,
            "expanded_size": gc.expanded_size,
            "bound": gc.bound,
            "pass": gc.passed,
        })
        any_fail = any_fail or not gc.passed
    _write(args, rows)
    return 1 if any_fail else 0


def _family_instances(args, cfg, seed):
    """(instance_id, A, G) triples; G is the progression of a subgroup
    instance and None for the other families."""
    family = args.family
    count = _int(_pick(args, cfg, "count", 10))
    rng = random.Random(seed)
    out = []
    if family == "random-integer":
        lo = _int(_pick(args, cfg, "lo", 1))
        hi = _int(_pick(args, cfg, "hi", 50))
        smin = _int(_pick(args, cfg, "size_min", 3))
        smax = _int(_pick(args, cfg, "size_max", 5))
        for i in range(count):
            size = rng.randint(smin, smax)
            out.append((f"{family}-{i:03d}",
                        random_integer_set(rng, size, lo, hi), None))
    elif family == "geometric":
        base = _fraction(_pick(args, cfg, "base", 2))
        length = _int(_pick(args, cfg, "length", 5))
        for i in range(count):
            out.append((f"{family}-{i:03d}",
                        geometric_set(base, length + i), None))
    elif family == "arithmetic":
        start = _fraction(_pick(args, cfg, "start", 1))
        step = _fraction(_pick(args, cfg, "step", 1))
        length = _int(_pick(args, cfg, "length", 5))
        for i in range(count):
            out.append((f"{family}-{i:03d}",
                        arithmetic_set(start, step, length + i), None))
    elif family == "subgroup":
        q = _int(_pick(args, cfg, "q", 0)) or _usage("subgroup family needs --q")
        t = _int(_pick(args, cfg, "t", 0)) or _usage("subgroup family needs --t")
        out.append((f"{family}-q{q}-t{t}", *subgroup_ggp(q, t)))
    else:
        _usage(f"unknown family {family!r}")
    return out


def cmd_conjecture_scan(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(args, cfg)
    instances = _family_instances(args, cfg, seed)
    knobs = _given(args, cfg, min_factor_size=_int, coverage_target=_fraction,
                   budget=_int)
    if "budget" in knobs:
        knobs["search_budget"] = knobs.pop("budget")
    rows = conjecture_scan([(iid, A) for iid, A, _ in instances], **knobs)
    _write(args, rows, "csv")
    return 0


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(args, cfg)
    instances = _family_instances(args, cfg, seed)
    if (args.format or "json") == "json":
        payload = []
        for iid, A, G in instances:
            entry_row = {"instance_id": iid, "seed": seed,
                         "set": format_scalar_set(A)}
            if G is not None:
                entry_row["ggp"] = format_ggp_spec(G)
            payload.append(entry_row)
        _write(args, payload)
    else:
        _emit(args, "".join(format_scalar_set(A) + "\n"
                            for _, A, _ in instances))
    return 0


def _add_common(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file with defaults")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default=None)


def _add_family(p):
    p.add_argument("--family",
                   choices=["random-integer", "geometric", "arithmetic", "subgroup"],
                   required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--lo", type=int, default=None)
    p.add_argument("--hi", type=int, default=None)
    p.add_argument("--size-min", dest="size_min", type=int, default=None)
    p.add_argument("--size-max", dest="size_max", type=int, default=None)
    p.add_argument("--base", default=None)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--start", default=None)
    p.add_argument("--step", default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--t", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shiftprod",
        description="exact workbench for shifted product sets against "
                    "generalized geometric progressions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-main", help="run the rational pipeline")
    p.add_argument("--A", default=None, help="set literal, e.g. '{1, 2, 4}'")
    p.add_argument("--G", default=None,
                   help="progression text, e.g. 'ggp 2; gap 0;1;13'; "
                        "without it, powers of two matched to |AA|")
    p.add_argument("--random-A", dest="random_A", type=int, default=None,
                   help="draw a random integer set of this size")
    p.add_argument("--delta", default=None, help="rational in (0,1), e.g. 1/2")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--lo", type=int, default=None)
    p.add_argument("--hi", type=int, default=None)
    p.add_argument("--size-match-factor", dest="size_match_factor", default=None)
    p.add_argument("--degeneracy-threshold", dest="degeneracy_threshold", default=None)
    p.add_argument("--on-size-mismatch", dest="on_size_mismatch",
                   choices=["reject", "warn"], default=None)
    p.add_argument("--skew-e", dest="skew_e", action="store_const", const=True,
                   default=None, help="scale only the first coordinate of E")
    _add_common(p)
    p.set_defaults(func=cmd_verify_main)

    p = sub.add_parser("verify-ff", help="run the prime-field pipeline")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--A", default=None)
    p.add_argument("--G", default=None)
    p.add_argument("--subgroup-t", dest="subgroup_t", type=int, default=None,
                   help="use the order-t subgroup of F_q* as A")
    p.add_argument("--epsilon", default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--full-plane", dest="full_plane", action="store_true",
                   help="coverage check with E = F = all nonzero points of F_q^2")
    p.add_argument("--skew-e", dest="skew_e", action="store_const", const=True,
                   default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify_ff)

    p = sub.add_parser("prop-gp", help="self-growth check for progression specs")
    p.add_argument("spec", nargs="+", help="'gap r0;gens;lens' or 'ggp g0; gap ...'")
    _add_common(p)
    p.set_defaults(func=cmd_prop_gp)

    p = sub.add_parser("conjecture-scan", help="two-factor cover search over a family")
    _add_family(p)
    p.add_argument("--min-factor-size", dest="min_factor_size", type=int, default=None)
    p.add_argument("--coverage-target", dest="coverage_target", default=None)
    p.add_argument("--budget", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_conjecture_scan)

    p = sub.add_parser("gen", help="emit example inputs for the other commands")
    _add_family(p)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
