"""Command line front end.

Subcommands: verify-main, verify-ff, prop-gp, conjecture-scan, gen.
Exit codes: 0 clean, 1 a guaranteed property measured false (finding),
2 usage or precondition error.  All randomness flows through one seed
(--seed, else the config file, else SHIFTPROD_SEED, else 0), and repeated
runs with the same inputs are byte identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from fractions import Fraction

from .explorer import conjecture_scan, scan_csv
from .ffharness import FfInput, coverage_check, run_field_pipeline, subgroup_ggp
from .harness import (
    HarnessConfig,
    PipelineInput,
    PreconditionError,
    run_main_pipeline,
)
from .numeric import ParseError, PrimeField, PrimeFieldElement
from .progressions import (
    GapSpec,
    GgpSpec,
    format_gap_spec,
    format_ggp_spec,
    growth_check,
    parse_gap_spec,
    parse_ggp_spec,
)
from .setalg import Point2, PointSet2, ScalarSet, format_scalar_set, parse_scalar_set, productset

__all__ = ["entry", "main"]


def _resolve_seed(args, cfg):
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in cfg:
        return int(cfg["seed"])
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


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _reports_text(reports, fmt):
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(reports[0].csv_header())
        for r in reports:
            w.writerow(r.to_csv_row())
        return buf.getvalue()
    if len(reports) == 1:
        return reports[0].to_json() + "\n"
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def cmd_verify_main(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(args, cfg)
    hcfg = HarnessConfig(
        size_match_factor=Fraction(str(_pick(args, cfg, "size_match_factor", 2))),
        degeneracy_threshold=Fraction(str(_pick(args, cfg, "degeneracy_threshold", 1))),
        on_size_mismatch=_pick(args, cfg, "on_size_mismatch", "reject"),
        skew_e=bool(_pick(args, cfg, "skew_e", False)),
    )
    delta = Fraction(str(_pick(args, cfg, "delta", None) or
                         _usage("verify-main needs --delta")))
    count = int(_pick(args, cfg, "count", 1))

    instances = []
    if args.A is not None:
        A = parse_scalar_set(args.A)
        G = parse_ggp_spec(args.G) if args.G else auto_progression(A)
        instances.append((A, G))
    elif args.random_A is not None:
        rng = random.Random(seed)
        lo = int(_pick(args, cfg, "lo", 1))
        hi = int(_pick(args, cfg, "hi", 50))
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

    _emit(args, _reports_text(reports, args.format or "json"))
    for A, G, rep in findings:
        kind = "empty exceptional set" if rep.c_size == 0 else "structural check failed"
        print(f"finding: {kind} for A={format_scalar_set(A)} "
              f"G={format_ggp_spec(G)}", file=sys.stderr)
    return 1 if findings else 0


def _usage(msg):
    raise PreconditionError(msg)


def _full_plane(q: int) -> PointSet2:
    F = PrimeField(q)
    return PointSet2(Point2(F(x), F(y))
                     for x in range(q) for y in range(q) if (x, y) != (0, 0))


def cmd_verify_ff(args) -> int:
    cfg = _load_config(args)
    q = int(_pick(args, cfg, "q", 0)) or _usage("verify-ff needs --q")
    if args.full_plane:
        E = _full_plane(q)
        rep = coverage_check(E, E, q)
        payload = {
            "q": rep.q, "e_size": rep.e_size, "f_size": rep.f_size,
            "hypothesis_ok": rep.hypothesis_ok,
            "covered_size": rep.covered_size, "full": rep.full,
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return 1 if rep.hypothesis_ok and not rep.full else 0

    hcfg = HarnessConfig(skew_e=bool(_pick(args, cfg, "skew_e", False)))
    eps = Fraction(str(_pick(args, cfg, "epsilon", None) or
                       _usage("verify-ff needs --epsilon")))
    delta = Fraction(str(_pick(args, cfg, "delta", None) or
                         _usage("verify-ff needs --delta")))
    if args.subgroup_t is not None:
        A, G = subgroup_ggp(q, args.subgroup_t)
    elif args.A is not None and args.G is not None:
        field = PrimeField(q)
        A = parse_scalar_set(args.A, field)
        G = parse_ggp_spec(args.G, field)
    else:
        _usage("verify-ff needs --subgroup-t or both --A and --G")

    rep = run_field_pipeline(FfInput(q=q, A=A, G=G, epsilon=eps, delta=delta,
                                     config=hcfg))
    _emit(args, _reports_text([rep], args.format or "json"))
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
    if (args.format or "json") == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(rows[0].keys())
        for r in rows:
            w.writerow(["true" if v is True else "false" if v is False else v
                        for v in r.values()])
        _emit(args, buf.getvalue())
    else:
        _emit(args, json.dumps(rows, indent=2) + "\n")
    return 1 if any_fail else 0


def _family_instances(args, cfg, seed):
    family = args.family
    count = int(_pick(args, cfg, "count", 10))
    rng = random.Random(seed)
    out = []
    if family == "random-integer":
        lo = int(_pick(args, cfg, "lo", 1))
        hi = int(_pick(args, cfg, "hi", 50))
        smin = int(_pick(args, cfg, "size_min", 3))
        smax = int(_pick(args, cfg, "size_max", 5))
        for i in range(count):
            size = rng.randint(smin, smax)
            out.append((f"{family}-{i:03d}",
                        random_integer_set(rng, size, lo, hi)))
    elif family == "geometric":
        base = Fraction(str(_pick(args, cfg, "base", 2)))
        length = int(_pick(args, cfg, "length", 5))
        for i in range(count):
            out.append((f"{family}-{i:03d}", geometric_set(base, length + i)))
    elif family == "arithmetic":
        start = Fraction(str(_pick(args, cfg, "start", 1)))
        step = Fraction(str(_pick(args, cfg, "step", 1)))
        length = int(_pick(args, cfg, "length", 5))
        for i in range(count):
            out.append((f"{family}-{i:03d}",
                        arithmetic_set(start, step, length + i)))
    elif family == "subgroup":
        q = int(_pick(args, cfg, "q", 0)) or _usage("subgroup family needs --q")
        t = int(_pick(args, cfg, "t", 0)) or _usage("subgroup family needs --t")
        A, _ = subgroup_ggp(q, t)
        out.append((f"{family}-q{q}-t{t}", A))
    else:
        _usage(f"unknown family {family!r}")
    return out


def cmd_conjecture_scan(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(args, cfg)
    instances = _family_instances(args, cfg, seed)
    rows = conjecture_scan(
        instances,
        min_factor_size=int(_pick(args, cfg, "min_factor_size", 2)),
        coverage_target=Fraction(str(_pick(args, cfg, "coverage_target", 1))),
        search_budget=int(_pick(args, cfg, "budget", 200_000)),
        exhaustive_cutoff=int(_pick(args, cfg, "exhaustive_cutoff", 12)),
    )
    if (args.format or "csv") == "json":
        payload = [{
            "instance_id": r.instance_id, "a_size": r.a_size,
            "aa1_size": r.aa1_size, "b_size": r.b_size, "c_size": r.c_size,
            "hit_count": r.hit_count,
            "coverage_fraction": str(r.coverage_fraction),
            "exhaustive": r.exhaustive, "tension_flag": r.tension_flag,
        } for r in rows]
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, scan_csv(rows))
    return 0


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(args, cfg)
    instances = _family_instances(args, cfg, seed)
    if (args.format or "json") == "json":
        payload = []
        for iid, A in instances:
            entry_row = {"instance_id": iid, "seed": seed,
                         "set": format_scalar_set(A)}
            if args.family == "subgroup":
                q = int(_pick(args, cfg, "q", 0))
                t = int(_pick(args, cfg, "t", 0))
                _, G = subgroup_ggp(q, t)
                entry_row["ggp"] = format_ggp_spec(G)
            payload.append(entry_row)
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, "".join(format_scalar_set(A) + "\n" for _, A in instances))
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
    p.add_argument("--exhaustive-cutoff", dest="exhaustive_cutoff", type=int,
                   default=None)
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
    except (ParseError, PreconditionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
