"""Command line front end.

Subcommands: verify-main, verify-ff, prop-gp, conjecture-scan, gen.
Exit codes: 0 clean, 1 a guaranteed property measured false (finding),
2 usage or precondition error.  FLAGS declares every flag once and MODES
lists the flags that each mode of each command reads; the subparsers are
built from the two.  Before any config is read or input built,
_check_flags picks the mode and refuses, with exit 2, any flag given
outside its row.  _load_config then reads each other setting of the row
once: its flag, else its --config key, through the one converter of the
flag's FLAGS entry; a config key outside the row is ignored.  All
randomness flows through one seed (--seed, else the config's seed key,
else 0), and repeated runs with the same inputs are byte identical.
Every JSON or CSV output goes through _write, the only serializer of
report rows; gen's plain-text set listing is the one other output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import random
import sys
from fractions import Fraction

from .explorer import conjecture_scan
from .ffharness import coverage_check, subgroup_ggp
from .harness import HarnessConfig, PipelineInput, PreconditionError, run_pipeline
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
from .setalg import (
    PointSet2,
    ScalarSet,
    _check_pair_budget,
    format_scalar_set,
    parse_scalar_set,
    productset,
)

__all__ = ["entry", "main"]

_INT = {"type": int}
_SWITCH = {"action": "store_const", "const": True}
_RATIONAL = {"rational": True}

# Every flag once, in parser order, with the keywords of its add_argument;
# "rational" marks the flags read through _fraction, and build_parser drops it.
FLAGS = {
    "spec": {"nargs": "+", "help": "'gap r0;gens;lens' or 'ggp g0; gap ...'"},
    "--family": {"choices": ["random-integer", "geometric", "arithmetic", "subgroup"],
                 "required": True},
    "--q": _INT,
    "--t": _INT,
    "--A": {"help": "set literal, e.g. '{1, 2, 4}'"},
    "--G": {"help": "progression text, e.g. 'ggp 2; gap 0;1;13'; without it, "
                    "verify-main takes powers of two matched to |AA|"},
    "--random-A": {**_INT, "help": "draw a random integer set of this size"},
    "--subgroup-t": {**_INT, "help": "use the order-t subgroup of F_q* as A"},
    "--full-plane": {**_SWITCH, "help": "coverage check with E = F = all "
                                        "nonzero points of F_q^2"},
    "--count": _INT, "--lo": _INT, "--hi": _INT, "--size-min": _INT, "--size-max": _INT,
    "--base": _RATIONAL, "--length": _INT, "--start": _RATIONAL, "--step": _RATIONAL,
    "--seed": _INT,
    "--epsilon": _RATIONAL,
    "--delta": {**_RATIONAL, "help": "rational in (0,1), e.g. 1/2"},
    "--size-match-factor": _RATIONAL,
    "--degeneracy-threshold": _RATIONAL,
    "--on-size-mismatch": {"choices": ["reject", "warn"]},
    "--skew-e": {**_SWITCH, "help": "scale only the first coordinate of E"},
    "--min-factor-size": _INT,
    "--coverage-target": _RATIONAL,
    "--budget": _INT,
    "--config": {"help": "JSON file with defaults"},
    "--out": {"help": "write output here instead of stdout"},
    "--format": {"choices": ["json", "csv"]},
}

_IO = ("--config", "--out", "--format")
_POLICY = ("--size-match-factor", "--degeneracy-threshold", "--on-size-mismatch",
           "--skew-e")
_FF = ("--q", "--epsilon", "--delta")
_SCAN = ("--min-factor-size", "--coverage-target", "--budget", *_IO)
_RANDOM = ("--count", "--lo", "--hi", "--size-min", "--size-max", "--seed")

# The flags that each mode of each command reads.  A family command runs
# the mode that --family names, any other the first mode whose selector
# (its key) is given.  A flag given outside the mode's row exits 2, and a
# config key outside it is ignored.
MODES = {
    "verify-main": {
        "--A": ("--A", "--G", "--delta", *_POLICY, *_IO),
        "--random-A": ("--random-A", "--G", "--count", "--lo", "--hi", "--seed",
                       "--delta", *_POLICY, *_IO),
    },
    "verify-ff": {
        "--full-plane": ("--q", "--full-plane", *_IO),
        # a subgroup progression starts at g1 = 1, where --skew-e changes nothing
        "--subgroup-t": ("--subgroup-t", *_FF, *_IO),
        "--A": ("--A", "--G", *_FF, "--skew-e", *_IO),
    },
    "prop-gp": {"spec": ("spec", "--out", "--format")},
    "conjecture-scan": {
        "random-integer": ("--family", *_RANDOM, *_SCAN),
        "geometric": ("--family", "--count", "--base", "--length", *_SCAN),
        "arithmetic": ("--family", "--count", "--start", "--step", "--length", *_SCAN),
        "subgroup": ("--family", "--q", "--t", *_SCAN),
    },
    # gen echoes the seed in every JSON row, so every family reads it
    "gen": {
        "random-integer": ("--family", *_RANDOM, *_IO),
        "geometric": ("--family", "--count", "--base", "--length", "--seed", *_IO),
        "arithmetic": ("--family", "--count", "--start", "--step", "--length",
                       "--seed", *_IO),
        "subgroup": ("--family", "--q", "--t", "--seed", *_IO),
    },
}


def _dest(flag):
    return flag.lstrip("-").replace("-", "_")


def _check_flags(args):
    """Pick the command's mode and refuse every flag given outside its row,
    before any config is read or input built; keep the row's settings."""
    modes = MODES[args.command]
    given = [f for f in FLAGS if getattr(args, _dest(f), None) is not None]
    if "--family" in given:
        mode, selector = args.family, f"--family {args.family}"
    else:
        mode = selector = next((s for s in modes if s in given), None)
        if selector is None:
            _usage(f"{args.command} needs {' or '.join(modes)}")
    extra = [f for f in given if f not in modes[mode]]
    if extra:
        _usage(f"{selector} cannot be combined with {', '.join(extra)}")
    args.settings = [f for f in modes[mode] if f not in (mode, "--family", "--config")]


def _load_config(args):
    """Read each setting of the mode once: its flag, else its --config key
    (a JSON null counts as given), through its flag's converter."""
    cfg = {}
    if getattr(args, "config", None) is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as e:
            raise PreconditionError(f"cannot read config: {e}")
        except json.JSONDecodeError as e:
            raise PreconditionError(f"malformed config JSON: {e}")
        if not isinstance(cfg, dict):
            raise PreconditionError("config must be a JSON object")
    for flag in args.settings:
        name = _dest(flag)
        v = getattr(args, name)
        if v is not None or name in cfg:
            setattr(args, name, _convert(FLAGS[flag], cfg[name] if v is None else v))


def _convert(kwargs, v):
    """The one converter of a flag, chosen from its FLAGS entry: an int, a
    switch's bool, a rational, or text among the flag's choices."""
    if kwargs.get("type") is int:
        return _int(v)
    if "const" in kwargs:
        return _bool(v)
    if "rational" in kwargs:
        return _fraction(v)
    choices = kwargs.get("choices")
    if type(v) is not str or choices and v not in choices:
        raise ParseError(f"expected {' or '.join(choices or ['text'])}, got {v!r}")
    return v


def _pick(args, name, default):
    v = getattr(args, name, None)
    return default if v is None else v


def _need(args, name, msg):
    """A setting the command cannot run without; only its absence is a
    usage error, so 0 meets the range checks."""
    if getattr(args, name, None) is None:
        _usage(msg)
    return getattr(args, name)


def _count(args, default):
    count = _pick(args, "count", default)
    if count < 0:
        raise PreconditionError(f"count must not be negative, got {count}")
    return count


def _given(args, *names):
    """Keyword arguments for the settings that were given; the library
    type keeps every other default."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


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
    the JSON keys and the CSV header.  A dataclass row leaves out its None
    fields, which only a rational Report has: q and the six field
    readouts.  No other row holds a None (ScanRow, CoverageReport, and
    the dict rows of prop-gp and gen).  JSON writes one row as an object
    and a list as an array, with Fractions as "p/q" text.
    """
    dicts = [r if isinstance(r, dict) else
             {k: v for k, v in dataclasses.asdict(r).items() if v is not None}
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


def _int_range(args, size):
    """The integers from --lo to --hi, refused if fewer than size."""
    lo, hi = _pick(args, "lo", 1), _pick(args, "hi", 50)
    if hi - lo + 1 < size:
        raise PreconditionError(f"range [{lo}, {hi}] is too small for {size} elements")
    return range(lo, hi + 1)


def _refuse_skew_at_one(skew_e, G):
    """--skew-e scales one coordinate of E by g1 = g0**r0, so it changes no
    byte when g1 = 1: r0 = 0 over Q, r0 = 0 mod ord(g0) over F_q.  No G is
    the automatic progression, which starts at 2**0."""
    if skew_e:
        r0, n = (0, None) if G is None else (G.exponents.r0, G.order)
        if (r0 % n if n else r0) == 0:
            _usage("--skew-e has no effect when g1 = 1")


def cmd_verify_main(args) -> int:
    hcfg = HarnessConfig(**_given(args, "size_match_factor", "degeneracy_threshold",
                                  "on_size_mismatch"))
    delta = _need(args, "delta", "verify-main needs --delta")
    if args.A is not None:
        sets = [parse_scalar_set(args.A)]
    else:
        size = args.random_A
        if size < 0:
            raise PreconditionError(f"random_A must not be negative, got {size}")
        if size < 2:
            raise PreconditionError("need |A| >= 2")
        count = _count(args, 1)
        values = _int_range(args, size)
        rng = random.Random(_pick(args, "seed", 0))
        sets = [ScalarSet(rng.sample(values, size)) for _ in range(count)]
    G = parse_ggp_spec(args.G) if args.G is not None else None
    _refuse_skew_at_one(args.skew_e, G)

    runs = [(A, G or auto_progression(A)) for A in sets]
    reports = [run_pipeline(PipelineInput(A=A, G=AG, delta=delta, config=hcfg,
                                          **_given(args, "skew_e"))) for A, AG in runs]
    _write(args, reports[0] if len(reports) == 1 else reports)
    findings = [(A, AG, rep) for (A, AG), rep in zip(runs, reports) if rep.finding()]
    for A, AG, rep in findings:
        kind = "empty exceptional set" if rep.c_size == 0 else "structural check failed"
        print(f"finding: {kind} for A={format_scalar_set(A)} "
              f"G={format_ggp_spec(AG)}", file=sys.stderr)
    return 1 if findings else 0


def _usage(msg):
    raise PreconditionError(msg)


def _full_plane(F: PrimeField) -> PointSet2:
    return PointSet2.from_lattice([(x, y) for x in range(F.q) for y in range(F.q)
                                   if (x, y) != (0, 0)], F.q, F.q)


def cmd_verify_ff(args) -> int:
    q = _need(args, "q", "verify-ff needs --q")
    if args.full_plane:
        F = PrimeField(q)
        # refuse before building the q**2 - 1 points
        _check_pair_budget(q * q - 1, q * q - 1, "coverage scan")
        E = _full_plane(F)
        rep = coverage_check(E, E, q)
        _write(args, rep)
        return 1 if rep.finding() else 0

    eps = _need(args, "epsilon", "verify-ff needs --epsilon")
    delta = _need(args, "delta", "verify-ff needs --delta")
    if args.subgroup_t is not None:
        A, G = subgroup_ggp(q, args.subgroup_t)
    elif args.G is not None:
        field = PrimeField(q)
        A = parse_scalar_set(args.A, field)
        G = parse_ggp_spec(args.G, field)
        _refuse_skew_at_one(args.skew_e, G)
    else:
        _usage("verify-ff needs --subgroup-t or both --A and --G")

    rep = run_pipeline(PipelineInput(q=q, A=A, G=G, epsilon=eps, delta=delta,
                                     **_given(args, "skew_e")))
    _write(args, rep)
    if rep.finding():
        print(f"finding: q={q} A={format_scalar_set(A)} "
              f"G={format_ggp_spec(G)}", file=sys.stderr)
        return 1
    return 0


def cmd_prop_gp(args) -> int:
    rows = []
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
    _write(args, rows)
    return 0 if all(r["pass"] for r in rows) else 1


def _family_instances(args):
    """Lazy (instance_id, A, G) triples; G is the progression of a subgroup
    instance and None for the other families.  Every setting is checked
    before the first set is built, so no refusal depends on the count."""
    family = args.family
    if family == "subgroup":
        q = _need(args, "q", "subgroup family needs --q")
        t = _need(args, "t", "subgroup family needs --t")
        return [(f"{family}-q{q}-t{t}", *subgroup_ggp(q, t))]
    count = _count(args, 10)
    if family == "random-integer":
        smin, smax = _pick(args, "size_min", 3), _pick(args, "size_max", 5)
        if smin < 1:
            raise PreconditionError(f"size_min must be positive, got {smin}")
        if smin > smax:
            raise PreconditionError(f"size_min = {smin} is above size_max = {smax}")
        # refused on size_max, whatever sizes the seed would draw
        values = _int_range(args, smax)
        rng = random.Random(_pick(args, "seed", 0))
        sets = (ScalarSet(rng.sample(values, rng.randint(smin, smax)))
                for _ in range(count))
    else:
        length = _pick(args, "length", 5)
        if length < 1:
            raise PreconditionError("length must be positive")
        if family == "geometric":
            base = _pick(args, "base", 2)
            if base <= 0 or base == 1:
                raise PreconditionError("base must be positive and != 1")
            sets = (ScalarSet(base ** k for k in range(length + i))
                    for i in range(count))
        else:
            start, step = _pick(args, "start", 1), _pick(args, "step", 1)
            if step == 0:
                raise PreconditionError("step must be nonzero")
            sets = (ScalarSet(start + k * step for k in range(length + i))
                    for i in range(count))
    return ((f"{family}-{i:03d}", A, None) for i, A in enumerate(sets))


def cmd_conjecture_scan(args) -> int:
    instances = _family_instances(args)
    knobs = _given(args, "min_factor_size", "coverage_target", "budget")
    if "budget" in knobs:
        knobs["search_budget"] = knobs.pop("budget")
    rows = conjecture_scan(((iid, A) for iid, A, _ in instances), **knobs)
    _write(args, rows, "csv")
    return 0


def cmd_gen(args) -> int:
    seed = _pick(args, "seed", 0)
    instances = _family_instances(args)
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


_COMMANDS = {
    "verify-main": ("run the rational pipeline", cmd_verify_main),
    "verify-ff": ("run the prime-field pipeline", cmd_verify_ff),
    "prop-gp": ("self-growth check for progression specs", cmd_prop_gp),
    "conjecture-scan": ("two-factor cover search over a family", cmd_conjecture_scan),
    "gen": ("emit example inputs for the other commands", cmd_gen),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shiftprod",
        description="exact workbench for shifted product sets against "
                    "generalized geometric progressions")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, func) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        reads = {f for row in MODES[command].values() for f in row}
        for flag, kwargs in FLAGS.items():
            if flag in reads:
                p.add_argument(flag, **{k: v for k, v in kwargs.items()
                                        if k != "rational"})
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        _check_flags(args)
        _load_config(args)
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
