"""Command-line front end: instance files, evaluation, and inspection.

The instance file is a self-describing JSON document that stores costs as
exact "num/den" strings (group membership must survive serialization
bit-exactly) and voter oracles as raw family parameters. Parsing then
serializing then parsing is the identity.

Exit codes: 0 success with all bounds satisfied, 1 usage error
(`UsageError`), 2 I/O error (`OSError`), 3 parse error, a malformed file or
an invalid instance (`core.ValidationError`), 4 exact-enumeration budget
exceeded (`core.ExceedsExactBudget`), 5 a reported bound was violated. The
SUBPB_SEED environment variable overrides the default seed of 0 of `gen`
and `eval` when --seed is not given.

`inspect` prints a file's voters, or its group table, each group's scores
under one ranking method (`--scores METHOD`) and an optimal set. Flags take
their choices and checks from the modules that own them: `gen` builds an
`experiment.GeneratorSpec`, `eval` calls `experiment.check_arguments`, each
before any file is read or written, and this module parses the spellings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from .core import (
    FAMILIES,
    ExceedsExactBudget,
    Instance,
    OracleSpec,
    RawInstance,
    ValidationError,
    curvature,
    validate_instance,
)
from .elicitation import Method, ranking_profile
from .experiment import (
    Dyadic,
    Fixed,
    GeneratorSpec,
    Mode,
    UniformRational,
    check_arguments,
    evaluate,
    generate_raw,
    render_csv,
)
from .optimize import optimal_welfare
from .partition import build_partition, harmonic_scores

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_BOUND = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Instance file format


def render_instance_file(raw: RawInstance, metadata: dict | None = None) -> str:
    document = {
        "schema_version": SCHEMA_VERSION,
        "m": len(raw.costs),
        "n": len(raw.voters),
        "costs": [_cost_text(c) for c in raw.costs],
        "voters": [
            {"family": spec.family, "params": dict(spec.params)} for spec in raw.voters
        ],
    }
    if metadata:
        document["metadata"] = metadata
    return json.dumps(document, indent=2) + "\n"


def _cost_text(cost: Fraction) -> str:
    """A cost as "num/den". Past Python's int-to-str digit limit
    (`sys.set_int_max_str_digits`) this raises ValueError."""
    return f"{cost.numerator}/{cost.denominator}"


def parse_instance_file(text: str) -> RawInstance:
    # Neither a number past the integer digit limit (a plain ValueError) nor
    # deep nesting (a RecursionError) raises a JSONDecodeError.
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ValidationError("top-level value must be an object")
    # A misspelt or unsupported key, such as "budget", would otherwise be
    # ignored without a word.
    unknown = sorted(document.keys() - {"schema_version", "m", "n", "costs", "voters",
                                        "metadata"})
    if unknown:
        raise ValidationError(f"unknown top-level keys {unknown}")
    # A JSON true or 1.0 would otherwise equal version 1.
    version = document.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}")
    # A string or an object would otherwise be iterated as costs or voters,
    # and a list of pairs taken as the params.
    if not isinstance(document.get("costs"), list) or not isinstance(
            document.get("voters"), list):
        raise ValidationError("'costs' and 'voters' must be arrays")
    for v in document["voters"]:
        if not isinstance(v, dict) or v.keys() != {"family", "params"} or not isinstance(
                v["params"], dict):
            raise ValidationError(
                f"a voter must be an object with exactly the keys 'family' and 'params', "
                f"and object params; got {v!r}")
    costs = []
    for c in document["costs"]:
        # Floats are refused because they are not the exact value the user wrote.
        if isinstance(c, bool) or not isinstance(c, (str, int)):
            raise ValidationError(f"cost {c!r} must be a \"num/den\" string or an integer")
        try:
            costs.append(Fraction(c))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed instance document: {exc}") from exc
    voters = tuple(OracleSpec(family=v["family"], params=dict(v["params"]))
                   for v in document["voters"])
    # A JSON true or 2.0 would otherwise equal a count of 1 or 2.
    m, n = document.get("m"), document.get("n")
    if type(m) is not int or m != len(costs):
        raise ValidationError("declared m disagrees with the cost list")
    if type(n) is not int or n != len(voters):
        raise ValidationError("declared n disagrees with the voter list")
    return RawInstance(costs=tuple(costs), voters=voters)


def load_instance(path: str) -> tuple[RawInstance, Instance]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"not UTF-8 text: {exc}") from exc
    raw = parse_instance_file(text)
    return raw, validate_instance(raw)


# ---------------------------------------------------------------------------
# Flag parsing helpers


def _parse_cost_model(value: str, m: int):
    """The cost model a `--cost-model` spelling names; `GeneratorSpec` checks
    that it can be drawn. Here every cost the file could hold must print
    within Python's int-to-str digit limit (none before 3.10.7), a dyadic
    denominator 2**exponent compared by bit length without building it."""
    name, _, arg = value.partition(":")
    try:
        if name == "uniform":
            return UniformRational(grid=int(arg) if arg else 4 * m)
        if name == "dyadic":
            exponent = int(arg) if arg else max(1, (m - 1).bit_length())
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and exponent >= (10**limit - 1).bit_length():
                raise ValueError(f"2**exponent has more than {limit} digits")
            return Dyadic(max_exponent=exponent)
        if name == "fixed" and arg:
            costs = tuple(Fraction(part) for part in arg.split(","))
            for c in costs:
                _cost_text(c)
            return Fixed(costs=costs)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --cost-model {value!r}: {exc}") from exc
    raise UsageError(f"unknown cost model {value!r}; see gen --help")


def _default_seed() -> int:
    env = os.environ.get("SUBPB_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise UsageError(f"SUBPB_SEED must be an integer, got {env!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="subpb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.set_defaults(run=cmd_gen)
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--cost-model", default="uniform",
                     help="uniform[:GRID] (default GRID 4m), dyadic[:EXP] or fixed:c1,...,cm")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate one elicitation method")
    ev.set_defaults(run=cmd_eval)
    ev.add_argument("--instance", required=True)
    ev.add_argument("--method", required=True,
                    choices=[m.value for m in Method])
    ev.add_argument("--mix", default="1/2",
                    help="weight in [0, 1] of the rule's branch against a uniform singleton")
    ev.add_argument("--mode", default=Mode.EXACT.value, choices=[m.value for m in Mode],
                    help="exact expected welfare, or a Monte Carlo mean and standard error")
    ev.add_argument("--samples", type=int, default=100_000,
                    help="Monte Carlo draws, from 2 to 2**31 - 1")
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--out", default=None)

    ins = sub.add_parser("inspect", help="dump instance structure")
    ins.set_defaults(run=cmd_inspect)
    ins.add_argument("--instance", required=True)
    ins.add_argument("--group-table", action="store_true")
    ins.add_argument("--scores", choices=[m.value for m in Method if m.is_ranking],
                     help="print each group's harmonic scores under this ranking method")
    ins.add_argument("--opt", action="store_true",
                     help="print an optimal set: among optima, the lexicographically "
                          "smallest id sequence that no further alternative fits into")
    return parser


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    cost_model = _parse_cost_model(args.cost_model, args.m)
    try:
        spec = GeneratorSpec(args.family, args.m, args.n, cost_model, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    raw = generate_raw(spec)
    instance = validate_instance(raw)
    metadata = {"generator": {"family": args.family, "m": args.m, "n": args.n,
                              "cost_model": args.cost_model, "seed": seed}}
    # Rendered before the file is opened, so that a failure leaves no file.
    text = render_instance_file(raw, metadata)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    _print_voters(instance, f"wrote {args.out}: ")
    return EXIT_OK


def _print_voters(instance: Instance, prefix: str = "") -> None:
    print(f"{prefix}m={instance.m} n={instance.n}")
    for i, (voter, table) in enumerate(zip(instance.voters, instance.singleton_table)):
        print(f"voter {i}: family={voter.family} curvature={curvature(table):.6f}")


def cmd_eval(args) -> int:
    # Every flag is checked before the file is read, so a usage error is
    # reported as one whatever the file holds.
    seed = args.seed if args.seed is not None else _default_seed()
    method = Method(args.method)
    mode = Mode(args.mode)
    try:
        mix = check_arguments((method,), args.mix, mode, args.samples)
        str(mix)  # the CSV spells the mix out in digits, within Python's limit
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from exc
    _, instance = load_instance(args.instance)
    report = evaluate(
        instance,
        method,
        mix=mix,
        mode=mode,
        seed=seed,
        samples=args.samples,
        instance_id=os.path.basename(args.instance),
    )
    text = render_csv([report])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.bound_satisfied else EXIT_BOUND


def cmd_inspect(args) -> int:
    _, instance = load_instance(args.instance)
    if not (args.group_table or args.scores or args.opt):
        _print_voters(instance)
        return EXIT_OK
    partition = build_partition(instance)
    if args.group_table:
        print("t l_t u_t members")
        for t in range(partition.T + 1):
            low, high = partition.bounds[t]
            members = ",".join(map(str, partition.groups[t])) or "-"
            print(f"{t} {low} {high} {members}")
    if args.scores:
        method = Method(args.scores)
        for t in range(partition.T + 1):
            print(f"group {t} scores ({method.value})")
            if not partition.groups[t]:
                print("(empty group)")
                continue
            scores = harmonic_scores(ranking_profile(instance, partition, method, t))
            for a in partition.groups[t]:
                print(f"{a} {scores[a]!r}")
    if args.opt:
        bundle = optimal_welfare(instance)
        items = ",".join(map(str, sorted(bundle.items))) or "-"
        print(f"optimal set: {items}")
        print(f"optimal welfare: {bundle.welfare!r}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ExceedsExactBudget as exc:
        print(f"exact budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:  # console-script shim
    sys.exit(main())
