"""Command-line front end: instance files, evaluation, and inspection.

The instance file is a self-describing JSON document that stores costs as
exact "num/den" strings (group membership must survive serialization
bit-exactly) and voter oracles as raw family parameters. Parsing then
serializing then parsing is the identity.

Exit codes: 0 success with all bounds satisfied, 1 usage error, 2 I/O
error, 3 parse error, 4 exact-enumeration budget exceeded, 5 a reported
bound was violated. The SUBPB_SEED environment variable overrides the
default seed of 0 when --seed is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import rng as rng_mod
from .core import (
    Instance,
    OracleSpec,
    RawInstance,
    ValidationError,
    compute_curvature,
    validate_instance,
)
from .elicitation import Method
from .experiment import (
    Dyadic,
    EvaluationReport,
    ExactSupportTooLarge,
    Fixed,
    GeneratorSpec,
    Mode,
    UniformRational,
    evaluate,
    generate_raw,
    render_csv,
)
from .optimize import ExactDP, ExceedsExactBudget, Fptas, optimal_welfare
from .partition import build_partition, harmonic_scores
from .elicitation import ranking_profile

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_BOUND = 5


class UsageError(Exception):
    pass


class InstanceFileError(Exception):
    """The file is readable but not a valid instance document."""


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
        "costs": [f"{c.numerator}/{c.denominator}" for c in raw.costs],
        "voters": [
            {"family": spec.family, "params": dict(spec.params)} for spec in raw.voters
        ],
    }
    if metadata:
        document["metadata"] = metadata
    return json.dumps(document, indent=2) + "\n"


def parse_instance_file(text: str) -> RawInstance:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise InstanceFileError("top-level value must be an object")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise InstanceFileError(
            f"unsupported schema_version {document.get('schema_version')!r}"
        )
    try:
        costs = tuple(_exact_cost(c) for c in document["costs"])
        voters = tuple(
            OracleSpec(family=v["family"], params=dict(v["params"]))
            for v in document["voters"]
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InstanceFileError(f"malformed instance document: {exc}") from exc
    if document.get("m") != len(costs):
        raise InstanceFileError("declared m disagrees with the cost list")
    if document.get("n") != len(voters):
        raise InstanceFileError("declared n disagrees with the voter list")
    return RawInstance(costs=costs, voters=voters)


def _exact_cost(value) -> Fraction:
    """A cost from the file; floats are refused because they are not the
    exact value the user wrote."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InstanceFileError(f"cost {value!r} must be a \"num/den\" string or an integer")
    return Fraction(value)


def load_instance(path: str) -> tuple[RawInstance, Instance]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    raw = parse_instance_file(text)
    try:
        instance = validate_instance(raw)
    except ValidationError as exc:
        raise InstanceFileError(str(exc)) from exc
    return raw, instance


# ---------------------------------------------------------------------------
# Flag parsing helpers


def _parse_cost_model(value: str, m: int):
    name, _, arg = value.partition(":")
    try:
        if name == "uniform":
            grid = int(arg) if arg else 4 * m
            if grid < 1:
                raise ValueError("grid must be positive")
            return UniformRational(grid=grid)
        if name == "dyadic":
            exponent = int(arg) if arg else max(1, (m - 1).bit_length())
            if exponent < 0:
                raise ValueError("exponent must be nonnegative")
            return Dyadic(max_exponent=exponent)
        if name == "fixed":
            if not arg:
                raise UsageError("fixed cost model needs costs, e.g. fixed:1/4,1/2")
            costs = tuple(Fraction(part) for part in arg.split(","))
            if len(costs) != m:
                raise ValueError(f"expected {m} costs, got {len(costs)}")
            return Fixed(costs=costs)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --cost-model {value!r}: {exc}") from exc
    raise UsageError(f"unknown cost model {value!r}")


def _parse_solver(value: str):
    name, _, arg = value.partition(":")
    if name == "dp":
        return ExactDP()
    if name == "fptas":
        if not arg:
            raise UsageError("fptas solver needs an epsilon, e.g. fptas:0.1")
        try:
            return Fptas(eps=float(arg))
        except ValueError as exc:
            raise UsageError(f"bad --solver {value!r}: {exc}") from exc
    raise UsageError(f"unknown solver {value!r}")


def _parse_method(value: str) -> Method:
    for method in Method:
        if method.value == value:
            return method
    raise UsageError(f"unknown method {value!r}")


def _default_seed() -> int:
    env = os.environ.get("SUBPB_SEED")
    return int(env) if env else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="subpb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", required=True,
                     choices=["additive", "coverage", "concave", "max-value"])
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--cost-model", default="uniform")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate one elicitation method")
    ev.add_argument("--instance", required=True)
    ev.add_argument("--method", required=True,
                    choices=[m.value for m in Method])
    ev.add_argument("--mix", default="1/2")
    ev.add_argument("--mode", default="exact", choices=["exact", "mc"])
    ev.add_argument("--samples", type=int, default=100_000)
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--solver", default="dp")
    ev.add_argument("--out", default=None)

    ins = sub.add_parser("inspect", help="dump instance structure")
    ins.add_argument("--instance", required=True)
    ins.add_argument("--group-table", action="store_true")
    ins.add_argument("--scores", action="store_true")
    ins.add_argument("--method", default=None, choices=[m.value for m in Method])
    ins.add_argument("--opt", action="store_true",
                     help="print an optimal set: among optima, the lexicographically "
                          "smallest id sequence that no further alternative fits into")
    ins.add_argument("--seed", type=int, default=None)
    return parser


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.m < 1 or args.n < 1:
        raise UsageError("--m and --n must be positive")
    cost_model = _parse_cost_model(args.cost_model, args.m)
    spec = GeneratorSpec(
        family=args.family, m=args.m, n=args.n, cost_model=cost_model, seed=seed
    )
    raw = generate_raw(spec)
    instance = validate_instance(raw)
    metadata = {"generator": {"family": args.family, "m": args.m, "n": args.n,
                              "cost_model": args.cost_model, "seed": seed}}
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_instance_file(raw, metadata))
    print(f"wrote {args.out}: m={instance.m} n={instance.n}")
    for i, voter in enumerate(instance.voters):
        print(f"voter {i}: family={voter.family} curvature={compute_curvature(voter):.6f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    _, instance = load_instance(args.instance)
    method = _parse_method(args.method)
    try:
        mix = Fraction(args.mix)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --mix value {args.mix!r}") from exc
    if not 0 <= mix <= 1:
        raise UsageError("--mix must lie in [0, 1]")
    solver = _parse_solver(args.solver)
    mode = Mode.EXACT if args.mode == "exact" else Mode.MONTE_CARLO
    if mode is Mode.MONTE_CARLO and args.samples < 2:
        raise UsageError("--samples must be at least 2 for a standard error")
    report = evaluate(
        instance,
        method,
        mix=mix,
        mode=mode,
        seed=seed,
        samples=args.samples,
        solver=solver,
        instance_id=os.path.basename(args.instance),
    )
    text = render_csv([report])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return exit_code_for([report])


def exit_code_for(reports: Sequence[EvaluationReport]) -> int:
    """0 when every report satisfies its bound, else the bound-failure code."""
    return EXIT_OK if all(r.bound_satisfied for r in reports) else EXIT_BOUND


def cmd_inspect(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    _, instance = load_instance(args.instance)
    partition = build_partition(instance)
    shown = False
    if args.group_table:
        shown = True
        print("t l_t u_t members")
        for t in range(partition.T + 1):
            low, high = partition.bounds[t]
            members = ",".join(map(str, partition.groups[t])) or "-"
            print(f"{t} {low} {high} {members}")
    if args.scores:
        shown = True
        if args.method is None:
            raise UsageError("--scores needs --method")
        method = _parse_method(args.method)
        if not method.is_ranking:
            raise UsageError("--scores applies to ranking methods only")
        rng = rng_mod.stream(seed, "inspect", method.value)
        t = rng.randrange(partition.T + 1)
        profile = ranking_profile(instance, partition, method, t)
        print(f"group {t} scores ({method.value})")
        if profile.group:
            table = harmonic_scores(profile)
            for a in profile.group:
                print(f"{a} {table.scores[a]!r}")
        else:
            print("(empty group)")
    if args.opt:
        shown = True
        bundle = optimal_welfare(instance)
        items = ",".join(map(str, sorted(bundle.items))) or "-"
        print(f"optimal set: {items}")
        print(f"optimal welfare: {bundle.welfare!r}")
    if not shown:
        print(f"m={instance.m} n={instance.n}")
        for i, voter in enumerate(instance.voters):
            print(f"voter {i}: family={voter.family} "
                  f"curvature={compute_curvature(voter):.6f}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_inspect(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InstanceFileError, ValidationError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ExceedsExactBudget, ExactSupportTooLarge) as exc:
        print(f"exact budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:  # console-script shim
    sys.exit(main())
