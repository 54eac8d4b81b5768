"""The benchmark's workloads and the checks on their outputs.

Each workload builds its inputs from the run seed (`setup`), makes one
end-to-end call into `subpb` (`call`), and reads that call's outputs back
as `Cell`s, one per (instance, method) pair (`cells`). A `Checker`
compares cells with the reference recorded for the seed, when there is
one, and with invariants that hold at any seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from subpb import cli, core, experiment, optimize
from subpb.elicitation import Method

#: Relative tolerance for comparing a cell with its reference or recomputation.
REL_TOL = 1e-9
ABS_TOL = 1e-12
#: The reported numbers a cell is checked on.
_VALUES = ("expected_welfare", "optimal_welfare", "curvature", "bound_value")
#: A Monte Carlo mean must lie this many standard errors from the exact value.
MC_SIGMAS = 4.0
#: Samples per Monte Carlo cell, pinned so that a change to the default of
#: `experiment.sweep` does not change the workload.
MC_SAMPLES = 100_000

#: Coverage voters get private elements so their curvature is below 1 and
#: the bound is not vacuous.
FAMILIES = (
    ("additive", ()),
    ("coverage", (("private_elements", True),)),
    ("concave", ()),
    ("max-value", ()),
)


@dataclass(frozen=True)
class Cell:
    """The reported numbers of one evaluated (instance, method) pair."""

    instance_id: str
    method: str
    expected_welfare: float
    optimal_welfare: float
    curvature: float
    bound_value: float
    stderr: float | None = None
    exit_code: int | None = None

    @property
    def key(self) -> str:
        return f"{self.instance_id}/{self.method}"


@dataclass
class Inputs:
    """What `setup` hands to `call`, plus the instances the checks need."""

    args: object
    instances: dict[str, core.Instance]


def _report_cell(report) -> Cell:
    return Cell(
        instance_id=report.instance_id,
        method=report.method.value,
        expected_welfare=report.expected_welfare,
        optimal_welfare=report.optimal_welfare,
        curvature=report.curvature,
        bound_value=report.bound_value,
        stderr=report.stderr,
    )


class ExactShortlist:
    """One `subpb eval` in exact mode on a coverage instance file whose every
    cost is 3/(2m): all alternatives fall in group 1 and are shortlisted, so
    the support holds C(m, m/2) sets and the optimum enumerates every set of
    at most 2m/3 alternatives."""

    name = "exact-shortlist"
    m, n = 16, 20
    exact_reference = True

    def setup(self, seed: int, workdir: Path) -> Inputs:
        cost = Fraction(3, 2 * self.m)
        spec = experiment.GeneratorSpec(
            "coverage", self.m, self.n, experiment.Fixed((cost,) * self.m), seed=seed
        )
        raw = experiment.generate_raw(spec)
        path = workdir / f"{spec.instance_id}.json"
        path.write_text(cli.render_instance_file(raw), encoding="utf-8")
        _, instance = cli.load_instance(str(path))
        return Inputs(args=(path, workdir / "eval.csv"), instances={path.name: instance})

    def call(self, inputs: Inputs):
        path, out = inputs.args
        argv = ["eval", "--instance", str(path), "--method", "marginal-rank",
                "--mode", "exact", "--out", str(out)]
        return cli.main(argv)

    def cells(self, inputs: Inputs, code) -> tuple[list[Cell], int]:
        """Cells read from the CLI's CSV output, and the number of failed cells."""
        _, out = inputs.args
        if code not in (cli.EXIT_OK, cli.EXIT_BOUND):
            return [], 1
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != 1 or (code == cli.EXIT_OK) != (rows[0]["bound_satisfied"] == "true"):
            return [], 1
        row = rows[0]
        cell = Cell(
            instance_id=row["instance_id"],
            method=row["method"],
            expected_welfare=float(row["expected_welfare"]),
            optimal_welfare=float(row["optimal_welfare"]),
            curvature=float(row["curvature"]),
            bound_value=float(row["bound_value"]),
            exit_code=code,
        )
        return [cell], 0

    def expected_cells(self, inputs: Inputs) -> int:
        return 1


class Sweep:
    """`experiment.sweep` over every family, several seeds and all methods."""

    def __init__(self, name, m, n, seeds_per_family, mode):
        self.name, self.m, self.n = name, m, n
        self.seeds_per_family, self.mode = seeds_per_family, mode
        self.exact_reference = mode is experiment.Mode.EXACT

    def setup(self, seed: int, workdir: Path) -> Inputs:
        base = seed * self.seeds_per_family
        specs = [
            experiment.GeneratorSpec(family, self.m, self.n, seed=base + i, family_params=params)
            for family, params in FAMILIES
            for i in range(self.seeds_per_family)
        ]
        instances = {spec.instance_id: experiment.generate(spec) for spec in specs}
        return Inputs(args=specs, instances=instances)

    def call(self, inputs: Inputs):
        return experiment.sweep(inputs.args, list(Method), mode=self.mode, samples=MC_SAMPLES)

    def cells(self, inputs: Inputs, results) -> tuple[list[Cell], int]:
        cells = [_report_cell(r) for r in results if not isinstance(r, experiment.SweepFailure)]
        return cells, self.expected_cells(inputs) - len(cells)

    def expected_cells(self, inputs: Inputs) -> int:
        return len(inputs.args) * len(Method)


WORKLOADS = {
    w.name: w
    for w in (
        ExactShortlist(),
        Sweep("sweep-exact", m=16, n=100, seeds_per_family=3, mode=experiment.Mode.EXACT),
        Sweep("sweep-mc", m=12, n=200, seeds_per_family=1, mode=experiment.Mode.MONTE_CARLO),
    )
}


def exact_cells(inputs: Inputs) -> dict[str, Cell]:
    """Exact-mode evaluation of every (instance, method) pair of the inputs."""
    cells = {}
    for instance_id, instance in inputs.instances.items():
        for method in Method:
            report = experiment.evaluate(instance, method, instance_id=instance_id)
            cell = _report_cell(report)
            cells[cell.key] = cell
    return cells


def reference_fields(cell: Cell) -> dict:
    """What a reference stores of a cell: the checked numbers and exit code."""
    fields = {f: getattr(cell, f) for f in _VALUES}
    if cell.exit_code is not None:
        fields["exit_code"] = cell.exit_code
    return fields


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _differences(cell: Cell, truth: dict, fields) -> list[str]:
    out = [f"{f} {getattr(cell, f)!r} != {truth.get(f)!r}"
           for f in fields if f in truth and not _close(getattr(cell, f), truth[f])]
    if truth.get("exit_code") is not None and cell.exit_code != truth["exit_code"]:
        out.append(f"exit code {cell.exit_code} != {truth['exit_code']}")
    return out


class Checker:
    """Checks cells; expensive recomputations run once per instance and are
    kept, so every repeat's cells can be checked outside the timed region."""

    def __init__(self, workload, inputs: Inputs, reference: dict | None):
        self.workload, self.inputs, self.reference = workload, inputs, reference
        self._optima: dict[str, tuple[float, list[str]]] = {}
        self._exact: dict[str, Cell] | None = None

    def problems(self, cell: Cell) -> list[str]:
        instance = self.inputs.instances.get(cell.instance_id)
        if instance is None:
            return [f"{cell.key}: unknown instance"]
        optimum, out = self._optimum(cell.instance_id, instance)
        out = list(out)
        if not _close(cell.optimal_welfare, optimum):
            out.append(f"optimal_welfare {cell.optimal_welfare!r} != optimum {optimum!r}")
        if cell.expected_welfare > cell.optimal_welfare * (1 + REL_TOL) + ABS_TOL:
            out.append("expected welfare exceeds the optimum")
        truth = cell
        if not self.workload.exact_reference:
            truth = self._exact_cell(cell.key)
            out += _differences(cell, asdict(truth), _VALUES[1:])
            slack = MC_SIGMAS * (cell.stderr or 0.0) + ABS_TOL + REL_TOL * abs(truth.expected_welfare)
            if abs(cell.expected_welfare - truth.expected_welfare) > slack:
                out.append(f"MC mean {cell.expected_welfare!r} is more than {MC_SIGMAS:g} "
                           f"stderr from the exact {truth.expected_welfare!r}")
        if self.reference is not None:
            recorded = self.reference.get(cell.key)
            if recorded is None:
                out.append("cell missing from the reference")
            else:
                out += _differences(truth, recorded, _VALUES)
        return [f"{cell.key}: {p}" for p in out]

    def _optimum(self, instance_id: str, instance: core.Instance) -> tuple[float, list[str]]:
        """The optimum's welfare, and problems with it: its set must be
        feasible in exact arithmetic, and its welfare recomputed voter by
        voter must match."""
        if instance_id not in self._optima:
            bundle = optimize.optimal_welfare(instance)
            problems = []
            if sum((instance.costs[a] for a in bundle.items), Fraction(0)) > instance.budget:
                problems.append(f"optimum {sorted(bundle.items)} is over budget")
            if not _close(core.social_welfare(instance, bundle.items), bundle.welfare):
                problems.append("optimum welfare disagrees with social_welfare")
            self._optima[instance_id] = (bundle.welfare, problems)
        return self._optima[instance_id]

    def _exact_cell(self, key: str) -> Cell:
        if self._exact is None:
            self._exact = exact_cells(self.inputs)
        return self._exact[key]
